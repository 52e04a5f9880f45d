"""The benchmark's workloads: inputs, cold set-up, one solve, and checks.

Every workload pins ``schedule="dynamic"`` and explicit tile widths, so
the tuner's on-disk cache never decides anything and carries no state
from one run to the next.  The seed changes only the LCS input strings;
the bandit instances are fixed by their size.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.generator import generate
from repro.problems import (
    lcs_spec,
    random_sequence,
    two_arm_reference,
    two_arm_spec,
)
from repro.runtime import (
    SolutionRecovery,
    compiled_executor,
    execute,
    solve_reference,
    tile_graph,
)

#: DESIGN.md's tolerance against the independent floating-point solvers.
FLOAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # "lcs" or "bandit2"
    ranks: int
    recover: bool
    #: size name -> (instance extent, tile width); the extent is the LCS
    #: string length or the bandit horizon N.
    sizes: Dict[str, Tuple[int, int]]

    @property
    def engine_attr(self) -> str:
        # keep_edges (recovery) forces the per-tile vector engine.
        return "vector_engine" if self.recover else "wavefront_engine"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lcs2-dense", "lcs", 1, False, {"full": (2048, 32), "tiny": (96, 16)}),
        Workload("bandit2-ragged", "bandit2", 1, False, {"full": (60, 8), "tiny": (12, 4)}),
        Workload("bandit2-recover", "bandit2", 1, True, {"full": (40, 10), "tiny": (8, 3)}),
        Workload("lcs2-2rank", "lcs", 2, False, {"full": (2048, 32), "tiny": (96, 16)}),
    )
}


def lcs_strings(length: int, seed: int) -> Tuple[str, str]:
    return random_sequence(length, 2 * seed), random_sequence(length, 2 * seed + 1)


# -- set-up --------------------------------------------------------------------


@dataclass
class Setup:
    workload: Workload
    extent: int
    program: object
    params: Dict[str, int]
    graph: object
    strings: Optional[Tuple[str, str]]
    #: Seconds per set-up step, plus the generator's own phase timers.
    times: Dict[str, float]


def cold_setup(wl: Workload, seed: int, size: str) -> Setup:
    """Spec build, ``generate``, engine compile and tile-graph build.

    Input strings are made before the clock starts: they are the
    benchmark's inputs, not the program's set-up.  The graph comes from
    the per-program cache (``tile_graph`` calls ``TileGraph.build`` once),
    so the solves reuse it exactly as ``execute`` would.
    """
    extent, width = wl.sizes[size]
    strings = lcs_strings(extent, seed) if wl.problem == "lcs" else None
    t0 = time.perf_counter()
    if strings is not None:
        spec = lcs_spec(list(strings), tile_width=width)
        params = {"L1": extent, "L2": extent}
    else:
        spec = two_arm_spec(tile_width=width)
        params = {"N": extent}
    t1 = time.perf_counter()
    program = generate(spec)
    t2 = time.perf_counter()
    ce = compiled_executor(program)
    if getattr(ce, wl.engine_attr) is None:
        raise RuntimeError(
            f"{wl.name}: {wl.engine_attr} unavailable: {ce.vector_reason}"
        )
    t3 = time.perf_counter()
    graph = tile_graph(program, params)
    t4 = time.perf_counter()
    times = {
        "spec.build_s": t1 - t0,
        "generator.generate_s": t2 - t1,
        "generator.spaces_s": program.stats.spaces_s,
        "generator.packing_s": program.stats.packing_s,
        "executor.compile_s": t3 - t2,
        "graph.build_s": t4 - t3,
        "setup_s": t4 - t0,
    }
    return Setup(wl, extent, program, params, graph, strings, times)


# -- one solve -----------------------------------------------------------------


def bandit_policy(point, deps, value):
    """Pull the arm the optimal policy pulls, then follow its success."""
    best_name, best_v = None, None
    for arm in (1, 2):
        s, f = point[f"s{arm}"], point[f"f{arm}"]
        p = (s + 1.0) / (s + f + 2.0)
        sv, fv = deps[f"succ{arm}"], deps[f"fail{arm}"]
        if sv is None:
            continue
        v = p * (1.0 + sv) + (1.0 - p) * fv
        if best_v is None or v > best_v:
            best_v, best_name = v, f"succ{arm}"
    return best_name


@dataclass
class Outcome:
    """What one solve returned, and what the checks found wrong."""

    ranks: int
    seconds: float
    #: The host loop's median time around the solve (``bench.host_loop_blocks``).
    host_s: float = 0.0
    #: The measuring round, which pairs a 1-rank with a 2-rank solve.
    round: int = 0
    #: "warmup", "timed" (tracing off) or "traced".
    phase: str = "timed"
    objective: Optional[float] = None
    cells: int = 0
    cross_rank_messages: int = 0
    cross_rank_cells: int = 0
    tiles_per_rank: List[int] = field(default_factory=list)
    edge_cells: int = 0
    path: Optional[list] = None
    error: Optional[str] = None
    failures: List[str] = field(default_factory=list)


def solve(setup: Setup, ranks: int) -> Outcome:
    """One timed solve; an exception becomes a failed outcome."""
    wl = setup.workload
    t0 = time.perf_counter()
    try:
        if wl.recover:
            rec = SolutionRecovery(setup.program, setup.params, schedule="dynamic")
            path = rec.traceback(bandit_policy)
            seconds = time.perf_counter() - t0
            result = rec.result
        else:
            result = execute(
                setup.program,
                setup.params,
                mode="auto",
                schedule="dynamic",
                ranks=ranks,
                backend="process" if ranks > 1 else "inline",
            )
            seconds = time.perf_counter() - t0
            path = None
    except Exception as exc:  # a failed solve is counted, not fatal
        last = traceback.extract_tb(exc.__traceback__)[-1]
        return Outcome(
            ranks,
            time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc} ({last.filename}:{last.lineno})",
        )
    out = Outcome(
        ranks,
        seconds,
        objective=result.objective_value,
        cells=result.cells_computed,
        cross_rank_messages=result.cross_rank_messages,
        cross_rank_cells=result.cross_rank_cells,
        tiles_per_rank=list(result.tiles_per_rank or []),
    )
    if wl.recover:
        out.edge_cells = rec.edge_memory_cells
        out.path = [(sum(p.values()), choice) for p, choice in path]
    return out


# -- references and checks -------------------------------------------------------


def lcs_length(a: str, b: str) -> int:
    """LCS length by the bit-parallel recurrence of Hyyrö (2004).

    Bit i of ``v`` is 0 where row ``a[:i+1]`` gains a match; one
    big-integer step per character of *b*, so a full-size instance takes
    milliseconds where the dense ``lcs_reference`` table takes seconds.
    """
    match: Dict[str, int] = {}
    for i, ch in enumerate(a):
        match[ch] = match.get(ch, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for ch in b:
        u = v & match.get(ch, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - bin(v).count("1")


class ReferenceCache:
    """Reference objectives on disk, keyed by the solver and its inputs.

    The independent solvers take 15-20 s per full-size instance, so each
    (solver, input) pair is solved once per checkout.  Floats are stored
    as hex strings so the bit-exact comparison survives the round trip.
    """

    def __init__(self, path: Optional[Path]):
        self.path = path
        self.data: Dict[str, str] = {}
        if path is not None and path.exists():
            try:
                self.data = json.loads(path.read_text())
            except ValueError:
                self.data = {}

    def get(self, key: str, compute: Callable[[], float]) -> float:
        if key not in self.data:
            self.data[key] = float(compute()).hex()
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                tmp = self.path.with_suffix(f".tmp{os.getpid()}")
                tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
                os.replace(tmp, self.path)
        return float.fromhex(self.data[key])


def references(setup: Setup, cache: ReferenceCache) -> Dict[str, float]:
    """The objective each solve must reproduce, from solvers outside the
    tiled runtime: :func:`lcs_length` (exact), or ``two_arm_reference``
    (within :data:`FLOAT_TOLERANCE`) plus the untiled scan
    ``solve_reference``, which the runtime must match bit for bit."""
    if setup.strings is not None:
        return {"lcs": float(lcs_length(*setup.strings))}
    n = setup.extent
    return {
        "two_arm": cache.get(f"two_arm_reference:N={n}", lambda: two_arm_reference(n)),
        "untiled": cache.get(
            f"solve_reference:bandit2:N={n}",
            lambda: solve_reference(setup.program, setup.params).objective_value,
        ),
    }


def check(out: Outcome, setup: Setup, refs: Dict[str, float], sim_messages: int) -> None:
    """Fill ``out.failures``; an empty list means the solve is correct."""
    if out.error is not None:
        out.failures.append(out.error)
        return
    f = out.failures
    total = setup.graph.total_work()
    if out.cells != total:
        f.append(f"cells_computed {out.cells} != graph total work {total}")
    obj = out.objective
    if obj is None:
        f.append("no objective value")
    elif "lcs" in refs:
        if obj != refs["lcs"]:
            f.append(f"objective {obj!r} != LCS length {refs['lcs']!r}")
    else:
        if not abs(obj - refs["two_arm"]) <= FLOAT_TOLERANCE:
            f.append(f"objective {obj!r} off two_arm_reference {refs['two_arm']!r}")
        if obj != refs["untiled"]:
            f.append(
                f"objective {obj.hex()} != solve_reference {refs['untiled'].hex()}"
            )
    if out.ranks > 1 and out.cross_rank_messages != sim_messages:
        f.append(
            f"cross_rank_messages {out.cross_rank_messages} != simulated "
            f"messages {sim_messages}"
        )
    if out.path is not None:
        n = setup.extent
        if len(out.path) != n + 1 or out.path[-1] != (n, None):
            f.append(f"traceback ended at {out.path[-1]} after {len(out.path)} steps")
