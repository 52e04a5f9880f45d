"""One benchmark run: cold set-ups, timed solves, the traced run, checks.

A run of workload W in a fresh process goes:

1. ``SETUP_REPEATS`` cold set-ups, each in a forked child that starts
   from this process's imported-but-not-set-up state, then this
   process's own cold set-up; ``setup_s`` is their median, rescaled to
   nominal host speed (below).
2. One warm-up solve per rank count, so lazy set-up and caches settle
   before timing.
3. Timed solves for the run's seconds with tracing off.
4. With ``--trace 1`` only half the time is untraced, and on
   ``lcs2-2rank`` its 1-rank and 2-rank solves alternate, in pairs whose
   order flips, for the speed-up; then the layer wrappers go in and the
   rest of the time is traced solves, which give the per-layer metrics
   and the tracing overhead.
5. The simulator's prediction, peak memory, then the untimed references
   and a check of every solve (warm-up and traced ones too).

The host's speed drifts by up to a factor of two over seconds to
minutes (shared vCPUs).  So a fixed pure-Python loop is timed
``HOST_LOOP_BLOCKS`` times right before and as many right after each
solve and each set-up, on each CPU the work runs on, and the gated
times are rescaled to a host on which the median of those loop times
is :data:`NOMINAL_HOST_S`.  A 1-rank run is pinned to one CPU so the
loop and the solve share it.  Raw wall times are in the report.
"""

from __future__ import annotations

import gc
import inspect
import json
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.generator.packing import PackPlan
from repro.runtime import (
    CompiledExecutor,
    SolutionRecovery,
    TileGraph,
    TileScheduler,
    VectorTileEngine,
    WavefrontRun,
    spmd,
)
from repro.simulate import MachineModel, simulate_program

from spans import Tracer
from workloads import (
    WORKLOADS,
    Outcome,
    ReferenceCache,
    Setup,
    check,
    cold_setup,
    references,
    solve,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
CACHE_FILE = HERE / "cache" / "references.json"

#: Cold set-ups in forked children, on top of the process's own one.
SETUP_REPEATS = 4
#: Timed solves per rank count, even when the run's seconds run out first.
MIN_SAMPLES = 3
#: The traced run's layer self times must add up to the solves' wall
#: clock (timed outside every span) within this share of it.
ADDITIVITY_TOLERANCE = 0.01
#: Share of the run's seconds spent untraced in a ``--trace 1`` run.
UNTRACED_SHARE = 0.5
#: Iterations of the host-speed loop: about 7.5 ms on a 2-vCPU Xeon VM.
HOST_LOOP_ITERATIONS = 100_000
#: Loop timings per CPU before, and again after, each solve and set-up.
HOST_LOOP_BLOCKS = 3
#: Gated times are rescaled to a host on which the loop takes this long.
NOMINAL_HOST_S = 0.0075
#: Set-up step times reported as per-layer metrics (see ``cold_setup``).
SETUP_LAYERS = (
    "spec.build_s",
    "generator.generate_s",
    "generator.spaces_s",
    "generator.packing_s",
    "executor.compile_s",
    "graph.build_s",
)


# -- instrumentation -------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _fresh_result_counter():
    """Counts calls that return an object not returned before.

    ``SolutionRecovery.tile_values`` hands back its cached dict on a hit
    and a new one after recomputing a tile, so new results count the
    tiles recomputed.
    """
    seen: Dict[int, object] = {}

    def count(args, kwargs, result) -> int:
        if id(result) in seen:
            return 0
        seen[id(result)] = result  # kept alive so its id is not reused
        return 1

    return count


def instrument(tracer: Tracer) -> List[str]:
    """Wrap each layer's public entry points; returns what was wrapped."""
    wrapped = []
    for attr, member in vars(TileScheduler).items():
        if not inspect.isfunction(member) or (
            attr.startswith("_") and attr != "__init__"
        ):
            continue
        if inspect.isgeneratorfunction(member):
            tracer.wrap_generator(TileScheduler, attr, "scheduler")
        else:
            tracer.wrap(TileScheduler, attr, "scheduler")
        wrapped.append(f"TileScheduler.{attr}")
    table = [
        (CompiledExecutor, "run", "executor", None),
        (spmd, "run_spmd", "executor", None),
        (
            WavefrontRun,
            "execute_batch",
            "fastpath.batch",
            lambda a, k, r: len(_arg(a, k, 1, "rows")),
        ),
        (
            VectorTileEngine,
            "execute_tile",
            lambda parent: (
                "fastpath.fallback" if parent == "fastpath.batch" else "fastpath.tile"
            ),
            None,
        ),
        (PackPlan, "pack", "packing.pack", lambda a, k, r: len(r)),
        (PackPlan, "unpack", "packing.unpack", lambda a, k, r: len(_arg(a, k, 2, "buffer"))),
        (TileGraph, "build", "graph.build", None),
        (SolutionRecovery, "__init__", "recover.forward", None),
        (SolutionRecovery, "traceback", "recover.traceback", None),
        (SolutionRecovery, "tile_values", "recover.tile", _fresh_result_counter()),
    ]
    for owner, attr, name, count in table:
        tracer.wrap(owner, attr, name, count)
        wrapped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return wrapped


# -- measurement -----------------------------------------------------------------


def host_loop_s() -> float:
    """Seconds the fixed pure-Python loop takes now."""
    t = time.perf_counter()
    acc = 0
    for i in range(HOST_LOOP_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t


def host_loop_blocks(cpus: Optional[List[int]]) -> List[float]:
    """``HOST_LOOP_BLOCKS`` loop times on each CPU of *cpus* (on the
    current CPU when *cpus* is None); the affinity is restored after."""
    if cpus is None:
        return [host_loop_s() for _ in range(HOST_LOOP_BLOCKS)]
    keep = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.extend(host_loop_s() for _ in range(HOST_LOOP_BLOCKS))
    finally:
        os.sched_setaffinity(0, keep)
    return times


def nominal(seconds: float, host_s: float) -> float:
    """*seconds* rescaled to a host on which the loop takes NOMINAL_HOST_S,
    given the loop's median time *host_s* around the timed work."""
    return seconds * NOMINAL_HOST_S / host_s


def timed_setup(wl, seed: int, size: str, cpus: Optional[List[int]]) -> Setup:
    """A cold set-up, with the host loop timed before and after it."""
    before = host_loop_blocks(cpus)
    setup = cold_setup(wl, seed, size)
    setup.times["host_s"] = statistics.median(before + host_loop_blocks(cpus))
    return setup


def setup_in_child(
    wl, seed: int, size: str, cpus: Optional[List[int]]
) -> Dict[str, float]:
    """One cold set-up in a forked child; returns its step times.

    Fork, not spawn: the child must start from this process's state
    after imports and before any set-up, which is what a cold set-up
    means here (the runtime forks its rank workers the same way).
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "w") as fh:
                json.dump(timed_setup(wl, seed, size, cpus).times, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"cold set-up child exited with status {status}")
    return json.loads(data)


def measure(
    setup: Setup,
    rank_plan: List[int],
    seconds: float,
    phase: str,
    outcomes: List[Outcome],
    cpus: Optional[List[int]],
    tracer: Optional[Tracer] = None,
    min_samples: int = MIN_SAMPLES,
) -> None:
    """Solve repeatedly for *seconds* (at least *min_samples* rounds).

    Each round solves once per rank count in *rank_plan*; the order
    flips every round.  Garbage is collected before each solve, and the
    host loop is timed before and after it, outside the timed region.
    """
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_samples or time.perf_counter() < deadline:
        order = rank_plan if rounds % 2 == 0 else rank_plan[::-1]
        for ranks in order:
            gc.collect()
            before = host_loop_blocks(cpus)
            if tracer is not None:
                tracer.solve = len(outcomes)
            out = solve(setup, ranks)
            out.host_s = statistics.median(before + host_loop_blocks(cpus))
            out.round = rounds
            out.phase = phase
            outcomes.append(out)
        rounds += 1


def _times(
    outcomes: List[Outcome], phase: str, ranks: int, rescale: bool = False
) -> List[float]:
    """Wall seconds of the correct solves (of every solve if none was),
    rescaled to nominal host speed if *rescale*."""
    pool = [o for o in outcomes if o.phase == phase and o.ranks == ranks]
    pool = [o for o in pool if not o.failures] or pool
    return [nominal(o.seconds, o.host_s) if rescale else o.seconds for o in pool]


def paired_ratios(outcomes: List[Outcome], ranks: int) -> List[float]:
    """Per measuring round, the 1-rank over the *ranks*-rank wall time.

    The two solves of a round run back to back, so each ratio sees one
    host speed.  Correct solves only (every solve if none was).
    """
    pool = [o for o in outcomes if o.phase == "timed"]
    rounds: Dict[int, Dict[int, float]] = {}
    for o in [o for o in pool if not o.failures] or pool:
        rounds.setdefault(o.round, {})[o.ranks] = o.seconds
    return [r[1] / r[ranks] for r in rounds.values() if 1 in r and ranks in r]


def tail(samples: List[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        v = float(np.percentile(samples, p))
        if sum(x > v for x in samples) >= 10:
            return {"percentile": p, "value_s": v}
    return None


def _git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(seed: int) -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(tracer: Tracer, outcomes: List[Outcome]) -> tuple:
    """Per traced solve, the per-layer values; and the additivity rows."""
    profiles = tracer.per_solve()
    rows, additivity = [], []
    for sid, out in enumerate(outcomes):
        if out.phase != "traced":
            continue
        prof = profiles.get(sid)
        if prof is None:
            continue
        s, tot, calls, cnt = prof.self_s, prof.total_s, prof.calls, prof.counts
        batch_tiles = cnt["fastpath.batch"]
        fallback_tiles = calls["fastpath.fallback"]
        moved = cnt["packing.pack"] + cnt["packing.unpack"]
        pack_time = s["packing.pack"] + s["packing.unpack"]
        tiles = out.tiles_per_rank
        rows.append(
            {
                "scheduler.self_s": s["scheduler"],
                "scheduler.calls": calls["scheduler"],
                "executor.self_s": s["executor"],
                "fastpath.batch_self_s": s["fastpath.batch"],
                "fastpath.fallback_s": tot["fastpath.fallback"],
                "fastpath.fallback_tiles": fallback_tiles,
                "fastpath.batch_tiles": batch_tiles,
                "fastpath.fused_ratio": (
                    (batch_tiles - fallback_tiles) / batch_tiles if batch_tiles else 0.0
                ),
                "fastpath.tile_s": tot["fastpath.tile"],
                "packing.pack_s": s["packing.pack"],
                "packing.unpack_s": s["packing.unpack"],
                "packing.cells": moved,
                "packing.cells_per_s": moved / pack_time if pack_time else 0.0,
                "recover.forward_s": tot["recover.forward"],
                "recover.traceback_s": tot["recover.traceback"],
                "recover.self_s": (
                    s["recover.forward"] + s["recover.traceback"] + s["recover.tile"]
                ),
                "recover.tiles_recomputed": cnt["recover.tile"],
                "recover.edge_cells": out.edge_cells,
                "transport.cross_rank_messages": out.cross_rank_messages,
                "transport.cross_rank_cells": out.cross_rank_cells,
                "transport.tile_imbalance": (
                    max(tiles) / (sum(tiles) / len(tiles)) if tiles else 0.0
                ),
            }
        )
        attributed = sum(s.values())
        additivity.append(
            {
                "wall_s": out.seconds,
                "layers_s": attributed,
                "unattributed_frac": (out.seconds - attributed) / out.seconds,
                "negative_self_spans": prof.negative_self,
                "self_s": {k: v for k, v in sorted(s.items()) if v},
            }
        )
    return rows, additivity


def traced_metrics(
    tracer: Tracer,
    outcomes: List[Outcome],
    setup: Setup,
    setup_times: List[Dict[str, float]],
    sim,
    solve_s: float,
) -> tuple:
    """The per-layer metrics of a traced run, and its additivity check."""
    rows, additivity = layer_metrics(tracer, outcomes)
    per_layer: Dict[str, float] = {}
    if rows:
        for key in rows[0]:
            per_layer[key] = statistics.median(r[key] for r in rows)
    for key in SETUP_LAYERS:
        per_layer[key] = statistics.median(t[key] for t in setup_times)
    per_layer["graph.tiles"] = len(setup.graph.tile_tuples)
    per_layer["graph.edges"] = setup.graph.num_edges()
    per_layer["simulate.predicted_s"] = sim.makespan_s
    per_layer["simulate.pred_over_measured"] = sim.makespan_s / solve_s
    per_layer["simulate.messages"] = sim.messages
    traced_s = _times(outcomes, "traced", setup.workload.ranks)
    per_layer["trace.overhead_frac"] = statistics.median(traced_s) / solve_s - 1.0
    per_layer["trace.unattributed_frac"] = (
        statistics.median(a["unattributed_frac"] for a in additivity)
        if additivity
        else 1.0
    )
    passed = bool(additivity) and tracer.nesting_errors == 0 and all(
        abs(a["unattributed_frac"]) <= ADDITIVITY_TOLERANCE
        and a["negative_self_spans"] == 0
        for a in additivity
    )
    return per_layer, {
        "tolerance": ADDITIVITY_TOLERANCE,
        "passed": passed,
        "nesting_errors": tracer.nesting_errors,
        "solves": additivity,
    }


# -- the run ---------------------------------------------------------------------


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    cache_path: Optional[Path] = CACHE_FILE,
    out_dir: Optional[Path] = OUT_DIR,
    setup_repeats: int = SETUP_REPEATS,
) -> tuple:
    """One run; returns ``(result, detail)`` — the contract's result
    object (metrics by name, without units) and the full report."""
    wl = WORKLOADS[workload]
    detail: Dict[str, object] = {
        "workload": workload,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "extent_and_width": wl.sizes[size],
        "fingerprint": fingerprint(seed),
    }

    affinity = os.sched_getaffinity(0)
    if wl.ranks > 1:
        # Rank workers fork from this process and inherit its affinity.
        cpus: Optional[List[int]] = sorted(affinity)
    else:
        cpus = None
        os.sched_setaffinity(0, {min(affinity)})
    try:
        setup_times = [
            setup_in_child(wl, seed, size, cpus) for _ in range(setup_repeats)
        ]
        setup = timed_setup(wl, seed, size, cpus)
        setup_times.append(setup.times)

        # The 1-rank solves on a multi-rank workload serve only the
        # speed-up, a per-layer metric.
        rank_plan = [1, wl.ranks] if trace and wl.ranks > 1 else [wl.ranks]
        outcomes: List[Outcome] = []
        measure(setup, rank_plan, 0.0, "warmup", outcomes, cpus, min_samples=1)

        tracer = None
        instrumented: List[str] = []
        if trace:
            measure(setup, rank_plan, seconds * UNTRACED_SHARE, "timed", outcomes, cpus)
            tracer = Tracer()
            try:
                instrumented = instrument(tracer)
                measure(
                    setup, [wl.ranks], seconds * (1 - UNTRACED_SHARE), "traced",
                    outcomes, cpus, tracer=tracer,
                )
            finally:
                tracer.uninstall()
        else:
            measure(setup, rank_plan, seconds, "timed", outcomes, cpus)
    finally:
        os.sched_setaffinity(0, affinity)

    peak_rss = _peak_rss_mb(include_children=wl.ranks > 1)
    t = time.perf_counter()
    sim = simulate_program(
        setup.program, setup.params, MachineModel(nodes=wl.ranks), schedule="dynamic"
    )
    simulate_s = time.perf_counter() - t
    t = time.perf_counter()
    refs = references(setup, ReferenceCache(cache_path))
    reference_s = time.perf_counter() - t
    for out in outcomes:
        check(out, setup, refs, sim.messages)

    solve_samples = _times(outcomes, "timed", wl.ranks)
    solve_s = statistics.median(solve_samples)
    nominal_samples = _times(outcomes, "timed", wl.ranks, rescale=True)
    nominal_solve_s = statistics.median(nominal_samples)
    total_work = setup.graph.total_work()
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failures)
    setup_samples = [nominal(t["setup_s"], t["host_s"]) for t in setup_times]
    pairs = paired_ratios(outcomes, wl.ranks) if wl.ranks > 1 else []
    metrics: Dict[str, float] = {
        "solve_s": nominal_solve_s,
        "cells_per_s": total_work / nominal_solve_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss,
        "success_rate": (attempted - failed) / attempted,
    }
    correct = failed == 0

    detail["solve"] = {
        "median_s": solve_s,
        "samples": len(solve_samples),
        "tail": tail(solve_samples),
        "all_s": solve_samples,
        "nominal_median_s": nominal_solve_s,
        "nominal_tail": tail(nominal_samples),
        "host_loop_s": [
            o.host_s for o in outcomes if o.phase == "timed" and o.ranks == wl.ranks
        ],
    }
    if pairs:
        one = _times(outcomes, "timed", 1)
        detail["one_rank"] = {
            "median_s": statistics.median(one),
            "all_s": one,
            "paired_ratios": pairs,
            "speedup_vs_1rank": statistics.median(pairs),
        }
    detail["setup"] = {
        key: [t[key] for t in setup_times] for key in setup.times
    }
    detail["setup"]["nominal_setup_s"] = setup_samples
    detail["simulator"] = {
        "machine": f"MachineModel(nodes={wl.ranks})",
        "predicted_s": sim.makespan_s,
        "measured_s": solve_s,
        "predicted_over_measured": sim.makespan_s / solve_s,
        "messages": sim.messages,
        "simulate_s": simulate_s,
    }
    detail["checks"] = {
        "attempted": attempted,
        "failed": failed,
        "failures": [f for o in outcomes for f in o.failures][:10],
        "reference_s": reference_s,
    }

    if tracer is not None:
        metrics, detail["additivity"] = traced_metrics(
            tracer, outcomes, setup, setup_times, sim, solve_s
        )
        metrics["transport.speedup_vs_1rank"] = (
            statistics.median(pairs) if wl.ranks > 1 else 1.0
        )
        correct = correct and detail["additivity"]["passed"]
        detail["instrumented"] = instrumented
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{workload}-seed{seed}-spans.json.gz"
            tracer.write(path, {"workload": workload, "seed": seed})
            detail["spans_file"] = str(path)

    detail["fingerprint"]["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def with_units(metrics: Dict[str, float], declared: List[dict]) -> Dict[str, dict]:
    """Attach each declared metric's unit; a declared metric that the run
    did not produce is a benchmark bug, so it raises."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
    }
