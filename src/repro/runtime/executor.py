"""In-process execution of a generated program (paper Section V).

This is the Python twin of the generated C runtime.  The scheduling
protocol — pending tiles, priority-ordered ready queues, packed-edge
buffering — lives in one place,
:class:`repro.runtime.scheduler.TileScheduler`, and one driver loop (:mod:`repro.runtime.spmd`) drives it for every
in-process run: each started tile unpacks its incoming edges into the
ghost margins of a padded array, scans its local iteration space in the
legal direction evaluating the user kernel, and packs its outgoing
edges — only edges stay buffered, which is the paper's memory-saving
design (Section V-B).  This module owns the numbers: the per-tile body
(:class:`_RunState`), engine selection and the per-program compiled
artifacts.

Three center-loop engines share that outer protocol:

* the **interpreter** evaluates the scalar Python kernel point by point
  (slow, obviously correct);
* the **vectorized fast path** (:mod:`repro.runtime.fastpath`) evaluates
  whole anti-diagonal wavefronts of one tile with numpy array
  expressions when the spec carries a vector kernel; and
* the **wavefront** engine evaluates a whole ready front of tiles in one
  fused pass.

``execute(..., mode=...)`` selects the engine: ``"auto"`` (default)
uses the fastest engine the program supports, stepping down to the
interpreter; ``"interpret"``/``"vector"``/``"wavefront"`` force one
engine (raising when unsupported).  ``execute(..., ranks=P)``
partitions the tiles by the load balancer's rank assignment; every rank
count runs the same loop, so results are bit-identical by construction.
All loop-invariant compiled artifacts — the local-space scanner, the
validity-check closures, the vector engines — are cached per program in
a :class:`CompiledExecutor`, so repeated runs (benchmarks, calibration
sweeps) stop re-deriving them.

Every numerical result is produced here by actually evaluating the
recurrence; tests compare the outputs against independent brute-force
solvers, and the fast paths are pinned bit-identical to the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..polyhedra.compile import compile_scanner
from ..spec import Kernel
from .fastpath import (
    VectorTileEngine,
    WavefrontEngine,
    vector_unsupported_reason,
)
from .graph import TileGraph, TileIndex
from .scheduler import TransitionEvent

EXECUTION_MODES = ("auto", "interpret", "vector", "wavefront")


@dataclass
class ExecutionResult:
    """Outcome of one in-process run."""

    objective_point: Dict[str, int]
    objective_value: Optional[float]
    tiles_executed: int
    cells_computed: int
    tile_order: List[TileIndex]
    memory: Dict[str, int]
    values: Optional[Dict[Tuple[int, ...], float]] = None
    #: With ``keep_edges=True``: every packed edge, keyed by
    #: (producer, consumer) — the raw material of solution recovery
    #: (paper Section VII-A).
    edges: Optional[Dict[Tuple[TileIndex, TileIndex], np.ndarray]] = None
    #: Which center-loop engine produced the numbers ("interpret",
    #: "vector" or "wavefront").
    mode: str = "interpret"
    #: Which SPMD transport ran the ranks: "inline" (cooperative,
    #: single-thread — also the value for plain single-rank runs) or
    #: "process" (one OS process per rank over shared memory).
    backend: str = "inline"
    #: How many SPMD ranks executed the run.
    ranks: int = 1
    #: Per-rank edge-memory snapshots (same keys as ``memory``, which
    #: aggregates across ranks).  Cells are float64 state-array elements;
    #: multiply by 8 for bytes.
    memory_per_rank: Optional[List[Dict[str, int]]] = None
    #: Tiles executed by each rank.
    tiles_per_rank: Optional[List[int]] = None
    #: Edges that crossed a rank boundary (one in-memory message each —
    #: the analogue of the generated C's MPI message count).
    cross_rank_messages: int = 0
    cross_rank_cells: int = 0
    #: With ``record_events=True``: the scheduler's transition trace.
    events: Optional[List[TransitionEvent]] = None
    #: Which schedule policy ordered the ready set ("dynamic"/"static";
    #: an ``execute(schedule="auto")`` run reports the tuner's choice).
    schedule: str = "dynamic"
    #: The tile widths the run actually used, per loop var — either the
    #: spec's, an explicit ``tile_widths=`` override, or the tuner's
    #: choice under ``schedule="auto"``.
    tile_widths: Optional[Dict[str, int]] = None

    def value_at(self, point: Mapping[str, int], loop_vars) -> float:
        if self.values is None:
            raise RuntimeExecutionError(
                "run with record_values=True to query arbitrary points"
            )
        key = tuple(point[v] for v in loop_vars)
        return self.values[key]

    @property
    def peak_edge_cells_per_rank(self) -> Optional[List[int]]:
        if self.memory_per_rank is None:
            return None
        return [m["peak_cells"] for m in self.memory_per_rank]


def _compile_checks(program: GeneratedProgram):
    """Turn validity constraints into fast integer closures.

    Returns ``(check_fns, per_template)`` where each check function maps a
    global environment (loop vars + params) to bool.  Prefer
    :attr:`CompiledExecutor.validity_checks` (cached per program via
    :func:`compiled_executor`) over calling this directly.
    """
    check_fns = []
    for c in program.validity.checks:
        # Integral coefficients stay plain ints (the fast common case);
        # rational coefficients keep their exact Fraction so the
        # interpreter still evaluates the check correctly — the vector
        # engine rejects such programs at construction and auto mode
        # falls back here.
        items = [
            (name, coef.numerator if coef.denominator == 1 else coef)
            for name, coef in c.expr.terms()
        ]
        const = c.expr.constant
        const_i = const.numerator if const.denominator == 1 else const
        is_eq = c.is_equality()

        def fn(env, items=tuple(items), const_i=const_i, is_eq=is_eq):
            total = const_i
            for name, coef in items:
                total += coef * env[name]
            return total == 0 if is_eq else total >= 0

        check_fns.append(fn)
    per_template = {
        name: tuple(ids) for name, ids in program.validity.per_template.items()
    }
    return check_fns, per_template


class _RunState:
    """Per-run numeric state: one tile body shared by every caller.

    Owns the objective bookkeeping, the optional ``values`` record, and
    the reused per-point environments of the interpreter.
    :meth:`execute_tile` evaluates one tile's local iteration space
    (ghosts already unpacked into *array*) with whichever per-tile
    engine the run resolved to — the driver loop at every rank count and
    solution recovery call exactly the same body, which is what makes
    their numbers bit-identical regardless of scheduling.
    """

    def __init__(
        self,
        ce: "CompiledExecutor",
        params: Dict[str, int],
        kernel: Optional[Kernel],
        engine: Optional[VectorTileEngine],
        record_values: bool,
    ):
        self.ce = ce
        self.params = params
        self.kernel = kernel
        self.engine = engine
        spec = ce.spec
        self.objective = spec.objective(params)
        self.objective_tile = ce.program.spaces.point_to_tile(self.objective)
        self.objective_value: Optional[float] = None
        self.values: Optional[Dict[Tuple[int, ...], float]] = (
            {} if record_values else None
        )
        self.cells_computed = 0
        # Reused per-point environments for the interpreter: one global
        # env for the validity checks (params + loop vars, updated in
        # place), one point dict for the kernel, one deps dict.  Nothing
        # is reallocated inside the inner loop.
        self._genv: Dict[str, int] = dict(params)
        self._point: Dict[str, int] = {}
        self._deps: Dict[str, Optional[float]] = {}

    def note_objective(self, tile: TileIndex, array: np.ndarray) -> None:
        """Record the objective cell if *tile* holds it.

        The driver loop calls this for every executed tile, whatever the
        engine: the objective is read back from the tile's padded array
        after evaluation; NaN means the objective point is outside the
        iteration space (prefix runs).
        """
        if tile != self.objective_tile:
            return
        spec = self.ce.spec
        widths = spec.tile_width_vector()
        local = tuple(
            self.objective[x] - widths[k] * tile[k]
            for k, x in enumerate(spec.loop_vars)
        )
        value = array[self.ce.program.layout.array_index(local)]
        if not np.isnan(value):
            self.objective_value = float(value)

    def execute_tile(self, tile: TileIndex, array: np.ndarray) -> int:
        """Evaluate every in-space cell of *tile*; returns cells computed."""
        ce = self.ce
        spec = ce.spec
        layout = ce.program.layout
        widths = spec.tile_width_vector()
        values = self.values
        engine = self.engine
        if engine is not None:
            cells = engine.execute_tile(tile, array, self.params, values)
            self.cells_computed += cells
            return cells

        kernel = self.kernel
        genv = self._genv
        point = self._point
        deps = self._deps
        check_fns = ce.check_fns
        per_template = ce.per_template
        tile_env = dict(self.params)
        tile_env.update(ce.program.spaces.tile_env(tile))
        cells = 0
        for local in ce.scan(tile_env):
            for k, x in enumerate(spec.loop_vars):
                g = widths[k] * tile[k] + local[k]
                point[x] = g
                genv[x] = g
            # Key taken before the kernel call: a kernel mutating
            # its point dict must not corrupt the recorded cell.
            key = tuple(genv[x] for x in spec.loop_vars)
            for name, vec in ce.template_items:
                ok = all(
                    check_fns[idx](genv) for idx in per_template[name]
                )
                if ok:
                    ghost = tuple(i + r for i, r in zip(local, vec))
                    value = float(array[layout.array_index(ghost)])
                    if value != value:  # NaN: never written
                        raise RuntimeExecutionError(
                            f"tile {tile}: dependency {name} of "
                            f"point {dict(point)} is valid but its "
                            "value was never computed or delivered"
                        )
                    deps[name] = value
                else:
                    deps[name] = None
            result = kernel(point, deps, self.params)
            array[layout.array_index(local)] = result
            cells += 1
            if values is not None:
                values[key] = float(result)
        self.cells_computed += cells
        return cells


class CompiledExecutor:
    """Per-program cache of every loop-invariant execution artifact.

    Construction compiles the local-space scanner and the validity-check
    closures exactly once; the vectorized engine is built lazily on the
    first run that can use it.  One instance is cached on the program
    (see :func:`compiled_executor`), so benchmarks and calibration that
    execute the same program repeatedly pay the derivation cost once.
    """

    def __init__(self, program: GeneratedProgram):
        self.program = program
        self.spec = program.spec
        spaces = program.spaces
        directions_x = self.spec.scan_directions()
        self.local_directions = {
            spaces.local_vars[k]: directions_x[x]
            for k, x in enumerate(self.spec.loop_vars)
        }
        # Loop-invariant across tiles AND runs: compiled once here, never
        # inside the tile loop (it used to be recompiled per tile).
        self.scan = compile_scanner(spaces.local_nest, self.local_directions)
        self.check_fns, self.per_template = _compile_checks(program)
        self.template_items = list(self.spec.templates.items())
        self._vector_engine: Optional[VectorTileEngine] = None
        self._vector_reason: Optional[str] = None
        self._vector_probed = False
        self._wavefront_engine: Optional[WavefrontEngine] = None
        self._wavefront_reason: Optional[str] = None
        self._wavefront_probed = False

    # -- public compiled artifacts --------------------------------------------

    @property
    def validity_checks(self):
        """The compiled validity checks: ``(check_fns, per_template)``.

        ``check_fns[i]`` maps a global environment (params + loop vars)
        to bool; ``per_template[name]`` lists the check ids guarding the
        template.  Public so solution recovery and analysis tooling
        reuse the executor's compiled closures instead of re-deriving
        them.
        """
        return self.check_fns, self.per_template

    # -- engine selection -----------------------------------------------------

    @property
    def vector_engine(self) -> Optional[VectorTileEngine]:
        """The vectorized engine, or None with ``vector_reason`` set.

        Engine *construction* failures (e.g. non-integral check
        constraints the interval analysis cannot split) fold into the
        reason instead of escaping, so auto mode degrades to the
        interpreter rather than crashing after dispatch committed.
        """
        if not self._vector_probed:
            self._vector_probed = True
            reason = vector_unsupported_reason(self.program)
            if reason is None:
                try:
                    self._vector_engine = VectorTileEngine(self.program)
                except RuntimeExecutionError as exc:
                    self._vector_reason = (
                        f"vector engine construction failed: {exc}"
                    )
            else:
                self._vector_reason = reason
        return self._vector_engine

    @property
    def vector_reason(self) -> Optional[str]:
        self.vector_engine  # noqa: B018 - force the probe
        return self._vector_reason

    @property
    def wavefront_engine(self) -> Optional[WavefrontEngine]:
        """The wavefront-fused batch engine, or None with a reason set.

        Requires the per-tile vector engine (same support condition);
        shares its compiled artifacts.
        """
        if not self._wavefront_probed:
            self._wavefront_probed = True
            if self.vector_engine is None:
                self._wavefront_reason = self._vector_reason
            else:
                try:
                    self._wavefront_engine = WavefrontEngine(
                        self.program, tile_engine=self.vector_engine
                    )
                except RuntimeExecutionError as exc:
                    self._wavefront_reason = (
                        f"wavefront engine construction failed: {exc}"
                    )
        return self._wavefront_engine

    @property
    def wavefront_reason(self) -> Optional[str]:
        self.wavefront_engine  # noqa: B018 - force the probe
        return self._wavefront_reason

    def resolve_mode(
        self,
        mode: str,
        kernel: Optional[Kernel],
        keep_edges: bool = False,
    ) -> str:
        """Dispatch ``auto``/``interpret``/``vector``/``wavefront`` to a
        concrete engine.

        Auto prefers the wavefront-fused batch path, stepping down to
        the per-tile vector engine when the run must retain packed edges
        (``keep_edges`` — wavefront interior edges are array views,
        never packed) and to the interpreter when the program has no
        vector kernel, a custom scalar kernel, or engine construction
        failed.  Forced modes raise instead of degrading.
        """
        if mode not in EXECUTION_MODES:
            raise RuntimeExecutionError(
                f"unknown execution mode {mode!r}; expected one of "
                f"{EXECUTION_MODES}"
            )
        if mode == "interpret":
            return "interpret"
        custom_kernel = kernel is not None and kernel is not self.spec.kernel
        if custom_kernel:
            if mode in ("vector", "wavefront"):
                raise RuntimeExecutionError(
                    f"{mode} mode cannot run a custom scalar kernel; pass "
                    "mode='interpret' or a spec with a matching vector_kernel"
                )
            return "interpret"
        if self.vector_engine is None:
            if mode == "vector":
                raise RuntimeExecutionError(
                    f"vector mode unavailable: {self._vector_reason}"
                )
            if mode == "wavefront":
                raise RuntimeExecutionError(
                    f"wavefront mode unavailable: {self._vector_reason}"
                )
            return "interpret"
        if mode == "vector":
            return "vector"
        if mode == "wavefront":
            if keep_edges:
                raise RuntimeExecutionError(
                    "wavefront mode cannot retain packed edges: interior "
                    "edges are array views, never packed; use "
                    "mode='vector' with keep_edges=True"
                )
            if self.wavefront_engine is None:
                raise RuntimeExecutionError(
                    f"wavefront mode unavailable: {self._wavefront_reason}"
                )
            return "wavefront"
        # auto
        if keep_edges or self.wavefront_engine is None:
            return "vector"
        return "wavefront"

    def make_run_state(
        self,
        params: Dict[str, int],
        kernel: Optional[Kernel],
        resolved: str,
        record_values: bool,
    ) -> _RunState:
        """The per-run numeric state for one resolved engine (see
        :class:`_RunState`); drivers call ``state.execute_tile`` per
        started tile."""
        if resolved == "interpret":
            if kernel is None:
                kernel = self.spec.kernel
            if kernel is None:
                raise RuntimeExecutionError(
                    f"problem {self.spec.name!r} has no Python kernel; "
                    "pass kernel="
                )
        engine = self.vector_engine if resolved == "vector" else None
        return _RunState(self, params, kernel, engine, record_values)

    # -- the run --------------------------------------------------------------

    def run(
        self,
        params: Mapping[str, int],
        kernel: Optional[Kernel] = None,
        priority_scheme: str = "lb-first",
        record_values: bool = False,
        graph: Optional[TileGraph] = None,
        keep_edges: bool = False,
        mode: str = "auto",
        record_events: bool = False,
        schedule: str = "dynamic",
    ) -> ExecutionResult:
        """One single-rank run: the shared driver loop
        (:func:`repro.runtime.spmd.run_spmd`) at ``ranks=1``."""
        return spmd.run_spmd(
            self.program,
            params,
            ranks=1,
            kernel=kernel,
            priority_scheme=priority_scheme,
            record_values=record_values,
            graph=graph,
            keep_edges=keep_edges,
            mode=mode,
            record_events=record_events,
            schedule=schedule,
        )


def compiled_executor(program: GeneratedProgram) -> CompiledExecutor:
    """The per-program :class:`CompiledExecutor`, built once and cached."""
    cached = getattr(program, "_compiled_executor", None)
    if cached is None:
        cached = CompiledExecutor(program)
        program._compiled_executor = cached
    return cached


def execute(
    program: GeneratedProgram,
    params: Mapping[str, int],
    kernel: Optional[Kernel] = None,
    priority_scheme: str = "lb-first",
    record_values: bool = False,
    graph: Optional[TileGraph] = None,
    keep_edges: bool = False,
    mode: str = "auto",
    ranks: int = 1,
    lb_method: str = "dimension-cut",
    record_events: bool = False,
    backend: str = "inline",
    schedule: str = "dynamic",
    tile_widths: Optional[Mapping[str, int]] = None,
) -> ExecutionResult:
    """Solve the problem instance and return the objective value.

    *kernel* defaults to the spec's Python kernel.  *record_values*
    additionally returns every computed cell (use only on small
    instances).  A prebuilt *graph* can be passed to amortize graph
    construction across runs with identical parameters.  *keep_edges*
    retains every packed edge after the run — O(n^(d-1)) memory instead
    of the O(n^d) full space — enabling solution recovery by on-the-fly
    tile recomputation (paper Section VII-A; see
    :class:`repro.runtime.recover.SolutionRecovery`).  *mode* selects
    the center-loop engine: ``"auto"`` (wavefront-fused batch execution
    when the spec has a vector kernel and no custom *kernel* is given,
    stepping down to the per-tile vector engine under *keep_edges* and
    to the interpreter otherwise), ``"interpret"``, ``"vector"``, or
    ``"wavefront"`` (forced modes raise when the engine cannot run this
    program).  *ranks* (at least 1) partitions the tiles with the load
    balancer (*lb_method*); every rank count runs the one driver loop of
    :mod:`repro.runtime.spmd` — same numbers, plus per-rank accounting
    and cross-rank message counts.  *record_events* returns the
    scheduler's transition trace in ``ExecutionResult.events``.  *backend* selects the multi-rank
    transport: ``"inline"`` (default — ranks interleaved cooperatively
    in this thread, the deterministic oracle) or ``"process"`` (one OS
    worker process per rank over ``multiprocessing.shared_memory``
    ghost arrays, for real multi-core wall-clock wins; see
    :mod:`repro.runtime.parallel`).  *schedule* selects the scheduler's
    ready-set policy: ``"dynamic"`` (priority heaps, the default),
    ``"static"`` (precomputed wavefront levels released behind arrival
    barriers), or ``"auto"`` (the simulator-driven tuner of
    :mod:`repro.runtime.tuner` picks policy *and* tile widths, cached
    on disk per program/params/machine).  *tile_widths* overrides the
    spec's widths for this run (an int applies to every loop var); the
    program is re-tiled through the generator, so pass it instead of —
    not alongside — a prebuilt *graph*.  Both policies produce
    bit-identical values; the chosen policy and widths are reported in
    ``ExecutionResult.schedule``/``tile_widths``.
    """
    if schedule not in ("dynamic", "static", "auto"):
        raise RuntimeExecutionError(
            f"unknown schedule {schedule!r}; expected 'dynamic', "
            "'static', or 'auto'"
        )
    if tile_widths is not None:
        from .tuner import normalize_tile_widths, retile_program

        widths = normalize_tile_widths(program.spec, tile_widths)
        if widths != dict(program.spec.tile_widths):
            if graph is not None:
                raise RuntimeExecutionError(
                    "a prebuilt graph fixes the tiling; pass either "
                    "graph= or tile_widths=, not both"
                )
            program = retile_program(program, widths)
    if schedule == "auto":
        from .tuner import retile_program, tune

        # A prebuilt graph (or explicit widths) pins the tiling — the
        # tuner then only chooses the policy for the current widths.
        pin_widths = graph is not None or tile_widths is not None
        decision = tune(
            program,
            params,
            quick=True,
            tile_width_candidates=(
                [dict(program.spec.tile_widths)] if pin_widths else None
            ),
        )
        schedule = decision.schedule
        if decision.tile_widths != dict(program.spec.tile_widths):
            program = retile_program(program, decision.tile_widths)
    return spmd.run_spmd(
        program,
        params,
        ranks=ranks,
        kernel=kernel,
        priority_scheme=priority_scheme,
        record_values=record_values,
        graph=graph,
        keep_edges=keep_edges,
        mode=mode,
        lb_method=lb_method,
        record_events=record_events,
        backend=backend,
        schedule=schedule,
    )


def solve_reference(
    program: GeneratedProgram,
    params: Mapping[str, int],
    kernel: Optional[Kernel] = None,
    record_values: bool = False,
):
    """Untiled oracle: scan the original iteration space in scan order.

    Exercises none of the tiling machinery — a second, independent path
    to the same numbers, used by tests to validate the tiled executor.
    """
    spec = program.spec
    if kernel is None:
        kernel = spec.kernel
    if kernel is None:
        raise RuntimeExecutionError("no kernel available")
    params = dict(params)
    check_fns, per_template = compiled_executor(program).validity_checks
    directions = spec.scan_directions()
    store: Dict[Tuple[int, ...], float] = {}
    objective = spec.objective(params)
    objective_key = tuple(objective[v] for v in spec.loop_vars)
    objective_value = None
    for env in program.spaces.original_nest.iterate(params, directions):
        point = {v: env[v] for v in spec.loop_vars}
        genv = dict(params)
        genv.update(point)
        deps: Dict[str, Optional[float]] = {}
        for name, vec in spec.templates.items():
            ok = all(check_fns[idx](genv) for idx in per_template[name])
            if ok:
                key = tuple(point[v] + r for v, r in zip(spec.loop_vars, vec))
                deps[name] = store[key]
            else:
                deps[name] = None
        value = float(kernel(point, deps, params))
        key = tuple(point[v] for v in spec.loop_vars)
        store[key] = value
        if key == objective_key:
            objective_value = value
    return ExecutionResult(
        objective_point=objective,
        objective_value=objective_value,
        tiles_executed=0,
        cells_computed=len(store),
        tile_order=[],
        memory={},
        values=store if record_values else None,
    )


# The driver loop (spmd) imports ExecutionResult and compiled_executor
# from this module, so it is imported last, once both exist.  Callers
# look ``spmd.run_spmd`` up at call time, which keeps it patchable.
from . import spmd  # noqa: E402
