"""The driver loop of every in-process run (paper Sections V–VI).

The generated C has one runtime loop per rank, and it is the same code
at every rank count: pop a tile, unpack its edges, run the center loop,
pack, then send locally or over MPI.  This module is that loop's Python
twin, and every in-process run uses it — ``execute(...)`` at one rank,
``execute(..., ranks=P)`` with the inline transport, and each worker of
the process backend (:mod:`repro.runtime.parallel`).

One **turn** of a rank (:meth:`_RankLoop.turn`) pops one tile or one
wavefront batch, gathers its incoming edges, executes it, and hands
each outgoing edge on: a same-rank edge is delivered at once, a
cross-rank edge goes to the *transport*.  Two transports exist:

* **inline** — ranks interleave cooperatively in this thread
  (round-robin, one tile or one wavefront batch per turn), so the
  transition-event trace is reproducible byte for byte.  A cross-rank
  edge is accounted (``send_edge``) in the producer's turn and queued on
  its per-``(src, dst)`` FIFO channel, in lexicographic consumer order
  (the order the C runtime posts its ``MPI_Isend`` calls);
* **process** — one OS worker per rank over shared memory; the producer
  posts silently and ``send_edge`` runs at recv in the consumer's worker.

Either way a rank drains every inbound channel (ascending source rank,
FIFO within a channel) at the top of its turn, the analogue of the C
runtime's message-progress poll before the next heap pop, and a
cross-rank edge decrements the consumer's pending counter only at that
recv.  ``ranks=1`` is simply the inline loop with no channels.

The load balancer's Ehrhart-balanced assignment partitions the tiles.
Because every tile's numerics depend only on its ghost cells — never on
global scheduling order — the objective value and every recorded cell
are bit-identical at every rank count and transport, and tests pin
``execute(..., ranks=P)`` against ``ranks=1`` exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..spec import Kernel
from .executor import ExecutionResult, compiled_executor
from .fastpath import WavefrontRun
from .graph import TileGraph, TileIndex, tile_graph
from .memory import EdgeMemoryTracker
from .scheduler import TileScheduler, rank_of_rows

__all__ = ["run_spmd", "spmd_rank_assignment", "validate_rank_of"]

#: The two transports a multi-rank run can use: ``inline`` interleaves
#: ranks cooperatively in this thread (deterministic, the oracle);
#: ``process`` runs each rank as a real ``multiprocessing`` worker over
#: shared-memory segments (:mod:`repro.runtime.parallel`).
SPMD_BACKENDS = ("inline", "process")


def validate_rank_of(
    rank_of, graph: TileGraph, ranks: int
) -> np.ndarray:
    """Validate an explicit per-row rank assignment up front.

    Shape, dtype and range are checked *before* any scheduling state is
    built, so a bad override fails with a message naming the offending
    row instead of surfacing as an opaque downstream error (or worse, a
    silent misroute).
    """
    arr = np.asarray(rank_of)
    if arr.ndim != 1:
        raise RuntimeExecutionError(
            f"rank_of must be a 1-D per-row array, got shape "
            f"{tuple(arr.shape)}"
        )
    T = len(graph.tile_tuples)
    if arr.shape[0] != T:
        raise RuntimeExecutionError(
            f"rank_of covers {arr.shape[0]} rows but the graph has "
            f"{T} tiles"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise RuntimeExecutionError(
            f"rank_of must hold integer ranks, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.int64)
    bad = np.flatnonzero((arr < 0) | (arr >= ranks))
    if bad.size:
        r = int(bad[0])
        raise RuntimeExecutionError(
            f"rank_of[{r}] = {int(arr[r])} assigns tile "
            f"{graph.tile_tuples[r]} outside 0..{ranks - 1}"
        )
    return arr


def spmd_rank_assignment(
    program: GeneratedProgram,
    params: Mapping[str, int],
    graph: TileGraph,
    ranks: int,
    lb_method: str = "dimension-cut",
) -> np.ndarray:
    """Per-row rank assignment from the load balancer.

    Feeds the balancer the slab work the graph already holds, then
    projects every tile row onto its lb slab's node — the exact
    assignment the generated C program computes at startup.
    """
    if ranks == 1:
        return np.zeros(len(graph.tile_tuples), dtype=np.int64)
    balance = program.load_balance(
        dict(params), ranks, method=lb_method, slab_work=graph.slab_work()
    )
    return rank_of_rows(graph, balance)


@dataclass
class _Run:
    """One resolved run: everything a rank's loop is built from.

    Built once per run by :func:`_prepare` for either transport; process
    workers inherit it through fork.
    """

    program: GeneratedProgram
    params: Dict[str, int]
    graph: TileGraph
    ranks: int
    rank_of: np.ndarray
    #: The concrete engine ("interpret", "vector" or "wavefront").
    resolved: str
    kernel: Optional[Kernel]
    priority_scheme: str
    #: Every rank builds its scheduler with this policy: the cross-rank
    #: send/recv protocol stays FIFO-identical only when both endpoints
    #: run the same one.
    schedule: str
    record_values: bool
    record_events: bool
    keep_edges: bool


def _prepare(
    program: GeneratedProgram,
    params: Mapping[str, int],
    ranks: int,
    kernel: Optional[Kernel],
    priority_scheme: str,
    record_values: bool,
    graph: Optional[TileGraph],
    keep_edges: bool,
    mode: str,
    lb_method: str,
    record_events: bool,
    rank_of: Optional[np.ndarray],
    schedule: str,
) -> _Run:
    """Per-run setup shared by both transports: validate the rank count,
    resolve the engine, build the graph and the rank assignment."""
    if ranks < 1:
        raise RuntimeExecutionError(f"rank count must be >= 1, got {ranks}")
    ce = compiled_executor(program)
    resolved = ce.resolve_mode(mode, kernel, keep_edges)
    params = dict(params)
    if graph is None:
        graph = tile_graph(program, params)
    if rank_of is None:
        rank_of = spmd_rank_assignment(
            program, params, graph, ranks, lb_method=lb_method
        )
    else:
        rank_of = validate_rank_of(rank_of, graph, ranks)
    return _Run(
        program, params, graph, ranks, rank_of, resolved, kernel,
        priority_scheme, schedule, record_values, record_events, keep_edges,
    )


class _RankLoop:
    """The per-rank loop of the generated runtime, for every transport.

    Holds the scheduler, the numeric state and the ghost-array *arena*
    of the ranks one process drives: every rank for the inline
    transport, one rank per process worker.  A per-tile engine unpacks
    into ``arena[0]``; the wavefront engine evaluates whole fronts into
    ``arena[:B]`` (a fresh array when the arena is too small).
    """

    def __init__(self, run: _Run, arena: Optional[np.ndarray]):
        ce = compiled_executor(run.program)
        graph = run.graph
        wavefront = run.resolved == "wavefront"
        self.run = run
        self.arena = arena
        self.state = ce.make_run_state(
            run.params, run.kernel, run.resolved, run.record_values
        )
        self.sched = TileScheduler(
            graph,
            ranks=run.ranks,
            rank_of=run.rank_of,
            priority_scheme=run.priority_scheme,
            record_events=run.record_events,
            batch=wavefront,
            schedule=run.schedule,
        )
        self.batch: Optional[WavefrontRun] = None
        if wavefront:
            self.batch = WavefrontRun(
                ce.wavefront_engine, graph, run.params, rank_of=run.rank_of,
                values=self.state.values, arena=arena,
            )
        self.kept_edges: Optional[
            Dict[Tuple[TileIndex, TileIndex], np.ndarray]
        ] = ({} if run.keep_edges else None)
        self.tile_order: List[TileIndex] = []
        # Cross-rank producers of each row, in delta order: the only
        # incoming edges a wavefront batch takes from the packed store
        # (same-rank edges ghost-fill from retained interiors).
        self.cross_in: Dict[int, List[int]] = {}
        if wavefront and run.ranks > 1:
            rank_of = run.rank_of
            owner = np.repeat(
                np.arange(len(graph.tile_tuples)), np.diff(graph.prod_ptr)
            )
            prows = graph.prod_rows
            cross = np.flatnonzero(rank_of[prows] != rank_of[owner])
            for e in cross.tolist():
                self.cross_in.setdefault(int(owner[e]), []).append(
                    int(prows[e])
                )

    def _tile_env(self, row: int) -> Dict[str, int]:
        env = dict(self.run.params)
        tile = self.sched.tile_tuples[row]
        env.update(self.run.program.spaces.tile_env(tile))
        return env

    def turn(self, rank: int, transport) -> bool:
        """One scheduling turn of *rank*; True when it made progress.

        Receive, pop one tile (per-tile engines) or one wavefront batch,
        gather the incoming edges, execute, then send each outgoing edge
        and release the tiles.  A same-rank edge is delivered at once —
        the per-tile engine packs it first, the batch engine does not
        (its consumer ghost-fills from the retained interior); a
        cross-rank edge is packed and handed to *transport*.
        """
        received = transport.drain(rank)
        sched = self.sched
        program = self.run.program
        layout = program.layout
        local_vars = program.spaces.local_vars
        plans = program.pack_plans
        deltas = program.deltas
        tile_tuples = sched.tile_tuples
        batch = self.batch
        if batch is not None:
            rows = sched.start_batch(rank)
            if not rows:
                return received
            packed: Dict[Tuple[int, int], np.ndarray] = {}
            for row in rows:
                for p in self.cross_in.get(row, ()):
                    packed[(p, row)] = sched.take_edge(p, row)
            arrays = batch.execute_batch(rows, packed=packed)
        else:
            row = sched.start_tile(rank)
            if row is None:
                return received
            rows = (row,)
            arrays = self.arena[:1]
            array = arrays[0]
            array.fill(np.nan)
            for producer, delta_id, buffer in sched.consume_edges(row):
                plans[deltas[delta_id]].unpack(
                    self._tile_env(producer), buffer, array, layout,
                    local_vars,
                )
            self.state.execute_tile(tile_tuples[row], array)

        kept = self.kept_edges
        for row, array in zip(rows, arrays):
            tile = tile_tuples[row]
            self.tile_order.append(tile)
            self.state.note_objective(tile, array)
            env = None
            for consumer, delta_id, _, dest in sched.outgoing(row):
                if dest == rank and batch is not None:
                    sched.deliver_edge(consumer)
                    continue
                if env is None:
                    env = self._tile_env(row)
                buffer = plans[deltas[delta_id]].pack(
                    env, array, layout, local_vars
                )
                if kept is not None:
                    kept[(tile, tile_tuples[consumer])] = buffer.copy()
                if dest == rank:
                    sched.send_edge(row, consumer, buffer, len(buffer))
                    sched.deliver_edge(consumer)
                else:
                    transport.post(rank, dest, row, consumer, buffer)
            sched.finish_tile(row)
        return True

    def drive(self, transport) -> None:
        """Take turns for the transport's ranks until they are done."""
        while not transport.done():
            progress = False
            for rank in transport.ranks:
                if self.turn(rank, transport):
                    progress = True
            transport.idle(progress)

    def finish(self, ranks: Sequence[int]) -> Dict[str, object]:
        """Terminal checks for the driven *ranks*; returns their payload
        for :func:`_assemble`."""
        sched = self.sched
        every_rank = len(ranks) == sched.ranks
        if every_rank:
            sched.verify_drained()
        else:
            for rank in ranks:
                sched.verify_rank_drained(rank)
        if self.batch is not None:
            self.batch.verify_drained()
            self.state.cells_computed = self.batch.cells
        per_rank = [sched.trackers[r].snapshot() for r in ranks]
        return {
            "objective_value": self.state.objective_value,
            "cells": self.state.cells_computed,
            "tile_order": self.tile_order,
            "memory": sched.memory_snapshot() if every_rank else per_rank[0],
            "memory_per_rank": per_rank,
            "tiles_per_rank": [sched.finished_per_rank[r] for r in ranks],
            "cross_rank_messages": sched.cross_rank_messages,
            "cross_rank_cells": sched.cross_rank_cells,
            "values": self.state.values,
            "events": sched.events,
            "edges": self.kept_edges,
        }


class _InlineTransport:
    """Cooperative delivery between ranks interleaved in this thread.

    One FIFO deque per ``(src, dst)`` rank pair holds consumer rows; the
    producer's turn already buffered the edge (``send_edge`` fires at
    post) and the pending decrement waits for the consumer's drain.
    """

    def __init__(self, sched: TileScheduler):
        self.sched = sched
        self.ranks = range(sched.ranks)
        self.channels: Dict[Tuple[int, int], Deque[int]] = {
            (src, dst): deque()
            for src in self.ranks
            for dst in self.ranks
            if src != dst
        }

    def done(self) -> bool:
        return self.sched.finished >= len(self.sched.tile_tuples)

    def post(self, rank: int, dest: int, row: int, consumer: int,
             buffer: np.ndarray) -> None:
        self.sched.send_edge(row, consumer, buffer, len(buffer))
        self.channels[(rank, dest)].append(consumer)

    def drain(self, rank: int) -> bool:
        """Receive every queued cross-rank edge addressed to *rank*."""
        received = False
        for src in self.ranks:
            if src == rank:
                continue
            channel = self.channels[(src, rank)]
            while channel:
                self.sched.deliver_edge(channel.popleft())
                received = True
        return received

    def idle(self, progress: bool) -> None:
        if not progress:
            raise RuntimeExecutionError(
                f"SPMD deadlock: {self.sched.finished} of "
                f"{len(self.sched.tile_tuples)} tiles ran, no rank can "
                "make progress"
            )


def _assemble(
    run: _Run, backend: str, payloads: Sequence[Dict[str, object]]
) -> ExecutionResult:
    """Fold loop payloads — the one inline loop, or every process worker
    in rank order — into the run's :class:`ExecutionResult`."""
    cells = sum(p["cells"] for p in payloads)
    if cells != run.graph.total_work():
        raise RuntimeExecutionError(
            f"computed {cells} cells but the graph holds "
            f"{run.graph.total_work()} points"
        )

    def merged(key: str):
        first = payloads[0][key]
        if first is not None:
            for p in payloads[1:]:
                first.update(p[key])
        return first

    events = None
    if run.record_events:
        stream = (e for p in payloads for e in p["events"])
        events = [replace(e, seq=i) for i, e in enumerate(stream)]
    objective_value = next(
        (p["objective_value"] for p in payloads
         if p["objective_value"] is not None),
        None,
    )
    tiles_per_rank = [n for p in payloads for n in p["tiles_per_rank"]]
    return ExecutionResult(
        objective_point=run.program.spec.objective(run.params),
        objective_value=objective_value,
        tiles_executed=sum(tiles_per_rank),
        cells_computed=cells,
        tile_order=[t for p in payloads for t in p["tile_order"]],
        memory=(
            payloads[0]["memory"] if len(payloads) == 1
            else EdgeMemoryTracker.merge_snapshots(
                [p["memory"] for p in payloads]
            )
        ),
        values=merged("values"),
        edges=merged("edges"),
        mode=run.resolved,
        backend=backend,
        ranks=run.ranks,
        memory_per_rank=[m for p in payloads for m in p["memory_per_rank"]],
        tiles_per_rank=tiles_per_rank,
        cross_rank_messages=sum(p["cross_rank_messages"] for p in payloads),
        cross_rank_cells=sum(p["cross_rank_cells"] for p in payloads),
        events=events,
        schedule=run.schedule,
        tile_widths=dict(run.program.spec.tile_widths),
    )


def run_spmd(
    program: GeneratedProgram,
    params: Mapping[str, int],
    ranks: int,
    kernel: Optional[Kernel] = None,
    priority_scheme: str = "lb-first",
    record_values: bool = False,
    graph: Optional[TileGraph] = None,
    keep_edges: bool = False,
    mode: str = "auto",
    lb_method: str = "dimension-cut",
    record_events: bool = False,
    rank_of: Optional[np.ndarray] = None,
    backend: str = "inline",
    schedule: str = "dynamic",
) -> ExecutionResult:
    """Execute the program across *ranks* SPMD ranks.

    Same signature surface as :func:`repro.runtime.executor.execute`
    plus *lb_method* (how tiles are partitioned) and *rank_of* (an
    explicit per-row rank assignment overriding the load balancer —
    used by tests to probe pathological partitions).  Returns an
    :class:`ExecutionResult` whose per-rank fields
    (``memory_per_rank``, ``tiles_per_rank``, ``cross_rank_messages``)
    are filled in; ``tile_order`` is the global interleaved execution
    order, a valid topological order of the tile DAG.

    *backend* selects the transport: ``"inline"`` (this module — ranks
    interleaved cooperatively in one thread, the deterministic oracle)
    or ``"process"`` (:mod:`repro.runtime.parallel` — one OS process
    per rank over shared-memory segments, for real wall-clock
    parallelism; its ``tile_order`` is per-rank-grouped rather than a
    global interleaving).
    """
    if backend not in SPMD_BACKENDS:
        raise RuntimeExecutionError(
            f"unknown SPMD backend {backend!r}; expected one of "
            f"{SPMD_BACKENDS}"
        )
    from .parallel import arena_capacities, run_spmd_process

    if backend == "process":
        return run_spmd_process(
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
            rank_of=rank_of,
            schedule=schedule,
        )
    run = _prepare(
        program, params, ranks, kernel, priority_scheme, record_values,
        graph, keep_edges, mode, lb_method, record_events, rank_of, schedule,
    )
    # One ghost-array arena shared by every rank's turns, sized for the
    # widest front any rank can pop (a turn is done with it before the
    # next one starts; retained interiors are copies).
    cap = max(arena_capacities(run.graph, run.rank_of, ranks, run.resolved))
    arena = np.empty((cap,) + tuple(program.layout.padded_shape))
    loop = _RankLoop(run, arena)
    loop.sched.seed()
    transport = _InlineTransport(loop.sched)
    loop.drive(transport)
    undelivered = sum(len(c) for c in transport.channels.values())
    if undelivered:  # pragma: no cover - implied by finished == T
        raise RuntimeExecutionError(
            f"{undelivered} cross-rank messages were never received"
        )
    return _assemble(run, "inline", [loop.finish(transport.ranks)])
