"""Solution recovery (paper Section VII-A), implemented.

The generated programs normally discard a tile's interior once its
edges are packed — only the objective value survives.  Recovering the
*solution* (a traceback through the decision space, or arbitrary cell
values) does not require storing the whole O(n^d) space: as the paper
sketches, "the edges of the tiles could be saved, and needed tiles
recalculated on the fly during the traceback".

:class:`SolutionRecovery` does exactly that: one forward pass through
the scheduler-driven executor with ``keep_edges=True`` retains the
O(n^(d-1)) packed edges; any tile can then be recomputed in isolation
by unpacking its stored incoming edges and re-running the kernel over
its local space.  ``value_at`` answers point queries, and ``traceback``
walks a user-supplied policy through the space, recomputing tiles on
demand (with a small LRU of recomputed tiles, since tracebacks revisit
neighbours).

Recovery owns no scheduling or compilation machinery of its own: the
forward pass is :func:`repro.runtime.executor.execute` (and therefore
:class:`repro.runtime.scheduler.TileScheduler`), tile recomputation
runs the interpreter's own tile body
(:meth:`~repro.runtime.executor.CompiledExecutor.make_run_state` →
``execute_tile``) with its cached scanner and validity checks, and
producer edges come from the graph's CSR arrays — the same delta-order
walk the unpack loop uses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..spec import Kernel
from .executor import compiled_executor, execute
from .graph import TileGraph, TileIndex, tile_graph

Point = Tuple[int, ...]

#: A traceback policy: given the current point, its dependency values
#: (None when invalid) and its own value, return the chosen template
#: name — or None to stop the walk.
Policy = Callable[[Mapping[str, int], Mapping[str, Optional[float]], float], Optional[str]]


class SolutionRecovery:
    """Point queries and tracebacks from saved edges (Section VII-A)."""

    def __init__(
        self,
        program: GeneratedProgram,
        params: Mapping[str, int],
        kernel: Optional[Kernel] = None,
        cache_tiles: int = 16,
        schedule: str = "dynamic",
    ):
        self.program = program
        self.params = dict(params)
        self.kernel = kernel if kernel is not None else program.spec.kernel
        if self.kernel is None:
            raise RuntimeExecutionError(
                "solution recovery needs a Python kernel"
            )
        self.graph = tile_graph(program, self.params)
        # The forward pass honors the caller's schedule policy; the
        # saved edge set is identical either way (every edge is packed
        # under keep_edges), so recovery itself is policy-blind.
        self.result = execute(
            program,
            self.params,
            kernel=self.kernel,
            graph=self.graph,
            keep_edges=True,
            schedule=schedule,
        )
        self._cache: "OrderedDict[TileIndex, Dict[Point, float]]" = OrderedDict()
        self._cache_tiles = cache_tiles
        # The executor's compiled artifacts and interpreter tile body,
        # shared rather than re-derived.
        self._compiled = compiled_executor(program)

    # -- tile recomputation -------------------------------------------------

    def tile_values(self, tile: TileIndex) -> Dict[Point, float]:
        """All cell values of one tile, recomputed from its saved edges."""
        cached = self._cache.get(tile)
        if cached is not None:
            self._cache.move_to_end(tile)
            return cached
        program = self.program
        spaces = program.spaces
        layout = program.layout
        edges = self.result.edges
        assert edges is not None
        row = self.graph.row_of(tile)
        tile_tuples = self.graph.tile_tuples

        array = np.full(layout.padded_shape, np.nan)
        for producer_row, delta_id in self.graph.producer_edges(row):
            producer = tile_tuples[producer_row]
            plan = program.pack_plans[program.deltas[delta_id]]
            env = dict(self.params)
            env.update(spaces.tile_env(producer))
            plan.unpack(
                env, edges[(producer, tile)], array, layout, spaces.local_vars
            )
        state = self._compiled.make_run_state(
            self.params, self.kernel, "interpret", record_values=True
        )
        state.execute_tile(tile, array)
        values = state.values

        self._cache[tile] = values
        if len(self._cache) > self._cache_tiles:
            self._cache.popitem(last=False)
        return values

    # -- queries -------------------------------------------------------------

    def value_at(self, point: Mapping[str, int]) -> float:
        """The DP value at any iteration-space point."""
        spec = self.program.spec
        env = dict(self.params)
        env.update(point)
        if not spec.constraints.satisfied(env):
            raise RuntimeExecutionError(
                f"point {dict(point)} is outside the iteration space"
            )
        tile = self.program.spaces.point_to_tile(point)
        key = tuple(point[v] for v in spec.loop_vars)
        return self.tile_values(tile)[key]

    def dependencies_at(
        self, point: Mapping[str, int]
    ) -> Dict[str, Optional[float]]:
        """Dependency values of a point (None where invalid)."""
        spec = self.program.spec
        out: Dict[str, Optional[float]] = {}
        for name in spec.templates.names():
            offsets = spec.templates.as_offset_map(name)
            target = {v: point[v] + offsets[v] for v in spec.loop_vars}
            env = dict(self.params)
            env.update(target)
            if spec.constraints.satisfied(env):
                out[name] = self.value_at(target)
            else:
                out[name] = None
        return out

    def traceback(
        self,
        policy: Policy,
        start: Optional[Mapping[str, int]] = None,
        max_steps: int = 100000,
    ) -> List[Tuple[Dict[str, int], Optional[str]]]:
        """Walk *policy* through the space, recomputing tiles on demand.

        Returns the visited ``(point, chosen_template)`` path; the final
        entry has ``None`` as its choice.
        """
        spec = self.program.spec
        point = dict(start if start is not None else spec.objective(self.params))
        path: List[Tuple[Dict[str, int], Optional[str]]] = []
        for _ in range(max_steps):
            value = self.value_at(point)
            deps = self.dependencies_at(point)
            choice = policy(point, deps, value)
            path.append((dict(point), choice))
            if choice is None:
                return path
            offsets = spec.templates.as_offset_map(choice)
            point = {v: point[v] + offsets[v] for v in spec.loop_vars}
        raise RuntimeExecutionError(
            f"traceback exceeded {max_steps} steps; the policy may loop"
        )

    @property
    def edge_memory_cells(self) -> int:
        """Cells held by the saved edges (the VII-A memory footprint)."""
        assert self.result.edges is not None
        return sum(len(buf) for buf in self.result.edges.values())
