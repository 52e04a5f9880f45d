"""Packing and unpacking functions (paper Section IV-I).

After a tile finishes, only the cells near its faces are needed by
neighbouring tiles.  For each tile-dependency offset ``delta`` the
*packing* function copies the face region into a condensed contiguous
buffer (cheap to keep around, and in the form MPI transfers); the
*unpacking* function scatters that buffer into the consumer tile's ghost
margins.  Both use the *same* iteration space and scan order — the paper
stresses this — so the plan is built once and shared.

Region, in producer-local coordinates ``i'`` (with global ghost margins
``g_lo``/``g_hi`` from the template reach):

* ``delta_k = +1`` — the low slab ``0 <= i'_k < g_hi_k`` (these cells sit
  just past the consumer's high face),
* ``delta_k = -1`` — the high slab ``w_k - g_lo_k <= i'_k < w_k``,
* ``delta_k = 0``  — the full extent ``0 <= i'_k < w_k``,

intersected with the producer's local space (boundary tiles are partial).
The consumer-local coordinate of a packed cell is ``i' + w * delta``,
which lands inside the consumer's ghost margin by construction.

The region is kept as a symbolic loop nest (``PackPlan.region_nest``):
the C and Python emitters print it as the pack/unpack loops, and the
tile graph counts it.  The runtime never walks it cell by cell.  It
lowers the nest once per region shape to flat padded-array index arrays
(:func:`repro.polyhedra.batch.nest_scan_array`, the same lexicographic
order), so ``pack`` is one gather ``array.flat[src]`` and ``unpack`` one
scatter ``array.flat[dst] = buffer`` — the concrete-index-format
lowering of "Compiling Recurrences over Dense and Sparse Arrays".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..errors import GenerationError
from ..polyhedra import Constraint, ConstraintSystem, LinExpr, LoopNest, synthesize_loop_nest
from ..polyhedra.batch import nest_scan_array
from ..spec import ProblemSpec
from .mapping import TileLayout
from .spaces import IterationSpaces
from .tile_deps import Delta, tile_dependency_map


@dataclass(frozen=True)
class PackPlan:
    """Everything needed to pack/unpack one edge (one delta).

    :attr:`region_nest` is the scan the emitters print and the tests use
    as the oracle; :meth:`pack`/:meth:`unpack` run on index arrays built
    from it lazily (never at generation time) and memoized on the plan:
    one shared pair for fully-interior regions, one pair per producer
    tile for clipped ones.
    """

    delta: Delta
    templates: Tuple[str, ...]
    region_nest: LoopNest           # over producer-local vars; producer t symbolic
    consumer_shift: Tuple[int, ...]  # w_k * delta_k per dimension
    full_checker: object = None      # env -> bool: region box fully inside?
    full_cells: int = 0              # region size when full
    #: The region's global-coordinate box, ``x_k in w_k*t_k + [lo, hi]``,
    #: in :func:`repro.generator.boxcheck.make_box_min_checker` form —
    #: kept so the tile graph can run the full-region test in batch.
    full_box: Mapping[str, Tuple[object, object]] = None

    def region_size(self, producer_env: Mapping[str, int]) -> int:
        """Number of cells this edge carries for a given producer tile.

        Fully-interior regions are answered in closed form; clipped
        regions fall back to the compiled scan.
        """
        from ..polyhedra.compile import compile_counter

        if self.full_checker is not None and self.full_checker(producer_env):
            return self.full_cells
        return compile_counter(self.region_nest)(producer_env)

    def full_region_batch(self, spec: ProblemSpec, tile_vars: Tuple[str, ...]):
        """Batched full-region test over producer-tile columns.

        Returns ``fn(env, tiles) -> bool[n]`` (True = the region is
        fully inside the space, size :attr:`full_cells`), or ``None``
        when no region can ever be full — the vectorized twin of
        :attr:`full_checker`, built once and cached.
        """
        cached = getattr(self, "_full_batch", None)
        if cached is not None:
            return cached[0]
        from .boxcheck import make_box_min_batch

        batch = None
        if self.full_box is not None:
            batch = make_box_min_batch(spec.constraints, self.full_box, tile_vars)
        object.__setattr__(self, "_full_batch", (batch,))
        return batch

    def pack(
        self,
        producer_env: Mapping[str, int],
        array: np.ndarray,
        layout: TileLayout,
        local_vars: Tuple[str, ...],
    ) -> np.ndarray:
        """Condense the face region of *array* into a fresh flat buffer."""
        src, _ = self._indices(producer_env, layout, local_vars)
        return array.flat[src]

    def unpack(
        self,
        producer_env: Mapping[str, int],
        buffer: np.ndarray,
        array: np.ndarray,
        layout: TileLayout,
        local_vars: Tuple[str, ...],
    ) -> None:
        """Scatter *buffer* into the consumer tile's ghost margin.

        *producer_env* is the same environment used by :meth:`pack` — the
        iteration spaces must match exactly for the order to agree.
        """
        _, dst = self._indices(producer_env, layout, local_vars)
        if len(dst) != len(buffer):
            raise GenerationError(
                f"unpack scans {len(dst)} cells but the buffer holds "
                f"{len(buffer)}; pack/unpack iteration spaces diverged"
            )
        array.flat[dst] = buffer

    # -- index plans ----------------------------------------------------------

    def _indices(
        self,
        producer_env: Mapping[str, int],
        layout: TileLayout,
        local_vars: Tuple[str, ...],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat padded-array ``(src, dst)`` indices of the region, memoized.

        A full region is the same local slab for every tile and every
        parameter set, so it has one entry per plan.  Clipped (and empty)
        regions are keyed by the producer tile and kept for the most
        recent parameter set only, so the memo is bounded by one run's
        tile space.  The memo is dropped when the layout or the local
        variable order changes.
        """
        memo = self.__dict__.get("_index_memo")
        geometry = (layout, tuple(local_vars))
        if memo is None or memo["geometry"] != geometry:
            memo = {"geometry": geometry, "full": None, "params": None,
                    "clipped": {}}
            object.__setattr__(self, "_index_memo", memo)
        if self.full_checker is not None and self.full_checker(producer_env):
            if memo["full"] is None:
                memo["full"] = self._scan_indices(
                    producer_env, layout, local_vars
                )
            return memo["full"]
        param_names, tile_names = self._memo_names()
        params = tuple(producer_env[p] for p in param_names)
        if params != memo["params"]:
            memo["params"] = params
            memo["clipped"] = {}
        clipped = memo["clipped"]
        key = tuple(producer_env[t] for t in tile_names)
        found = clipped.get(key)
        if found is None:
            found = clipped[key] = self._scan_indices(
                producer_env, layout, local_vars
            )
        return found

    def _memo_names(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """``(parameter names, tile-variable names)`` the region reads.

        Tile variables are the ones :attr:`full_box` is affine in; every
        other free symbol of :attr:`region_nest` counts as a parameter.
        """
        cached = self.__dict__.get("_names")
        if cached is not None:
            return cached
        from ..polyhedra.compile import _free_variables

        tiles: List[str] = []
        for (lo_coeffs, _), _ in (self.full_box or {}).values():
            tiles.extend(t for t in lo_coeffs if t not in tiles)
        params = tuple(
            v for v in _free_variables(self.region_nest) if v not in tiles
        )
        names = (params, tuple(tiles))
        object.__setattr__(self, "_names", names)
        return names

    def _scan_indices(
        self,
        producer_env: Mapping[str, int],
        layout: TileLayout,
        local_vars: Tuple[str, ...],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scan the region as arrays and lower it to flat indices.

        A cell outside the padded array raises the
        :meth:`TileLayout.array_index` ``IndexError`` (first offending
        cell in scan order).
        """
        nest = self.region_nest
        points = nest_scan_array(nest, producer_env)
        points = points[:, [nest.order.index(v) for v in local_vars]]
        lo = np.asarray(layout.ghost_lo, dtype=np.int64)
        extent = np.asarray(layout.padded_shape, dtype=np.int64)
        flat = []
        for shift in ((0,) * len(lo), self.consumer_shift):
            padded = points + np.asarray(shift, dtype=np.int64) + lo
            bad = np.flatnonzero(((padded < 0) | (padded >= extent)).any(1))
            if bad.size:
                layout.array_index([int(i) for i in padded[bad[0]] - lo])
            idx = np.ravel_multi_index(tuple(padded.T), layout.padded_shape)
            idx.flags.writeable = False  # shared by every call of the memo
            flat.append(idx)
        return flat[0], flat[1]


def build_pack_plans(
    spec: ProblemSpec,
    spaces: IterationSpaces,
    layout: TileLayout,
    prune: str = "syntactic",
) -> Dict[Delta, PackPlan]:
    """One :class:`PackPlan` per tile-dependency offset."""
    dep_map = tile_dependency_map(spec)
    plans: Dict[Delta, PackPlan] = {}
    for delta, templates in dep_map.items():
        extra: List[Constraint] = []
        for k, x in enumerate(spec.loop_vars):
            iv = spaces.local_vars[k]
            w = spec.tile_widths[x]
            g_lo = layout.ghost_lo[k]
            g_hi = layout.ghost_hi[k]
            d = delta[k]
            if d > 0:
                if g_hi == 0:
                    raise GenerationError(
                        f"delta {delta} crosses the high face of {x!r} but no "
                        "template reaches past it"
                    )
                # 0 <= i' <= g_hi - 1
                extra.append(Constraint(LinExpr({iv: -1}, g_hi - 1)))
            elif d < 0:
                if g_lo == 0:
                    raise GenerationError(
                        f"delta {delta} crosses the low face of {x!r} but no "
                        "template reaches below it"
                    )
                # w - g_lo <= i'
                extra.append(Constraint(LinExpr({iv: 1}, -(w - g_lo))))
            # d == 0: the local space's own 0 <= i' <= w-1 suffices.
        region_system = spaces.local_system.and_also(extra)
        region_nest = synthesize_loop_nest(
            region_system, list(spaces.local_vars), prune=prune
        )
        shift = tuple(
            spec.tile_widths[x] * delta[k] for k, x in enumerate(spec.loop_vars)
        )
        # Closed-form fast path: when the region box lies entirely inside
        # the original space, its size is the product of the slab widths.
        from .boxcheck import make_box_min_checker

        box = {}
        full_cells = 1
        for k, x in enumerate(spec.loop_vars):
            w = spec.tile_widths[x]
            tv = spaces.tile_vars[k]
            d = delta[k]
            if d > 0:
                lo_off, hi_off = 0, layout.ghost_hi[k] - 1
            elif d < 0:
                lo_off, hi_off = w - layout.ghost_lo[k], w - 1
            else:
                lo_off, hi_off = 0, w - 1
            box[x] = (({tv: w}, lo_off), ({tv: w}, hi_off))
            full_cells *= hi_off - lo_off + 1
        checker = make_box_min_checker(spec.constraints, box)
        plans[delta] = PackPlan(
            delta=delta,
            templates=templates,
            region_nest=region_nest,
            consumer_shift=shift,
            full_checker=checker,
            full_cells=full_cells,
            full_box=box,
        )
    return plans
