"""Vectorized tile execution: the executor's fast path.

The interpreter in :mod:`repro.runtime.executor` evaluates a tile
cell-by-cell — per-point dict construction plus a Python-level kernel
call — which is the single hottest path of the whole system.  For specs
that carry a :data:`~repro.spec.VectorKernel` (an array-level twin of the
scalar kernel) this module executes the *entire tile* with whole-array
numpy operations instead:

1. **Validity masks** — every ``is_valid_r*`` check is a linear
   inequality over the global coordinates.  Its value over the tile's
   local box splits into a tile-invariant array part (precomputed once
   per program) plus a per-tile scalar base, so each check becomes one
   broadcast comparison — and interval analysis (min/max of the array
   part) collapses most checks to a scalar ``True``/``False`` per tile.

2. **Wavefront evaluation** — cells are grouped by the level function
   ``level(i) = sum_k dir_k * i_k`` (the anti-diagonal level sets of the
   local box under the spec's scan directions).  Every template vector
   strictly decreases the level (checked at construction; programs where
   some template does not are unsupported and fall back to the
   interpreter), so within one level no cell depends on another and the
   whole level is evaluated with one vector-kernel call.  Dependency
   values are whole-array *views* of the padded ghost array shifted by
   the template vector — no gather logic beyond numpy fancy indexing.

3. **Edges move by the shared index plans** — the engine only replaces
   the center loop.  Pack and unpack are the plan's index-array gather
   and scatter (:class:`repro.generator.packing.PackPlan`), the same
   ones the interpreter path uses, so the edge protocol, memory
   accounting and tile ordering are byte-for-byte those of the
   interpreter.

The engine is bit-identical to the interpreter: vector kernels apply the
same IEEE operations in the same order, and the cross-check suite
(tests/test_fastpath.py) pins every bundled problem to the interpreter
and to ``solve_reference`` exactly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..polyhedra import Constraint

__all__ = [
    "VectorTileEngine",
    "WavefrontEngine",
    "WavefrontRun",
    "vector_unsupported_reason",
]


def vector_unsupported_reason(program: GeneratedProgram) -> Optional[str]:
    """Why the vectorized fast path cannot run *program* (None = it can).

    Dispatch rules (documented in docs/architecture.md): the spec must
    provide a vector kernel, and every template vector must strictly
    decrease the wavefront level function ``sum_k dir_k * i_k`` so that
    level sets are data-parallel.
    """
    spec = program.spec
    if spec.vector_kernel is None:
        return f"problem {spec.name!r} has no vector kernel"
    directions = spec.scan_directions()
    for name, vec in spec.templates.items():
        step = sum(directions[x] * r for x, r in zip(spec.loop_vars, vec))
        if step >= 0:
            return (
                f"template {name!r} does not decrease the wavefront level "
                f"(direction-weighted step {step:+d}); level sets are not "
                "data-parallel"
            )
    return None


def _affine_parts(
    constraint: Constraint,
    loop_vars: Sequence[str],
    widths: Sequence[int],
    grids: np.ndarray,
):
    """Split ``a.x + c`` into (const, param terms, tile coeffs, box array).

    With ``x_k = w_k * t_k + i_k`` the constraint value over a tile's
    local box is ``const + sum_p b_p p + sum_k a_k w_k t_k`` (a per-tile
    scalar) plus ``sum_k a_k i_k`` (a tile-invariant array over the box).
    """
    expr = constraint.expr
    const = expr.constant
    if const.denominator != 1:
        raise RuntimeExecutionError(f"non-integral check constraint {constraint}")
    loop_set = set(loop_vars)
    param_items: List[Tuple[str, int]] = []
    tile_coefs = [0] * len(loop_vars)
    lin: Optional[np.ndarray] = None
    for name, coef in expr.terms():
        if coef.denominator != 1:
            raise RuntimeExecutionError(
                f"non-integral check constraint {constraint}"
            )
        c = coef.numerator
        if name in loop_set:
            k = loop_vars.index(name)
            tile_coefs[k] = c * widths[k]
            contrib = c * grids[k]
            lin = contrib if lin is None else lin + contrib
        else:
            param_items.append((name, c))
    if lin is None:
        lo = hi = 0
    else:
        lo = int(lin.min())
        hi = int(lin.max())
    return {
        "const": const.numerator,
        "param_items": tuple(param_items),
        "tile_coefs": tuple(tile_coefs),
        "lin": lin,
        "lin_min": lo,
        "lin_max": hi,
        "is_eq": constraint.is_equality(),
    }


class VectorTileEngine:
    """Executes one tile's local iteration space with numpy wavefronts.

    All loop-invariant artifacts — coordinate grids, the level function,
    the full-box wavefront partition, per-check array parts and the
    per-template shifted views — are derived once at construction and
    shared by every tile of every run of the program.
    """

    def __init__(self, program: GeneratedProgram):
        reason = vector_unsupported_reason(program)
        if reason is not None:
            raise RuntimeExecutionError(
                f"vectorized execution unsupported: {reason}"
            )
        spec = program.spec
        self.program = program
        self.spec = spec
        self.layout = program.layout
        self.loop_vars = spec.loop_vars
        self.widths = spec.tile_width_vector()
        self.vector_kernel = spec.vector_kernel

        layout = self.layout
        self.interior_slices = tuple(
            slice(lo, lo + w) for lo, w in zip(layout.ghost_lo, self.widths)
        )
        # Per template: the shifted box view of the padded array whose
        # element [i] is the dependency value of interior cell i.
        self.template_slices: Dict[str, Tuple[slice, ...]] = {}
        for name, vec in spec.templates.items():
            self.template_slices[name] = tuple(
                slice(lo + r, lo + r + w)
                for lo, r, w in zip(layout.ghost_lo, vec, self.widths)
            )

        # Local-coordinate grids and the wavefront level function.
        grids = np.indices(self.widths)
        self._grids = grids
        directions = spec.scan_directions()
        self._dirs = tuple(directions[x] for x in self.loop_vars)
        levels = np.zeros(self.widths, dtype=np.int64)
        for k, d in enumerate(self._dirs):
            levels += d * grids[k]
        flat = levels.reshape(-1)
        order = np.argsort(flat, kind="stable")
        cuts = np.flatnonzero(np.diff(flat[order])) + 1
        self._full_groups: List[np.ndarray] = np.split(order, cuts)
        self._full_wavefronts = [
            np.unravel_index(g, self.widths) for g in self._full_groups
        ]
        self._full_cells = int(np.prod(self.widths))

        # Affine data for the in-space constraints and the validity checks.
        self._space_parts = [
            _affine_parts(c, self.loop_vars, self.widths, grids)
            for c in spec.constraints
        ]
        self._check_parts = [
            _affine_parts(c, self.loop_vars, self.widths, grids)
            for c in program.validity.checks
        ]
        self.per_template = {
            name: tuple(ids)
            for name, ids in program.validity.per_template.items()
        }

    # -- per-tile affine evaluation ------------------------------------------

    def _eval_parts(self, parts, tile, params):
        """Constraint truth over the box: scalar bool or boolean array."""
        base = parts["const"]
        for name, c in parts["param_items"]:
            base += c * params[name]
        for k, c in enumerate(parts["tile_coefs"]):
            if c:
                base += c * tile[k]
        lin = parts["lin"]
        if parts["is_eq"]:
            if lin is None:
                return base == 0
            if base + parts["lin_min"] > 0 or base + parts["lin_max"] < 0:
                return False
            return (base + lin) == 0
        if lin is None:
            return base >= 0
        if base + parts["lin_min"] >= 0:
            return True
        if base + parts["lin_max"] < 0:
            return False
        return (base + lin) >= 0

    def _in_space_mask(self, tile, params) -> Optional[np.ndarray]:
        """Boolean box mask of iteration-space cells; None = whole box."""
        mask: Optional[np.ndarray] = None
        for parts in self._space_parts:
            m = self._eval_parts(parts, tile, params)
            if m is True:
                continue
            if m is False:
                return np.zeros(self.widths, dtype=bool)
            mask = m if mask is None else (mask & m)
        return mask

    def _template_validity(self, tile, params) -> Dict[str, object]:
        """Per-template validity over the box (scalar bool or array)."""
        cache: Dict[int, object] = {}
        out: Dict[str, object] = {}
        for name, ids in self.per_template.items():
            combined: object = True
            for idx in ids:
                m = cache.get(idx)
                if m is None:
                    m = self._eval_parts(self._check_parts[idx], tile, params)
                    cache[idx] = m
                if m is False:
                    combined = False
                    break
                if m is True:
                    continue
                combined = m if combined is True else (combined & m)
            out[name] = combined
        return out

    def _wavefronts(self, mask: Optional[np.ndarray]):
        if mask is None:
            return self._full_wavefronts
        flat = mask.reshape(-1)
        fronts = []
        for g in self._full_groups:
            sel = g[flat[g]]
            if sel.size:
                fronts.append(np.unravel_index(sel, self.widths))
        return fronts

    # -- tile execution -------------------------------------------------------

    def execute_tile(
        self,
        tile: Tuple[int, ...],
        array: np.ndarray,
        params: Mapping[str, int],
        values: Optional[Dict[Tuple[int, ...], float]] = None,
    ) -> int:
        """Evaluate the recurrence on every in-space cell of *tile*.

        *array* is the padded tile array with ghost margins already
        unpacked.  Returns the number of cells computed; records every
        cell into *values* when given (keys are global-coordinate
        tuples, exactly as the interpreter produces them).
        """
        mask = self._in_space_mask(tile, params)
        if mask is None:
            ncells = self._full_cells
        else:
            ncells = int(np.count_nonzero(mask))
            if ncells == self._full_cells:
                mask = None
        fronts = self._wavefronts(mask)
        if not fronts:
            return 0

        validity = self._template_validity(tile, params)
        interior = array[self.interior_slices]
        dep_views = {
            name: array[slc] for name, slc in self.template_slices.items()
        }
        base = [w * t for w, t in zip(self.widths, tile)]
        vector_kernel = self.vector_kernel
        nan = np.float64(np.nan)

        for idx in fronts:
            point = {
                x: base[k] + idx[k] for k, x in enumerate(self.loop_vars)
            }
            deps: Dict[str, object] = {}
            valid: Dict[str, object] = {}
            for name, view in dep_views.items():
                v = validity[name]
                if v is False:
                    deps[name] = nan
                    valid[name] = np.False_
                    continue
                vals = view[idx]
                if isinstance(v, np.ndarray):
                    vmask = v[idx]
                    bad = np.isnan(vals) & vmask
                else:
                    vmask = np.True_
                    bad = np.isnan(vals)
                if bad.any():
                    k = int(np.flatnonzero(bad)[0])
                    where = {
                        x: int(point[x][k]) for x in self.loop_vars
                    }
                    raise RuntimeExecutionError(
                        f"tile {tile}: dependency {name} of point {where} "
                        "is valid but its value was never computed or "
                        "delivered"
                    )
                deps[name] = vals
                valid[name] = vmask
            out = np.asarray(
                vector_kernel(point, deps, valid, params), dtype=np.float64
            )
            if out.ndim == 0:
                out = np.broadcast_to(out, idx[0].shape)
            interior[idx] = out
            if values is not None:
                cols = np.stack(
                    [point[x] for x in self.loop_vars], axis=1
                ).tolist()
                values.update(zip(map(tuple, cols), out.tolist()))
        return ncells


class WavefrontEngine:
    """Evaluates whole ready-fronts of tiles as one batched operation.

    The per-tile :class:`VectorTileEngine` still pays Python per tile:
    one ghost-array allocation, one pack/unpack round-trip per edge (an
    index-array gather into a fresh buffer, then a scatter), one
    validity evaluation, and one kernel call per intra-tile wavefront.
    This engine amortizes all of that over a *batch* — every
    simultaneously-ready tile of one static wavefront level (see
    :meth:`repro.runtime.scheduler.TileScheduler.start_batch`):

    * the batch shares a single padded ghost array of shape
      ``(B, *padded_shape)``, allocated once per front;
    * interior cross-tile edges are **array slices**: a consumer's ghost
      margin is filled directly from the retained interior of its
      producer (``fill_slices`` maps each delta to a static
      producer-slab → consumer-window slice pair), so the pack/copy/
      unpack round-trip disappears.  Packed edges survive only at rank
      boundaries (SPMD) — exactly the edges the generated C sends over
      MPI;
    * interval analysis runs **batched**: one integer matmul classifies
      every validity check of every tile in the front as uniformly
      true/false or mixed.  Tiles whose box is fully in space and whose
      checks all collapse are evaluated *fused* — one vector-kernel call
      per intra-tile level for the whole sub-batch; the rest fall back
      to the per-tile engine on their own padded row (identical
      numerics, still no packing).

    Bit-identity with the per-tile path holds because vector kernels are
    lane-wise: stacking tiles along a batch axis feeds every cell the
    same dependency values through the same IEEE operations in the same
    order.  Results are pinned against ``mode="vector"``, the
    interpreter and ``solve_reference`` in tests/test_wavefront.py.

    Construction derives only program-level geometry; per-run state
    (retained interiors, refcounts, parameter-folded check bases) lives
    in :class:`WavefrontRun`.
    """

    def __init__(
        self,
        program: GeneratedProgram,
        tile_engine: Optional[VectorTileEngine] = None,
    ):
        self.tile_engine = (
            tile_engine if tile_engine is not None
            else VectorTileEngine(program)
        )
        eng = self.tile_engine
        self.program = program
        self.spec = eng.spec
        self.layout = eng.layout
        self.loop_vars = eng.loop_vars
        self.widths = eng.widths
        self.padded_shape = tuple(eng.layout.padded_shape)
        self.interior_slices = eng.interior_slices
        self.deltas = list(program.deltas)

        # Ghost-fill geometry per delta (producer = consumer + delta):
        # the producer-interior slab visible through the consumer's
        # padded window, and the window slice it lands in.  With
        # ``i_consumer = i_producer + w_k * delta_k`` both are static.
        ghost_lo = eng.layout.ghost_lo
        ghost_hi = eng.layout.ghost_hi
        self.fill_slices: Dict[tuple, Tuple[tuple, tuple]] = {}
        for delta in self.deltas:
            src: List[slice] = []
            dst: List[slice] = []
            for k, d in enumerate(delta):
                w = self.widths[k]
                lo = ghost_lo[k]
                hi = ghost_hi[k]
                p_lo = max(0, -lo - d * w)
                p_hi = min(w, w + hi - d * w)
                src.append(slice(p_lo, p_hi))
                dst.append(slice(p_lo + d * w + lo, p_hi + d * w + lo))
            self.fill_slices[delta] = (tuple(src), tuple(dst))

        # Batched interval analysis: stack every space constraint and
        # validity check into one (d, P) tile-coefficient matrix so a
        # single integer matmul yields the per-tile scalar base of every
        # part for the whole batch.
        self._parts = list(eng._space_parts) + list(eng._check_parts)
        self._n_space = len(eng._space_parts)
        d = len(self.loop_vars)
        if self._parts:
            self._coef = np.array(
                [p["tile_coefs"] for p in self._parts], dtype=np.int64
            ).T
        else:
            self._coef = np.zeros((d, 0), dtype=np.int64)
        self.per_template = eng.per_template


class WavefrontRun:
    """Per-run state of the wavefront-fused executor.

    Holds the retained tile interiors (the slice-copy substitute for
    packed interior edges), their refcounts (number of *same-rank*
    consumers still to run), the parameter-folded check bases, and the
    run's ``values``/cell accounting.  Drivers call
    :meth:`execute_batch` once per drained front and
    :meth:`verify_drained` after the loop.

    *arena* is an optional externally-owned ``(cap, *padded_shape)``
    float64 buffer backing the batch ghost arrays: when given (and the
    front fits), :meth:`execute_batch` evaluates the front in place in
    ``arena[:B]`` instead of allocating a fresh array per front.  The
    process-parallel SPMD backend (:mod:`repro.runtime.parallel`) hands
    each rank a view into a ``multiprocessing.shared_memory`` segment
    here, and the single-rank driver reuses one heap allocation across
    every front.  A returned batch is only valid until the next
    :meth:`execute_batch` call.
    """

    def __init__(
        self,
        engine: WavefrontEngine,
        graph,
        params: Mapping[str, int],
        rank_of: Optional[Sequence[int]] = None,
        values: Optional[Dict[Tuple[int, ...], float]] = None,
        arena: Optional[np.ndarray] = None,
    ):
        self.engine = engine
        self.graph = graph
        self.params = dict(params)
        self.values = values
        self.cells = 0
        if arena is not None:
            expected = engine.padded_shape
            if (
                arena.ndim != len(expected) + 1
                or tuple(arena.shape[1:]) != expected
                or arena.dtype != np.float64
            ):
                raise RuntimeExecutionError(
                    f"wavefront arena must be float64 with shape "
                    f"(cap, {', '.join(map(str, expected))}); got "
                    f"{arena.dtype} {tuple(arena.shape)}"
                )
        self._arena = arena
        self._store: Dict[int, np.ndarray] = {}
        self._refs: Dict[int, int] = {}
        # Per-part scalar base with the run's parameters folded in; the
        # batch classification only adds the tile term.
        base0 = [
            p["const"]
            + sum(c * self.params[name] for name, c in p["param_items"])
            for p in engine._parts
        ]
        self._base0 = np.asarray(base0, dtype=np.int64)
        # How many consumers of each row read its interior through the
        # shared array (same rank); cross-rank consumers go through
        # packed edges and are not counted.
        counts = np.diff(graph.cons_ptr)
        if rank_of is None:
            self._nlocal = counts.astype(np.int64)
        else:
            r = np.asarray(rank_of, dtype=np.int64)
            owner = np.repeat(np.arange(counts.size), counts)
            same = r[owner] == r[graph.cons_rows]
            self._nlocal = np.bincount(
                owner[same], minlength=counts.size
            ).astype(np.int64)

    # -- batched interval analysis -------------------------------------------

    def _classify(self, tiles_arr: np.ndarray):
        """Fusable mask + per-template scalar validity for one batch.

        A tile is *fusable* when its box is entirely in the iteration
        space and every validity check collapses to a scalar over the
        box — the batched twin of
        :meth:`VectorTileEngine._eval_parts` interval analysis.  Mixed
        tiles fall back to the per-tile engine.
        """
        eng = self.engine
        B = tiles_arr.shape[0]
        P = len(eng._parts)
        fused = np.ones(B, dtype=bool)
        valid: Dict[str, np.ndarray] = {}
        vals = self._base0[None, :] + tiles_arr @ eng._coef
        uni_true = np.empty((P, B), dtype=bool)
        uni_false = np.empty((P, B), dtype=bool)
        for i, p in enumerate(eng._parts):
            v = vals[:, i]
            lin_min = p["lin_min"]
            lin_max = p["lin_max"]
            if p["lin"] is None or lin_min == lin_max:
                vv = v + lin_min
                t = (vv == 0) if p["is_eq"] else (vv >= 0)
                f = ~t
            elif p["is_eq"]:
                f = (v + lin_min > 0) | (v + lin_max < 0)
                t = np.zeros(B, dtype=bool)
            else:
                t = v + lin_min >= 0
                f = v + lin_max < 0
            uni_true[i] = t
            uni_false[i] = f
        for i in range(eng._n_space):
            fused &= uni_true[i]
        ns = eng._n_space
        for name, ids in eng.per_template.items():
            has_false = np.zeros(B, dtype=bool)
            all_true = np.ones(B, dtype=bool)
            for idx in ids:
                has_false |= uni_false[ns + idx]
                all_true &= uni_true[ns + idx]
            # Classified = uniformly False (some check fails everywhere)
            # or uniformly True (every check holds everywhere).
            fused &= has_false | all_true
            valid[name] = all_true
        return fused, valid

    # -- batch execution ------------------------------------------------------

    def execute_batch(
        self,
        rows: Sequence[int],
        packed: Optional[Dict[Tuple[int, int], np.ndarray]] = None,
    ) -> np.ndarray:
        """Evaluate one drained front; returns the batch padded array.

        *rows* are mutually independent (one ``start_batch`` result).
        *packed* maps ``(producer_row, row)`` to a packed edge buffer
        for edges that crossed a rank boundary; every other incoming
        edge is ghost-filled by slicing the producer's retained
        interior.  The returned ``(B, *padded_shape)`` array row ``b``
        is tile ``rows[b]``'s padded array — drivers read objective
        cells and pack outgoing cross-rank edges from it.
        """
        eng = self.engine
        graph = self.graph
        B = len(rows)
        arena = self._arena
        if arena is not None and B <= arena.shape[0]:
            batch = arena[:B]
            batch.fill(np.nan)
        else:
            batch = np.full(
                (B,) + eng.padded_shape, np.nan, dtype=np.float64
            )
        pptr = graph.prod_ptr
        prows = graph.prod_rows
        pdelta = graph.prod_delta
        deltas = eng.deltas
        store = self._store
        refs = self._refs
        program = eng.program
        spaces = program.spaces
        tt = graph.tile_tuples
        for b, row in enumerate(rows):
            arr = batch[b]
            for e in range(int(pptr[row]), int(pptr[row + 1])):
                p = int(prows[e])
                buf = packed.pop((p, row), None) if packed else None
                if buf is not None:
                    plan = program.pack_plans[deltas[int(pdelta[e])]]
                    env = dict(self.params)
                    env.update(spaces.tile_env(tt[p]))
                    plan.unpack(env, buf, arr, eng.layout, spaces.local_vars)
                    continue
                interior = store.get(p)
                if interior is None:
                    raise RuntimeExecutionError(
                        f"tile {tt[row]} started before the interior of "
                        f"its producer {tt[p]} was retained"
                    )
                src, dst = eng.fill_slices[deltas[int(pdelta[e])]]
                arr[dst] = interior[src]
                refs[p] -= 1
                if refs[p] == 0:
                    del store[p]
                    del refs[p]

        tiles_arr = graph.tile_array[list(rows)]
        fused, valid = self._classify(tiles_arr)
        cells = 0
        tile_engine = eng.tile_engine
        for b in np.flatnonzero(~fused).tolist():
            cells += tile_engine.execute_tile(
                tt[rows[b]], batch[b], self.params, self.values
            )
        fi = np.flatnonzero(fused)
        if fi.size:
            cells += self._execute_fused(batch, fi, tiles_arr, valid)
        self.cells += cells

        nlocal = self._nlocal
        interior_slices = eng.interior_slices
        for b, row in enumerate(rows):
            n = int(nlocal[row])
            if n:
                store[row] = batch[b][interior_slices].copy()
                refs[row] = n
        return batch

    def _execute_fused(
        self,
        batch: np.ndarray,
        fi: np.ndarray,
        tiles_arr: np.ndarray,
        valid_scalar: Dict[str, np.ndarray],
    ) -> int:
        """One fused evaluation of every full, collapsed tile in the batch.

        Cells are flattened tile-major per intra-tile level, so the
        kernel sees exactly the 1-D lane arrays the per-tile engine
        feeds it — just more lanes per call.
        """
        eng = self.engine
        tile_engine = eng.tile_engine
        full = fi.size == batch.shape[0]
        sub = batch if full else batch[fi]
        Bf = int(fi.size)
        widths = np.asarray(eng.widths, dtype=np.int64)
        base = tiles_arr[fi] * widths[None, :]
        interior = sub[(slice(None),) + eng.interior_slices]
        views = {
            name: sub[(slice(None),) + slc]
            for name, slc in tile_engine.template_slices.items()
        }
        vcols = {name: valid_scalar[name][fi] for name in views}
        vector_kernel = tile_engine.vector_kernel
        values = self.values
        loop_vars = eng.loop_vars
        params = self.params
        for idx in tile_engine._full_wavefronts:
            L = idx[0].shape[0]
            point = {
                x: (base[:, k, None] + idx[k][None, :]).reshape(-1)
                for k, x in enumerate(loop_vars)
            }
            deps: Dict[str, object] = {}
            valid: Dict[str, object] = {}
            for name, view in views.items():
                vals = view[(slice(None),) + idx].reshape(-1)
                vmask = np.repeat(vcols[name], L)
                bad = np.isnan(vals) & vmask
                if bad.any():
                    j = int(np.flatnonzero(bad)[0])
                    tile = tuple(tiles_arr[int(fi[j // L])].tolist())
                    where = {x: int(point[x][j]) for x in loop_vars}
                    raise RuntimeExecutionError(
                        f"tile {tile}: dependency {name} of point {where} "
                        "is valid but its value was never computed or "
                        "delivered"
                    )
                deps[name] = vals
                valid[name] = vmask
            out = np.asarray(
                vector_kernel(point, deps, valid, params), dtype=np.float64
            )
            if out.ndim == 0:
                out = np.broadcast_to(out, (Bf * L,))
            interior[(slice(None),) + idx] = out.reshape(Bf, L)
            if values is not None:
                cols = np.stack(
                    [point[x] for x in loop_vars], axis=1
                ).tolist()
                values.update(zip(map(tuple, cols), out.tolist()))
        if not full:
            batch[fi] = sub
        return Bf * tile_engine._full_cells

    # -- terminal check -------------------------------------------------------

    def verify_drained(self) -> None:
        """Raise unless every retained interior was consumed."""
        if self._store:
            raise RuntimeExecutionError(
                f"{len(self._store)} tile interiors were retained but "
                "never consumed by the wavefront ghost fill"
            )
