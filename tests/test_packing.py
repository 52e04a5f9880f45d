"""Packing/unpacking (Section IV-I): roundtrips and ghost coverage."""

import numpy as np
import pytest

from repro.generator import build_iteration_spaces, build_layout, build_pack_plans
from repro.generator.tile_deps import delta_between, dependency_deltas
from repro.problems import REGISTRY, lcs_spec, two_arm_spec


@pytest.fixture(scope="module")
def bandit_setup():
    spec = two_arm_spec(tile_width=3)
    spaces = build_iteration_spaces(spec)
    layout = build_layout(spec)
    plans = build_pack_plans(spec, spaces, layout)
    return spec, spaces, layout, plans


@pytest.fixture(scope="module")
def lcs_setup():
    spec = lcs_spec(["ACGTACG", "GATTACA"], tile_width=3)
    spaces = build_iteration_spaces(spec)
    layout = build_layout(spec)
    plans = build_pack_plans(spec, spaces, layout)
    return spec, spaces, layout, plans


def fill_tile(spaces, layout, tile, params):
    """A producer array whose interior cells hold unique markers."""
    array = np.full(layout.padded_shape, np.nan)
    for env in spaces.local_points(tile, params):
        local = tuple(env[v] for v in spaces.local_vars)
        point = spaces.global_point(tile, local)
        marker = sum(
            point[v] * 1000 ** k
            for k, v in enumerate(spaces.spec.loop_vars)
        )
        array[layout.array_index(local)] = float(marker)
    return array


def marker_of(point, loop_vars):
    return float(sum(point[v] * 1000 ** k for k, v in enumerate(loop_vars)))


@pytest.mark.parametrize("setup_name", ["bandit_setup", "lcs_setup"])
def test_pack_unpack_roundtrip_preserves_values(setup_name, request):
    spec, spaces, layout, plans = request.getfixturevalue(setup_name)
    params = (
        {"N": 7}
        if "N" in spec.params
        else {"L1": 7, "L2": 7}
    )
    tiles = set(spaces.tiles(params))
    checked_edges = 0
    for consumer in tiles:
        consumer_array = np.full(layout.padded_shape, np.nan)
        for delta, plan in plans.items():
            producer = tuple(t + d for t, d in zip(consumer, delta))
            if producer not in tiles:
                continue
            env = dict(params)
            env.update(spaces.tile_env(producer))
            producer_array = fill_tile(spaces, layout, producer, params)
            buf = plan.pack(env, producer_array, layout, spaces.local_vars)
            assert len(buf) == plan.region_size(env)
            assert not np.isnan(buf).any(), "packed an uncomputed cell"
            plan.unpack(env, buf, consumer_array, layout, spaces.local_vars)
            checked_edges += 1
        # every ghost value written matches the producer's global marker
        for idx in np.argwhere(~np.isnan(consumer_array)):
            local = tuple(
                int(i) - lo for i, lo in zip(idx, layout.ghost_lo)
            )
            point = spaces.global_point(consumer, local)
            assert consumer_array[tuple(idx)] == marker_of(
                point, spec.loop_vars
            )
    assert checked_edges > 0


def test_ghost_coverage_bandit(bandit_setup):
    """Every valid cross-tile dependency must be delivered by some edge."""
    spec, spaces, layout, plans = bandit_setup
    params = {"N": 7}
    tiles = set(spaces.tiles(params))
    for consumer in tiles:
        consumer_array = np.full(layout.padded_shape, np.nan)
        for delta, plan in plans.items():
            producer = tuple(t + d for t, d in zip(consumer, delta))
            if producer not in tiles:
                continue
            env = dict(params)
            env.update(spaces.tile_env(producer))
            producer_array = fill_tile(spaces, layout, producer, params)
            buf = plan.pack(env, producer_array, layout, spaces.local_vars)
            plan.unpack(env, buf, consumer_array, layout, spaces.local_vars)
        # now check all needed ghosts are present
        for env in spaces.local_points(consumer, params):
            local = tuple(env[v] for v in spaces.local_vars)
            point = spaces.global_point(consumer, local)
            for name, vec in spec.templates.items():
                target = {
                    v: point[v] + o
                    for v, o in spec.templates.as_offset_map(name).items()
                }
                if not spec.constraints.satisfied({**target, **params}):
                    continue  # invalid access; kernel will not read it
                ghost = tuple(i + r for i, r in zip(local, vec))
                target_tile = spaces.point_to_tile(target)
                if target_tile == consumer:
                    continue  # computed in-tile, not via ghosts
                value = consumer_array[layout.array_index(ghost)]
                assert not np.isnan(value), (
                    f"dependency {name} of {point} missing from ghosts"
                )
                assert value == marker_of(target, spec.loop_vars)


def test_pack_buffer_order_is_deterministic(bandit_setup):
    spec, spaces, layout, plans = bandit_setup
    params = {"N": 7}
    tiles = list(spaces.tiles(params))
    producer = tiles[0]
    env = dict(params)
    env.update(spaces.tile_env(producer))
    array = fill_tile(spaces, layout, producer, params)
    for plan in plans.values():
        a = plan.pack(env, array, layout, spaces.local_vars)
        b = plan.pack(env, array, layout, spaces.local_vars)
        assert np.array_equal(a, b)


def test_unpack_rejects_mismatched_buffer(bandit_setup):
    from repro.errors import GenerationError

    spec, spaces, layout, plans = bandit_setup
    params = {"N": 7}
    producer = next(iter(spaces.tiles(params)))
    env = dict(params)
    env.update(spaces.tile_env(producer))
    plan = next(iter(plans.values()))
    size = plan.region_size(env)
    target = np.full(layout.padded_shape, np.nan)
    with pytest.raises(GenerationError):
        plan.unpack(env, np.zeros(size + 3), target, layout, spaces.local_vars)


def test_region_sizes_smaller_than_tile(bandit_setup):
    """The paper's memory argument: an edge is w^(d-1), a tile w^d."""
    spec, spaces, layout, plans = bandit_setup
    params = {"N": 30}
    interior = (1, 1, 1, 1)
    env = dict(params)
    env.update(spaces.tile_env(interior))
    tile_cells = spaces.tile_point_count(interior, params)
    assert tile_cells == 3 ** 4
    for plan in plans.values():
        assert plan.region_size(env) == 3 ** 3


# -- index-array plans against the scalar scan ------------------------------


def oracle_pack(plan, env, array, layout, local_vars):
    """The scalar pack: walk the region nest, one ``array_index`` per cell."""
    values = []
    for point in plan.region_nest.iterate(dict(env)):
        local = tuple(point[v] for v in local_vars)
        values.append(array[layout.array_index(local)])
    return np.asarray(values, dtype=array.dtype)


def oracle_unpack_cells(plan, env, layout, local_vars):
    """Padded indices the scalar unpack writes, in buffer order."""
    cells = []
    for point in plan.region_nest.iterate(dict(env)):
        local = tuple(point[v] for v in local_vars)
        ghost = tuple(i + s for i, s in zip(local, plan.consumer_shift))
        cells.append(layout.array_index(ghost))
    return cells


def registry_program(name, width):
    from repro.analysis.probe import probe_params
    from repro.cli import _builtin_spec

    spec = _builtin_spec(name, width)
    spaces = build_iteration_spaces(spec)
    layout = build_layout(spec)
    plans = build_pack_plans(spec, spaces, layout)
    return spec, spaces, layout, plans, probe_params(spec, cap=7)


def producer_tiles(spaces, params):
    """Every tile of the space plus tiles just outside it."""
    tiles = list(spaces.tiles(params))
    d = len(spaces.tile_vars)
    hi = tuple(max(t[k] for t in tiles) for k in range(d))
    outside = [
        tuple(-1 for _ in range(d)),
        tuple(h + 1 for h in hi),
        tuple(h + 2 if k == 0 else 0 for k, h in enumerate(hi)),
    ]
    return tiles, outside


@pytest.mark.parametrize("width", [3, 5])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_index_plans_match_scalar_scan(name, width):
    """pack/unpack are byte-identical to the scalar scan on every edge."""
    spec, spaces, layout, plans, params = registry_program(name, width)
    local_vars = spaces.local_vars
    tiles, outside = producer_tiles(spaces, params)
    rng = np.random.default_rng(7)
    array = rng.standard_normal(layout.padded_shape)
    kinds = set()
    for delta, plan in plans.items():
        for tile in tiles + outside:
            env = dict(params)
            env.update(spaces.tile_env(tile))
            expected = oracle_pack(plan, env, array, layout, local_vars)
            got = plan.pack(env, array, layout, local_vars)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes(), (delta, tile)
            assert not np.shares_memory(got, array)
            assert len(got) == plan.region_size(env)

            target = np.zeros(layout.padded_shape)
            plan.unpack(env, got, target, layout, local_vars)
            written = np.zeros(layout.padded_shape, dtype=bool)
            cells = oracle_unpack_cells(plan, env, layout, local_vars)
            for cell, value in zip(cells, expected):
                written[cell] = True
                assert target[cell] == value
            assert not target[~written].any(), "unpack wrote outside region"

            full = plan.full_checker(env)
            if tile in outside:
                kinds.add("outside")
            elif full:
                kinds.add("full")
            elif len(expected):
                kinds.add("clipped")
            else:
                kinds.add("empty")
    assert "outside" in kinds and "clipped" in kinds


def test_full_regions_share_one_index_pair(bandit_setup):
    spec, spaces, layout, plans = bandit_setup
    params = {"N": 30}
    array = np.zeros(layout.padded_shape)
    for plan in plans.values():
        shared = set()
        for tile in [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 2)]:
            env = dict(params)
            env.update(spaces.tile_env(tile))
            assert plan.full_checker(env)
            plan.pack(env, array, layout, spaces.local_vars)
            shared.add(id(plan._index_memo["full"]))
        assert len(shared) == 1


def test_index_memo_bounded_across_parameter_sets():
    """Clipped entries live for the most recent parameter set only."""
    spec = two_arm_spec(tile_width=3)
    spaces = build_iteration_spaces(spec)
    layout = build_layout(spec)
    plans = build_pack_plans(spec, spaces, layout)
    array = np.arange(layout.cells, dtype=float).reshape(layout.padded_shape)
    for n in (14, 5, 11, 7):
        params = {"N": n}
        tiles = list(spaces.tiles(params))
        for plan in plans.values():
            for tile in tiles:
                env = dict(params)
                env.update(spaces.tile_env(tile))
                got = plan.pack(env, array, layout, spaces.local_vars)
                expected = oracle_pack(
                    plan, env, array, layout, spaces.local_vars
                )
                assert got.tobytes() == expected.tobytes()
            assert len(plan._index_memo["clipped"]) <= len(tiles)


def test_unpack_rejects_short_buffer(bandit_setup):
    from repro.errors import GenerationError

    spec, spaces, layout, plans = bandit_setup
    params = {"N": 30}
    env = dict(params)
    env.update(spaces.tile_env((1, 1, 1, 1)))
    target = np.zeros(layout.padded_shape)
    for plan in plans.values():
        size = plan.region_size(env)
        for bad in (size - 1, size + 1):
            with pytest.raises(GenerationError):
                plan.unpack(
                    env, np.zeros(bad), target, layout, spaces.local_vars
                )
    assert not target.any(), "a rejected buffer was partly scattered"


def test_out_of_margin_raises_index_error(bandit_setup):
    """A layout without ghost margins cannot hold the consumer's cells."""
    from repro.generator.mapping import TileLayout

    spec, spaces, layout, plans = bandit_setup
    bare = TileLayout(
        loop_vars=layout.loop_vars,
        widths=layout.widths,
        ghost_lo=(0,) * len(layout.widths),
        ghost_hi=(0,) * len(layout.widths),
    )
    params = {"N": 30}
    env = dict(params)
    env.update(spaces.tile_env((1, 1, 1, 1)))
    plan = next(iter(plans.values()))
    local_vars = spaces.local_vars
    buf = plan.pack(env, np.zeros(layout.padded_shape), layout, local_vars)
    with pytest.raises(IndexError):
        oracle_unpack_cells(plan, env, bare, local_vars)
    with pytest.raises(IndexError):
        plan.unpack(env, buf, np.zeros(bare.padded_shape), bare, local_vars)
    # The memo follows the layout back: the original still works.
    plan.unpack(env, buf, np.zeros(layout.padded_shape), layout, local_vars)
