"""Wavefront-fused batch execution: parity, determinism, degradation.

The wavefront engine is a pure performance transformation — it must be
*bit-identical* to the per-tile vector engine, the interpreter and the
untiled ``solve_reference`` oracle on every bundled problem, at every
tile width, across every rank count.  This suite pins exactly that, plus
the dispatch/degradation contract (``mode="auto"`` never raises), the
deadlock-free guarantee of batch draining under pathological rank
partitions, and the static wavefront level invariants the batch
scheduler relies on.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeExecutionError
from repro.generator import generate
from repro.generator.validity import ValiditySet
from repro.polyhedra import Constraint
from repro.polyhedra.linexpr import LinExpr
from repro.problems import (
    bandit,
    damerau_spec,
    edit_distance_spec,
    lcs_spec,
    msa_spec,
    smith_waterman_spec,
)
from repro.runtime import (
    compiled_executor,
    execute,
    run_spmd,
    solve_reference,
    tile_graph,
)
from repro.runtime.scheduler import TileScheduler, encode_events
from repro.runtime.spmd import spmd_rank_assignment


def _problem_matrix():
    """Every vector-capable bundled problem at >= 2 tile widths."""
    out = []
    for w in (3, 4):
        out.append((f"bandit2-w{w}", bandit.two_arm_spec(tile_width=w), {"N": 7}))
    for w in (2, 3):
        out.append((f"bandit3-w{w}", bandit.three_arm_spec(tile_width=w), {"N": 4}))
    for w in (2, 3):
        out.append(
            (
                f"delayed-w{w}",
                bandit.delayed_two_arm_spec(tile_width=w),
                {"N": 5},
            )
        )
    a, b = "kitten", "sitting"
    ab = {"LA": len(a), "LB": len(b)}
    for w in (3, 4):
        out.append((f"edit-w{w}", edit_distance_spec(a, b, tile_width=w), ab))
    for w in (2, 4):
        out.append(
            (f"sw-w{w}", smith_waterman_spec(a, b, tile_width=w), ab)
        )
    for w in (2, 4):
        out.append((f"damerau-w{w}", damerau_spec(a, b, tile_width=w), ab))
    s1, s2 = "ACGTACGTTGACA", "GATTACAGGTACG"
    for w in (4, 5):
        out.append(
            (
                f"lcs2-w{w}",
                lcs_spec([s1, s2], tile_width=w),
                {"L1": len(s1), "L2": len(s2)},
            )
        )
    for w in (2, 3):
        out.append(
            (
                f"msa3-w{w}",
                msa_spec(["ACGTA", "GATTA", "CGTAT"], tile_width=w),
                {"L1": 5, "L2": 5, "L3": 5},
            )
        )
    return out


MATRIX = _problem_matrix()
MATRIX_IDS = [name for name, _, _ in MATRIX]


@pytest.fixture(scope="module", params=MATRIX, ids=MATRIX_IDS)
def case(request):
    name, spec, params = request.param
    return generate(spec), params


class TestEngineParity:
    """wavefront == vector == interpreter == solve_reference, exactly."""

    def test_all_engines_bit_identical(self, case):
        program, params = case
        wave = execute(
            program, params, mode="wavefront", record_values=True
        )
        vec = execute(program, params, mode="vector", record_values=True)
        interp = execute(
            program, params, mode="interpret", record_values=True
        )
        ref = solve_reference(program, params, record_values=True)
        assert wave.mode == "wavefront"
        assert wave.objective_value == vec.objective_value
        assert wave.objective_value == interp.objective_value
        assert wave.objective_value == ref.objective_value
        assert wave.cells_computed == vec.cells_computed
        assert wave.cells_computed == interp.cells_computed
        # Every recorded cell, not just the objective: dict equality is
        # exact float comparison.
        assert wave.values == vec.values
        assert wave.values == interp.values
        assert wave.values == ref.values

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_spmd_ranks_bit_identical(self, case, ranks):
        program, params = case
        single = execute(
            program, params, mode="wavefront", record_values=True
        )
        multi = run_spmd(
            program, params, ranks=ranks, record_values=True
        )
        assert multi.mode == "wavefront"
        assert multi.objective_value == single.objective_value
        assert multi.values == single.values
        assert multi.cells_computed == single.cells_computed
        assert sum(multi.tiles_per_rank) == multi.tiles_executed

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_event_trace_deterministic(self, case, ranks):
        program, params = case
        runs = [
            execute(
                program,
                params,
                ranks=ranks,
                mode="wavefront",
                record_events=True,
            )
            for _ in range(2)
        ]
        first, second = (encode_events(r.events) for r in runs)
        assert first == second
        # The batch trace keeps the full ready/start/done protocol; only
        # interior edge_sent transitions disappear (nothing is packed
        # within a rank).
        graph = tile_graph(program, params)
        T = len(graph.tile_tuples)
        kinds = [e.kind for e in runs[0].events]
        assert kinds.count("tile_ready") == T
        assert kinds.count("tile_start") == T
        assert kinds.count("tile_done") == T
        assert kinds.count("edge_sent") == runs[0].cross_rank_messages


@st.composite
def _bandit_case(draw):
    width = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(min_value=2, max_value=8))
    return width, n


class TestPropertySweep:
    """Randomized instance sweep: the fused path never diverges."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_bandit_case())
    def test_bandit2_sweep(self, case):
        width, n = case
        program = generate(bandit.two_arm_spec(tile_width=width))
        wave = execute(
            program, {"N": n}, mode="wavefront", record_values=True
        )
        vec = execute(
            program, {"N": n}, mode="vector", record_values=True
        )
        assert wave.objective_value == vec.objective_value
        assert wave.values == vec.values

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    def test_edit_distance_prefix_sweep(self, la, lb):
        # Prefix runs: the objective tile may be partially out of space,
        # exercising the per-tile fallback inside a fused batch.
        program = generate(
            edit_distance_spec("kitten", "sitting", tile_width=4)
        )
        params = {"LA": la, "LB": lb}
        wave = execute(
            program, params, mode="wavefront", record_values=True
        )
        vec = execute(program, params, mode="vector", record_values=True)
        assert wave.objective_value == vec.objective_value
        assert wave.values == vec.values


class TestBatchDrainLiveness:
    """Batch draining never deadlocks, whatever the rank partition."""

    def _parity_partitions(self, graph, ranks):
        T = len(graph.tile_tuples)
        levels = graph.wavefront_levels()
        rng = np.random.default_rng(7)
        return [
            np.arange(T, dtype=np.int64) % ranks,  # round-robin rows
            levels % ranks,  # whole levels per rank (serializes fronts)
            (np.arange(T) >= T // 2).astype(np.int64)
            * (ranks - 1),  # block split: first half rank 0, rest last
            rng.integers(0, ranks, size=T),  # adversarial random
        ]

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_pathological_rank_of_completes(self, bandit2_program, ranks):
        params = {"N": 8}
        graph = tile_graph(bandit2_program, params)
        base = execute(
            bandit2_program, params, mode="wavefront", record_values=True
        )
        for rank_of in self._parity_partitions(graph, ranks):
            res = run_spmd(
                bandit2_program,
                params,
                ranks=ranks,
                rank_of=rank_of,
                record_values=True,
            )
            assert res.mode == "wavefront"
            assert res.objective_value == base.objective_value
            assert res.values == base.values

    def test_single_tile_islands(self, bandit2_program):
        # Every tile on its own "virtual" rank pattern: ranks collapse
        # to 2 but the assignment isolates the initial tile, forcing
        # every edge of the first front across the boundary.
        params = {"N": 7}
        graph = tile_graph(bandit2_program, params)
        T = len(graph.tile_tuples)
        rank_of = np.ones(T, dtype=np.int64)
        rank_of[graph.initial_rows()] = 0
        base = execute(bandit2_program, params, mode="wavefront")
        res = run_spmd(bandit2_program, params, ranks=2, rank_of=rank_of)
        assert res.objective_value == base.objective_value
        assert res.cross_rank_messages > 0


class TestWavefrontLevels:
    """Static level invariants the batch scheduler relies on."""

    def test_levels_topological_and_tight(self, bandit2_program):
        graph = tile_graph(bandit2_program, {"N": 8})
        levels = graph.wavefront_levels()
        assert np.all(levels[graph.initial_rows()] == 0)
        # Every edge strictly increases the level (consumers run in a
        # strictly later front than each producer)...
        counts = np.diff(graph.cons_ptr)
        producers = np.repeat(np.arange(counts.size), counts)
        assert np.all(levels[graph.cons_rows] > levels[producers])
        # ...and levels are *longest-path* tight: some producer sits
        # exactly one front earlier.
        tight = levels[graph.cons_rows] == levels[producers] + 1
        per_consumer = np.zeros(counts.size, dtype=bool)
        np.logical_or.at(per_consumer, graph.cons_rows, tight)
        has_producer = np.diff(graph.prod_ptr) > 0
        assert np.all(per_consumer[has_producer])

    def test_batch_matches_levels(self, bandit2_program):
        graph = tile_graph(bandit2_program, {"N": 6})
        levels = graph.wavefront_levels()
        sched = TileScheduler(graph, batch=True)
        sched.seed()
        seen = []
        while True:
            rows = sched.start_batch(0)
            if not rows:
                break
            lvl = {int(levels[r]) for r in rows}
            assert len(lvl) == 1, "one batch spans one static level"
            seen.append((lvl.pop(), rows))
            for row in rows:
                for consumer, _, _, _ in sched.outgoing(row):
                    sched.deliver_edge(consumer)
                sched.finish_tile(row)
        drained_levels = [lvl for lvl, _ in seen]
        assert drained_levels == sorted(drained_levels)
        assert sum(len(rows) for _, rows in seen) == len(graph.tile_tuples)
        # A full single-rank drain pops exactly the static level sets.
        for lvl, rows in seen:
            assert rows == sorted(np.flatnonzero(levels == lvl).tolist())

    def test_start_tile_rejected_in_batch_mode(self, bandit2_program):
        graph = tile_graph(bandit2_program, {"N": 5})
        sched = TileScheduler(graph, batch=True)
        sched.seed()
        with pytest.raises(RuntimeExecutionError, match="batch mode"):
            sched.start_tile(0)
        plain = TileScheduler(graph)
        plain.seed()
        with pytest.raises(RuntimeExecutionError, match="batch=True"):
            plain.start_batch(0)


class _RawConstraint(Constraint):
    """A constraint that skips integral normalization — stands in for a
    derived validity check carrying rational coefficients."""

    @staticmethod
    def _normalize(expr, kind):
        return expr


class TestAutoDegradation:
    """mode="auto" never raises: construction failures fold into reasons."""

    def _rational_program(self, bandit2_program):
        # Inject a fractional-coefficient check that is always true over
        # the bandit domain (s1/2 + N >= 0), so the numbers must not
        # change — only the engine dispatch.
        validity = bandit2_program.validity
        frac = _RawConstraint(
            LinExpr({"s1": Fraction(1, 2), "N": Fraction(1)}), ">="
        )
        idx = len(validity.checks)
        return dataclasses.replace(
            bandit2_program,
            validity=ValiditySet(
                checks=tuple(validity.checks) + (frac,),
                per_template={
                    name: tuple(ids) + (idx,)
                    for name, ids in validity.per_template.items()
                },
            ),
        )

    def test_rational_check_degrades_to_interpreter(self, bandit2_program):
        program = self._rational_program(bandit2_program)
        ce = compiled_executor(program)
        assert ce.vector_engine is None
        assert "non-integral" in ce.vector_reason
        assert "non-integral" in ce.wavefront_reason
        res = execute(program, {"N": 5}, record_values=True)
        assert res.mode == "interpret"
        # The fraction evaluates exactly in the interpreter closures:
        # same numbers as the unmodified program.
        base = execute(bandit2_program, {"N": 5}, record_values=True)
        assert res.objective_value == base.objective_value
        assert res.values == base.values

    def test_forced_modes_report_reason(self, bandit2_program):
        program = self._rational_program(bandit2_program)
        for mode in ("vector", "wavefront"):
            with pytest.raises(
                RuntimeExecutionError, match="non-integral"
            ):
                execute(program, {"N": 5}, mode=mode)

    def test_auto_never_raises_on_example_specs(self, tmp_path):
        import glob

        from repro.analysis.probe import default_params
        from repro.spec import ensure_kernel, parse_spec_file

        specs = glob.glob("examples/*.spec")
        assert specs, "bundled example specs missing"
        for path in specs:
            spec = parse_spec_file(path)
            kernel = ensure_kernel(spec)
            program = generate(spec)
            res = execute(program, default_params(spec), kernel=kernel)
            assert res.objective_value is not None


class TestRankOfValidation:
    """Explicit rank_of overrides fail fast with a named offending row."""

    def test_shape_validated(self, bandit2_program):
        params = {"N": 6}
        graph = tile_graph(bandit2_program, params)
        T = len(graph.tile_tuples)
        with pytest.raises(RuntimeExecutionError, match="1-D"):
            run_spmd(
                bandit2_program,
                params,
                ranks=2,
                rank_of=np.zeros((T, 2), dtype=np.int64),
            )
        with pytest.raises(
            RuntimeExecutionError, match=f"covers {T - 1} rows"
        ):
            run_spmd(
                bandit2_program,
                params,
                ranks=2,
                rank_of=np.zeros(T - 1, dtype=np.int64),
            )

    def test_dtype_validated(self, bandit2_program):
        params = {"N": 6}
        T = len(tile_graph(bandit2_program, params).tile_tuples)
        with pytest.raises(RuntimeExecutionError, match="integer"):
            run_spmd(
                bandit2_program,
                params,
                ranks=2,
                rank_of=np.zeros(T, dtype=np.float64),
            )

    def test_range_validated_names_row(self, bandit2_program):
        params = {"N": 6}
        graph = tile_graph(bandit2_program, params)
        T = len(graph.tile_tuples)
        bad = np.zeros(T, dtype=np.int64)
        bad[3] = 9
        with pytest.raises(
            RuntimeExecutionError, match=r"rank_of\[3\] = 9 assigns tile "
        ):
            run_spmd(bandit2_program, params, ranks=2, rank_of=bad)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    @pytest.mark.parametrize("ranks", [0, -2])
    def test_rank_count_validated(self, bandit2_program, ranks, backend):
        # execute() with fewer than one rank fails like run_spmd instead
        # of silently running a single rank.
        message = f"rank count must be >= 1, got {ranks}"
        with pytest.raises(RuntimeExecutionError, match=message):
            execute(bandit2_program, {"N": 6}, ranks=ranks, backend=backend)


class TestRankAssignmentVectorized:
    """rank_of_rows matches the scalar per-tile load-balancer lookup."""

    @pytest.mark.parametrize("ranks", [2, 3, 5])
    def test_matches_node_of_tile(self, bandit2_program, ranks):
        params = {"N": 9}
        graph = tile_graph(bandit2_program, params)
        assignment = spmd_rank_assignment(
            bandit2_program, params, graph, ranks
        )
        balance = bandit2_program.load_balance(
            params, ranks, slab_work=graph.slab_work()
        )
        spaces = bandit2_program.spaces
        for row, tile in enumerate(graph.tile_tuples):
            assert assignment[row] == balance.node_of_tile(tile, spaces)

    def test_unassigned_slab_diagnosed(self, bandit2_program):
        from repro.runtime import rank_of_rows

        params = {"N": 9}
        graph = tile_graph(bandit2_program, params)
        balance = bandit2_program.load_balance(
            params, 2, slab_work=graph.slab_work()
        )
        missing = next(iter(balance.slab_node))
        balance.slab_node.pop(missing)
        with pytest.raises(
            RuntimeExecutionError, match="unassigned lb slab"
        ):
            rank_of_rows(graph, balance)
