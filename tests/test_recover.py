"""Solution recovery (Section VII-A): saved edges + tile recomputation."""

import pytest

from repro.errors import RuntimeExecutionError
from repro.problems import (
    edit_distance_reference,
    two_arm_reference,
)
from repro.runtime import SolutionRecovery, execute


@pytest.fixture(scope="module")
def bandit_recovery(bandit2_program):
    return SolutionRecovery(bandit2_program, {"N": 7})


class TestPointQueries:
    def test_objective_matches_forward_pass(self, bandit_recovery):
        assert bandit_recovery.value_at(
            {"s1": 0, "f1": 0, "s2": 0, "f2": 0}
        ) == pytest.approx(two_arm_reference(7), abs=1e-12)

    def test_every_point_matches_recorded_values(
        self, bandit2_program, bandit_recovery
    ):
        full = execute(bandit2_program, {"N": 7}, record_values=True)
        loop_vars = bandit2_program.spec.loop_vars
        for key, value in full.values.items():
            point = dict(zip(loop_vars, key))
            assert bandit_recovery.value_at(point) == pytest.approx(
                value, abs=1e-12
            )

    def test_outside_point_rejected(self, bandit_recovery):
        with pytest.raises(RuntimeExecutionError):
            bandit_recovery.value_at({"s1": 8, "f1": 0, "s2": 0, "f2": 0})

    def test_invalid_tile_rejected(self, bandit_recovery):
        with pytest.raises(RuntimeExecutionError):
            bandit_recovery.tile_values((9, 9, 9, 9))

    def test_dependencies_at(self, bandit_recovery):
        deps = bandit_recovery.dependencies_at(
            {"s1": 0, "f1": 0, "s2": 0, "f2": 0}
        )
        assert set(deps) == {"succ1", "fail1", "succ2", "fail2"}
        assert all(v is not None for v in deps.values())
        boundary = bandit_recovery.dependencies_at(
            {"s1": 7, "f1": 0, "s2": 0, "f2": 0}
        )
        assert all(v is None for v in boundary.values())

    def test_edge_memory_far_below_full_space(self, bandit2_program):
        rec = SolutionRecovery(bandit2_program, {"N": 9})
        total = bandit2_program.spaces.total_points({"N": 9})
        assert 0 < rec.edge_memory_cells < total


class TestTraceback:
    def test_optimal_bandit_policy_walk(self, bandit_recovery):
        """Walk the optimal allocation assuming every pull succeeds."""

        def policy(point, deps, value):
            # choose the arm the optimal policy would pull, then follow
            # the success branch.
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

        path = bandit_recovery.traceback(policy)
        # N pulls then stop at the exhausted state.
        assert len(path) == 8
        assert path[-1][1] is None
        final = path[-1][0]
        assert sum(final.values()) == 7

    def test_edit_distance_alignment_recovery(self, edit_program, edit_strings):
        a, b = edit_strings
        rec = SolutionRecovery(
            edit_program, {"LA": len(a), "LB": len(b)}
        )
        assert rec.value_at(
            {"i": len(a), "j": len(b)}
        ) == edit_distance_reference(a, b)

        def policy(point, deps, value):
            i, j = point["i"], point["j"]
            if deps["diag"] is not None:
                cost = 0.0 if a[i - 1] == b[j - 1] else 1.0
                if value == deps["diag"] + cost:
                    return "diag"
            if deps["up"] is not None and value == deps["up"] + 1.0:
                return "up"
            if deps["left"] is not None and value == deps["left"] + 1.0:
                return "left"
            return None

        path = rec.traceback(
            policy, start={"i": len(a), "j": len(b)}
        )
        # The walk must end at the origin, and the edit operations it
        # took must sum to the edit distance.
        assert path[-1][0] == {"i": 0, "j": 0}
        ops = 0
        for point, choice in path[:-1]:
            if choice in ("up", "left"):
                ops += 1
            elif choice == "diag":
                i, j = point["i"], point["j"]
                ops += 0 if a[i - 1] == b[j - 1] else 1
        assert ops == edit_distance_reference(a, b)

    def test_runaway_policy_detected(self, bandit_recovery):
        # A policy that never stops but keeps moving along valid
        # templates will hit the boundary where all deps are None -- so
        # force a loop via max_steps on a policy that stalls.
        def policy(point, deps, value):
            return next(
                (n for n, v in deps.items() if v is not None), None
            )

        path = bandit_recovery.traceback(policy)
        assert path[-1][1] is None

    def test_cache_is_bounded(self, bandit2_program):
        rec = SolutionRecovery(bandit2_program, {"N": 7}, cache_tiles=2)
        for tile in list(rec.graph.tiles)[:5]:
            rec.tile_values(tile)
        assert len(rec._cache) <= 2


class TestViterbiPathRecovery:
    def test_best_path_logprob_reconstructed(self):
        """Recover the Viterbi path itself via saved-edge tracebacks."""
        from repro.generator import generate
        from repro.problems import random_hmm, viterbi_reference, viterbi_spec

        prior, trans, emit, obs = random_hmm(3, 4, 14, seed=21)
        program = generate(viterbi_spec(prior, trans, emit, obs, tile_width_t=4))
        T = len(obs) - 1
        rec = SolutionRecovery(program, {"T": T})

        # Best final state by querying the last column.
        finals = {s: rec.value_at({"t_step": T, "s_state": s}) for s in range(3)}
        best_state = max(finals, key=finals.get)
        best_ref, path_ref = viterbi_reference(prior, trans, emit, obs)
        assert finals[best_state] == pytest.approx(best_ref, abs=1e-9)
        assert best_state == path_ref[-1]

        # Walk backwards: at each step choose the predecessor state that
        # explains the current delta value.
        def policy(point, deps, value):
            t, s = point["t_step"], point["s_state"]
            if t == 0:
                return None
            e = emit[s, obs[t]]
            for off in range(-2, 3):
                sp = s + off
                if not 0 <= sp < 3:
                    continue
                name = f"from_{'m' if off < 0 else 'p'}{abs(off)}"
                v = deps.get(name)
                if v is None:
                    continue
                if abs(value - (e + trans[sp, s] + v)) < 1e-9:
                    return name
            raise AssertionError(f"no predecessor explains {point}")

        path = rec.traceback(
            policy, start={"t_step": T, "s_state": best_state}
        )
        states = [p["s_state"] for p, _ in path][::-1]
        # The recovered path must have the optimal log-probability (may
        # differ from path_ref on exact ties, so compare scores).
        logp = prior[states[0]] + emit[states[0], obs[0]]
        for t in range(1, len(obs)):
            logp += trans[states[t - 1], states[t]] + emit[states[t], obs[t]]
        assert logp == pytest.approx(best_ref, abs=1e-9)


def interpreter_tile_values(rec, tile):
    """Recompute *tile* from the saved edges with the interpreter."""
    import numpy as np

    program = rec.program
    spaces = program.spaces
    layout = program.layout
    array = np.full(layout.padded_shape, np.nan)
    row = rec.graph.row_of(tile)
    for producer_row, delta_id in rec.graph.producer_edges(row):
        producer = rec.graph.tile_tuples[producer_row]
        env = dict(rec.params)
        env.update(spaces.tile_env(producer))
        program.pack_plans[program.deltas[delta_id]].unpack(
            env, rec.result.edges[(producer, tile)], array, layout,
            spaces.local_vars,
        )
    state = rec._compiled.make_run_state(
        rec.params, rec.kernel, "interpret", record_values=True
    )
    state.execute_tile(tile, array)
    return state.values


class TestRecomputationEngine:
    """Tiles are recomputed on the forward pass's engine, bit for bit."""

    @pytest.mark.parametrize("case", ["bandit2", "lcs"])
    def test_vector_recompute_equals_interpreter(
        self, case, bandit2_w4_program, monkeypatch
    ):
        from repro.analysis.probe import default_params
        from repro.generator import generate
        from repro.problems import lcs_spec, random_sequence

        if case == "bandit2":
            program, params = bandit2_w4_program, {"N": 14}
        else:
            a, b = random_sequence(40, seed=5), random_sequence(37, seed=6)
            program = generate(lcs_spec([a, b], tile_width=8))
            params = default_params(program.spec)
        rec = SolutionRecovery(program, params, cache_tiles=0)
        assert rec.result.mode == "vector"
        engine = rec._compiled.vector_engine
        calls = []
        run_tile = engine.execute_tile
        monkeypatch.setattr(
            engine, "execute_tile",
            lambda *a, **k: calls.append(1) or run_tile(*a, **k),
        )
        full = execute(program, params, mode="interpret", record_values=True)
        tiles = list(rec.graph.tiles)
        assert len(tiles) > 20
        for tile in tiles:
            got = rec.tile_values(tile)
            expected = interpreter_tile_values(rec, tile)
            assert got == expected
            assert all(full.values[k] == v for k, v in got.items())
            # A recompute hands out a new dict every time.
            assert rec.tile_values(tile) is not got
        assert len(calls) == 2 * len(tiles), "recomputed off the vector engine"

    def test_custom_scalar_kernel_recovers_on_interpreter(
        self, bandit2_program
    ):
        base = bandit2_program.spec.kernel

        def kernel(point, deps, params):
            return base(point, deps, params)

        rec = SolutionRecovery(bandit2_program, {"N": 7}, kernel=kernel)
        assert rec.result.mode == "interpret"
        assert rec.value_at(
            {"s1": 0, "f1": 0, "s2": 0, "f2": 0}
        ) == pytest.approx(two_arm_reference(7), abs=1e-12)
        tile = next(iter(rec.graph.tiles))
        assert rec.tile_values(tile) == interpreter_tile_values(rec, tile)
