"""Tests for the assembled optimizer loops: determinism, budget accounting,
trace invariants, ablation behavior, and the diversity metrics."""

import numpy as np
import pytest

from opsom.archives import ArchiveSet, refresh_phi
from opsom.objective import EvaluationCounter, base_spec, make_suite
from opsom.optimizer import (
    OptimizerConfig,
    _opsom_iteration,
    diversity,
    exploration_ratio,
    run,
)
from opsom.ortho_init import array_shape
from opsom.swarm_core import PsoParams, SwarmState, pso_step


SPEC = base_spec("rastrigin", 10, shift=np.full(10, 12.5))


def small_config(**kw):
    defaults = dict(population=8, budget=2_000, seed=3)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


class TestConfig:
    def test_resolved_budget_default(self):
        assert OptimizerConfig().resolved_budget(10) == 100_000
        assert OptimizerConfig(budget=5_000).resolved_budget(10) == 5_000

    def test_rejects_odd_or_tiny_population(self):
        for n in (5, 4, 2, 7):
            with pytest.raises(ValueError):
                OptimizerConfig(population=n).validate(SPEC)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm="genetic").validate(SPEC)

    def test_rejects_infeasible_budget(self):
        # orthogonal init scores max(n, array rows): 16 rows at d = 10, 64 at d = 50;
        # uniform init (pso, or no_oa) scores exactly n
        spec50 = base_spec("rastrigin", 50)
        for spec, cost, kw in (
            (SPEC, 40, {}),
            (SPEC, 40, dict(algorithm="pso")),
            (SPEC, 40, dict(no_oa=True)),
            (spec50, 64, {}),
            (spec50, 40, dict(algorithm="pso")),
        ):
            with pytest.raises(ValueError):
                OptimizerConfig(population=40, budget=cost - 1, **kw).validate(spec)
            # the cheapest accepted budget pays for initialization and nothing more
            rec = run(OptimizerConfig(population=40, budget=cost, **kw), spec)
            assert rec.evaluations.tolist() == [cost]


class TestDeterminism:
    def test_opsom_bitwise_reproducible(self):
        a = run(small_config(), SPEC)
        b = run(small_config(), SPEC)
        np.testing.assert_array_equal(a.errors, b.errors)
        np.testing.assert_array_equal(a.evaluations, b.evaluations)
        np.testing.assert_array_equal(a.diversities, b.diversities)
        assert a.best_error == b.best_error

    def test_pso_bitwise_reproducible(self):
        a = run(small_config(algorithm="pso"), SPEC)
        b = run(small_config(algorithm="pso"), SPEC)
        np.testing.assert_array_equal(a.errors, b.errors)
        assert a.best_error == b.best_error

    def test_seeds_differ(self):
        a = run(small_config(seed=1), SPEC)
        b = run(small_config(seed=2), SPEC)
        assert not np.array_equal(a.errors, b.errors)


class TestBudgetAccounting:
    def test_budget_edge_runs_zero_iterations(self):
        # budget of exactly n + rows leaves no room for a full sweep
        _, rows, _ = array_shape(2, SPEC.dimension)
        n = 40
        rec = run(OptimizerConfig(population=n, budget=n + rows, seed=0), SPEC)
        assert len(rec.iterations) == 1
        assert rec.iterations[0] == 0

    def test_trace_reconciles_exactly(self):
        for algo in ("opsom", "pso"):
            rec = run(small_config(algorithm=algo, population=8, budget=1_000), SPEC)
            init = rec.evaluations[0]
            np.testing.assert_array_equal(rec.evaluations, init + 8 * np.arange(len(rec.evaluations)))
            assert rec.budget - 8 <= rec.evaluations[-1] <= rec.budget

    def test_opsom_init_cost(self):
        # 8 < 16 array rows: all 16 rows evaluated, best 8 kept
        rec = run(small_config(population=8, budget=1_000), SPEC)
        assert rec.evaluations[0] == 16
        # uniform init costs exactly n
        rec = run(small_config(population=8, budget=1_000, no_oa=True), SPEC)
        assert rec.evaluations[0] == 8

    def test_never_exceeds_budget(self):
        for budget in (56, 57, 99, 100, 101, 199):
            rec = run(small_config(population=8, budget=budget), SPEC)
            assert rec.evaluations[-1] <= budget


class TestTraceInvariants:
    def test_error_column_non_increasing(self):
        for algo in ("opsom", "pso"):
            rec = run(small_config(algorithm=algo, budget=4_000), SPEC)
            assert (np.diff(rec.errors) <= 0).all()
            assert rec.best_error == rec.errors[-1]

    def test_evaluations_strictly_increasing(self):
        rec = run(small_config(budget=4_000), SPEC)
        assert (np.diff(rec.evaluations) > 0).all()

    def test_iteration_column(self):
        rec = run(small_config(budget=4_000), SPEC)
        np.testing.assert_array_equal(rec.iterations, np.arange(len(rec.iterations)))

    def test_wall_time_and_metadata(self):
        rec = run(small_config(), SPEC)
        assert rec.wall_time >= 0.0
        assert rec.function_id == "rastrigin" and rec.algorithm == "opsom"
        assert rec.dimension == 10 and rec.population == 8 and rec.seed == 3

    def test_archives_never_empty_after_seeding(self):
        sizes = []
        run(small_config(budget=2_000), SPEC, observer=lambda s, a: sizes.append(
            (len(a.phi_fitness), len(a.psi), len(a.chi))
        ))
        assert all(p == 4 and q >= 1 and c >= 1 for p, q, c in sizes)

    def test_run_dispatcher(self):
        rec = run(small_config(algorithm="pso"), SPEC)
        assert rec.algorithm == "pso"
        with pytest.raises(ValueError):
            run(small_config(algorithm="nope"), SPEC)


class _ConstantRng:
    """Stand-in generator: every uniform draw is 0.5, every index draw is 0."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.full(size, 0.5 * (low + high)) if size is not None else 0.5 * (low + high)

    def integers(self, low, high=None, size=None):
        lo = 0 if high is None else low
        return np.full(size, lo, dtype=int) if size is not None else lo


class TestAblations:
    def test_full_ablation_reduces_to_baseline_step(self):
        # with every strategy disabled, one iteration must equal pso_step
        rng = np.random.default_rng(0)
        positions = rng.uniform(-100, 100, (8, 10))
        fitness = np.array([float(f) for f in (positions**2).sum(axis=1)])
        state_a = SwarmState(positions.copy(), np.ones((8, 10)), fitness.copy())
        state_b = SwarmState(positions.copy(), np.ones((8, 10)), fitness.copy())
        config = OptimizerConfig(
            population=8, budget=10_000,
            no_oa=True, no_archives=True, no_mutation=True, fixed_inertia=True,
        )
        archives = ArchiveSet(8, 10)
        refresh_phi(archives, state_a)
        _opsom_iteration(state_a, archives, config, SPEC, EvaluationCounter(budget=100), _ConstantRng())
        pso_step(state_b, config.pso_params, SPEC, EvaluationCounter(budget=100), _ConstantRng())
        np.testing.assert_allclose(state_a.positions, state_b.positions, atol=1e-12)
        np.testing.assert_allclose(state_a.velocities, state_b.velocities, atol=1e-12)
        np.testing.assert_allclose(state_a.fitness, state_b.fitness, atol=1e-12)

    def test_mutation_covers_the_elite_half(self, monkeypatch):
        import opsom.optimizer as mod

        calls = []
        original = mod.mutate_elites

        def spy(elite_positions, phi_positions, bounds, rng, **kw):
            calls.append(elite_positions.shape)
            return original(elite_positions, phi_positions, bounds, rng, **kw)

        monkeypatch.setattr(mod, "mutate_elites", spy)
        rec = run(small_config(budget=500), SPEC)
        iterations = len(rec.iterations) - 1
        assert calls == [(4, 10)] * iterations

    def test_no_mutation_routes_elites_through_the_scheme_path(self, monkeypatch):
        import opsom.optimizer as mod

        calls = []
        monkeypatch.setattr(mod, "mutate_elites", lambda *a, **k: calls.append(1))
        guide_shapes = []
        original_guides = mod._archive_guides

        def spy(archives, m, rng):
            guide_shapes.append(m)
            return original_guides(archives, m, rng)

        monkeypatch.setattr(mod, "_archive_guides", spy)
        run(small_config(budget=500, no_mutation=True), SPEC)
        assert not calls
        # the whole swarm, elites included, goes through the archive-guided sweep
        assert guide_shapes and all(m == 8 for m in guide_shapes)

    def test_no_archives_skips_psi_and_chi(self):
        sizes = []
        run(small_config(budget=1_000, no_archives=True), SPEC,
                  observer=lambda s, a: sizes.append((len(a.phi_fitness), len(a.psi), len(a.chi))))
        assert all(p == 4 and q == 0 and c == 0 for p, q, c in sizes)

    def test_ablation_flags_change_the_trajectory(self):
        base = run(small_config(budget=2_000), SPEC)
        for flag in ("no_oa", "no_archives", "no_mutation", "fixed_inertia"):
            variant = run(small_config(budget=2_000, **{flag: True}), SPEC)
            assert not np.array_equal(base.errors, variant.errors), flag


class TestDiversity:
    def test_identical_particles(self):
        state = SwarmState(np.ones((5, 3)), np.zeros((5, 3)), np.zeros(5))
        assert diversity(state) == 0.0

    def test_symmetric_pair(self):
        state = SwarmState(np.array([[0.0, 0.0], [2.0, 0.0]]), np.zeros((2, 2)), np.zeros(2))
        assert diversity(state) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(-100, 100, (12, 4))
        state = SwarmState(positions, np.zeros((12, 4)), np.zeros(12))
        centroid = positions.mean(axis=0)
        expected = np.mean([np.sqrt(((p - centroid) ** 2).sum()) for p in positions])
        assert diversity(state) == pytest.approx(expected, rel=1e-12)


class TestExplorationRatio:
    def test_peak_is_hundred(self):
        out = exploration_ratio(np.array([1.0, 4.0, 2.0]))
        np.testing.assert_allclose(out, [25.0, 100.0, 50.0])

    def test_zero_diversity_is_zero(self):
        out = exploration_ratio(np.array([0.0, 5.0]))
        assert out[0] == 0.0

    def test_constant_diversity_is_hundred_everywhere(self):
        np.testing.assert_array_equal(exploration_ratio(np.array([3.0, 3.0, 3.0])), [100.0] * 3)

    def test_all_zero(self):
        np.testing.assert_array_equal(exploration_ratio(np.array([0.0, 0.0])), [0.0, 0.0])
