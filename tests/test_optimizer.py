"""Tests for the assembled optimizer loops: determinism, budget accounting,
trace invariants, ablation behavior, and the diversity metrics."""

import itertools
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsom.objective import base_spec, make_suite
from opsom.optimizer import (
    OptimizerConfig,
    RunRecord,
    diversity,
    exploration_ratio,
    run,
    run_cell,
)
from opsom.ortho_init import array_shape
from opsom.swarm_core import SwarmState


SPEC = base_spec("rastrigin", 10, shift=np.full(10, 12.5))


def small_config(**kw):
    defaults = dict(population=8, budget=2_000, seed=3)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


@pytest.fixture
def rows_sent(monkeypatch):
    """The row count of every `evaluate_batch` call a run makes, from the
    initialization and from the iterations, in call order."""
    import opsom.optimizer
    import opsom.ortho_init

    rows = []
    original = opsom.optimizer.evaluate_batch

    def spy(spec, points):
        rows.append(len(points))
        return original(spec, points)

    for module in (opsom.optimizer, opsom.ortho_init):
        monkeypatch.setattr(module, "evaluate_batch", spy)
    return rows


# every algorithm and ablation, with its initialization cost for n = 8 at
# d = 10: the two-level array has 16 rows, uniform init scores n
FLAG_SETS = [
    (dict(algorithm="pso"), 8),
    ({}, 16),
    (dict(no_oa=True), 8),
    (dict(no_archives=True), 16),
    (dict(no_mutation=True), 16),
    (dict(fixed_inertia=True), 16),
]


class TestConfig:
    def test_resolved_budget_default(self):
        assert OptimizerConfig().resolved_budget(10) == 100_000
        assert OptimizerConfig(budget=5_000).resolved_budget(10) == 5_000

    def test_rejects_odd_or_tiny_population(self):
        for n in (5, 4, 2, 7):
            with pytest.raises(ValueError):
                OptimizerConfig(population=n).validate(10)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm="genetic").validate(10)

    def test_rejects_a_negative_seed(self):
        # refused by name, not by the generator's bare "expected non-negative integer"
        with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
            run(OptimizerConfig(seed=-3, budget=200, population=6), make_suite(0, 2)[0])
        # every seed of a cell is checked, not only the first config's
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            run_cell([small_config(seed=1), small_config(seed=-1)], [SPEC])

    def test_rejects_fixed_inertia_without_archives(self):
        # without archive learning the velocity always takes the inertia weight
        for algorithm in ("opsom", "pso"):
            with pytest.raises(ValueError, match="fixed_inertia has no effect with no_archives"):
                OptimizerConfig(algorithm=algorithm, no_archives=True, fixed_inertia=True).validate(10)
        OptimizerConfig(no_archives=True).validate(10)
        OptimizerConfig(fixed_inertia=True).validate(10)

    def test_is_frozen(self):
        config = OptimizerConfig(population=8, budget=200)
        with pytest.raises(FrozenInstanceError):
            config.budget = 20
        assert config.budget == 200 and replace(config, budget=20).budget == 20

    def test_has_eight_fields(self):
        assert [f.name for f in fields(OptimizerConfig)] == [
            "algorithm", "population", "budget", "no_oa", "no_archives", "no_mutation", "fixed_inertia", "seed",
        ]

    def test_rejects_an_array_over_the_row_cap_at_the_spec_dimension(self):
        # the two-level array has 4096 rows at d = 4095 and would need 8192 at
        # d = 4096; uniform init (pso, or no_oa) builds no array, so no cap applies
        assert OptimizerConfig().validate(4095) == 4096
        with pytest.raises(ValueError, match="array would need 8192 rows, exceeding the cap of 4096"):
            OptimizerConfig().validate(4096)
        for kw in (dict(no_oa=True), dict(algorithm="pso")):
            assert OptimizerConfig(**kw).validate(4096) == 40

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
                OptimizerConfig(population=40, budget=cost - 1, **kw).validate(spec.dimension)
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

    @pytest.mark.parametrize("algorithm, d, init_cost", [("pso", 10, 40), ("opsom", 10, 40), ("opsom", 50, 64)])
    def test_one_evaluation_call_scores_every_initial_swarm(self, rows_sent, algorithm, d, init_cost):
        # a budget of exactly the initialization leaves no iteration, so the
        # initial swarms of all 3 runs are the only call
        spec = base_spec("rastrigin", d)
        configs = [OptimizerConfig(algorithm=algorithm, budget=init_cost, seed=s) for s in range(3)]
        records = run_cell(configs, [spec])
        assert rows_sent == [3 * init_cost]
        assert [rec.evaluations.tolist() for rec in records] == [[init_cost]] * 3

    @pytest.mark.parametrize("flags, init", FLAG_SETS)
    def test_rows_sent_match_the_trace_within_budget(self, rows_sent, flags, init):
        # the rows a cell of 3 runs really sends, counted at `evaluate_batch`:
        # exactly what the trace records, never past any run's budget, and
        # one sweep of n per iteration, which starts only if it ends below the budget
        n = 8
        for budget, iterations in ((init, 0), (init + n - 1, 0), (init + n, 0), (init + n + 1, 1),
                                   (10 * n, (10 * n - init - 1) // n)):
            rows_sent.clear()
            records = run_cell([small_config(budget=budget, seed=s, **flags) for s in range(3)], [SPEC])
            rec = records[0]
            assert sum(rows_sent) == 3 * rec.evaluations[-1] <= 3 * budget, (flags, budget)
            assert rows_sent == [3 * init] + [3 * n] * iterations, (flags, budget)
            assert all(r.evaluations.tolist() == rec.evaluations.tolist() for r in records)
            assert budget - n <= rec.evaluations[-1] <= budget

    def test_evaluations_accumulate_exactly(self, rows_sent):
        # each run's count is its initialization plus n per iteration, and
        # the trace's count after every iteration is the rows sent so far
        for flags, init in FLAG_SETS:
            rows_sent.clear()
            records = run_cell([small_config(budget=500, seed=s, **flags) for s in range(3)], [SPEC])
            for rec in records:
                np.testing.assert_array_equal(rec.evaluations, init + 8 * rec.iterations)
                np.testing.assert_array_equal(3 * rec.evaluations, np.cumsum(rows_sent))

    def test_rows_sent_equal_recorded_evaluations(self, rows_sent):
        # over a whole experiment through the harness, every row scored is on
        # some run's record, at d = 2 (init = n = 6) and d = 10 (16 array rows)
        from opsom.harness import ExperimentConfig, execute

        experiment = ExperimentConfig(dimensions=(2, 10), runs=2, algorithms=("opsom", "pso"),
                                      optimizer=OptimizerConfig(population=6, budget=101))
        records = [rec for cell in execute(experiment).values() for rec in cell]
        assert len(records) == 2 * 10 * 2 * 2
        assert sum(rows_sent) == sum(int(rec.evaluations[-1]) for rec in records)

    def test_infeasible_budget_rejected_before_any_evaluation(self, rows_sent):
        # a budget one short of the initialization fails the whole cell up
        # front, so no row is ever scored past it
        for flags, init in FLAG_SETS:
            refusal = rf"budget {init - 1} cannot cover initialization \({init} evaluations\)"
            with pytest.raises(ValueError, match=refusal):
                run_cell([small_config(budget=init - 1, seed=s, **flags) for s in range(3)], [SPEC])
        assert rows_sent == []

    def test_exhausted_budget_stops_the_run(self, rows_sent):
        # a run stops at the first iteration whose sweep would reach the budget,
        # for every budget from the initialization on
        n = 8
        for flags, init in FLAG_SETS[:2]:
            for budget in range(init, init + 3 * n + 2):
                rows_sent.clear()
                rec = run(small_config(budget=budget, **flags), SPEC)
                assert rec.evaluations[-1] <= budget < rec.evaluations[-1] + n + 1, (flags, budget)
                assert len(rows_sent) == len(rec.iterations)

    def test_unaffordable_sweep_is_never_started(self, rows_sent):
        # with room for less than a whole sweep past initialization (or for one
        # that would end exactly on the budget) the observer sees the initial
        # swarm alone, and one more evaluation affords the first sweep
        n = 8
        for flags, init in FLAG_SETS:
            for budget in (init + 1, init + n - 1, init + n):
                rows_sent.clear()
                seen = []
                rec = run(small_config(budget=budget, **flags), SPEC, observer=lambda s, a: seen.append(s.iteration))
                assert seen == [0] and rows_sent == [init] and rec.evaluations.tolist() == [init]
            rec = run(small_config(budget=init + n + 1, **flags), SPEC)
            assert rec.evaluations.tolist() == [init, init + n]

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

    def test_derived_fields_are_read_only_properties(self):
        # the record stores init and the two traces; the rest is computed from them
        assert [f.name for f in fields(RunRecord)] == [
            "function_id", "algorithm", "dimension", "seed", "population", "budget", "init", "errors",
            "diversities", "wall_time",
        ]
        rec = run(small_config(budget=4_000), SPEC)
        assert rec.init == rec.evaluations[0] == 16
        assert type(rec.best_error) is float and rec.best_error == rec.errors[-1]
        for name in ("iterations", "evaluations", "best_error"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)

    def test_pickle_holds_two_trace_arrays(self):
        # K = 2015 iterations: the errors and diversities take 16 bytes an
        # iteration, and two more int64 arrays would push the pickle past 24
        rec = run(OptimizerConfig(algorithm="pso", population=6, budget=12_100, seed=1), base_spec("sphere", 2))
        k = len(rec.errors) - 1
        assert k >= 2000
        assert len(pickle.dumps(rec)) < 3 * 8 * (k + 1)
        back = pickle.loads(pickle.dumps(rec))
        assert back.evaluations.tobytes() == rec.evaluations.tobytes() and back.best_error == rec.best_error

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

    def test_archives_seeded_from_the_initial_swarm(self):
        # psi holds every personal best in particle order, chi the global
        # best alone, phi the top half by fitness
        seen = []
        run(small_config(budget=16), SPEC, observer=lambda s, a: seen.append((
            s.pbest_positions.copy(), s.pbest_fitness.copy(), s.gbest_position.copy(), s.gbest_fitness,
            a.psi.positions, a.psi.fitness, a.chi.positions, a.chi.fitness, a.phi_positions.copy(),
            a.phi_fitness.copy(),
        )))
        (pbest, pbest_fit, gbest, gbest_fit, psi, psi_fit, chi, chi_fit, phi, phi_fit), = seen
        np.testing.assert_array_equal(psi, pbest)
        np.testing.assert_array_equal(psi_fit, pbest_fit)
        np.testing.assert_array_equal(chi, gbest[None])
        np.testing.assert_array_equal(chi_fit, [gbest_fit])
        top = np.argsort(pbest_fit, kind="stable")[:4]
        np.testing.assert_array_equal(phi, pbest[top])
        np.testing.assert_array_equal(phi_fit, pbest_fit[top])

    def test_run_dispatcher(self):
        rec = run(small_config(algorithm="pso"), SPEC)
        assert rec.algorithm == "pso"
        with pytest.raises(ValueError):
            run(small_config(algorithm="nope"), SPEC)


class _CountingRng:
    """Generator proxy that records every method call made through it."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)

        return counted


class TestAblations:
    def test_full_ablation_reduces_to_baseline_step(self):
        # with every strategy off the optimizer is the baseline PSO: whole runs
        # match bit for bit on every record field but the algorithm's name and
        # the wall time, for single runs and lockstep cells
        compared = [f.name for f in fields(RunRecord) if f.name not in ("algorithm", "wall_time")]
        ablated = dict(algorithm="opsom", no_oa=True, no_archives=True, no_mutation=True)
        for runs, d, seed in itertools.product((1, 3), (2, 10), (0, 5, 2**63 + 17)):
            spec = make_suite(1, d)[seed % 10]
            cells = [
                run_cell([OptimizerConfig(population=8, budget=800, seed=seed + r, **flags) for r in range(runs)],
                         [spec])
                for flags in (dict(algorithm="pso"), ablated)
            ]
            for pso, opsom in zip(*cells):
                assert (pso.algorithm, opsom.algorithm) == ("pso", "opsom")
                for name in compared:
                    a, b = getattr(pso, name), getattr(opsom, name)
                    same = a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b
                    assert same, (runs, d, seed, name)

    def test_mutation_covers_the_elite_half(self, monkeypatch):
        import opsom.optimizer as mod

        calls = []
        original = mod.mutate_elites

        def spy(elite_positions, *draws):
            calls.append(elite_positions.shape)
            return original(elite_positions, *draws)

        monkeypatch.setattr(mod, "mutate_elites", spy)
        rec = run(small_config(budget=500), SPEC)
        iterations = len(rec.iterations) - 1
        assert calls == [(1, 4, 10)] * iterations

    def test_no_mutation_routes_elites_through_the_scheme_path(self, monkeypatch):
        import opsom.optimizer as mod

        calls = []
        monkeypatch.setattr(mod, "mutate_elites", lambda *a, **k: calls.append(1))
        guide_shapes = []
        original_guides = mod._archive_guides

        def spy(archives, u):
            guide_shapes.append(u.shape[2])
            return original_guides(archives, u)

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

    def test_baseline_writes_no_archive(self):
        # psi and chi stay empty; phi's n/2 rows are allocated and never written
        seen = []
        run(small_config(budget=1_000, algorithm="pso"), SPEC, observer=lambda s, a: seen.append(
            (a.fill.tolist(), a.phi_fitness.tolist(), np.count_nonzero(a.phi_positions))))
        assert len(seen) > 10 and all(view == ([4, 0, 0], [0.0] * 4, 0) for view in seen)

    def test_ablation_flags_change_the_trajectory(self):
        base = run(small_config(budget=2_000), SPEC)
        for flag in ("no_oa", "no_archives", "no_mutation", "fixed_inertia"):
            variant = run(small_config(budget=2_000, **{flag: True}), SPEC)
            assert not np.array_equal(base.errors, variant.errors), flag


class TestUniformBlock:
    """`run` draws one uniform block per block of iterations; indices are `int(u * size)`."""

    @pytest.mark.parametrize("flags, k", [
        # n = 8, d = 10: m learners, e mutated elites
        # guides 3m + velocity 3md (2md) + partners 2e + deltas 2ed + evictions n + 1
        ({}, 3 * 4 + 3 * 4 * 10 + 2 * 4 + 2 * 4 * 10 + 9),
        ({"no_archives": True}, 2 * 4 * 10 + 2 * 4 + 2 * 4 * 10),
        ({"no_mutation": True}, 3 * 8 + 3 * 8 * 10 + 9),
        ({"fixed_inertia": True}, 3 * 4 + 3 * 4 * 10 + 2 * 4 + 2 * 4 * 10 + 9),
        # the baseline: r1 and r2, each (n, d)
        ({"algorithm": "pso"}, 2 * 8 * 10),
    ])
    def test_one_random_call_per_iteration(self, monkeypatch, flags, k):
        # B = k uniforms per iteration, drawn for a whole block of T iterations by one call per run
        import opsom.optimizer as mod

        generators = []
        default_rng = np.random.default_rng

        def counting_default_rng(seed):
            generators.append(_CountingRng(default_rng(seed)))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        # each step call marks how many calls every run's generator has had
        marks = []
        step = mod._opsom_iteration

        def marking_step(*args):
            marks.append([len(g.calls) for g in generators])
            return step(*args)

        monkeypatch.setattr(mod, "_opsom_iteration", marking_step)
        default = mod.BLOCK_VALUES
        for runs in (1, 3):
            # one iteration per block, 7 per block, and the default's blocks
            for block_values in (1, 8 * runs * k - 1, default):
                monkeypatch.setattr(mod, "BLOCK_VALUES", block_values)
                block = max(1, block_values // (runs * k))
                generators.clear()
                marks.clear()
                records = run_cell([small_config(budget=1_000, seed=seed, **flags) for seed in range(runs)], [SPEC])
                iterations = len(records[0].iterations) - 1
                assert len(generators) == runs and len(marks) == iterations > 10
                for r, generator in enumerate(generators):
                    # the call just before the first step filled run r's slab of the first block,
                    # and every call after the initialization's fills the slab of one block
                    init = marks[0][r] - 1
                    assert [mark[r] for mark in marks] == [init + 1 + i // block for i in range(iterations)]
                    drawn = generator.calls[init:]
                    assert all(name == "random" and not args and list(kw) == ["out"] for name, args, kw in drawn)
                    slabs = [kw["out"].shape for _, _, kw in drawn]
                    assert slabs == [(min(block, iterations - i), k) for i in range(0, iterations, block)]
                    assert sum(rows for rows, _ in slabs) == iterations

    def test_largest_uniform_maps_below_every_size(self):
        u = np.nextafter(1.0, 0.0)
        sizes = np.arange(1, 2**16 + 1)
        assert ((u * sizes).astype(np.intp) == sizes - 1).all()
        assert all(int(u * k) == k - 1 for k in range(1, 2**16 + 1))

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(0.0, 1.0, exclude_max=True))
    def test_any_uniform_maps_into_every_size(self, u):
        sizes = np.arange(1, 2**16 + 1)
        index = (u * sizes).astype(np.intp)
        assert ((0 <= index) & (index <= sizes - 1)).all()


class TestRngIdentities:
    """The generator identities that let the baseline PSO step draw r1 and r2 in
    one call, and a run draw a whole block of iterations in one call, without
    moving a single output bit."""

    @staticmethod
    def pair(seed, pre):
        # `pre` single 32-bit-range draws leave the generator's half-used
        # 64-bit buffer in either state before the compared calls
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (a, b):
            for _ in range(pre):
                rng.integers(0, 7)
        return a, b

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), pre=st.integers(0, 3), k=st.integers(1, 4),
           m=st.integers(1, 40), d=st.integers(1, 50))
    def test_one_random_call_equals_uniform_calls(self, seed, pre, k, m, d):
        a, b = self.pair(seed, pre)
        merged = a.random((k, m, d))
        one_by_one = np.stack([b.uniform(size=(m, d)) for _ in range(k)])
        assert merged.tobytes() == one_by_one.tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), pre=st.integers(0, 3), t=st.integers(1, 8), b=st.integers(1, 300),
           data=st.data())
    def test_one_slab_fill_equals_successive_calls(self, seed, pre, t, b, data):
        # a block's (T, B) slab, or its first k rows as in a run's last block,
        # filled by one `random(out=...)` call holds the bits of k `random(B)` calls
        k = data.draw(st.integers(1, t))
        for rows in (t, k):
            a, b_rng = self.pair(seed, pre)
            slab = np.empty((t, b))
            a.random(out=slab[:rows])
            one_by_one = np.stack([b_rng.random(b) for _ in range(rows)])
            assert slab[:rows].tobytes() == one_by_one.tobytes()
            assert a.bit_generator.state == b_rng.bit_generator.state


def one_run(positions):
    """A one-run state at these (n, d) positions."""
    positions = np.asarray(positions, dtype=float)[None]
    return SwarmState(positions, np.zeros_like(positions), np.zeros(positions.shape[:2]))


class TestDiversity:
    def test_identical_particles(self):
        assert diversity(one_run(np.ones((5, 3))).positions).tolist() == [0.0]

    def test_symmetric_pair(self):
        assert diversity(one_run([[0.0, 0.0], [2.0, 0.0]]).positions).tolist() == [1.0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(-100, 100, (12, 4))
        centroid = positions.mean(axis=0)
        expected = np.mean([np.sqrt(((p - centroid) ** 2).sum()) for p in positions])
        assert diversity(one_run(positions).positions)[0] == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 25), n=st.integers(1, 100), d=st.integers(1, 60),
           scale=st.sampled_from([1e-3, 1.0, 100.0, 1e6]))
    def test_bitwise_equal_to_numpy_mean_and_norm(self, seed, runs, n, d, scale):
        # one call for R stacked runs gives each run the bits of numpy's mean and norm
        positions = scale * np.random.default_rng(seed).uniform(-1, 1, (runs, n, d))
        state = SwarmState(positions, np.zeros((runs, n, d)), np.zeros((runs, n)))
        expected = [float(np.linalg.norm(p - p.mean(0), axis=1).mean()) for p in positions]
        assert np.array_equal(diversity(state.positions), expected)


    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), block=st.integers(1, 6), runs=st.integers(1, 4), n=st.integers(1, 60),
           d=st.integers(1, 40), scale=st.sampled_from([1e-3, 1.0, 100.0, 1e6]))
    def test_block_of_snapshots_equals_one_at_a_time(self, seed, block, runs, n, d, scale):
        # the trace's (T, R, n, d) ring gives each snapshot the bits of its own call
        stack = scale * np.random.default_rng(seed).uniform(-1, 1, (block, runs, n, d))
        assert diversity(stack).tobytes() == np.stack([diversity(positions) for positions in stack]).tobytes()


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


RECORD_ARRAYS = ("iterations", "evaluations", "errors", "diversities")
RECORD_SCALARS = ("function_id", "algorithm", "dimension", "seed", "population", "budget", "init", "best_error")


VARIANTS = ["pso", "opsom", "no_oa", "no_archives", "no_mutation", "fixed_inertia"]


def variant_configs(variant, runs, base_seed):
    """`runs` small configs of one algorithm or ablation, differing only in seed."""
    flags = {} if variant in ("pso", "opsom") else {variant: True}
    algorithm = "pso" if variant == "pso" else "opsom"
    return [OptimizerConfig(algorithm=algorithm, population=8, budget=600, seed=(base_seed + 7919 * r) % 2**64,
                            **flags) for r in range(runs)]


class TestRunCell:
    """`run_cell` advances runs in lockstep, of one function or several; each run's record is the one `run` gives."""

    @settings(max_examples=40, deadline=None)
    @given(runs=st.integers(1, 8), d=st.sampled_from([2, 10]), function=st.integers(0, 9),
           variant=st.sampled_from(VARIANTS), base_seed=st.integers(0, 2**64 - 1))
    def test_matches_one_run_at_a_time(self, runs, d, function, variant, base_seed):
        spec = make_suite(5, d)[function]
        configs = variant_configs(variant, runs, base_seed)
        cell = run_cell(configs, [spec])
        assert len(cell) == runs
        for config, lockstep in zip(configs, cell):
            alone = run(config, spec)
            for name in RECORD_ARRAYS:
                a, b = getattr(alone, name), getattr(lockstep, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
            for name in RECORD_SCALARS:
                assert getattr(alone, name) == getattr(lockstep, name), name

    @settings(max_examples=30, deadline=None)
    @given(functions=st.lists(st.integers(0, 9), min_size=1, max_size=10, unique=True), runs=st.integers(1, 3),
           d=st.sampled_from([2, 10]), variant=st.sampled_from(VARIANTS), base_seed=st.integers(0, 2**64 - 1))
    def test_functions_in_lockstep_match_one_function_at_a_time(self, functions, runs, d, variant, base_seed):
        # the R runs of each of k functions in one call, as the harness packs a
        # task, give every record field but the wall time bit for bit
        suite = make_suite(5, d)
        configs = variant_configs(variant, runs, base_seed)
        task = run_cell(configs, [suite[f] for f in functions])
        alone = [record for f in functions for record in run_cell(configs, [suite[f]])]
        assert len(task) == len(alone) == runs * len(functions)
        for a, b in zip(alone, task):
            for name in (f.name for f in fields(RunRecord) if f.name != "wall_time"):
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, np.ndarray):
                    assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
                else:
                    assert x == y, name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_records_do_not_depend_on_the_block_size(self, monkeypatch, variant):
        # one iteration per block, blocks of 7 with a shorter last one, and one
        # block for the whole run give every record field but the wall time bit for bit
        import opsom.optimizer as mod

        for runs, d in itertools.product((1, 3), (2, 10)):
            configs = variant_configs(variant, runs, 2**40 + d)
            layout = sum(mod._block_layout(configs[0], 8, d))
            cells = []
            for block_values in (1, 8 * runs * layout - 1, 2**40):
                monkeypatch.setattr(mod, "BLOCK_VALUES", block_values)
                cells.append(run_cell(configs, [make_suite(5, d)[3]]))
            assert len(cells[0][0].errors) - 1 > 7 * 8  # several blocks of 7
            for records in zip(*cells):
                for name in (f.name for f in fields(RunRecord) if f.name != "wall_time"):
                    values = [getattr(rec, name) for rec in records]
                    if isinstance(values[0], np.ndarray):
                        assert len({(v.dtype, v.shape, v.tobytes()) for v in values}) == 1, (variant, runs, d, name)
                    else:
                        assert len(set(values)) == 1, (variant, runs, d, name)

    def test_rejects_specs_of_mixed_dimensions(self):
        with pytest.raises(ValueError, match=r"must share one dimension, got \[2, 10\]"):
            run_cell([small_config(seed=1), small_config(seed=2)], [base_spec("sphere", 2), SPEC])

    def test_rejects_an_empty_cell(self):
        for configs, specs in (([], []), ([], [SPEC]), ([small_config(seed=1)], [])):
            with pytest.raises(ValueError, match="at least one config and one spec"):
                run_cell(configs, specs)

    @pytest.mark.parametrize("change", [
        dict(algorithm="pso"), dict(population=10), dict(budget=2_100), dict(no_oa=True), dict(no_archives=True),
        dict(no_mutation=True), dict(fixed_inertia=True),
    ])
    def test_rejects_configs_differing_in_more_than_the_seed(self, change):
        configs = [small_config(seed=1), small_config(seed=2, **change)]
        with pytest.raises(ValueError, match="may differ only in seed"):
            run_cell(configs, [SPEC])
        # the seed alone may differ, repeated seeds included
        assert len(run_cell([small_config(seed=1), small_config(seed=2), small_config(seed=1)], [SPEC])) == 3

    def test_observer_watches_a_single_run(self):
        # it counts runs: two configs on one spec, or one config on two specs
        for configs, specs in (([small_config(seed=1), small_config(seed=2)], [SPEC]), ([small_config()], [SPEC] * 2)):
            with pytest.raises(ValueError, match="observer watches one run, got 2 runs"):
                run_cell(configs, specs, observer=lambda state, archives: None)

    def test_shared_wall_time(self):
        records = run_cell([small_config(seed=s) for s in range(3)], [SPEC])
        assert len({r.wall_time for r in records}) == 1 and records[0].wall_time > 0.0
