"""Tests for swarm state, the baseline PSO step, boundary handling, best
bookkeeping, and the elite/regular split."""

import numpy as np
import pytest

from opsom.objective import BudgetExceeded, EvaluationCounter, SearchBounds, base_spec
from opsom.swarm_core import (
    PsoParams,
    SwarmState,
    handle_bounds,
    pso_step,
    sort_and_split,
    update_bests,
)


def make_state(positions, velocities=None, fitness=None):
    positions = np.asarray(positions, dtype=float)
    if velocities is None:
        velocities = np.zeros_like(positions)
    if fitness is None:
        fitness = np.sum(positions**2, axis=1)
    return SwarmState(positions, np.asarray(velocities, dtype=float), np.asarray(fitness, dtype=float))


class TestPsoParams:
    def test_defaults(self):
        p = PsoParams()
        assert p.inertia == 0.729 and p.cognitive == p.social == 1.49445

    def test_v_max(self):
        assert PsoParams().v_max(SearchBounds()) == 40.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PsoParams(inertia=1.5)
        with pytest.raises(ValueError):
            PsoParams(cognitive=-0.1)
        with pytest.raises(ValueError):
            PsoParams(v_max_fraction=0.0)


class TestSwarmState:
    def test_initial_bests(self):
        state = make_state([[1.0, 0.0], [0.0, 0.0]])
        assert state.gbest_fitness == 0.0
        np.testing.assert_array_equal(state.gbest_position, [0.0, 0.0])
        np.testing.assert_array_equal(state.pbest_fitness, state.fitness)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SwarmState(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3))


class TestHandleBounds:
    def test_single_coordinate_clamp(self):
        pos, vel = handle_bounds(np.array([150.0, 0.0]), np.array([5.0, 5.0]), SearchBounds())
        np.testing.assert_array_equal(pos, [100.0, 0.0])
        np.testing.assert_array_equal(vel, [0.0, 5.0])

    def test_in_bounds_unchanged(self):
        pos, vel = handle_bounds(np.array([1.0, -2.0]), np.array([3.0, 4.0]), SearchBounds())
        np.testing.assert_array_equal(pos, [1.0, -2.0])
        np.testing.assert_array_equal(vel, [3.0, 4.0])

    def test_both_coordinates(self):
        pos, vel = handle_bounds(np.array([-200.0, -200.0]), np.array([-1.0, -1.0]), SearchBounds())
        np.testing.assert_array_equal(pos, [-100.0, -100.0])
        np.testing.assert_array_equal(vel, [0.0, 0.0])


class TestUpdateBests:
    def test_no_improvement_keeps_pbest(self):
        state = make_state([[1.0, 0.0]], fitness=[3.0])
        state.fitness = np.array([5.0])
        state.positions = np.array([[9.0, 9.0]])
        update_bests(state)
        assert state.pbest_fitness[0] == 3.0
        np.testing.assert_array_equal(state.pbest_positions[0], [1.0, 0.0])

    def test_improvement_cascades_to_gbest(self):
        state = make_state([[1.0, 0.0]], fitness=[3.0])
        state.fitness = np.array([2.0])
        state.positions = np.array([[0.5, 0.5]])
        update_bests(state)
        assert state.pbest_fitness[0] == 2.0
        assert state.gbest_fitness == 2.0
        np.testing.assert_array_equal(state.gbest_position, [0.5, 0.5])

    def test_tie_keeps_incumbent(self):
        state = make_state([[1.0, 0.0]], fitness=[3.0])
        state.fitness = np.array([3.0])
        state.positions = np.array([[7.0, 7.0]])
        update_bests(state)
        np.testing.assert_array_equal(state.pbest_positions[0], [1.0, 0.0])
        np.testing.assert_array_equal(state.gbest_position, [1.0, 0.0])


class TestSortAndSplit:
    def test_ranking_by_value(self):
        state = make_state(np.zeros((4, 2)), fitness=[3.0, 1.0, 4.0, 2.0])
        elite, regular = sort_and_split(state)
        assert set(elite) == {1, 3} and set(regular) == {0, 2}

    def test_all_equal_takes_first_half(self):
        state = make_state(np.zeros((4, 2)), fitness=[5.0, 5.0, 5.0, 5.0])
        elite, regular = sort_and_split(state)
        assert list(elite) == [0, 1] and list(regular) == [2, 3]

    def test_smallest_case(self):
        state = make_state(np.zeros((2, 2)), fitness=[2.0, 1.0])
        elite, regular = sort_and_split(state)
        assert list(elite) == [1] and list(regular) == [0]

    def test_disjoint_union_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 2 * int(rng.integers(1, 20))
            state = make_state(np.zeros((n, 2)), fitness=rng.uniform(size=n))
            elite, regular = sort_and_split(state)
            assert len(elite) == len(regular) == n // 2
            assert sorted(np.concatenate([elite, regular]).tolist()) == list(range(n))
            assert state.fitness[elite].max() <= state.fitness[regular].min()

    def test_rejects_odd_population(self):
        state = make_state(np.zeros((3, 2)), fitness=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            sort_and_split(state)


class TestPsoStep:
    def test_fixed_point_when_all_terms_vanish(self):
        # x == pbest == gbest and v == 0 stays put
        spec = base_spec("sphere", 2)
        state = make_state([[0.0, 0.0]], fitness=[0.0])
        pso_step(state, PsoParams(), spec, EvaluationCounter(budget=100), np.random.default_rng(0))
        np.testing.assert_array_equal(state.positions, [[0.0, 0.0]])
        np.testing.assert_array_equal(state.velocities, [[0.0, 0.0]])

    def test_pure_drift(self):
        spec = base_spec("sphere", 2)
        state = make_state([[0.0, 0.0]], velocities=[[1.0, 0.0]], fitness=[0.0])
        params = PsoParams(inertia=1.0, cognitive=0.0, social=0.0)
        pso_step(state, params, spec, EvaluationCounter(budget=100), np.random.default_rng(0))
        np.testing.assert_array_equal(state.positions, [[1.0, 0.0]])

    def test_single_particle_matches_hand_formula(self):
        # v' = 0.5 v + 1.5*0.5*(P - x) + 1.5*0.5*(G - x), x' = x + v'
        spec = base_spec("sphere", 2)
        state = make_state([[2.0, -1.0]], velocities=[[0.5, 0.25]], fitness=[5.0])
        state.pbest_positions = np.array([[1.0, 1.0]])
        state.pbest_fitness = np.array([2.0])
        state.gbest_position = np.array([0.0, 0.0])
        state.gbest_fitness = 0.0
        params = PsoParams(inertia=0.5, cognitive=1.5, social=1.5)
        r = np.full((1, 2), 0.5)
        pso_step(state, params, spec, EvaluationCounter(budget=100), np.random.default_rng(0), r1=r, r2=r)
        v = 0.5 * np.array([0.5, 0.25]) + 0.75 * (np.array([1.0, 1.0]) - [2.0, -1.0]) + 0.75 * (np.array([0.0, 0.0]) - [2.0, -1.0])
        np.testing.assert_allclose(state.velocities[0], v, atol=1e-15)
        np.testing.assert_allclose(state.positions[0], np.array([2.0, -1.0]) + v, atol=1e-15)
        assert state.iteration == 1

    def test_unaffordable_sweep_raises_and_leaves_state_untouched(self):
        # the run loop only starts affordable sweeps; a direct call that cannot
        # pay for all n evaluations fails before any particle moves
        spec = base_spec("sphere", 2)
        for budget in (0, 2):
            state = make_state([[5.0, 5.0], [6.0, 6.0], [7.0, 7.0]], velocities=np.ones((3, 2)))
            before = state.positions.copy()
            c = EvaluationCounter(budget=budget)
            with pytest.raises(BudgetExceeded):
                pso_step(state, PsoParams(), spec, c, np.random.default_rng(1))
            np.testing.assert_array_equal(state.positions, before)
            np.testing.assert_array_equal(state.velocities, np.ones((3, 2)))
            assert state.iteration == 0 and c.used == 0

    def test_invariants_over_many_steps(self):
        spec = base_spec("rastrigin", 5, shift=np.full(5, 10.0))
        rng = np.random.default_rng(2)
        positions = rng.uniform(-100, 100, size=(8, 5))
        state = make_state(positions, fitness=[float(f) for f in (positions**2).sum(axis=1)])
        c = EvaluationCounter(budget=10_000)
        params = PsoParams()
        vmax = params.v_max(spec.bounds)
        last_gbest = state.gbest_fitness
        last_pbest = state.pbest_fitness.copy()
        for _ in range(50):
            pso_step(state, params, spec, c, rng)
            assert ((state.positions >= -100) & (state.positions <= 100)).all()
            assert (np.abs(state.velocities) <= vmax).all()
            assert state.gbest_fitness <= last_gbest
            assert (state.pbest_fitness <= last_pbest).all()
            last_gbest = state.gbest_fitness
            last_pbest = state.pbest_fitness.copy()
        assert c.used == 50 * 8
