"""Tests for swarm state, the baseline PSO step (the optimizer's step function
with every strategy off), boundary handling, best bookkeeping, and the
elite/regular split.

Most cases build a cell of one run from (n, d) arrays and read it back
through `SwarmState.view(0)`; the multi-run cases check that runs stacked on
the leading axis do not affect each other."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsom.objective import base_spec
from opsom.optimizer import OptimizerConfig, _opsom_iteration, _uniform_block
from opsom.swarm_core import (
    COGNITIVE,
    INERTIA,
    SOCIAL,
    V_MAX,
    SwarmState,
    handle_bounds,
    sort_and_split,
    update_bests,
    velocity_update,
)


def make_state(positions, velocities=None, fitness=None):
    """A one-run state from (n, d) positions (and velocities) and (n,) fitness."""
    positions = np.asarray(positions, dtype=float)
    if velocities is None:
        velocities = np.zeros_like(positions)
    if fitness is None:
        fitness = np.sum(positions**2, axis=1)
    velocities, fitness = np.asarray(velocities, dtype=float), np.asarray(fitness, dtype=float)
    return SwarmState(positions[None], velocities[None], fitness[None])


def baseline_step(state, spec, u):
    """One baseline PSO iteration of every run through the optimizer's step function.

    `u` is the (R, 2, n, d) block: each run's r1, then r2.  The block is cut
    as `run_cell` cuts it; the baseline reads no archive.
    """
    config = OptimizerConfig(algorithm="pso")
    block, u_slices = _uniform_block(config, *state.positions.shape)
    block[...] = np.reshape(u, block.shape)
    _opsom_iteration(state, None, config, [(slice(0, len(block)), spec)], u_slices)
    return state


def step(state, spec, u):
    """`baseline_step` on a one-run state with a (2, n, d) block."""
    return baseline_step(state, spec, np.asarray(u)[None])


def split(state):
    """The (elite, regular) index arrays of a one-run state."""
    elite, regular = sort_and_split(state)
    return elite[0], regular[0]


class TestSwarmState:
    def test_initial_bests(self):
        state = make_state([[1.0, 0.0], [0.0, 0.0]]).view(0)
        assert state.gbest_fitness == 0.0
        np.testing.assert_array_equal(state.gbest_position, [0.0, 0.0])
        np.testing.assert_array_equal(state.pbest_fitness, state.fitness)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SwarmState(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            SwarmState(np.zeros((1, 3, 2)), np.zeros((1, 2, 2)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            SwarmState(np.zeros((2, 3, 2)), np.zeros((2, 3, 2)), np.zeros((1, 3)))

    def test_each_run_has_its_own_bests(self):
        positions = np.arange(24.0).reshape(2, 4, 3)
        state = SwarmState(positions, np.zeros_like(positions), np.array([[3.0, 1.0, 2.0, 5.0], [0.5, 4.0, 4.0, 0.25]]))
        np.testing.assert_array_equal(state.gbest_fitness, [1.0, 0.25])
        np.testing.assert_array_equal(state.gbest_position, [positions[0, 1], positions[1, 3]])
        run = state.view(1)
        assert run.positions.shape == (4, 3) and run.gbest_fitness == 0.25 and run.n == 4


class TestHandleBounds:
    def test_single_coordinate_clamp(self):
        pos, vel = handle_bounds(np.array([150.0, 0.0]), np.array([5.0, 5.0]))
        np.testing.assert_array_equal(pos, [100.0, 0.0])
        np.testing.assert_array_equal(vel, [0.0, 5.0])

    def test_in_bounds_unchanged(self):
        pos, vel = handle_bounds(np.array([1.0, -2.0]), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(pos, [1.0, -2.0])
        np.testing.assert_array_equal(vel, [3.0, 4.0])

    def test_both_coordinates(self):
        pos, vel = handle_bounds(np.array([-200.0, -200.0]), np.array([-1.0, -1.0]))
        np.testing.assert_array_equal(pos, [-100.0, -100.0])
        np.testing.assert_array_equal(vel, [0.0, 0.0])

    def test_bitwise_equal_to_clip_form(self):
        rng = np.random.default_rng(4)
        position = rng.uniform(-600.0, 600.0, (40, 12))
        position[0, :4] = [-100.0, 100.0, -0.0, 0.0]  # on the walls, signed zeros
        velocity = rng.uniform(-50, 50, (40, 12))
        pos, vel = handle_bounds(position, velocity)
        outside = (position < -100.0) | (position > 100.0)
        assert pos.tobytes() == np.clip(position, -100.0, 100.0).tobytes()
        assert vel.tobytes() == np.where(outside, 0.0, velocity).tobytes()


class TestUpdateBests:
    def test_no_improvement_keeps_pbest(self):
        state = make_state([[1.0, 0.0]], fitness=[3.0])
        state.fitness = np.array([[5.0]])
        state.positions = np.array([[[9.0, 9.0]]])
        improved, better = update_bests(state)
        assert improved.tolist() == [[False]] and better.tolist() == [False]
        run = state.view(0)
        assert run.pbest_fitness[0] == 3.0
        np.testing.assert_array_equal(run.pbest_positions[0], [1.0, 0.0])

    def test_improvement_cascades_to_gbest(self):
        state = make_state([[1.0, 0.0]], fitness=[3.0])
        state.fitness = np.array([[2.0]])
        state.positions = np.array([[[0.5, 0.5]]])
        improved, better = update_bests(state)
        assert improved.tolist() == [[True]] and better.tolist() == [True]
        run = state.view(0)
        assert run.pbest_fitness[0] == 2.0
        assert run.gbest_fitness == 2.0
        np.testing.assert_array_equal(run.gbest_position, [0.5, 0.5])

    def test_tie_keeps_incumbent(self):
        state = make_state([[1.0, 0.0]], fitness=[3.0])
        state.fitness = np.array([[3.0]])
        state.positions = np.array([[[7.0, 7.0]]])
        improved, better = update_bests(state)
        assert improved.tolist() == [[False]] and better.tolist() == [False]
        run = state.view(0)
        np.testing.assert_array_equal(run.pbest_positions[0], [1.0, 0.0])
        np.testing.assert_array_equal(run.gbest_position, [1.0, 0.0])

    def test_runs_update_independently(self):
        # run 0 improves its global best, run 1 only a personal best, run 2 nothing
        positions = np.zeros((3, 2, 1))
        state = SwarmState(positions, positions.copy(), np.array([[4.0, 2.0], [4.0, 2.0], [4.0, 2.0]]))
        kept = state.gbest_fitness
        state.positions = np.array([[[1.0], [2.0]], [[3.0], [4.0]], [[5.0], [6.0]]])
        state.fitness = np.array([[1.0, 9.0], [3.0, 9.0], [9.0, 9.0]])
        improved, better = update_bests(state)
        assert improved.tolist() == [[True, False], [True, False], [False, False]]
        assert better.tolist() == [True, False, False]
        np.testing.assert_array_equal(state.pbest_fitness, [[1.0, 2.0], [3.0, 2.0], [4.0, 2.0]])
        np.testing.assert_array_equal(state.pbest_positions[:, 0, 0], [1.0, 3.0, 0.0])
        np.testing.assert_array_equal(state.gbest_fitness, [1.0, 2.0, 2.0])
        np.testing.assert_array_equal(state.gbest_position[:, 0], [1.0, 0.0, 0.0])
        # the gbest arrays are replaced, not written into
        np.testing.assert_array_equal(kept, [2.0, 2.0, 2.0])


class TestSortAndSplit:
    def test_ranking_by_value(self):
        state = make_state(np.zeros((4, 2)), fitness=[3.0, 1.0, 4.0, 2.0])
        elite, regular = split(state)
        assert set(elite) == {1, 3} and set(regular) == {0, 2}

    def test_all_equal_takes_first_half(self):
        state = make_state(np.zeros((4, 2)), fitness=[5.0, 5.0, 5.0, 5.0])
        elite, regular = split(state)
        assert list(elite) == [0, 1] and list(regular) == [2, 3]

    def test_smallest_case(self):
        state = make_state(np.zeros((2, 2)), fitness=[2.0, 1.0])
        elite, regular = split(state)
        assert list(elite) == [1] and list(regular) == [0]

    def test_disjoint_union_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 2 * int(rng.integers(1, 20))
            state = make_state(np.zeros((n, 2)), fitness=rng.uniform(size=n))
            elite, regular = split(state)
            assert len(elite) == len(regular) == n // 2
            assert sorted(np.concatenate([elite, regular]).tolist()) == list(range(n))
            assert state.fitness[0, elite].max() <= state.fitness[0, regular].min()

    def test_splits_each_run(self):
        fitness = np.array([[3.0, 1.0, 4.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
        elite, regular = sort_and_split(SwarmState(np.zeros((2, 4, 1)), np.zeros((2, 4, 1)), fitness))
        np.testing.assert_array_equal(elite, [[1, 3], [0, 1]])
        np.testing.assert_array_equal(regular, [[0, 2], [2, 3]])


class TestPsoStep:
    def test_fixed_point_when_all_terms_vanish(self):
        # x == pbest == gbest and v == 0 stays put
        spec = base_spec("sphere", 2)
        state = make_state([[0.0, 0.0]], fitness=[0.0])
        step(state, spec, np.random.default_rng(0).random((2, 1, 2)))
        np.testing.assert_array_equal(state.positions[0], [[0.0, 0.0]])
        np.testing.assert_array_equal(state.velocities[0], [[0.0, 0.0]])

    def test_pure_drift(self):
        # zero uniforms silence both attraction terms: x' = x + INERTIA * v
        spec = base_spec("sphere", 2)
        state = make_state([[0.0, 0.0]], velocities=[[1.0, 0.0]], fitness=[0.0])
        step(state, spec, np.zeros((2, 1, 2)))
        np.testing.assert_array_equal(state.positions[0], [[INERTIA, 0.0]])

    def test_single_particle_matches_hand_formula(self):
        # v' = INERTIA v + COGNITIVE*0.5*(P - x) + SOCIAL*0.5*(G - x), x' = x + v'
        spec = base_spec("sphere", 2)
        state = make_state([[2.0, -1.0]], velocities=[[0.5, 0.25]], fitness=[5.0])
        state.pbest_positions = np.array([[[1.0, 1.0]]])
        state.pbest_fitness = np.array([[2.0]])
        state.gbest_position = np.array([[0.0, 0.0]])
        state.gbest_fitness = np.array([0.0])
        step(state, spec, np.full((2, 1, 2), 0.5))
        x = np.array([2.0, -1.0])
        v = INERTIA * np.array([0.5, 0.25]) + COGNITIVE * 0.5 * (np.array([1.0, 1.0]) - x) + SOCIAL * 0.5 * (0.0 - x)
        np.testing.assert_allclose(state.velocities[0, 0], v, atol=1e-15)
        np.testing.assert_allclose(state.positions[0, 0], x + v, atol=1e-15)
        assert state.iteration == 1

    def test_velocity_bitwise_equal_to_clip_form(self):
        # the baseline rule w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x) is the
        # shared rule with b = c1*r1 and c = c2*r2: Python multiplies left to right
        rng = np.random.default_rng(6)
        v, x, pbest = rng.uniform(-100, 100, (3, 20, 10))
        gbest = rng.uniform(-100, 100, 10)
        r1, r2 = rng.uniform(size=(2, 20, 10))
        expected = np.clip(INERTIA * v + COGNITIVE * r1 * (pbest - x) + SOCIAL * r2 * (gbest - x), -V_MAX, V_MAX)
        assert (np.abs(expected) == V_MAX).any() and (np.abs(expected) < V_MAX).any()
        out = velocity_update(v, x, pbest, gbest, INERTIA, COGNITIVE * r1, SOCIAL * r2)
        assert out.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), runs=st.integers(1, 4), n=st.integers(1, 50), d=st.integers(1, 60))
    def test_step_bitwise_equal_to_baseline_formula(self, seed, runs, n, d):
        # every run of a cell follows the textbook step with its own gbest
        # and uniforms, and every particle of every run is scored once
        rng = np.random.default_rng(seed)
        spec = base_spec("sphere", d)
        x, pbest = rng.uniform(-100, 100, (2, runs, n, d))
        v = rng.uniform(-50, 50, (runs, n, d))
        state = SwarmState(x.copy(), v.copy(), (x**2).sum(2))
        state.pbest_positions = pbest.copy()
        u = rng.random((runs, 2, n, d))
        baseline_step(state, spec, u)
        assert state.fitness.tobytes() == np.add.reduce(state.positions**2, 2).tobytes()
        for r in range(runs):
            gbest = x[r, (x[r] ** 2).sum(1).argmin()]
            velocity = np.clip(
                INERTIA * v[r] + COGNITIVE * u[r, 0] * (pbest[r] - x[r]) + SOCIAL * u[r, 1] * (gbest - x[r]),
                -V_MAX, V_MAX,
            )
            position = x[r] + velocity
            outside = (position < -100.0) | (position > 100.0)
            assert state.positions[r].tobytes() == np.clip(position, -100.0, 100.0).tobytes()
            assert state.velocities[r].tobytes() == np.where(outside, 0.0, velocity).tobytes()

    def test_invariants_over_many_steps(self):
        spec = base_spec("rastrigin", 5, shift=np.full(5, 10.0))
        rng = np.random.default_rng(2)
        positions = rng.uniform(-100, 100, size=(8, 5))
        state = make_state(positions, fitness=[float(f) for f in (positions**2).sum(axis=1)])
        last_gbest = state.gbest_fitness.copy()
        last_pbest = state.pbest_fitness.copy()
        for _ in range(50):
            step(state, spec, rng.random((2, 8, 5)))
            assert ((state.positions >= -100) & (state.positions <= 100)).all()
            assert (np.abs(state.velocities) <= V_MAX).all()
            assert (state.gbest_fitness <= last_gbest).all()
            assert (state.pbest_fitness <= last_pbest).all()
            last_gbest = state.gbest_fitness.copy()
            last_pbest = state.pbest_fitness.copy()
        assert state.iteration == 50
