"""Tests for swarm state, the baseline PSO step (the optimizer's step function
with every strategy off), boundary handling, best bookkeeping, and the step's
ranked split of the swarm into mutated elites and learners.

Most cases build a cell of one run from (n, d) arrays and read it back
through `SwarmState.view(0)`; the multi-run cases check that runs stacked on
the leading axis do not affect each other."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsom.archives import ArchiveSet
from opsom.objective import base_spec
from opsom.optimizer import OptimizerConfig, _block_draws, _opsom_iteration
from opsom.swarm_core import (
    COGNITIVE,
    INERTIA,
    SOCIAL,
    V_MAX,
    SwarmState,
    handle_bounds,
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

    `u` is the (R, 2, n, d) block: each run's r1, then r2.  It is cut as
    `run_cell` cuts a block of one iteration; the baseline reads no archive.
    """
    config = OptimizerConfig(algorithm="pso")
    runs, n, d = state.positions.shape
    _opsom_iteration(state, None, config, [spec], _block_draws(config, np.reshape(u, (runs, 1, -1)).copy(), n, d), 0)
    return state


def step(state, spec, u):
    """`baseline_step` on a one-run state with a (2, n, d) block."""
    return baseline_step(state, spec, np.asarray(u)[None])


def opsom_step(state, phi, inertia, delta):
    """One full-opsom iteration of every run through the step function, on hand-set uniforms.

    The learner in rank slot j gets inertia `inertia[j]` and no pull (b = c =
    0), so its velocity becomes inertia[j]*v before the clamp.  The elite in
    rank slot j mutates with `delta` (2, e) or (2, e, d), toward phi_j =
    `phi[j]`; its partners are the first indices the draw allows (all partner
    uniforms 0).  psi and chi hold one zero row each, so guides can be drawn.
    """
    config = OptimizerConfig()
    runs, n, d = state.positions.shape
    m = e = n // 2
    archives = ArchiveSet(runs, n, d)
    archives.phi_positions[...] = phi
    archives.fill[:, 1:] = 1
    velocity = np.zeros((runs, 3, m, d))
    velocity[:, 0] = np.reshape(inertia, (m, 1))
    delta = np.broadcast_to(np.reshape(delta, (2, e, -1)), (runs, 2, e, d))
    parts = (np.zeros((runs, 3 * m)), velocity, np.zeros((runs, 2 * e)), delta, np.zeros((runs, n + 1)))
    u = np.concatenate([np.reshape(a, (runs, -1)) for a in parts], 1)
    _opsom_iteration(state, archives, config, [base_spec("sphere", d)], _block_draws(config, u[:, None], n, d), 0)
    return state


def split(fitness):
    """The particles the opsom step mutates and those it moves as learners, each in rank order.

    Every particle of the (R, n) `fitness` starts at the origin with unit
    velocity.  Elite slot j moves onto phi_j = j + 1 and keeps its velocity;
    learner slot j takes velocity (j + 1)/(n + 1).  Returns (R, n/2) elite and
    learner indices by slot, read back from the moved swarm.
    """
    fitness = np.asarray(fitness, dtype=float)
    runs, n = fitness.shape
    state = SwarmState(np.zeros((runs, n, 1)), np.ones((runs, n, 1)), fitness)
    slots = np.arange(1.0, n // 2 + 1)
    opsom_step(state, slots[:, None], slots / (n + 1), [np.ones(n // 2), np.zeros(n // 2)])
    x, v = state.positions[..., 0], state.velocities[..., 0]
    mutated = v == 1.0
    assert (mutated.sum(1) == n // 2).all()
    elite, learner = np.zeros((2, runs, n // 2), int)
    for r, i in zip(*mutated.nonzero()):
        elite[r, int(x[r, i]) - 1] = i
    for r, i in zip(*(~mutated).nonzero()):
        learner[r, round(v[r, i] * (n + 1)) - 1] = i
        assert x[r, i] == v[r, i]  # it moved from the origin by its velocity
    return elite, learner


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
        assert run.positions.shape == (4, 3) and run.gbest_fitness == 0.25


class TestHandleBounds:
    # the rows of a (n, d) swarm; `velocity` covers the last m, the learners,
    # and the first n - m, the mutated elites, keep their velocities
    def test_single_coordinate_clamp(self):
        pos, vel = handle_bounds(np.array([[150.0, 0.0], [150.0, 0.0]]), np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(pos, [[100.0, 0.0], [100.0, 0.0]])
        np.testing.assert_array_equal(vel, [[0.0, 5.0]])

    def test_in_bounds_unchanged(self):
        pos, vel = handle_bounds(np.array([[1.0, -2.0], [1.0, -2.0]]), np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(pos, [[1.0, -2.0], [1.0, -2.0]])
        np.testing.assert_array_equal(vel, [[3.0, 4.0]])

    def test_both_coordinates(self):
        position = np.array([[-200.0, 200.0], [-200.0, -200.0]])
        pos, vel = handle_bounds(position, np.array([[-1.0, -1.0]]))
        np.testing.assert_array_equal(pos, [[-100.0, 100.0], [-100.0, -100.0]])
        np.testing.assert_array_equal(vel, [[0.0, 0.0]])
        # with no learner rows nothing is zeroed, and every row is still clamped
        pos, vel = handle_bounds(position, np.empty((0, 2)))
        np.testing.assert_array_equal(pos, [[-100.0, 100.0], [-100.0, -100.0]])

    def test_bitwise_equal_to_clip_form(self):
        # the step's (2, R, n/2, d) layout: every run's elites, then every run's
        # learners; velocity covers the trailing rows of the flat row stack
        rng = np.random.default_rng(4)
        position = rng.uniform(-600.0, 600.0, (2, 3, 20, 12))
        position[1, :, -1, :4] = [-100.0, 100.0, -0.0, 0.0]  # on the walls, signed zeros
        for shape in ((2, 3, 20, 12), (3, 20, 12), (25, 12), (1, 12)):
            velocity = rng.uniform(-50, 50, shape)
            given = velocity.copy()
            pos, vel = handle_bounds(position, given)
            learners = position.reshape(-1, 12)[-(velocity.size // 12) :].reshape(shape)
            outside = (learners < -100.0) | (learners > 100.0)
            assert pos.tobytes() == np.clip(position, -100.0, 100.0).tobytes()
            assert vel is given and vel.tobytes() == np.where(outside, 0.0, velocity).tobytes()


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
    # the step ranks each run's particles by fitness: the better half mutates,
    # the worse half learns, each in ascending-fitness order
    def test_ranking_by_value(self):
        elite, learner = split([[3.0, 1.0, 4.0, 2.0, 6.0, 5.0]])
        assert elite[0].tolist() == [1, 3, 0] and learner[0].tolist() == [2, 5, 4]

    def test_all_equal_takes_first_half(self):
        # ties go to the lower index
        elite, learner = split([[5.0] * 6])
        assert elite[0].tolist() == [0, 1, 2] and learner[0].tolist() == [3, 4, 5]

    def test_smallest_case(self):
        # the smallest population a config accepts; three elites give every elite two partners
        elite, learner = split([[6.0, 5.0, 4.0, 3.0, 2.0, 1.0]])
        assert elite[0].tolist() == [5, 4, 3] and learner[0].tolist() == [2, 1, 0]

    def test_disjoint_union_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 2 * int(rng.integers(3, 20))
            fitness = rng.uniform(size=(1, n))
            fitness[0, rng.integers(n, size=3)] = fitness[0, 0]  # ties
            elite, learner = split(fitness)
            assert sorted(np.concatenate([elite[0], learner[0]]).tolist()) == list(range(n))
            assert fitness[0, elite[0]].max() <= fitness[0, learner[0]].min()
            assert np.concatenate([elite[0], learner[0]]).tolist() == fitness[0].argsort(kind="stable").tolist()

    def test_splits_each_run(self):
        elite, learner = split([[3.0, 1.0, 4.0, 2.0, 6.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(elite, [[1, 3, 0], [0, 1, 2]])
        np.testing.assert_array_equal(learner, [[2, 5, 4], [3, 4, 5]])


class TestSingleClamp:
    # one clamp puts the whole swarm back in the box after the opsom step
    def test_clamped_elite_keeps_velocity_and_clamped_learner_loses_it(self):
        # ranks follow the particle index: 0-2 are the elites, 3-5 the learners
        positions = np.array([[60.0, -60.0], [30.0, -30.0], [-60.0, 60.0], [99.0, 0.0], [-99.0, 0.0], [0.0, 0.0]])
        velocities = np.array([[3.0, -3.0], [3.0, -3.0], [3.0, -3.0], [10.0, 10.0], [-10.0, 2.0], [2.0, 2.0]])
        # run 1 holds the same swarm in reverse particle order, ranked alike
        flip = slice(None, None, -1)
        state = SwarmState(np.stack((positions, positions[flip])), np.stack((velocities, velocities[flip])),
                           np.stack((np.arange(6.0), np.arange(6.0)[flip])))
        # difference term only: elite 0 lands on 60 + 30 - (-60) = 150 and -150, elite 1 on
        # 30 + 60 + 60 and its negative, elite 2 on -60 + 60 - 30 = -30 and 30; each learner
        # moves by half its velocity
        opsom_step(state, positions[:3], np.full(3, 0.5), [np.zeros(3), np.ones(3)])
        moved = [[100.0, -100.0], [100.0, -100.0], [-30.0, 30.0], [100.0, 5.0], [-100.0, 1.0], [1.0, 1.0]]
        kept = [*velocities[:3], [0.0, 5.0], [0.0, 1.0], [1.0, 1.0]]  # the elites' velocities are untouched
        for run, rows in enumerate((slice(None), flip)):
            np.testing.assert_array_equal(state.positions[run, rows], moved)
            np.testing.assert_array_equal(state.velocities[run, rows], kept)


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
