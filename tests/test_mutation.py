"""Tests for elite-position mutation and the distinct-partner draws."""

import numpy as np
import pytest

from opsom.mutation import draw_partners, mutate_elites
from opsom.objective import SearchBounds


BOUNDS = SearchBounds()


def elites(*rows):
    return np.array(rows, dtype=float)


def scalar_mutation(j, phi_position, elite_positions, delta1, delta2, g, h):
    """Reference for one elite: x + delta1*(phi_j - x) + delta2*(x_g - x_h), clamped into the box."""
    x = elite_positions[j]
    mutated = x + delta1 * (phi_position - x) + delta2 * (elite_positions[g] - elite_positions[h])
    return np.clip(mutated, BOUNDS.lower, BOUNDS.upper)


def mutate_one(j, phi_j, positions, rng, *, delta1=None, delta2=None, partners=None):
    """Row j of `mutate_elites`.  The other rows pull toward their own positions
    with cyclic partners; (d,) delta hooks apply to every row."""
    m = len(positions)
    phi = positions.copy()
    phi[j] = phi_j
    if partners is not None:
        g, h = (np.arange(m) + 1) % m, (np.arange(m) + 2) % m
        g[j], h[j] = partners
        partners = (g, h)
    delta1 = None if delta1 is None else np.tile(delta1, (m, 1))
    delta2 = None if delta2 is None else np.tile(delta2, (m, 1))
    return mutate_elites(positions, phi, BOUNDS, rng, delta1=delta1, delta2=delta2, partners=partners)[j]


class TestEliteMutate:
    def test_fixed_point_when_differences_vanish(self):
        # x == phi_j and x_g == x_h leaves the position unchanged
        positions = elites([5.0], [2.0], [2.0])
        out = mutate_one(0, np.array([5.0]), positions, np.random.default_rng(0), partners=(1, 2))
        np.testing.assert_array_equal(out, [5.0])

    def test_full_pull_to_personal_best(self):
        positions = elites([5.0, 5.0], [1.0, 1.0], [2.0, 2.0])
        phi = np.array([-3.0, 4.0])
        out = mutate_one(
            0, phi, positions, np.random.default_rng(0),
            delta1=np.ones(2), delta2=np.zeros(2), partners=(1, 2),
        )
        np.testing.assert_array_equal(out, phi)

    def test_difference_term_only(self):
        positions = elites([0.0], [3.0], [1.0])
        out = mutate_one(
            0, np.array([9.0]), positions, np.random.default_rng(0),
            delta1=np.zeros(1), delta2=np.ones(1), partners=(1, 2),
        )
        np.testing.assert_array_equal(out, [2.0])

    def test_result_clamped_into_box(self):
        positions = elites([95.0], [99.0], [-99.0])
        out = mutate_one(
            0, np.array([95.0]), positions, np.random.default_rng(0),
            delta1=np.zeros(1), delta2=np.ones(1), partners=(1, 2),
        )
        np.testing.assert_array_equal(out, [100.0])

    def test_contraction_toward_phi_with_zero_difference_term(self):
        rng = np.random.default_rng(1)
        positions = rng.uniform(-100, 100, (4, 3))
        phi = rng.uniform(-100, 100, 3)
        x = positions[2]
        for _ in range(50):
            out = mutate_one(2, phi, positions, rng, delta2=np.zeros(3))
            assert (np.abs(out - phi) <= np.abs(x - phi) + 1e-12).all()
            positions = positions.copy()
            positions[2] = out
            x = out

    def test_rejects_small_subgroup(self):
        with pytest.raises(ValueError):
            mutate_elites(elites([0.0], [1.0]), np.zeros((2, 1)), BOUNDS, np.random.default_rng(0))

    def test_random_partners_come_from_the_elite_subgroup(self):
        # with delta1 = 0, delta2 = 1 the step is exactly x_g - x_h; it must
        # always match a pair of elite peers distinct from each other and j
        rng = np.random.default_rng(2)
        positions = rng.uniform(-10, 10, (5, 2))
        valid_steps = np.array([
            positions[g] - positions[h]
            for g in range(5)
            for h in range(5)
            if g != h and g != 1 and h != 1
        ])
        for _ in range(200):
            out = mutate_one(1, positions[1], positions, rng, delta1=np.zeros(2), delta2=np.ones(2))
            step = out - positions[1]
            assert np.abs(valid_steps - step).sum(axis=1).min() < 1e-9


class TestDrawPartners:
    def test_all_draws_distinct_from_each_other_and_self(self):
        rng = np.random.default_rng(3)
        for m in (3, 4, 7, 20):
            for _ in range(200):
                g, h = draw_partners(m, rng)
                j = np.arange(m)
                assert (g != j).all() and (h != j).all() and (g != h).all()
                assert (0 <= g).all() and (g < m).all() and (0 <= h).all() and (h < m).all()

    def test_rejects_small_subgroup(self):
        with pytest.raises(ValueError):
            draw_partners(2, np.random.default_rng(0))

    def test_pairs_roughly_uniform(self):
        rng = np.random.default_rng(4)
        m = 4
        counts = np.zeros((m, m))
        trials = 12_000
        for _ in range(trials):
            g, h = draw_partners(m, rng)
            counts[g[0], h[0]] += 1
        # row j=0 can draw any ordered pair of {1,2,3}: 6 pairs, ~2000 each
        occupied = counts[counts > 0]
        assert len(occupied) == 6
        assert ((occupied > 1700) & (occupied < 2300)).all()


class TestMutateElites:
    def test_matches_scalar_op_given_same_draws(self):
        rng = np.random.default_rng(5)
        m, d = 6, 4
        positions = rng.uniform(-100, 100, (m, d))
        phi = rng.uniform(-100, 100, (m, d))
        g, h = draw_partners(m, rng)
        d1, d2 = rng.uniform(size=(2, m, d))
        batch = mutate_elites(positions, phi, BOUNDS, rng, delta1=d1, delta2=d2, partners=(g, h))
        for j in range(m):
            row = scalar_mutation(j, phi[j], positions, d1[j], d2[j], int(g[j]), int(h[j]))
            np.testing.assert_array_equal(batch[j], row)

    def test_all_outputs_inside_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            positions = rng.uniform(-100, 100, (8, 3))
            phi = rng.uniform(-100, 100, (8, 3))
            out = mutate_elites(positions, phi, BOUNDS, rng)
            assert ((out >= -100) & (out <= 100)).all()
