"""Tests for guide selection and the archive-guided velocity update."""

import itertools

import numpy as np

from opsom.archives import ArchiveSet, push_chi, push_psi
from opsom.learning import regular_velocity_update
from opsom.optimizer import _archive_guides


def singleton_archives(fits, positions):
    """phi, psi and chi holding one (position, fitness) entry each, in that order."""
    positions = [np.asarray(p, dtype=float) for p in positions]
    a = ArchiveSet(2, len(positions[0]))
    a.phi_positions = positions[0][None, :].copy()
    a.phi_fitness = np.array([fits[0]], dtype=float)
    rng = np.random.default_rng(0)
    push_psi(a, positions[1], fits[1], rng)
    push_chi(a, positions[2], fits[2], rng)
    return a


def guide_for(fits, values=None):
    """The guide the optimizer resolves from one representative per archive;
    each entry's position is filled with its value (default: its fitness)."""
    values = fits if values is None else values
    archives = singleton_archives(fits, [np.full(2, float(v)) for v in values])
    return _archive_guides(archives, 1, np.random.default_rng(0))[0]


class TestSelectScheme:
    def test_clear_minimum_phi(self):
        np.testing.assert_array_equal(guide_for((1.0, 2.0, 3.0)), [1.0, 1.0])

    def test_tie_prefers_phi(self):
        np.testing.assert_array_equal(guide_for((5.0, 5.0, 7.0), values=(-1.0, -2.0, 7.0)), [-1.0, -1.0])

    def test_clear_minimum_psi(self):
        np.testing.assert_array_equal(guide_for((9.0, 2.0, 4.0)), [2.0, 2.0])

    def test_clear_minimum_chi(self):
        np.testing.assert_array_equal(guide_for((9.0, 8.0, 4.0)), [4.0, 4.0])

    def test_exhaustive_orderings_match_brute_force(self):
        # all 27 fitness triples over {1,2,3} cover every weak ordering of 3 elements
        for fits in itertools.product([1.0, 2.0, 3.0], repeat=3):
            expected = min(range(3), key=lambda i: (fits[i], i))
            np.testing.assert_array_equal(guide_for(fits, values=(0.0, 1.0, 2.0)), [expected] * 2, err_msg=str(fits))


class TestRegularVelocityUpdate:
    def test_fixed_point(self):
        x = np.array([3.0, -4.0])
        v = regular_velocity_update(np.zeros(2), x, x, x, 40.0, np.random.default_rng(0))
        np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_hooked_randoms_all_one(self):
        ones = np.ones(1)
        v = regular_velocity_update(
            np.zeros(1), np.array([0.0]), np.array([2.0]), np.array([4.0]), 40.0,
            np.random.default_rng(0), r1=ones, r2=ones, r3=ones,
        )
        np.testing.assert_array_equal(v, [6.0])

    def test_pure_memory(self):
        v = regular_velocity_update(
            np.array([3.0]), np.array([1.0]), np.array([2.0]), np.array([4.0]), 40.0,
            np.random.default_rng(0), r1=np.ones(1), r2=np.zeros(1), r3=np.zeros(1),
        )
        np.testing.assert_array_equal(v, [3.0])

    def test_clamped_to_v_max(self):
        ones = np.ones(1)
        v = regular_velocity_update(
            np.zeros(1), np.array([0.0]), np.array([90.0]), np.array([90.0]), 40.0,
            np.random.default_rng(0), r1=ones, r2=ones, r3=ones,
        )
        np.testing.assert_array_equal(v, [40.0])

    def test_monte_carlo_mean(self):
        # E[v'] - 0.5 v = 0.5 (guide - x) + 0.5 (gbest - x) when no clamping occurs
        rng = np.random.default_rng(123)
        n = 200_000
        v = np.array([2.0, -1.0])
        x = np.array([1.0, 4.0])
        guide = np.array([5.0, -6.0])
        gbest = np.array([7.0, 2.0])  # expected mean [5, -6], no zero components
        out = regular_velocity_update(
            np.tile(v, (n, 1)), np.tile(x, (n, 1)), np.tile(guide, (n, 1)), gbest, 1e9, rng
        )
        expected = 0.5 * (guide - x) + 0.5 * (gbest - x)
        observed = out.mean(axis=0) - 0.5 * v
        np.testing.assert_allclose(observed, expected, rtol=0.01)

    def test_schemes_identical_up_to_guide(self):
        # feeding the chosen guide into the shared update gives the same value
        # regardless of which archive it came from
        rng = np.random.default_rng(5)
        v = rng.uniform(-1, 1, 4)
        x = rng.uniform(-50, 50, 4)
        gbest = rng.uniform(-50, 50, 4)
        guide = rng.uniform(-50, 50, 4)
        r1, r2, r3 = rng.uniform(size=(3, 4))
        outs = []
        for which in range(3):
            fits = [9.0, 9.0, 9.0]
            fits[which] = 0.0
            positions = [rng.uniform(-50, 50, 4) for _ in range(3)]
            positions[which] = guide
            chosen = _archive_guides(singleton_archives(fits, positions), 1, rng)[0]
            np.testing.assert_array_equal(chosen, guide)
            outs.append(regular_velocity_update(v, x, chosen, gbest, 40.0, rng, r1=r1, r2=r2, r3=r3))
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[1], outs[2])

    def test_batch_matches_per_particle(self):
        rng = np.random.default_rng(9)
        m, d = 6, 3
        v = rng.uniform(-5, 5, (m, d))
        x = rng.uniform(-50, 50, (m, d))
        guide = rng.uniform(-50, 50, (m, d))
        gbest = rng.uniform(-50, 50, d)
        r1, r2, r3 = rng.uniform(size=(3, m, d))
        batch = regular_velocity_update(v, x, guide, gbest, 40.0, rng, r1=r1, r2=r2, r3=r3)
        for i in range(m):
            row = regular_velocity_update(v[i], x[i], guide[i], gbest, 40.0, rng, r1=r1[i], r2=r2[i], r3=r3[i])
            np.testing.assert_array_equal(batch[i], row)
