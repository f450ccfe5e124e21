"""Tests for guide selection and the velocity rule as the archive-guided
update uses it: a, b, c are per-dimension uniforms (a may be a fixed inertia)."""

import itertools

import numpy as np

from opsom.archives import ArchiveSet
from opsom.optimizer import _archive_guides
from opsom.swarm_core import velocity_update


def singleton_archives(fits, positions):
    """One run's phi, psi and chi holding one (position, fitness) entry each, in that order."""
    positions = [np.asarray(p, dtype=float) for p in positions]
    a = ArchiveSet(1, 2, len(positions[0]))
    a.phi_positions[0, 0] = positions[0]
    a.phi_fitness[0, 0] = fits[0]
    one = np.ones((1, 1), bool)
    a.psi.push(positions[1][None, None], np.array([[fits[1]]]), one, np.array([[0.5]]))
    a.chi.push(positions[2][None, None], np.array([[fits[2]]]), one, np.array([[0.5]]))
    return a


def guide_for(fits, values=None):
    """The guide the optimizer resolves from one representative per archive;
    each entry's position is filled with its value (default: its fitness)."""
    values = fits if values is None else values
    archives = singleton_archives(fits, [np.full(2, float(v)) for v in values])
    return _archive_guides(archives, np.random.default_rng(0).random((1, 3, 1)))[0, 0]


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
        v = velocity_update(np.zeros(2), x, x, x, 40.0, *np.random.default_rng(0).random((3, 2)))
        np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_hooked_randoms_all_one(self):
        ones = np.ones(1)
        v = velocity_update(
            np.zeros(1), np.array([0.0]), np.array([2.0]), np.array([4.0]), 40.0,
            ones, ones, ones,
        )
        np.testing.assert_array_equal(v, [6.0])

    def test_pure_memory(self):
        v = velocity_update(
            np.array([3.0]), np.array([1.0]), np.array([2.0]), np.array([4.0]), 40.0,
            np.ones(1), np.zeros(1), np.zeros(1),
        )
        np.testing.assert_array_equal(v, [3.0])

    def test_clamped_to_v_max(self):
        ones = np.ones(1)
        v = velocity_update(
            np.zeros(1), np.array([0.0]), np.array([90.0]), np.array([90.0]), 40.0,
            ones, ones, ones,
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
        out = velocity_update(
            np.tile(v, (n, 1)), np.tile(x, (n, 1)), np.tile(guide, (n, 1)), gbest, 1e9, *rng.random((3, n, 2))
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
            chosen = _archive_guides(singleton_archives(fits, positions), rng.random((1, 3, 1)))[0, 0]
            np.testing.assert_array_equal(chosen, guide)
            outs.append(velocity_update(v, x, chosen, gbest, 40.0, r1, r2, r3))
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[1], outs[2])

    def test_bitwise_equal_to_clip_form(self):
        rng = np.random.default_rng(10)
        v, x, guide = rng.uniform(-100, 100, (3, 20, 10))
        gbest = rng.uniform(-100, 100, 10)
        r1, r2, r3 = rng.uniform(size=(3, 20, 10))
        for inertia in (r1, 0.729):  # drawn, and pinned by --fixed-inertia
            expected = np.clip(inertia * v + r2 * (guide - x) + r3 * (gbest - x), -40.0, 40.0)
            assert (np.abs(expected) == 40.0).any() and (np.abs(expected) < 40.0).any()
            out = velocity_update(v, x, guide, gbest, 40.0, inertia, r2, r3)
            assert out.tobytes() == expected.tobytes()

    def test_batch_matches_per_particle(self):
        rng = np.random.default_rng(9)
        m, d = 6, 3
        v = rng.uniform(-5, 5, (m, d))
        x = rng.uniform(-50, 50, (m, d))
        guide = rng.uniform(-50, 50, (m, d))
        gbest = rng.uniform(-50, 50, d)
        r1, r2, r3 = rng.uniform(size=(3, m, d))
        batch = velocity_update(v, x, guide, gbest, 40.0, r1, r2, r3)
        for i in range(m):
            row = velocity_update(v[i], x[i], guide[i], gbest, 40.0, r1[i], r2[i], r3[i])
            np.testing.assert_array_equal(batch[i], row)
