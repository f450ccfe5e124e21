"""Tests for the three-archive bookkeeping: phi refresh, gated pushes with
capacity eviction, and representative sampling through the optimizer's
guide resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsom.archives import ArchiveSet, push_chi, push_psi, refresh_phi
from opsom.optimizer import _archive_guides
from opsom.swarm_core import SwarmState


def state_with_pbests(pbest_fitness):
    n = len(pbest_fitness)
    positions = np.arange(n * 2, dtype=float).reshape(n, 2)
    state = SwarmState(positions, np.zeros((n, 2)), np.asarray(pbest_fitness, dtype=float))
    return state


def row(value, d=2):
    """A (position, fitness) pair whose position encodes its fitness."""
    return np.full(d, value, dtype=float), float(value)


def newest_fitness(archive):
    return archive.fitness[len(archive) - 1]


def list_push(entries, entry, capacity, u):
    """Reference eviction rule on a push-ordered list of (position, fitness) pairs."""
    entries.append(entry)
    while len(entries) > capacity:
        entries.pop(int(u * (len(entries) - 1)))


class TestArchiveSet:
    def test_capacities(self):
        a = ArchiveSet(8, 2)
        assert a.phi_capacity == 4 and a.psi_capacity == 8 and a.chi_capacity == 8
        assert len(a.psi) == len(a.chi) == 0

    def test_rejects_odd_population(self):
        with pytest.raises(ValueError):
            ArchiveSet(7, 2)


class TestRefreshPhi:
    def test_top_half_selection(self):
        a = ArchiveSet(4, 2)
        state = state_with_pbests([3.0, 1.0, 4.0, 2.0])
        refresh_phi(a, state)
        np.testing.assert_array_equal(a.phi_fitness, [1.0, 2.0])
        np.testing.assert_array_equal(a.phi_positions[0], state.pbest_positions[1])
        np.testing.assert_array_equal(a.phi_positions[1], state.pbest_positions[3])

    def test_rebuild_reflects_new_values(self):
        a = ArchiveSet(4, 2)
        state = state_with_pbests([3.0, 1.0, 4.0, 2.0])
        refresh_phi(a, state)
        state.pbest_fitness = np.array([0.5, 1.0, 0.25, 2.0])
        refresh_phi(a, state)
        np.testing.assert_array_equal(a.phi_fitness, [0.25, 0.5])

    def test_ties_break_toward_lower_index(self):
        a = ArchiveSet(4, 2)
        state = state_with_pbests([2.0, 2.0, 2.0, 2.0])
        refresh_phi(a, state)
        np.testing.assert_array_equal(a.phi_positions, state.pbest_positions[:2])

    def test_smallest_population(self):
        a = ArchiveSet(2, 2)
        refresh_phi(a, state_with_pbests([5.0, 4.0]))
        assert len(a.phi_fitness) == 1 and a.phi_fitness[0] == 4.0

    def test_matches_brute_force_selection(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 2 * int(rng.integers(2, 12))
            fits = rng.uniform(size=n)
            a = ArchiveSet(n, 2)
            refresh_phi(a, state_with_pbests(fits))
            np.testing.assert_array_equal(np.sort(a.phi_fitness), np.sort(fits)[: n // 2])


class TestPushes:
    def test_first_insert(self):
        a = ArchiveSet(4, 2)
        push_psi(a, *row(1.0), 0.5)
        assert len(a.psi) == 1 and a.psi.fitness[0] == 1.0
        np.testing.assert_array_equal(a.psi.positions[0], [1.0, 1.0])

    def test_capacity_eviction_keeps_newest(self):
        u = np.random.default_rng(1).random(5)
        a = ArchiveSet(4, 2)
        for v in range(4):
            push_psi(a, *row(float(v)), u[v])
        push_psi(a, *row(99.0), u[4])
        assert len(a.psi) == 4
        assert newest_fitness(a.psi) == 99.0

    def test_newest_survives_many_evictions(self):
        u = np.random.default_rng(2).random(200)
        a = ArchiveSet(6, 2)
        for v in range(200):
            push_chi(a, *row(float(-v)), u[v])
            assert newest_fitness(a.chi) == float(-v)
            assert len(a.chi) <= 6

    def test_chi_min_equals_latest_push_for_improving_sequence(self):
        # pushes are gated on strict gbest improvement, so values decrease
        u = iter(np.random.default_rng(3).random(6))
        a = ArchiveSet(4, 2)
        for v in [5.0, 4.0, 2.5, 1.0, 0.5, 0.1]:
            push_chi(a, *row(v), next(u))
            assert a.chi.fitness[: len(a.chi)].min() == v

    def test_eviction_is_random_among_older_entries(self):
        # with a 2-slot archive the survivor of each push is uniform over the
        # two older entries; check both outcomes occur
        survivors = set()
        for seed in range(40):
            a = ArchiveSet(2, 2)
            u = np.random.default_rng(seed).random(3)
            push_psi(a, *row(1.0), u[0])
            push_psi(a, *row(2.0), u[1])
            push_psi(a, *row(3.0), u[2])
            survivors.add(a.psi.fitness[0])
        assert survivors == {1.0, 2.0}

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(1, 8), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           pushes=st.integers(0, 60), chi=st.booleans())
    def test_matches_list_reference(self, half, d, seed, pushes, chi):
        # the array archive evicts exactly like list.pop on the push-ordered list,
        # fed the same eviction uniforms
        n = 2 * half
        data = np.random.default_rng(seed)
        a = ArchiveSet(n, d)
        archive, push = (a.chi, push_chi) if chi else (a.psi, push_psi)
        ref = []
        for _ in range(pushes):
            position, fitness, u = data.uniform(-100, 100, d), float(data.uniform()), float(data.random())
            push(a, position, fitness, u)
            list_push(ref, (position.copy(), fitness), n, u)
            size = len(archive)
            assert size == len(ref) <= n
            np.testing.assert_array_equal(archive.positions[size - 1], position)
            assert archive.fitness[size - 1] == fitness
        size = len(archive)
        np.testing.assert_array_equal(archive.positions[:size], np.array([p for p, _ in ref]).reshape(size, d))
        np.testing.assert_array_equal(archive.fitness[:size], [f for _, f in ref])


class TestSampleRepresentatives:
    """Representative sampling as the optimizer runs it, through `_archive_guides`."""

    def seeded(self, n=4):
        a = ArchiveSet(n, 2)
        refresh_phi(a, state_with_pbests(list(np.arange(1.0, n + 1.0))))
        for v in range(n):
            push_psi(a, *row(10.0 + v), 0.5)
        push_chi(a, *row(0.5), 0.5)
        return a

    def test_singleton_archives_are_deterministic(self):
        # one entry per archive: every row gets the best of the three, whatever the seed
        for psi_fit, chi_fit, winner in ((3.0, 4.0, [0.0, 1.0]), (0.5, 4.0, [0.5, 0.5]), (3.0, 0.25, [0.25, 0.25])):
            a = ArchiveSet(2, 2)
            refresh_phi(a, state_with_pbests([1.0, 2.0]))
            push_psi(a, *row(psi_fit), 0.5)
            push_chi(a, *row(chi_fit), 0.5)
            for seed in range(5):
                guides = _archive_guides(a, np.random.default_rng(seed).random((3, 6)))
                np.testing.assert_array_equal(guides, np.tile(winner, (6, 1)))

    def test_fixed_seed_reproducible(self):
        a = self.seeded(8)
        draws1 = _archive_guides(a, np.random.default_rng(42).random((3, 16)))
        draws2 = _archive_guides(a, np.random.default_rng(42).random((3, 16)))
        np.testing.assert_array_equal(draws1, draws2)

    def test_empty_archive_signals(self):
        a = ArchiveSet(4, 2)
        refresh_phi(a, state_with_pbests([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            _archive_guides(a, np.random.default_rng(0).random((3, 3)))

    def test_sampling_is_uniform(self):
        # 10-entry psi archive that beats every phi and chi entry, 10^4 guides
        # in one call: each psi entry within +-20% of 10^3
        a = ArchiveSet(20, 2)
        rng = np.random.default_rng(7)
        for v in range(10):
            push_psi(a, *row(float(v) - 10.0), rng.random())
        refresh_phi(a, state_with_pbests(list(np.arange(1.0, 21.0))))
        push_chi(a, *row(0.0), rng.random())
        guides = _archive_guides(a, rng.random((3, 10_000)))
        counts = np.bincount((guides[:, 0] + 10.0).astype(int), minlength=10)
        assert counts.sum() == 10_000 and len(counts) == 10
        assert ((counts >= 800) & (counts <= 1200)).all()

    def test_representative_positions_are_copies(self):
        a = self.seeded(4)
        guides = _archive_guides(a, np.random.default_rng(1).random((3, 8)))
        guides[:] = -1.0
        assert (a.phi_positions >= 0).all()
        assert (a.psi.positions[: len(a.psi)] >= 0).all() and (a.chi.positions[: len(a.chi)] >= 0).all()
