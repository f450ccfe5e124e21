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
    """A one-run state whose personal bests have these fitnesses."""
    n = len(pbest_fitness)
    positions = np.arange(n * 2, dtype=float).reshape(1, n, 2)
    return SwarmState(positions, np.zeros((1, n, 2)), np.asarray(pbest_fitness, dtype=float)[None])


def row(value, d=2):
    """A (position, fitness) pair whose position encodes its fitness."""
    return np.full(d, value, dtype=float), float(value)


def push_one(push, archives, position, fitness, u):
    """Push one row into run 0 of `archives` through `push_psi` or `push_chi`."""
    push(archives, np.asarray(position, dtype=float)[None, None], np.array([[fitness]]), np.ones((1, 1), bool),
         np.array([[u]]))


def newest_fitness(archive):
    return archive.fitness[len(archive) - 1]


def list_push(entries, entry, capacity, u):
    """Reference eviction rule on a push-ordered list of (position, fitness) pairs."""
    entries.append(entry)
    while len(entries) > capacity:
        entries.pop(int(u * (len(entries) - 1)))


class TestArchiveSet:
    def test_capacities(self):
        a = ArchiveSet(1, 8, 2)
        assert a.phi_capacity == 4 and a.psi_capacity == 8 and a.chi_capacity == 8
        run = a.view(0)
        assert len(run.psi) == len(run.chi) == 0

    def test_rejects_odd_population(self):
        with pytest.raises(ValueError):
            ArchiveSet(1, 7, 2)

    def test_runs_have_separate_fill_counts(self):
        a = ArchiveSet(3, 4, 2)
        with pytest.raises(TypeError, match="one fill count per run"):
            len(a.psi)
        pushed = np.array([[True, False], [True, True], [False, False]])
        push_psi(a, np.ones((3, 2, 2)), np.ones((3, 2)), pushed, np.zeros((3, 2)))
        np.testing.assert_array_equal(a.psi.size, [1, 2, 0])
        assert [len(a.view(r).psi) for r in range(3)] == [1, 2, 0]


class TestRefreshPhi:
    def test_top_half_selection(self):
        a = ArchiveSet(1, 4, 2)
        state = state_with_pbests([3.0, 1.0, 4.0, 2.0])
        refresh_phi(a, state)
        np.testing.assert_array_equal(a.phi_fitness[0], [1.0, 2.0])
        np.testing.assert_array_equal(a.phi_positions[0, 0], state.pbest_positions[0, 1])
        np.testing.assert_array_equal(a.phi_positions[0, 1], state.pbest_positions[0, 3])

    def test_rebuild_reflects_new_values(self):
        a = ArchiveSet(1, 4, 2)
        state = state_with_pbests([3.0, 1.0, 4.0, 2.0])
        refresh_phi(a, state)
        state.pbest_fitness = np.array([[0.5, 1.0, 0.25, 2.0]])
        refresh_phi(a, state)
        np.testing.assert_array_equal(a.phi_fitness[0], [0.25, 0.5])

    def test_ties_break_toward_lower_index(self):
        a = ArchiveSet(1, 4, 2)
        state = state_with_pbests([2.0, 2.0, 2.0, 2.0])
        refresh_phi(a, state)
        np.testing.assert_array_equal(a.phi_positions[0], state.pbest_positions[0, :2])

    def test_smallest_population(self):
        a = ArchiveSet(1, 2, 2)
        refresh_phi(a, state_with_pbests([5.0, 4.0]))
        assert len(a.view(0).phi_fitness) == 1 and a.phi_fitness[0, 0] == 4.0

    def test_matches_brute_force_selection(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 2 * int(rng.integers(2, 12))
            fits = rng.uniform(size=n)
            a = ArchiveSet(1, n, 2)
            refresh_phi(a, state_with_pbests(fits))
            np.testing.assert_array_equal(np.sort(a.phi_fitness[0]), np.sort(fits)[: n // 2])

    def test_each_run_selects_its_own_top_half(self):
        fits = np.array([[3.0, 1.0, 4.0, 2.0], [1.0, 2.0, 3.0, 0.5]])
        state = SwarmState(np.arange(16.0).reshape(2, 4, 2), np.zeros((2, 4, 2)), fits)
        a = refresh_phi(ArchiveSet(2, 4, 2), state)
        np.testing.assert_array_equal(a.phi_fitness, [[1.0, 2.0], [0.5, 1.0]])
        np.testing.assert_array_equal(a.phi_positions[1], state.pbest_positions[1, [3, 0]])


class TestPushes:
    def test_first_insert(self):
        a = ArchiveSet(1, 4, 2)
        push_one(push_psi, a, *row(1.0), 0.5)
        psi = a.view(0).psi
        assert len(psi) == 1 and psi.fitness[0] == 1.0
        np.testing.assert_array_equal(psi.positions[0], [1.0, 1.0])

    def test_capacity_eviction_keeps_newest(self):
        u = np.random.default_rng(1).random(5)
        a = ArchiveSet(1, 4, 2)
        for v in range(4):
            push_one(push_psi, a, *row(float(v)), u[v])
        push_one(push_psi, a, *row(99.0), u[4])
        psi = a.view(0).psi
        assert len(psi) == 4
        assert newest_fitness(psi) == 99.0

    def test_newest_survives_many_evictions(self):
        u = np.random.default_rng(2).random(200)
        a = ArchiveSet(1, 6, 2)
        for v in range(200):
            push_one(push_chi, a, *row(float(-v)), u[v])
            chi = a.view(0).chi
            assert newest_fitness(chi) == float(-v)
            assert len(chi) <= 6

    def test_chi_min_equals_latest_push_for_improving_sequence(self):
        # pushes are gated on strict gbest improvement, so values decrease
        u = iter(np.random.default_rng(3).random(6))
        a = ArchiveSet(1, 4, 2)
        for v in [5.0, 4.0, 2.5, 1.0, 0.5, 0.1]:
            push_one(push_chi, a, *row(v), next(u))
            chi = a.view(0).chi
            assert chi.fitness[: len(chi)].min() == v

    def test_eviction_is_random_among_older_entries(self):
        # with a 2-slot archive the survivor of each push is uniform over the
        # two older entries; check both outcomes occur
        survivors = set()
        for seed in range(40):
            a = ArchiveSet(1, 2, 2)
            u = np.random.default_rng(seed).random(3)
            push_one(push_psi, a, *row(1.0), u[0])
            push_one(push_psi, a, *row(2.0), u[1])
            push_one(push_psi, a, *row(3.0), u[2])
            survivors.add(a.view(0).psi.fitness[0])
        assert survivors == {1.0, 2.0}

    @settings(max_examples=60, deadline=None)
    @given(runs=st.integers(1, 3), half=st.integers(1, 8), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           calls=st.integers(0, 30), chi=st.booleans())
    def test_matches_list_reference(self, runs, half, d, seed, calls, chi):
        # every run's archive, read through `order`, evicts exactly like list.pop
        # on its own push-ordered list fed the same eviction uniforms, however
        # many rows each run pushes in one call
        n = 2 * half
        data = np.random.default_rng(seed)
        a = ArchiveSet(runs, n, d)
        archive, push = (a.chi, push_chi) if chi else (a.psi, push_psi)
        refs = [[] for _ in range(runs)]
        for _ in range(calls):
            c = int(data.integers(1, n + 1))
            positions, fitness = data.uniform(-100, 100, (runs, c, d)), data.uniform(size=(runs, c))
            pushed, u = data.random((runs, c)) < data.random(), data.random((runs, c))
            push(a, positions, fitness, pushed, u)
            for r, ref in enumerate(refs):
                for j, i in enumerate(pushed[r].nonzero()[0]):
                    list_push(ref, (positions[r, i], fitness[r, i]), n, u[r, j])
        for r, ref in enumerate(refs):
            assert archive.size[r] == len(ref) <= n
            slots = archive.order[r, : len(ref)]
            assert sorted(archive.order[r].tolist()) == list(range(2 * n))  # every slot listed once
            np.testing.assert_array_equal(archive.positions[r, slots], np.array([p for p, _ in ref]).reshape(-1, d))
            np.testing.assert_array_equal(archive.fitness[r, slots], [f for _, f in ref])
            view = a.view(r).chi if chi else a.view(r).psi
            assert view.fitness.tolist() == [f for _, f in ref]  # a one-run view lists oldest push first


class TestSampleRepresentatives:
    """Representative sampling as the optimizer runs it, through `_archive_guides`."""

    def seeded(self, n=4):
        a = ArchiveSet(1, n, 2)
        refresh_phi(a, state_with_pbests(list(np.arange(1.0, n + 1.0))))
        for v in range(n):
            push_one(push_psi, a, *row(10.0 + v), 0.5)
        push_one(push_chi, a, *row(0.5), 0.5)
        return a

    def test_singleton_archives_are_deterministic(self):
        # one entry per archive: every row gets the best of the three, whatever the seed
        for psi_fit, chi_fit, winner in ((3.0, 4.0, [0.0, 1.0]), (0.5, 4.0, [0.5, 0.5]), (3.0, 0.25, [0.25, 0.25])):
            a = ArchiveSet(1, 2, 2)
            refresh_phi(a, state_with_pbests([1.0, 2.0]))
            push_one(push_psi, a, *row(psi_fit), 0.5)
            push_one(push_chi, a, *row(chi_fit), 0.5)
            for seed in range(5):
                guides = _archive_guides(a, np.random.default_rng(seed).random((1, 3, 6)))
                np.testing.assert_array_equal(guides[0], np.tile(winner, (6, 1)))

    def test_fixed_seed_reproducible(self):
        a = self.seeded(8)
        draws1 = _archive_guides(a, np.random.default_rng(42).random((1, 3, 16)))
        draws2 = _archive_guides(a, np.random.default_rng(42).random((1, 3, 16)))
        np.testing.assert_array_equal(draws1, draws2)

    def test_empty_archive_signals(self):
        a = ArchiveSet(1, 4, 2)
        refresh_phi(a, state_with_pbests([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            _archive_guides(a, np.random.default_rng(0).random((1, 3, 3)))

    def test_sampling_is_uniform(self):
        # 10-entry psi archive that beats every phi and chi entry, 10^4 guides
        # in one call: each psi entry within +-20% of 10^3
        a = ArchiveSet(1, 20, 2)
        rng = np.random.default_rng(7)
        for v in range(10):
            push_one(push_psi, a, *row(float(v) - 10.0), rng.random())
        refresh_phi(a, state_with_pbests(list(np.arange(1.0, 21.0))))
        push_one(push_chi, a, *row(0.0), rng.random())
        guides = _archive_guides(a, rng.random((1, 3, 10_000)))[0]
        counts = np.bincount((guides[:, 0] + 10.0).astype(int), minlength=10)
        assert counts.sum() == 10_000 and len(counts) == 10
        assert ((counts >= 800) & (counts <= 1200)).all()

    def test_representative_positions_are_copies(self):
        a = self.seeded(4)
        guides = _archive_guides(a, np.random.default_rng(1).random((1, 3, 8)))
        guides[:] = -1.0
        run = a.view(0)
        assert (run.phi_positions >= 0).all()
        assert (run.psi.positions >= 0).all() and (run.chi.positions >= 0).all()

    def test_picks_in_push_order(self):
        # the representative of u is the int(u * size)-th oldest row, whatever
        # slot evictions moved it to
        a = ArchiveSet(1, 4, 1)
        refresh_phi(a, SwarmState(np.full((1, 4, 1), 50.0), np.zeros((1, 4, 1)), np.full((1, 4), 50.0)))
        for v, u in zip(range(7), (0.0, 0.0, 0.0, 0.0, 0.6, 0.1, 0.9)):
            push_one(push_psi, a, [float(v)], float(v), u)
            push_one(push_chi, a, [40.0 + v], 40.0 + v, u)
        ref = []
        for v, u in zip(range(7), (0.0, 0.0, 0.0, 0.0, 0.6, 0.1, 0.9)):
            list_push(ref, float(v), 4, u)
        assert a.view(0).psi.fitness.tolist() == ref
        for k, value in enumerate(ref):
            # psi's k-th oldest row wins against phi (50) and chi (>= 40)
            u = np.array([[[0.0], [(k + 0.5) / 4], [0.0]]])
            assert _archive_guides(a, u)[0, 0, 0] == value

    def test_each_run_samples_its_own_archives(self):
        # two runs pushing different rows: each run's guides come from its own rows
        a = ArchiveSet(2, 2, 1)
        refresh_phi(a, SwarmState(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), np.full((2, 2), 9.0)))
        pushed = np.ones((2, 1), bool)
        push_psi(a, np.array([[[1.0]], [[2.0]]]), np.array([[1.0], [2.0]]), pushed, np.zeros((2, 1)))
        push_chi(a, np.array([[[5.0]], [[6.0]]]), np.array([[5.0], [6.0]]), pushed, np.zeros((2, 1)))
        guides = _archive_guides(a, np.random.default_rng(3).random((2, 3, 5)))
        np.testing.assert_array_equal(guides[:, :, 0], [[1.0] * 5, [2.0] * 5])
