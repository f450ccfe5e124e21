"""Tests for the three-archive bookkeeping: phi refresh, gated pushes with
capacity eviction, and representative sampling through the optimizer's
guide resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsom.archives import ArchiveSet, refresh_phi
from opsom.optimizer import OptimizerConfig, _archive_guides, _update_archives
from opsom.swarm_core import SwarmState


def state_with_pbests(pbest_fitness):
    """A one-run state whose personal bests have these fitnesses."""
    n = len(pbest_fitness)
    positions = np.arange(n * 2, dtype=float).reshape(1, n, 2)
    return SwarmState(positions, np.zeros((1, n, 2)), np.asarray(pbest_fitness, dtype=float)[None])


def row(value, d=2):
    """A (position, fitness) pair whose position encodes its fitness."""
    return np.full(d, value, dtype=float), float(value)


def push_one(archive, position, fitness, u):
    """Push one row into run 0 of `archive`, an `ArchiveSet`'s psi or chi."""
    archive.push(np.asarray(position, dtype=float)[None, None], np.array([[fitness]]), np.ones((1, 1), bool),
                 np.array([[u]]))


def newest_fitness(archive, u):
    """The fitness in the slot that a one-row push with uniform `u` into a full
    one-run `archive` view wrote."""
    return archive.fitness[int(u * len(archive))]


def slot_push(slots, entry, capacity, u):
    """Reference rule on a plain list of slots: fill the next one, then overwrite a random one."""
    if len(slots) < capacity:
        slots.append(entry)
    else:
        slots[int(u * capacity)] = entry


class TestArchiveSet:
    def test_capacities(self):
        a = ArchiveSet(1, 8, 2)
        assert a.phi_capacity == 4 and a.psi_capacity == 8 and a.chi_capacity == 8
        run = a.view(0)
        assert len(run.psi) == len(run.chi) == 0

    def test_runs_have_separate_fill_counts(self):
        a = ArchiveSet(3, 4, 2)
        with pytest.raises(TypeError, match="one fill count per run"):
            len(a.psi)
        pushed = np.array([[True, False], [True, True], [False, False]])
        a.psi.push(np.ones((3, 2, 2)), np.ones((3, 2)), pushed, np.zeros((3, 2)))
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
        push_one(a.psi, *row(1.0), 0.5)
        psi = a.view(0).psi
        assert len(psi) == 1 and psi.fitness[0] == 1.0
        np.testing.assert_array_equal(psi.positions[0], [1.0, 1.0])

    def test_capacity_eviction_keeps_newest(self):
        u = np.random.default_rng(1).random(5)
        a = ArchiveSet(1, 4, 2)
        for v in range(4):
            push_one(a.psi, *row(float(v)), u[v])
        push_one(a.psi, *row(99.0), u[4])
        psi = a.view(0).psi
        assert len(psi) == 4
        assert newest_fitness(psi, u[4]) == 99.0
        # the other slots keep their rows
        kept = [k for k in range(4) if k != int(u[4] * 4)]
        np.testing.assert_array_equal(psi.fitness[kept], kept)

    def test_newest_survives_many_evictions(self):
        u = np.random.default_rng(2).random(200)
        a = ArchiveSet(1, 6, 2)
        for v in range(200):
            push_one(a.chi, *row(float(-v)), u[v])
            chi = a.view(0).chi
            assert len(chi) == min(v + 1, 6)
            assert (newest_fitness(chi, u[v]) if v >= 6 else chi.fitness[v]) == float(-v)

    def test_chi_min_equals_latest_push_for_improving_sequence(self):
        # pushes are gated on strict gbest improvement, so values decrease
        u = iter(np.random.default_rng(3).random(6))
        a = ArchiveSet(1, 4, 2)
        for v in [5.0, 4.0, 2.5, 1.0, 0.5, 0.1]:
            push_one(a.chi, *row(v), next(u))
            chi = a.view(0).chi
            assert chi.fitness[: len(chi)].min() == v

    def test_eviction_is_random_among_older_entries(self):
        # with a 2-slot archive the third push overwrites either older entry
        # and keeps the other; check both outcomes occur
        survivors = set()
        for seed in range(40):
            a = ArchiveSet(1, 2, 2)
            u = np.random.default_rng(seed).random(3)
            push_one(a.psi, *row(1.0), u[0])
            push_one(a.psi, *row(2.0), u[1])
            push_one(a.psi, *row(3.0), u[2])
            fitness = a.view(0).psi.fitness.tolist()
            assert 3.0 in fitness
            survivors.update(set(fitness) - {3.0})
        assert survivors == {1.0, 2.0}

    def test_later_row_wins_a_shared_slot(self):
        # a full 4-slot archive; rows 0, 2 and 3 of one call all pick slot 1:
        # row 3 lands there, row 1 overwrites slot 3
        a = ArchiveSet(1, 4, 1)
        for v in range(4):
            push_one(a.psi, [float(v)], float(v), 0.0)
        u = np.array([[0.3, 0.9, 0.4, 0.49]])
        a.psi.push(np.array([[[10.0], [11.0], [12.0], [13.0]]]), np.array([[10.0, 11.0, 12.0, 13.0]]),
                   np.ones((1, 4), bool), u)
        assert a.view(0).psi.fitness.tolist() == [0.0, 13.0, 2.0, 11.0]
        assert a.view(0).psi.positions[:, 0].tolist() == [0.0, 13.0, 2.0, 11.0]

    def test_fills_free_slots_before_evicting(self):
        # 3 of 4 slots taken: row 0 fills slot 3, row 2 then overwrites it
        a = ArchiveSet(1, 4, 1)
        for v in range(3):
            push_one(a.psi, [float(v)], float(v), 0.0)
        a.psi.push(np.array([[[10.0], [11.0], [12.0]]]), np.array([[10.0, 11.0, 12.0]]),
                   np.array([[True, False, True]]), np.array([[0.1, 0.1, 0.8]]))
        assert a.view(0).psi.fitness.tolist() == [0.0, 1.0, 2.0, 12.0]

    @settings(max_examples=60, deadline=None)
    @given(runs=st.integers(1, 3), half=st.integers(1, 8), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           calls=st.integers(0, 30), chi=st.booleans(), coarse=st.integers(1, 3))
    def test_matches_list_reference(self, runs, half, d, seed, calls, chi, coarse):
        # every run's archive holds exactly the slots of a plain list that is
        # appended to until full and then has slot int(u_i * cap) overwritten
        # by row i, however many rows each run pushes in one call; `coarse`
        # uniforms pick among few slots, so rows of one call often share one
        n = 2 * half
        data = np.random.default_rng(seed)
        a = ArchiveSet(runs, n, d)
        archive = a.chi if chi else a.psi
        refs = [[] for _ in range(runs)]
        for _ in range(calls):
            c = int(data.integers(1, n + 1))
            positions, fitness = data.uniform(-100, 100, (runs, c, d)), data.uniform(size=(runs, c))
            pushed = data.random((runs, c)) < data.random()
            u = data.random((runs, c)) if coarse == 3 else data.integers(0, coarse + 1, (runs, c)) / (coarse + 1)
            archive.push(positions, fitness, pushed, u)
            for r, ref in enumerate(refs):
                for i in pushed[r].nonzero()[0]:
                    slot_push(ref, (positions[r, i], fitness[r, i]), n, u[r, i])
        for r, ref in enumerate(refs):
            assert archive.size[r] == len(ref) <= n
            filled = slice(len(ref))
            np.testing.assert_array_equal(archive.positions[r, filled], np.array([p for p, _ in ref]).reshape(-1, d))
            np.testing.assert_array_equal(archive.fitness[r, filled], [f for _, f in ref])
            view = a.view(r).chi if chi else a.view(r).psi
            assert view.fitness.tolist() == [f for _, f in ref]  # a one-run view lists its slots in order

    def test_stream_contract(self):
        # in a full archive, particle i's psi push evicts with eviction uniform
        # i and the chi push with the last one (n), whoever else pushed
        a = ArchiveSet(1, 4, 2)
        for v in range(4):
            push_one(a.psi, *row(100.0 + v), 0.0)
            push_one(a.chi, *row(100.0 + v), 0.0)
        state = state_with_pbests([3.0, 1.0, 4.0, 2.0])
        improved = np.array([[False, True, False, True]])
        evict_u = np.array([[0.0, 0.3, 0.55, 0.8, 0.6]])
        _update_archives(a, state, OptimizerConfig(), improved, np.ones(1, bool), evict_u)
        assert a.view(0).psi.fitness.tolist() == [100.0, 1.0, 102.0, 2.0]
        assert a.view(0).chi.fitness.tolist() == [100.0, 101.0, 1.0, 103.0]


class TestSampleRepresentatives:
    """Representative sampling as the optimizer runs it, through `_archive_guides`."""

    def seeded(self, n=4):
        a = ArchiveSet(1, n, 2)
        refresh_phi(a, state_with_pbests(list(np.arange(1.0, n + 1.0))))
        for v in range(n):
            push_one(a.psi, *row(10.0 + v), 0.5)
        push_one(a.chi, *row(0.5), 0.5)
        return a

    def test_singleton_archives_are_deterministic(self):
        # one entry per archive: every row gets the best of the three, whatever the seed
        for psi_fit, chi_fit, winner in ((3.0, 4.0, [0.0, 1.0]), (0.5, 4.0, [0.5, 0.5]), (3.0, 0.25, [0.25, 0.25])):
            a = ArchiveSet(1, 2, 2)
            refresh_phi(a, state_with_pbests([1.0, 2.0]))
            push_one(a.psi, *row(psi_fit), 0.5)
            push_one(a.chi, *row(chi_fit), 0.5)
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
            push_one(a.psi, *row(float(v) - 10.0), rng.random())
        refresh_phi(a, state_with_pbests(list(np.arange(1.0, 21.0))))
        push_one(a.chi, *row(0.0), rng.random())
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

    def test_picks_in_slot_order(self):
        # the representative of u is the row in slot int(u * size), whenever
        # it was pushed
        a = ArchiveSet(1, 4, 1)
        refresh_phi(a, SwarmState(np.full((1, 4, 1), 50.0), np.zeros((1, 4, 1)), np.full((1, 4), 50.0)))
        for v, u in zip(range(7), (0.0, 0.0, 0.0, 0.0, 0.6, 0.1, 0.9)):
            push_one(a.psi, [float(v)], float(v), u)
            push_one(a.chi, [40.0 + v], 40.0 + v, u)
        ref = []
        for v, u in zip(range(7), (0.0, 0.0, 0.0, 0.0, 0.6, 0.1, 0.9)):
            slot_push(ref, float(v), 4, u)
        assert ref == [5.0, 1.0, 4.0, 6.0]
        assert a.view(0).psi.fitness.tolist() == ref
        for k, value in enumerate(ref):
            # psi's row in slot k wins against phi (50) and chi (>= 40)
            u = np.array([[[0.0], [(k + 0.5) / 4], [0.0]]])
            assert _archive_guides(a, u)[0, 0, 0] == value

    def test_each_run_samples_its_own_archives(self):
        # two runs pushing different rows: each run's guides come from its own rows
        a = ArchiveSet(2, 2, 1)
        refresh_phi(a, SwarmState(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), np.full((2, 2), 9.0)))
        pushed = np.ones((2, 1), bool)
        a.psi.push(np.array([[[1.0]], [[2.0]]]), np.array([[1.0], [2.0]]), pushed, np.zeros((2, 1)))
        a.chi.push(np.array([[[5.0]], [[6.0]]]), np.array([[5.0], [6.0]]), pushed, np.zeros((2, 1)))
        guides = _archive_guides(a, np.random.default_rng(3).random((2, 3, 5)))
        np.testing.assert_array_equal(guides[:, :, 0], [[1.0] * 5, [2.0] * 5])
