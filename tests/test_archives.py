"""Tests for the three-archive bookkeeping: phi refresh, gated pushes with
capacity eviction, and representative sampling through the optimizer's
guide resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsom.archives import CHI, PHI, PSI, ArchiveSet, refresh_phi
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


def push_one(archives, k, position, fitness, u):
    """Push one row into run 0 of archive k (PSI or CHI) of `archives`."""
    archives.push(k, np.asarray(position, dtype=float)[None, None], np.array([[fitness]]), np.ones((1, 1), bool),
                  np.array([[u]]))


def newest_fitness(fitness, u):
    """The fitness in the slot that a one-row push with uniform `u` wrote into
    a full archive whose one-run view holds `fitness`."""
    return fitness[int(u * len(fitness))]


def slot_push(slots, entry, capacity, u):
    """Reference rule on a plain list of slots: fill the next one, then overwrite a random one."""
    if len(slots) < capacity:
        slots.append(entry)
    else:
        slots[int(u * capacity)] = entry


class TestArchiveSet:
    def test_capacities(self):
        a = ArchiveSet(1, 8, 2)
        assert a.capacity.tolist() == [4, 8, 8] and a.start.tolist() == [0, 4, 12]
        assert a.psi_fitness.shape == a.chi_fitness.shape == (1, 8) and a.phi_positions.shape == (1, 4, 2)
        run = a.view(0)
        assert len(run.phi_fitness) == 4 and len(run.psi_fitness) == len(run.chi_fitness) == 0

    def test_runs_have_separate_fill_counts(self):
        a = ArchiveSet(3, 4, 2)
        pushed = np.array([[True, False], [True, True], [False, False]])
        a.push(PSI, np.ones((3, 2, 2)), np.ones((3, 2)), pushed, np.zeros((3, 2)))
        np.testing.assert_array_equal(a.fill[:, PSI], [1, 2, 0])
        assert [len(a.view(r).psi_fitness) for r in range(3)] == [1, 2, 0]


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
        push_one(a, PSI, *row(1.0), 0.5)
        run = a.view(0)
        assert run.psi_fitness.tolist() == [1.0]
        np.testing.assert_array_equal(run.psi_positions[0], [1.0, 1.0])

    def test_capacity_eviction_keeps_newest(self):
        u = np.random.default_rng(1).random(5)
        a = ArchiveSet(1, 4, 2)
        for v in range(4):
            push_one(a, PSI, *row(float(v)), u[v])
        push_one(a, PSI, *row(99.0), u[4])
        psi = a.view(0).psi_fitness
        assert len(psi) == 4
        assert newest_fitness(psi, u[4]) == 99.0
        # the other slots keep their rows
        kept = [k for k in range(4) if k != int(u[4] * 4)]
        np.testing.assert_array_equal(psi[kept], kept)

    def test_newest_survives_many_evictions(self):
        u = np.random.default_rng(2).random(200)
        a = ArchiveSet(1, 6, 2)
        for v in range(200):
            push_one(a, CHI, *row(float(-v)), u[v])
            chi = a.view(0).chi_fitness
            assert len(chi) == min(v + 1, 6)
            assert (newest_fitness(chi, u[v]) if v >= 6 else chi[v]) == float(-v)

    def test_chi_min_equals_latest_push_for_improving_sequence(self):
        # pushes are gated on strict gbest improvement, so values decrease
        u = iter(np.random.default_rng(3).random(6))
        a = ArchiveSet(1, 4, 2)
        for v in [5.0, 4.0, 2.5, 1.0, 0.5, 0.1]:
            push_one(a, CHI, *row(v), next(u))
            assert a.view(0).chi_fitness.min() == v

    def test_eviction_is_random_among_older_entries(self):
        # with a 2-slot archive the third push overwrites either older entry
        # and keeps the other; check both outcomes occur
        survivors = set()
        for seed in range(40):
            a = ArchiveSet(1, 2, 2)
            u = np.random.default_rng(seed).random(3)
            push_one(a, PSI, *row(1.0), u[0])
            push_one(a, PSI, *row(2.0), u[1])
            push_one(a, PSI, *row(3.0), u[2])
            fitness = a.view(0).psi_fitness.tolist()
            assert 3.0 in fitness
            survivors.update(set(fitness) - {3.0})
        assert survivors == {1.0, 2.0}

    def test_later_row_wins_a_shared_slot(self):
        # a full 4-slot archive; rows 0, 2 and 3 of one call all pick slot 1:
        # row 3 lands there, row 1 overwrites slot 3
        a = ArchiveSet(1, 4, 1)
        for v in range(4):
            push_one(a, PSI, [float(v)], float(v), 0.0)
        u = np.array([[0.3, 0.9, 0.4, 0.49]])
        a.push(PSI, np.array([[[10.0], [11.0], [12.0], [13.0]]]), np.array([[10.0, 11.0, 12.0, 13.0]]),
               np.ones((1, 4), bool), u)
        assert a.view(0).psi_fitness.tolist() == [0.0, 13.0, 2.0, 11.0]
        assert a.view(0).psi_positions[:, 0].tolist() == [0.0, 13.0, 2.0, 11.0]

    def test_fills_free_slots_before_evicting(self):
        # 3 of 4 slots taken: row 0 fills slot 3, row 2 then overwrites it
        a = ArchiveSet(1, 4, 1)
        for v in range(3):
            push_one(a, PSI, [float(v)], float(v), 0.0)
        a.push(PSI, np.array([[[10.0], [11.0], [12.0]]]), np.array([[10.0, 11.0, 12.0]]),
               np.array([[True, False, True]]), np.array([[0.1, 0.1, 0.8]]))
        assert a.view(0).psi_fitness.tolist() == [0.0, 1.0, 2.0, 12.0]

    @pytest.mark.parametrize("k, name", [(PSI, "psi"), (CHI, "chi")], ids=["psi", "chi"])
    @settings(max_examples=40, deadline=None)
    @given(runs=st.integers(1, 3), half=st.integers(1, 8), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           calls=st.integers(0, 30), coarse=st.integers(1, 3))
    def test_matches_list_reference(self, k, name, runs, half, d, seed, calls, coarse):
        # every run's archive holds exactly the slots of a plain list that is
        # appended to until full and then has slot int(u_i * cap) overwritten
        # by row i, however many rows each run pushes in one call; `coarse`
        # uniforms pick among few slots, so rows of one call often share one
        n = 2 * half
        data = np.random.default_rng(seed)
        a = ArchiveSet(runs, n, d)
        refs = [[] for _ in range(runs)]
        for _ in range(calls):
            c = int(data.integers(1, n + 1))
            positions, fitness = data.uniform(-100, 100, (runs, c, d)), data.uniform(size=(runs, c))
            pushed = data.random((runs, c)) < data.random()
            u = data.random((runs, c)) if coarse == 3 else data.integers(0, coarse + 1, (runs, c)) / (coarse + 1)
            a.push(k, positions, fitness, pushed, u)
            for r, ref in enumerate(refs):
                for i in pushed[r].nonzero()[0]:
                    slot_push(ref, (positions[r, i], fitness[r, i]), n, u[r, i])
        positions, fitness = getattr(a, f"{name}_positions"), getattr(a, f"{name}_fitness")
        for r, ref in enumerate(refs):
            assert a.fill[r, k] == len(ref) <= n
            filled = slice(len(ref))
            np.testing.assert_array_equal(positions[r, filled], np.array([p for p, _ in ref]).reshape(-1, d))
            np.testing.assert_array_equal(fitness[r, filled], [f for _, f in ref])
            listed = getattr(a.view(r), f"{name}_fitness")
            assert listed.tolist() == [f for _, f in ref]  # a one-run view lists its slots in order

    @settings(max_examples=40, deadline=None)
    @given(runs=st.integers(1, 3), half=st.integers(1, 6), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           calls=st.integers(1, 20), chi=st.booleans())
    def test_push_leaves_the_other_archives_alone(self, runs, half, d, seed, calls, chi):
        # the archives share one table: pushes into one, full or not, leave
        # phi's rows and the other archive's rows bitwise as they were
        n = 2 * half
        data = np.random.default_rng(seed)
        a = ArchiveSet(runs, n, d)
        a.positions[...], a.fitness[...] = data.uniform(-9, 9, a.positions.shape), data.uniform(size=a.fitness.shape)
        k, other = (CHI, PSI) if chi else (PSI, CHI)
        kept = np.r_[a.start[PHI]:a.start[PHI] + a.capacity[PHI], a.start[other]:a.start[other] + a.capacity[other]]
        before = a.positions[:, kept].copy(), a.fitness[:, kept].copy(), a.fill[:, [PHI, other]].copy()
        for _ in range(calls):
            c = int(data.integers(1, n + 1))
            a.push(k, data.uniform(-100, 100, (runs, c, d)), data.uniform(10, 11, (runs, c)),
                   data.random((runs, c)) < 0.7, data.random((runs, c)))
        np.testing.assert_array_equal(a.positions[:, kept], before[0])
        np.testing.assert_array_equal(a.fitness[:, kept], before[1])
        np.testing.assert_array_equal(a.fill[:, [PHI, other]], before[2])
        assert all((a.fitness[r, a.start[k]:a.start[k] + a.fill[r, k]] >= 10).all() for r in range(runs))

    def test_stream_contract(self):
        # in a full archive, particle i's psi push evicts with eviction uniform
        # i and the chi push with the last one (n), whoever else pushed
        a = ArchiveSet(1, 4, 2)
        for v in range(4):
            push_one(a, PSI, *row(100.0 + v), 0.0)
            push_one(a, CHI, *row(100.0 + v), 0.0)
        state = state_with_pbests([3.0, 1.0, 4.0, 2.0])
        improved = np.array([[False, True, False, True]])
        evict_u = np.array([[0.0, 0.3, 0.55, 0.8, 0.6]])
        _update_archives(a, state, OptimizerConfig(), improved, np.ones(1, bool), evict_u)
        assert a.view(0).psi_fitness.tolist() == [100.0, 1.0, 102.0, 2.0]
        assert a.view(0).chi_fitness.tolist() == [100.0, 101.0, 1.0, 103.0]


class TestSampleRepresentatives:
    """Representative sampling as the optimizer runs it, through `_archive_guides`."""

    def seeded(self, n=4):
        a = ArchiveSet(1, n, 2)
        refresh_phi(a, state_with_pbests(list(np.arange(1.0, n + 1.0))))
        for v in range(n):
            push_one(a, PSI, *row(10.0 + v), 0.5)
        push_one(a, CHI, *row(0.5), 0.5)
        return a

    def test_singleton_archives_are_deterministic(self):
        # one entry per archive: every row gets the best of the three, whatever the seed
        for psi_fit, chi_fit, winner in ((3.0, 4.0, [0.0, 1.0]), (0.5, 4.0, [0.5, 0.5]), (3.0, 0.25, [0.25, 0.25])):
            a = ArchiveSet(1, 2, 2)
            refresh_phi(a, state_with_pbests([1.0, 2.0]))
            push_one(a, PSI, *row(psi_fit), 0.5)
            push_one(a, CHI, *row(chi_fit), 0.5)
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
            push_one(a, PSI, *row(float(v) - 10.0), rng.random())
        refresh_phi(a, state_with_pbests(list(np.arange(1.0, 21.0))))
        push_one(a, CHI, *row(0.0), rng.random())
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
        assert (run.psi_positions >= 0).all() and (run.chi_positions >= 0).all()

    def test_picks_in_slot_order(self):
        # the representative of u is the row in slot int(u * size), whenever
        # it was pushed
        a = ArchiveSet(1, 4, 1)
        refresh_phi(a, SwarmState(np.full((1, 4, 1), 50.0), np.zeros((1, 4, 1)), np.full((1, 4), 50.0)))
        for v, u in zip(range(7), (0.0, 0.0, 0.0, 0.0, 0.6, 0.1, 0.9)):
            push_one(a, PSI, [float(v)], float(v), u)
            push_one(a, CHI, [40.0 + v], 40.0 + v, u)
        ref = []
        for v, u in zip(range(7), (0.0, 0.0, 0.0, 0.0, 0.6, 0.1, 0.9)):
            slot_push(ref, float(v), 4, u)
        assert ref == [5.0, 1.0, 4.0, 6.0]
        assert a.view(0).psi_fitness.tolist() == ref
        for k, value in enumerate(ref):
            # psi's row in slot k wins against phi (50) and chi (>= 40)
            u = np.array([[[0.0], [(k + 0.5) / 4], [0.0]]])
            assert _archive_guides(a, u)[0, 0, 0] == value

    def test_each_run_samples_its_own_archives(self):
        # two runs pushing different rows: each run's guides come from its own rows
        a = ArchiveSet(2, 2, 1)
        refresh_phi(a, SwarmState(np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), np.full((2, 2), 9.0)))
        pushed = np.ones((2, 1), bool)
        a.push(PSI, np.array([[[1.0]], [[2.0]]]), np.array([[1.0], [2.0]]), pushed, np.zeros((2, 1)))
        a.push(CHI, np.array([[[5.0]], [[6.0]]]), np.array([[5.0], [6.0]]), pushed, np.zeros((2, 1)))
        guides = _archive_guides(a, np.random.default_rng(3).random((2, 3, 5)))
        np.testing.assert_array_equal(guides[:, :, 0], [[1.0] * 5, [2.0] * 5])
