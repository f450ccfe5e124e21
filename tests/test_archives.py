"""Tests for the three-archive bookkeeping: the one update that rebuilds phi
and pushes to psi and chi with capacity eviction, and representative sampling
through the optimizer's guide resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsom.archives import CHI, PHI, PSI, ArchiveSet
from opsom.optimizer import OptimizerConfig, _archive_guides, _update_archives
from opsom.swarm_core import SwarmState, update_bests


def state_with_pbests(pbest_fitness):
    """A one-run state whose personal bests have these fitnesses."""
    n = len(pbest_fitness)
    positions = np.arange(n * 2, dtype=float).reshape(1, n, 2)
    return SwarmState(positions, np.zeros((1, n, 2)), np.asarray(pbest_fitness, dtype=float)[None])


def rebuild_phi(archives, state):
    """An update that pushes nothing, as without archives: it rebuilds phi alone."""
    runs, n = state.pbest_fitness.shape
    archives.update(state, np.zeros((runs, n), bool), np.zeros(runs, bool), np.zeros((runs, 0)))
    return archives


def row(value, d=2):
    """A (position, fitness) pair whose position encodes its fitness."""
    return np.full(d, value, dtype=float), float(value)


def push_one(archives, k, position, fitness, u):
    """An update of run 0 that pushes one row into archive k (PSI or CHI): the
    personal best of particle 0, the only one with a finite fitness, so also
    the top-ranked one and thus the global best."""
    n, d = archives.capacity[PSI], archives.positions.shape[-1]
    positions = np.zeros((1, n, d))
    positions[0, 0] = position
    fits = np.full((1, n), np.inf)
    fits[0, 0] = fitness
    state = SwarmState(positions, np.zeros_like(positions), fits)
    improved = np.zeros((1, n), bool)
    improved[0, 0] = k == PSI
    archives.update(state, improved, np.array([k == CHI]), np.full((1, n + 1), u))


def stock(archives, k, values, d=2):
    """Fill run 0's archive k directly with rows whose positions encode their fitnesses."""
    start = archives.start[k]
    archives.positions[0, start : start + len(values)] = np.repeat(np.asarray(values, float)[:, None], d, 1)
    archives.fitness[0, start : start + len(values)] = values
    archives.fill[0, k] = len(values)


def filled(archives, name, r=0, field="fitness"):
    """Run r's filled rows of archive `name` ("phi", "psi" or "chi"), in slot order."""
    k = ("phi", "psi", "chi").index(name)
    return getattr(archives, f"{name}_{field}")[r, : archives.fill[r, k]]


def newest_fitness(fitness, u):
    """The fitness in the slot that a one-row push with uniform `u` wrote into
    a full archive whose filled rows hold `fitness`."""
    return fitness[int(u * len(fitness))]


def slot_push(slots, entry, capacity, u):
    """Reference rule on a plain list of slots: fill the next one, then overwrite a random one."""
    if len(slots) < capacity:
        slots.append(entry)
    else:
        slots[int(u * capacity)] = entry


def random_state(data, runs, n, d, ties):
    """A state whose personal bests are random; `ties` draws their fitnesses from few values."""
    state = SwarmState(np.zeros((runs, n, d)), np.zeros((runs, n, d)), np.zeros((runs, n)))
    state.pbest_positions = data.uniform(-100, 100, (runs, n, d))
    state.pbest_fitness = data.integers(0, 3, (runs, n)).astype(float) if ties else data.uniform(size=(runs, n))
    return state


class TestArchiveSet:
    def test_capacities(self):
        a = ArchiveSet(1, 8, 2)
        assert a.capacity.tolist() == [4, 8, 8] and a.start.tolist() == [0, 4, 12]
        assert a.psi_fitness.shape == a.chi_fitness.shape == (1, 8) and a.phi_positions.shape == (1, 4, 2)
        assert [len(filled(a, name)) for name in ("phi", "psi", "chi")] == [4, 0, 0]

    def test_runs_have_separate_fill_counts(self):
        a = ArchiveSet(3, 4, 2)
        state = SwarmState(np.ones((3, 4, 2)), np.zeros((3, 4, 2)), np.ones((3, 4)))
        improved = np.array([[True, False, False, False], [True, True, False, False], [False] * 4])
        a.update(state, improved, np.array([False, True, False]), np.zeros((3, 5)))
        np.testing.assert_array_equal(a.fill, [[2, 1, 0], [2, 2, 1], [2, 0, 0]])
        assert [len(filled(a, "psi", r)) for r in range(3)] == [1, 2, 0]


class TestRefreshPhi:
    """phi's rebuild, by an update that pushes nothing."""

    def test_top_half_selection(self):
        a = ArchiveSet(1, 4, 2)
        state = state_with_pbests([3.0, 1.0, 4.0, 2.0])
        rebuild_phi(a, state)
        np.testing.assert_array_equal(a.phi_fitness[0], [1.0, 2.0])
        np.testing.assert_array_equal(a.phi_positions[0, 0], state.pbest_positions[0, 1])
        np.testing.assert_array_equal(a.phi_positions[0, 1], state.pbest_positions[0, 3])
        assert a.fill[0].tolist() == [2, 0, 0]

    def test_rebuild_reflects_new_values(self):
        a = ArchiveSet(1, 4, 2)
        state = state_with_pbests([3.0, 1.0, 4.0, 2.0])
        rebuild_phi(a, state)
        state.pbest_fitness = np.array([[0.5, 1.0, 0.25, 2.0]])
        rebuild_phi(a, state)
        np.testing.assert_array_equal(a.phi_fitness[0], [0.25, 0.5])

    def test_ties_break_toward_lower_index(self):
        a = ArchiveSet(1, 4, 2)
        state = state_with_pbests([2.0, 2.0, 2.0, 2.0])
        rebuild_phi(a, state)
        np.testing.assert_array_equal(a.phi_positions[0], state.pbest_positions[0, :2])

    def test_smallest_population(self):
        a = ArchiveSet(1, 2, 2)
        rebuild_phi(a, state_with_pbests([5.0, 4.0]))
        assert len(filled(a, "phi")) == 1 and a.phi_fitness[0, 0] == 4.0

    def test_matches_brute_force_selection(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = 2 * int(rng.integers(2, 12))
            fits = rng.uniform(size=n)
            a = ArchiveSet(1, n, 2)
            rebuild_phi(a, state_with_pbests(fits))
            np.testing.assert_array_equal(np.sort(a.phi_fitness[0]), np.sort(fits)[: n // 2])

    def test_each_run_selects_its_own_top_half(self):
        fits = np.array([[3.0, 1.0, 4.0, 2.0], [1.0, 2.0, 3.0, 0.5]])
        state = SwarmState(np.arange(16.0).reshape(2, 4, 2), np.zeros((2, 4, 2)), fits)
        a = rebuild_phi(ArchiveSet(2, 4, 2), state)
        np.testing.assert_array_equal(a.phi_fitness, [[1.0, 2.0], [0.5, 1.0]])
        np.testing.assert_array_equal(a.phi_positions[1], state.pbest_positions[1, [3, 0]])


class TestPushes:
    def test_first_insert(self):
        a = ArchiveSet(1, 4, 2)
        push_one(a, PSI, *row(1.0), 0.5)
        assert filled(a, "psi").tolist() == [1.0]
        np.testing.assert_array_equal(filled(a, "psi", field="positions")[0], [1.0, 1.0])

    def test_capacity_eviction_keeps_newest(self):
        u = np.random.default_rng(1).random(5)
        a = ArchiveSet(1, 4, 2)
        for v in range(4):
            push_one(a, PSI, *row(float(v)), u[v])
        push_one(a, PSI, *row(99.0), u[4])
        psi = filled(a, "psi")
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
            chi = filled(a, "chi")
            assert len(chi) == min(v + 1, 6)
            assert (newest_fitness(chi, u[v]) if v >= 6 else chi[v]) == float(-v)

    def test_chi_min_equals_latest_push_for_improving_sequence(self):
        # pushes are gated on strict gbest improvement, so values decrease
        u = iter(np.random.default_rng(3).random(6))
        a = ArchiveSet(1, 4, 2)
        for v in [5.0, 4.0, 2.5, 1.0, 0.5, 0.1]:
            push_one(a, CHI, *row(v), next(u))
            assert filled(a, "chi").min() == v

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
            fitness = filled(a, "psi").tolist()
            assert 3.0 in fitness
            survivors.update(set(fitness) - {3.0})
        assert survivors == {1.0, 2.0}

    def test_later_row_wins_a_shared_slot(self):
        # a full 4-slot archive; particles 0, 2 and 3 of one update all pick
        # slot 1: particle 3 lands there, particle 1 overwrites slot 3
        a = ArchiveSet(1, 4, 1)
        for v in range(4):
            push_one(a, PSI, [float(v)], float(v), 0.0)
        state = SwarmState(np.arange(10.0, 14.0).reshape(1, 4, 1), np.zeros((1, 4, 1)), np.arange(10.0, 14.0)[None])
        a.update(state, np.ones((1, 4), bool), np.zeros(1, bool), np.array([[0.3, 0.9, 0.4, 0.49, 0.0]]))
        assert filled(a, "psi").tolist() == [0.0, 13.0, 2.0, 11.0]
        assert filled(a, "psi", field="positions")[:, 0].tolist() == [0.0, 13.0, 2.0, 11.0]

    def test_fills_free_slots_before_evicting(self):
        # 3 of 4 slots taken: particle 0 fills slot 3, particle 2 then overwrites it
        a = ArchiveSet(1, 4, 1)
        for v in range(3):
            push_one(a, PSI, [float(v)], float(v), 0.0)
        state = SwarmState(np.arange(10.0, 14.0).reshape(1, 4, 1), np.zeros((1, 4, 1)), np.arange(10.0, 14.0)[None])
        a.update(state, np.array([[True, False, True, False]]), np.zeros(1, bool),
                 np.array([[0.1, 0.1, 0.8, 0.1, 0.0]]))
        assert filled(a, "psi").tolist() == [0.0, 1.0, 2.0, 12.0]

    @pytest.mark.parametrize("k, name", [(PSI, "psi"), (CHI, "chi")], ids=["psi", "chi"])
    @settings(max_examples=60, deadline=None)
    @given(runs=st.integers(1, 4), half=st.integers(3, 20), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           calls=st.integers(1, 30), coarse=st.integers(1, 3), ties=st.booleans())
    def test_matches_list_reference(self, k, name, runs, half, d, seed, calls, coarse, ties):
        # over many updates, every run's phi is a stable sort's top half of its
        # personal bests, and archive k holds exactly the slots of a plain list
        # appended to until full and then overwritten at slot int(u * n): psi
        # by each improved particle i in index order with u[r, i], chi by the
        # top-ranked personal best with u[r, n] where `better` holds.  `coarse`
        # uniforms pick among few slots, so pushes of one update often share
        # one, and include the largest uniform below 1
        n = 2 * half
        data = np.random.default_rng(seed)
        a = ArchiveSet(runs, n, d)
        psi, chi = [[] for _ in range(runs)], [[] for _ in range(runs)]
        for _ in range(calls):
            state = random_state(data, runs, n, d, ties)
            improved = data.random((runs, n)) < data.random()
            better = data.random(runs) < 0.5
            if coarse == 3:
                u = data.random((runs, n + 1))
            else:
                u = data.integers(0, coarse + 1, (runs, n + 1)) / (coarse + 1)
                u[data.random((runs, n + 1)) < 0.2] = np.nextafter(1.0, 0.0)
            a.update(state, improved, better, u)
            for r in range(runs):
                order = sorted(range(n), key=lambda i: (state.pbest_fitness[r, i], i))
                np.testing.assert_array_equal(a.phi_positions[r], state.pbest_positions[r, order[:half]])
                np.testing.assert_array_equal(a.phi_fitness[r], state.pbest_fitness[r, order[:half]])
                for i in improved[r].nonzero()[0]:
                    slot_push(psi[r], (state.pbest_positions[r, i], state.pbest_fitness[r, i]), n, u[r, i])
                if better[r]:
                    slot_push(chi[r], (state.pbest_positions[r, order[0]], state.pbest_fitness[r, order[0]]), n,
                              u[r, n])
        positions, fitness = getattr(a, f"{name}_positions"), getattr(a, f"{name}_fitness")
        for r, ref in enumerate(psi if k == PSI else chi):
            assert a.fill[r, k] == len(ref) <= n
            filled = slice(len(ref))
            np.testing.assert_array_equal(positions[r, filled], np.array([p for p, _ in ref]).reshape(-1, d))
            np.testing.assert_array_equal(fitness[r, filled], [f for _, f in ref])

    @settings(max_examples=40, deadline=None)
    @given(runs=st.integers(1, 3), half=st.integers(1, 6), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           calls=st.integers(1, 20), chi=st.booleans())
    def test_push_leaves_the_other_archives_alone(self, runs, half, d, seed, calls, chi):
        # the archives share one table: updates that push into one of psi and
        # chi, full or not, leave the other's rows and fill bitwise as they were
        n = 2 * half
        data = np.random.default_rng(seed)
        a = ArchiveSet(runs, n, d)
        a.positions[...], a.fitness[...] = data.uniform(-9, 9, a.positions.shape), data.uniform(size=a.fitness.shape)
        k, other = (CHI, PSI) if chi else (PSI, CHI)
        kept = np.r_[a.start[other]:a.start[other] + a.capacity[other]]
        before = a.positions[:, kept].copy(), a.fitness[:, kept].copy(), a.fill[:, other].copy()
        for _ in range(calls):
            state = random_state(data, runs, n, d, ties=False)
            state.pbest_fitness += 10.0
            pushed = data.random((runs, n)) < 0.7
            improved, better = (np.zeros((runs, n), bool), pushed[:, 0]) if chi else (pushed, np.zeros(runs, bool))
            a.update(state, improved, better, data.random((runs, n + 1)))
        np.testing.assert_array_equal(a.positions[:, kept], before[0])
        np.testing.assert_array_equal(a.fitness[:, kept], before[1])
        np.testing.assert_array_equal(a.fill[:, other], before[2])
        assert all((a.fitness[r, a.start[k]:a.start[k] + a.fill[r, k]] >= 10).all() for r in range(runs))

    @pytest.mark.parametrize("runs, half, seed", [(1, 20, 0), (3, 12, 1), (4, 3, 2), (2, 20, 3)])
    def test_chi_receives_the_global_best(self, runs, half, seed):
        # after every update that `update_bests` reports a better global best
        # for, chi's newest row and fitness are bitwise the global best, also
        # when many personal bests tie at the minimum: the stable sort ranks
        # update_bests' argmin, the lowest tied index, first
        n, d = 2 * half, 3
        data = np.random.default_rng(seed)
        state = SwarmState(data.uniform(-100, 100, (runs, n, d)), np.zeros((runs, n, d)),
                           data.integers(0, 3, (runs, n)).astype(float))
        a = ArchiveSet(runs, n, d)
        _update_archives(a, state, OptimizerConfig(), np.ones((runs, n), bool), np.ones(runs, bool),
                         np.zeros((runs, n + 1)))
        checked = 0
        for t in range(1, 60):
            state.positions = data.uniform(-100, 100, (runs, n, d))
            state.fitness = data.integers(0, 3, (runs, n)) - float(t)  # new lows, tied across particles
            improved, better = update_bests(state)
            fill, u = a.fill[:, CHI].copy(), data.random((runs, n + 1))
            a.update(state, improved, better, u)
            for r in better.nonzero()[0]:
                slot = fill[r] if fill[r] < n else int(u[r, n] * n)
                np.testing.assert_array_equal(a.chi_positions[r, slot], state.gbest_position[r])
                assert a.chi_fitness[r, slot] == state.gbest_fitness[r]
                checked += 1
        assert checked >= 30 * runs

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
        assert filled(a, "psi").tolist() == [100.0, 1.0, 102.0, 2.0]
        assert filled(a, "chi").tolist() == [100.0, 101.0, 1.0, 103.0]


class TestSampleRepresentatives:
    """Representative sampling as the optimizer runs it, through `_archive_guides`."""

    def seeded(self, n=4):
        a = ArchiveSet(1, n, 2)
        stock(a, PHI, np.arange(1.0, n // 2 + 1.0))
        stock(a, PSI, 10.0 + np.arange(n))
        stock(a, CHI, [0.5])
        return a

    def test_singleton_archives_are_deterministic(self):
        # one entry per archive: every row gets the best of the three, whatever the seed
        for psi_fit, chi_fit, winner in ((3.0, 4.0, [0.0, 1.0]), (0.5, 4.0, [0.5, 0.5]), (3.0, 0.25, [0.25, 0.25])):
            a = ArchiveSet(1, 2, 2)
            a.phi_positions[0, 0], a.phi_fitness[0, 0] = [0.0, 1.0], 1.0
            stock(a, PSI, [psi_fit])
            stock(a, CHI, [chi_fit])
            for seed in range(5):
                guides = _archive_guides(a, np.random.default_rng(seed).random((1, 3, 6)))
                np.testing.assert_array_equal(guides[0], np.tile(winner, (6, 1)))

    def test_fixed_seed_reproducible(self):
        a = self.seeded(8)
        draws1 = _archive_guides(a, np.random.default_rng(42).random((1, 3, 16)))
        draws2 = _archive_guides(a, np.random.default_rng(42).random((1, 3, 16)))
        np.testing.assert_array_equal(draws1, draws2)

    def test_empty_archive_signals(self):
        a = rebuild_phi(ArchiveSet(1, 4, 2), state_with_pbests([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            _archive_guides(a, np.random.default_rng(0).random((1, 3, 3)))

    def test_sampling_is_uniform(self):
        # 10-entry psi archive that beats every phi and chi entry, 10^4 guides
        # in one call: each psi entry within +-20% of 10^3
        a = ArchiveSet(1, 20, 2)
        rng = np.random.default_rng(7)
        stock(a, PSI, np.arange(10.0) - 10.0)
        stock(a, PHI, np.arange(1.0, 11.0))
        stock(a, CHI, [0.0])
        guides = _archive_guides(a, rng.random((1, 3, 10_000)))[0]
        counts = np.bincount((guides[:, 0] + 10.0).astype(int), minlength=10)
        assert counts.sum() == 10_000 and len(counts) == 10
        assert ((counts >= 800) & (counts <= 1200)).all()

    def test_representative_positions_are_copies(self):
        a = self.seeded(4)
        guides = _archive_guides(a, np.random.default_rng(1).random((1, 3, 8)))
        guides[:] = -1.0
        assert all((filled(a, name, field="positions") >= 0).all() for name in ("phi", "psi", "chi"))

    def test_picks_in_slot_order(self):
        # the representative of u is the row in slot int(u * size), whenever
        # it was pushed
        a = ArchiveSet(1, 4, 1)
        for v, u in zip(range(7), (0.0, 0.0, 0.0, 0.0, 0.6, 0.1, 0.9)):
            push_one(a, PSI, [float(v)], float(v), u)
            push_one(a, CHI, [40.0 + v], 40.0 + v, u)
        stock(a, PHI, [50.0, 50.0], d=1)
        ref = []
        for v, u in zip(range(7), (0.0, 0.0, 0.0, 0.0, 0.6, 0.1, 0.9)):
            slot_push(ref, float(v), 4, u)
        assert ref == [5.0, 1.0, 4.0, 6.0]
        assert filled(a, "psi").tolist() == ref
        for k, value in enumerate(ref):
            # psi's row in slot k wins against phi (50) and chi (>= 40)
            u = np.array([[[0.0], [(k + 0.5) / 4], [0.0]]])
            assert _archive_guides(a, u)[0, 0, 0] == value

    def test_each_run_samples_its_own_archives(self):
        # two runs holding different rows: each run's guides come from its own rows
        a = ArchiveSet(2, 2, 1)
        a.positions[:, :, 0] = a.fitness[...] = [[9.0, 1.0, 0.0, 5.0, 0.0], [9.0, 2.0, 0.0, 6.0, 0.0]]
        a.fill[:, PSI:] = 1
        guides = _archive_guides(a, np.random.default_rng(3).random((2, 3, 5)))
        np.testing.assert_array_equal(guides[:, :, 0], [[1.0] * 5, [2.0] * 5])
