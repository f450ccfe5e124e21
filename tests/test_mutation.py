"""Tests for elite-position mutation and the distinct-partner draws."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsom.mutation import draw_partners, mutate_elites


def elites(*rows):
    return np.array(rows, dtype=float)


def pairs(u):
    """`draw_partners` on one run's (2, m) uniforms."""
    g, h = draw_partners(np.asarray(u)[None])
    return g[0], h[0]


def mutate_run(elite_positions, phi_positions, u):
    """`mutate_elites` on one run: (m, d) elites and phi rows, flat uniforms."""
    runs = (np.asarray(a)[None] for a in (elite_positions, phi_positions))
    return mutate_elites(*runs, np.asarray(u)[None])[0]


def scalar_mutation(j, phi_position, elite_positions, delta1, delta2, g, h):
    """Reference for one elite: x + delta1*(phi_j - x) + delta2*(x_g - x_h), clamped into the box."""
    x = elite_positions[j]
    mutated = x + delta1 * (phi_position - x) + delta2 * (elite_positions[g] - elite_positions[h])
    return np.clip(mutated, -100.0, 100.0)


def partner_uniforms(g, h):
    """The (2, m) uniforms for which `draw_partners` picks exactly (g, h).

    Partner g is the k-th index other than j, picked by u = (k + 0.5)/(m - 1);
    h is the k-th index other than j and g, picked by u = (k + 0.5)/(m - 2).
    """
    g, h = np.asarray(g), np.asarray(h)
    m = len(g)
    j = np.arange(m)
    rank_g = g - (g > j)
    rank_h = h - (h > np.minimum(j, g)) - (h > np.maximum(j, g))
    return np.stack([(rank_g + 0.5) / (m - 1), (rank_h + 0.5) / (m - 2)])


def mutation_uniforms(rng, m, d, delta1=None, delta2=None, partners=None):
    """The slice `mutate_elites` takes: 2*m partner uniforms, then delta1 and
    delta2 as (m, d) blocks; a given (d,) delta applies to every row and given
    (g, h) partners are encoded by `partner_uniforms`."""
    deltas = [rng.random((m, d)) if delta is None else np.tile(delta, (m, 1)) for delta in (delta1, delta2)]
    pick = rng.random(2 * m) if partners is None else partner_uniforms(*partners).ravel()
    return np.concatenate([pick] + [delta.ravel() for delta in deltas])


def mutate_one(j, phi_j, positions, rng, *, delta1=None, delta2=None, partners=None):
    """Row j of `mutate_elites`.  The other rows pull toward their own positions
    with cyclic partners; (d,) deltas apply to every row."""
    m, d = positions.shape
    phi = positions.copy()
    phi[j] = phi_j
    if partners is not None:
        g, h = (np.arange(m) + 1) % m, (np.arange(m) + 2) % m
        g[j], h[j] = partners
        partners = (g, h)
    return mutate_run(positions, phi, mutation_uniforms(rng, m, d, delta1, delta2, partners))[j]


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
                g, h = pairs(rng.random((2, m)))
                j = np.arange(m)
                assert (g != j).all() and (h != j).all() and (g != h).all()
                assert (0 <= g).all() and (g < m).all() and (0 <= h).all() and (h < m).all()

    def test_pairs_roughly_uniform(self):
        rng = np.random.default_rng(4)
        m = 4
        counts = np.zeros((m, m))
        trials = 12_000
        for _ in range(trials):
            g, h = pairs(rng.random((2, m)))
            counts[g[0], h[0]] += 1
        # row j=0 can draw any ordered pair of {1,2,3}: 6 pairs, ~2000 each
        occupied = counts[counts > 0]
        assert len(occupied) == 6
        assert ((occupied > 1700) & (occupied < 2300)).all()

    @pytest.mark.parametrize("m", [3, 4, 7])
    def test_partner_uniforms_pick_every_valid_pair(self, m):
        # every (g, h) with j, g, h distinct is reachable, and `partner_uniforms` reaches it
        for j in range(m):
            for g, h in itertools.permutations([i for i in range(m) if i != j], 2):
                gs, hs = (np.arange(m) + 1) % m, (np.arange(m) + 2) % m
                gs[j], hs[j] = g, h
                drawn = pairs(partner_uniforms(gs, hs))
                assert drawn[0].tolist() == gs.tolist() and drawn[1].tolist() == hs.tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 64).flatmap(lambda m: st.lists(
        st.floats(0.0, 1.0, exclude_max=True) | st.just(np.nextafter(1.0, 0.0)), min_size=2 * m, max_size=2 * m)))
    def test_distinct_for_any_uniforms(self, u):
        # the largest uniform below 1 included: no index may reach m
        u = np.array(u).reshape(2, -1)
        m = u.shape[1]
        g, h = pairs(u)
        j = np.arange(m)
        assert (g != j).all() and (h != j).all() and (g != h).all()
        assert (0 <= g).all() and (g < m).all() and (0 <= h).all() and (h < m).all()


class TestMutateElites:
    def test_matches_scalar_op_given_same_draws(self):
        # the slice layout: partner uniforms, then delta1, then delta2
        rng = np.random.default_rng(5)
        m, d = 6, 4
        positions = rng.uniform(-100, 100, (m, d))
        phi = rng.uniform(-100, 100, (m, d))
        u = rng.random(2 * m * (1 + d))
        g, h = pairs(u[: 2 * m].reshape(2, m))
        d1, d2 = u[2 * m :].reshape(2, m, d)
        batch = mutate_run(positions, phi, u)
        for j in range(m):
            row = scalar_mutation(j, phi[j], positions, d1[j], d2[j], int(g[j]), int(h[j]))
            np.testing.assert_array_equal(batch[j], row)

    def test_bitwise_equal_to_clip_form(self):
        rng = np.random.default_rng(7)
        m, d = 20, 10
        positions = rng.uniform(-100, 100, (m, d))
        phi = rng.uniform(-100, 100, (m, d))
        partner_u = rng.random(2 * m)
        g, h = pairs(partner_u.reshape(2, m))
        d1, d2 = rng.uniform(0, 2, size=(2, m, d))  # wide enough to push rows past both walls
        expected = np.clip(positions + d1 * (phi - positions) + d2 * (positions[g] - positions[h]), -100.0, 100.0)
        assert (np.abs(expected) == 100.0).any() and (np.abs(expected) < 100.0).any()
        out = mutate_run(positions, phi, np.concatenate((partner_u, d1.ravel(), d2.ravel())))
        assert out.tobytes() == expected.tobytes()

    def test_all_outputs_inside_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            positions = rng.uniform(-100, 100, (8, 3))
            phi = rng.uniform(-100, 100, (8, 3))
            out = mutate_run(positions, phi, rng.random(2 * 8 * 4))
            assert ((out >= -100) & (out <= 100)).all()

    def test_stacked_runs_match_one_run_at_a_time(self):
        # R runs mutated in one call give each run's bits from its own rows and uniforms
        rng = np.random.default_rng(8)
        runs, m, d = 3, 5, 4
        positions = rng.uniform(-100, 100, (runs, m, d))
        phi = rng.uniform(-100, 100, (runs, m, d))
        u = rng.random((runs, 2 * m * (1 + d)))
        stacked = mutate_elites(positions, phi, u)
        g, h = draw_partners(u[:, : 2 * m].reshape(runs, 2, m))
        for r in range(runs):
            assert stacked[r].tobytes() == mutate_run(positions[r], phi[r], u[r]).tobytes()
            one_g, one_h = pairs(u[r, : 2 * m].reshape(2, m))
            assert g[r].tolist() == one_g.tolist() and h[r].tolist() == one_h.tolist()
