"""Tests for orthogonal-array construction, verification, mapping, and
OA-based swarm initialization."""

import itertools

import numpy as np
import pytest

from opsom.objective import BudgetExceeded, EvaluationCounter, SearchBounds, base_spec, evaluate_batch
from opsom.ortho_init import (
    OrthogonalArray,
    array_shape,
    build_initial_swarm,
    construct_oa,
    format_oa,
    map_to_search_space,
    verify_oa,
)


def pair_balance_holds(entries, levels):
    """Independent exhaustive oracle: count every ordered pair across each column pair."""
    rows, cols = entries.shape
    for c1, c2 in itertools.combinations(range(cols), 2):
        counts = {}
        for r in range(rows):
            counts[(entries[r, c1], entries[r, c2])] = counts.get((entries[r, c1], entries[r, c2]), 0) + 1
        expected = rows / levels**2
        for u in range(1, levels + 1):
            for v in range(1, levels + 1):
                if counts.get((u, v), 0) != expected:
                    return False
    return True


class TestConstruct:
    def test_l4_rows(self):
        oa = construct_oa(2, 3)
        assert oa.rows == 4 and oa.cols == 3
        rows = {tuple(r) for r in oa.entries}
        assert rows == {(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)}
        assert pair_balance_holds(oa.entries, 2)

    def test_degenerate_single_factor(self):
        oa = construct_oa(2, 1)
        assert oa.rows == 2 and oa.cols == 1
        assert [tuple(r) for r in oa.entries] == [(1,), (2,)]

    def test_three_level_four_factors(self):
        oa = construct_oa(3, 4)
        assert oa.rows == 9 and oa.cols == 4
        assert verify_oa(oa)
        assert pair_balance_holds(oa.entries, 3)

    def test_all_constructed_arrays_pass_exhaustive_check(self):
        for levels, j in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]:
            factors = (levels**j - 1) // (levels - 1)
            oa = construct_oa(levels, factors)
            assert oa.rows == levels**j
            assert verify_oa(oa), (levels, j)
            assert pair_balance_holds(oa.entries, levels), (levels, j)

    def test_smallest_family_member_chosen(self):
        assert array_shape(2, 10) == (4, 16, 15)
        oa = construct_oa(2, 10)
        assert oa.rows == 16 and oa.cols == 15

    def test_rejects_non_prime_levels(self):
        for levels in (1, 4, 6, 9):
            with pytest.raises(ValueError, match="prime"):
                construct_oa(levels, 3)

    def test_rejects_bad_min_factors(self):
        with pytest.raises(ValueError):
            construct_oa(2, 0)

    def test_row_cap(self):
        with pytest.raises(ValueError, match="cap"):
            construct_oa(2, 10, row_cap=8)


class TestVerify:
    def test_duplicate_columns_fail(self):
        entries = np.array([[1, 1], [1, 1], [2, 2], [2, 2]])
        assert not verify_oa(OrthogonalArray(levels=2, entries=entries))

    def test_single_balanced_column_passes(self):
        entries = np.array([[1], [2], [1], [2]])
        assert verify_oa(OrthogonalArray(levels=2, entries=entries))

    def test_unbalanced_column_fails(self):
        entries = np.array([[1], [1], [1], [2]])
        assert not verify_oa(OrthogonalArray(levels=2, entries=entries))

    def test_out_of_range_entries_fail(self):
        entries = np.array([[1, 3], [2, 1], [1, 2], [2, 2]])
        assert not verify_oa(OrthogonalArray(levels=2, entries=entries))


class TestMapping:
    def test_level_one_maps_to_lower_bound(self):
        oa = construct_oa(2, 1)
        points = map_to_search_space(oa, SearchBounds(0.0, 1.0), 1)
        assert points[0, 0] == 0.0

    def test_top_level_maps_to_upper_bound(self):
        oa = construct_oa(3, 4)
        points = map_to_search_space(oa, SearchBounds(-100.0, 100.0), 4)
        assert points[oa.entries[:, 0] == 3, 0].tolist() == pytest.approx([100.0] * 3, abs=0)

    def test_mid_level_three_levels(self):
        # direct arithmetic: (2 - 1) * (200 / 2) + (-100) = 0
        oa = construct_oa(3, 4)
        points = map_to_search_space(oa, SearchBounds(-100.0, 100.0), 4)
        assert points[oa.entries[:, 1] == 2, 1].tolist() == pytest.approx([0.0] * 3, abs=0)

    def test_endpoints_exact_for_many_bounds(self):
        for levels in (2, 3, 5):
            oa = construct_oa(levels, 4)
            for lo, hi in [(-100.0, 100.0), (0.0, 1.0), (-5.0, 3.0), (0.1, 0.3)]:
                points = map_to_search_space(oa, SearchBounds(lo, hi), 4)
                assert ((points >= lo) & (points <= hi)).all()
                assert (points[oa.entries[:, :4] == 1] == lo).all()
                assert (points[oa.entries[:, :4] == levels] == hi).all()

    def test_insufficient_factors(self):
        oa = construct_oa(2, 3)
        with pytest.raises(ValueError, match="factors"):
            map_to_search_space(oa, SearchBounds(), 4)


class TestBuildInitialSwarm:
    def test_exact_fit_keeps_all_rows(self):
        # n = 4, d = 3, two levels: the L4 array is the whole swarm
        spec = base_spec("sphere", 3)
        rng = np.random.default_rng(0)
        positions, fitness = build_initial_swarm(4, spec, EvaluationCounter(budget=100), rng)
        expected = map_to_search_space(construct_oa(2, 3), spec.bounds, 3)
        np.testing.assert_array_equal(np.sort(positions, axis=0), np.sort(expected, axis=0))
        assert len(fitness) == 4

    def test_random_fill_when_array_is_small(self):
        # d = 10 with two levels gives a 16-row array; 24 slots filled randomly
        spec = base_spec("rastrigin", 10)
        c = EvaluationCounter(budget=1000)
        positions, fitness = build_initial_swarm(40, spec, c, np.random.default_rng(1))
        assert positions.shape == (40, 10) and c.used == 40
        expected = map_to_search_space(construct_oa(2, 10), spec.bounds, 10)
        np.testing.assert_array_equal(positions[:16], expected)
        assert ((positions >= -100) & (positions <= 100)).all()

    def test_selection_keeps_best_of_surplus_rows(self):
        # n = 4, d = 2, three levels: 9 rows evaluated, best 4 kept
        spec = base_spec("sphere", 2, shift=np.array([10.0, -20.0]))
        c = EvaluationCounter(budget=1000)
        positions, fitness = build_initial_swarm(4, spec, c, np.random.default_rng(2), levels=3)
        assert c.used == 9
        all_points = map_to_search_space(construct_oa(3, 2), spec.bounds, 2)
        all_fit = np.sort([evaluate_batch(spec, p[None, :], EvaluationCounter(budget=1))[0] for p in all_points])
        np.testing.assert_allclose(np.sort(fitness), all_fit[:4], rtol=0, atol=0)

    def test_no_discarded_point_beats_a_kept_one(self):
        spec = base_spec("rastrigin", 2, shift=np.array([5.0, 5.0]))
        positions, fitness = build_initial_swarm(4, spec, EvaluationCounter(budget=1000), np.random.default_rng(3), levels=3)
        all_points = map_to_search_space(construct_oa(3, 2), spec.bounds, 2)
        all_fit = sorted(evaluate_batch(spec, p[None, :], EvaluationCounter(budget=1))[0] for p in all_points)
        # kept set is exactly the 4 best of the 9 evaluated rows
        assert sorted(fitness) == all_fit[:4]

    def test_fitness_matches_reevaluation(self):
        spec = base_spec("ackley", 10, shift=np.full(10, 7.0))
        positions, fitness = build_initial_swarm(40, spec, EvaluationCounter(budget=1000), np.random.default_rng(4))
        again = [evaluate_batch(spec, p[None, :], EvaluationCounter(budget=1))[0] for p in positions]
        np.testing.assert_array_equal(fitness, again)

    def test_deterministic_under_fixed_seed(self):
        spec = base_spec("griewank", 10)
        a = build_initial_swarm(40, spec, EvaluationCounter(budget=1000), np.random.default_rng(5))
        b = build_initial_swarm(40, spec, EvaluationCounter(budget=1000), np.random.default_rng(5))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_budget_too_small(self):
        spec = base_spec("sphere", 10)
        with pytest.raises(BudgetExceeded):
            build_initial_swarm(40, spec, EvaluationCounter(budget=30), np.random.default_rng(6))

    def test_rejects_odd_population(self):
        spec = base_spec("sphere", 2)
        with pytest.raises(ValueError):
            build_initial_swarm(5, spec, EvaluationCounter(budget=100), np.random.default_rng(0))


def test_format_oa_round_trip():
    oa = construct_oa(2, 3)
    lines = format_oa(oa).strip().splitlines()
    parsed = np.array([[int(v) for v in line.split()] for line in lines])
    np.testing.assert_array_equal(parsed, oa.entries)
