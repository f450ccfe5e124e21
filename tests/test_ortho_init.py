"""Tests for orthogonal-array construction, verification, mapping, and
OA-based swarm initialization."""

import itertools

import numpy as np
import pytest

from opsom import ortho_init
from opsom.objective import base_spec, evaluate_batch
from opsom.optimizer import OptimizerConfig
from opsom.ortho_init import (
    array_shape,
    build_initial_swarm,
    construct_oa,
    format_oa,
    map_to_search_space,
)


def verify_oa(oa: np.ndarray, levels: int) -> bool:
    """Exhaustively check strength-2 balance (and per-column level balance) of a `levels`-level array.

    Returns False for malformed arrays instead of raising.
    """
    a = np.asarray(oa)
    if a.ndim != 2 or a.size == 0 or levels < 2:
        return False
    if a.min() < 1 or a.max() > levels:
        return False
    rows, cols = a.shape
    if rows % levels:
        return False
    per_level = rows // levels
    for c in range(cols):
        if not (np.bincount(a[:, c] - 1, minlength=levels) == per_level).all():
            return False
    if cols >= 2:
        if rows % levels**2:
            return False
        per_pair = rows // levels**2
        for c1 in range(cols):
            for c2 in range(c1 + 1, cols):
                codes = (a[:, c1] - 1) * levels + (a[:, c2] - 1)
                if not (np.bincount(codes, minlength=levels**2) == per_pair).all():
                    return False
    return True


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
        assert len(oa) == 4 and oa.shape[1] == 3
        rows = {tuple(r) for r in oa}
        assert rows == {(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)}
        assert pair_balance_holds(oa, 2)

    def test_degenerate_single_factor(self):
        oa = construct_oa(2, 1)
        assert len(oa) == 2 and oa.shape[1] == 1
        assert [tuple(r) for r in oa] == [(1,), (2,)]

    def test_three_level_four_factors(self):
        oa = construct_oa(3, 4)
        assert len(oa) == 9 and oa.shape[1] == 4
        assert verify_oa(oa, 3)
        assert pair_balance_holds(oa, 3)

    def test_all_constructed_arrays_pass_exhaustive_check(self):
        for levels, j in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]:
            factors = (levels**j - 1) // (levels - 1)
            oa = construct_oa(levels, factors)
            assert len(oa) == levels**j
            assert verify_oa(oa, levels), (levels, j)
            assert pair_balance_holds(oa, levels), (levels, j)

    def test_smallest_family_member_chosen(self):
        assert array_shape(2, 10) == (4, 16, 15)
        oa = construct_oa(2, 10)
        assert len(oa) == 16 and oa.shape[1] == 15

    def test_rejects_non_prime_levels(self):
        for levels in (1, 4, 6, 9):
            with pytest.raises(ValueError, match="prime"):
                construct_oa(levels, 3)

    @pytest.mark.parametrize("levels", [-1, 0, 1, 4])
    def test_array_shape_rejects_non_prime_levels(self, levels):
        # the optimizer sizes the array before building it; levels <= 0 used to
        # loop forever there and 1 to divide by zero
        with pytest.raises(ValueError, match=f"prime, got {levels}"):
            array_shape(levels, 3)

    def test_rejects_bad_min_factors(self):
        with pytest.raises(ValueError):
            construct_oa(2, 0)

    def test_row_cap(self):
        # 4096 factors need the 8192-row array, over the 4096-row cap
        with pytest.raises(ValueError, match="cap"):
            construct_oa(2, 4096)


class TestVerify:
    def test_duplicate_columns_fail(self):
        entries = np.array([[1, 1], [1, 1], [2, 2], [2, 2]])
        assert not verify_oa(entries, 2)

    def test_single_balanced_column_passes(self):
        entries = np.array([[1], [2], [1], [2]])
        assert verify_oa(entries, 2)

    def test_unbalanced_column_fails(self):
        entries = np.array([[1], [1], [1], [2]])
        assert not verify_oa(entries, 2)

    def test_out_of_range_entries_fail(self):
        entries = np.array([[1, 3], [2, 1], [1, 2], [2, 2]])
        assert not verify_oa(entries, 2)


class TestMapping:
    def test_level_one_maps_to_lower_bound(self):
        oa = construct_oa(2, 1)
        points = map_to_search_space(oa, 2, 0.0, 1.0, 1)
        assert points[0, 0] == 0.0

    def test_top_level_maps_to_upper_bound(self):
        oa = construct_oa(3, 4)
        points = map_to_search_space(oa, 3, -100.0, 100.0, 4)
        assert points[oa[:, 0] == 3, 0].tolist() == pytest.approx([100.0] * 3, abs=0)

    def test_mid_level_three_levels(self):
        # direct arithmetic: (2 - 1) * (200 / 2) + (-100) = 0
        oa = construct_oa(3, 4)
        points = map_to_search_space(oa, 3, -100.0, 100.0, 4)
        assert points[oa[:, 1] == 2, 1].tolist() == pytest.approx([0.0] * 3, abs=0)

    def test_endpoints_exact_for_many_bounds(self):
        for levels in (2, 3, 5):
            oa = construct_oa(levels, 4)
            for lo, hi in [(-100.0, 100.0), (0.0, 1.0), (-5.0, 3.0), (0.1, 0.3)]:
                points = map_to_search_space(oa, levels, lo, hi, 4)
                assert ((points >= lo) & (points <= hi)).all()
                assert (points[oa[:, :4] == 1] == lo).all()
                assert (points[oa[:, :4] == levels] == hi).all()


def initial_swarm(n, spec, seed, levels=2):
    """One run's (n, d) swarm and (n,) fitness from `build_initial_swarm`."""
    positions, fitness = build_initial_swarm(n, spec, [np.random.default_rng(seed)], levels=levels)
    return positions[0], fitness[0]


@pytest.fixture
def scored_rows(monkeypatch):
    """The row count of every `evaluate_batch` call `build_initial_swarm` makes."""
    rows = []
    original = ortho_init.evaluate_batch

    def spy(spec, points):
        rows.append(len(points))
        return original(spec, points)

    monkeypatch.setattr(ortho_init, "evaluate_batch", spy)
    return rows


class TestBuildInitialSwarm:
    def test_exact_fit_keeps_all_rows(self):
        # n = 4, d = 3, two levels: the L4 array is the whole swarm
        spec = base_spec("sphere", 3)
        positions, fitness = initial_swarm(4, spec, 0)
        expected = map_to_search_space(construct_oa(2, 3), 2, -100.0, 100.0, 3)
        np.testing.assert_array_equal(np.sort(positions, axis=0), np.sort(expected, axis=0))
        assert len(fitness) == 4

    def test_random_fill_when_array_is_small(self, scored_rows):
        # d = 10 with two levels gives a 16-row array; 24 slots filled randomly
        spec = base_spec("rastrigin", 10)
        positions, fitness = initial_swarm(40, spec, 1)
        assert positions.shape == (40, 10) and scored_rows == [40]
        expected = map_to_search_space(construct_oa(2, 10), 2, -100.0, 100.0, 10)
        np.testing.assert_array_equal(positions[:16], expected)
        assert ((positions >= -100) & (positions <= 100)).all()

    def test_selection_keeps_best_of_surplus_rows(self, scored_rows):
        # n = 4, d = 2, three levels: 9 rows evaluated, best 4 kept
        spec = base_spec("sphere", 2, shift=np.array([10.0, -20.0]))
        positions, fitness = initial_swarm(4, spec, 2, levels=3)
        assert scored_rows == [9]
        all_points = map_to_search_space(construct_oa(3, 2), 3, -100.0, 100.0, 2)
        all_fit = np.sort([evaluate_batch(spec, p[None, :])[0] for p in all_points])
        np.testing.assert_allclose(np.sort(fitness), all_fit[:4], rtol=0, atol=0)

    def test_no_discarded_point_beats_a_kept_one(self):
        spec = base_spec("rastrigin", 2, shift=np.array([5.0, 5.0]))
        positions, fitness = initial_swarm(4, spec, 3, levels=3)
        all_points = map_to_search_space(construct_oa(3, 2), 3, -100.0, 100.0, 2)
        all_fit = sorted(evaluate_batch(spec, p[None, :])[0] for p in all_points)
        # kept set is exactly the 4 best of the 9 evaluated rows
        assert sorted(fitness) == all_fit[:4]

    def test_fitness_matches_reevaluation(self):
        spec = base_spec("ackley", 10, shift=np.full(10, 7.0))
        positions, fitness = initial_swarm(40, spec, 4)
        again = [evaluate_batch(spec, p[None, :])[0] for p in positions]
        np.testing.assert_array_equal(fitness, again)

    def test_deterministic_under_fixed_seed(self):
        spec = base_spec("griewank", 10)
        a = initial_swarm(40, spec, 5)
        b = initial_swarm(40, spec, 5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_no_array_is_one_uniform_draw(self, scored_rows):
        spec = base_spec("ackley", 10, shift=np.full(10, 7.0))
        rng, again = np.random.default_rng(7), np.random.default_rng(7)
        positions, fitness = build_initial_swarm(40, spec, [rng])
        np.testing.assert_array_equal(positions[0], again.uniform(-100.0, 100.0, (40, 10)))
        assert rng.bit_generator.state == again.bit_generator.state
        assert scored_rows == [40]

    @pytest.mark.parametrize("d, levels", [
        (10, None),  # uniform init: every row drawn
        (10, 2),  # 16 array rows, 24 drawn
        (50, 2),  # 64 array rows, nothing drawn, best 40 kept
    ])
    def test_stacked_runs_equal_one_run_calls(self, scored_rows, d, levels):
        spec = base_spec("rastrigin", d, shift=np.full(d, 3.0))
        seeds = (11, 12, 13)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        positions, fitness = build_initial_swarm(40, spec, rngs, levels=levels)
        assert positions.shape == (3, 40, d) and fitness.shape == (3, 40)
        for r, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            alone = build_initial_swarm(40, spec, [rng], levels=levels)
            assert positions[r].tobytes() == alone[0][0].tobytes()
            assert fitness[r].tobytes() == alone[1][0].tobytes()
            assert rngs[r].bit_generator.state == rng.bit_generator.state
        # one call scores every run: max(n, array rows) rows each
        rows = 64 if d == 50 else 40
        assert scored_rows == [3 * rows] + [rows] * 3
        if d == 50:
            # the array covers n: the generators drew nothing
            assert all(rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
                       for rng, seed in zip(rngs, seeds))

    def test_budget_too_small(self):
        # a run is refused before its initial swarm is built: n = 40 at d = 10
        # scores 40 rows (the 16-row array topped up), 64 array rows at d = 50
        for d, cost in ((10, 40), (50, 64)):
            config = OptimizerConfig(population=40, budget=cost - 1)
            refusal = rf"budget {cost - 1} cannot cover initialization \({cost} evaluations\)"
            with pytest.raises(ValueError, match=refusal):
                config.validate(base_spec("sphere", d))


def test_format_oa_round_trip():
    oa = construct_oa(2, 3)
    lines = format_oa(oa).strip().splitlines()
    parsed = np.array([[int(v) for v in line.split()] for line in lines])
    np.testing.assert_array_equal(parsed, oa)
