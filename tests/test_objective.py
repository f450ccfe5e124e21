"""Tests for the benchmark-function module: example values, suite generation,
and the exactness/finiteness invariants the error metric depends on."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsom.objective import (
    _SCHWEFEL_MU,
    _SCHWEFEL_PEAK,
    BASE_FUNCTIONS,
    ObjectiveSpec,
    ShiftedBlocks,
    WeightedComposite,
    base_spec,
    describe_suite,
    evaluate_batch,
    make_suite,
    _transform,
    ackley,
    griewank,
    random_rotation,
    schwefel,
)
from opsom.optimizer import OptimizerConfig, _Trace
from opsom.swarm_core import SwarmState

SUITE_DIMS = (2, 3, 10, 30, 50)


def one_row_value(spec, point):
    """The value of one point, evaluated as a one-row batch."""
    return float(evaluate_batch(spec, np.asarray(point, dtype=float)[None, :])[0])


def shifted_blocks(spec):
    """Every `ShiftedBlocks` of a spec: its function, or a composite's components."""
    return getattr(spec.fn, "components", (spec.fn,))


def component_values(fn, points):
    """The (m, 3) values of a composite's components, which `WeightedComposite.values` blends."""
    return np.stack([c.values(points) for c in fn.components], axis=1)


def errors_of(spec, best_fitnesses):
    """The `RunRecord.errors` of a trace whose best fitness took these values."""
    trace = _Trace((1, 1, spec.dimension), len(best_fitnesses) - 1, 1)
    for k, f in enumerate(best_fitnesses):
        state = SwarmState(np.zeros((1, 1, spec.dimension)), np.zeros((1, 1, spec.dimension)), [[f]])
        state.iteration = k
        trace.snap(state)
    return trace.records(OptimizerConfig(), [0], [spec], 1, 1, 0.0)[0].errors


class TestEvaluateExamples:
    def test_sphere_at_origin(self):
        spec = base_spec("sphere", 2)
        assert one_row_value(spec, np.zeros(2)) == 0.0

    def test_sphere_at_ones(self):
        spec = base_spec("sphere", 2)
        assert one_row_value(spec, np.ones(2)) == 2.0

    def test_rastrigin_at_origin(self):
        spec = base_spec("rastrigin", 3)
        assert one_row_value(spec, np.zeros(3)) == 0.0

    def test_rastrigin_one_dim_half(self):
        # independent direct-formula evaluation of x^2 - 10 cos(2 pi x) + 10
        x = 0.5
        expected = x * x - 10.0 * math.cos(2.0 * math.pi * x) + 10.0
        assert expected == pytest.approx(20.25, abs=1e-12)
        spec = base_spec("rastrigin", 1)
        assert one_row_value(spec, np.array([x])) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        spec = base_spec("sphere", 3)
        for points in (np.zeros((1, 2)), np.zeros(3)):
            with pytest.raises(ValueError):
                evaluate_batch(spec, points)

    def test_batch_matches_single_evaluations(self):
        spec = make_suite(3, 6)[7]
        rng = np.random.default_rng(0)
        points = rng.uniform(-100, 100, size=(20, 6))
        batch = evaluate_batch(spec, points)
        singles = [one_row_value(spec, p) for p in points]
        np.testing.assert_array_equal(batch, singles)


class TestErrorOf:
    """The error a run reports: |best fitness - f_opt| per trace entry."""

    def test_definition(self):
        spec = base_spec("sphere", 2, bias=0.0)
        assert errors_of(spec, [7.0, 3.5]).tolist() == [7.0, 3.5]

    def test_exact_optimum(self):
        spec = base_spec("sphere", 2, bias=100.0)
        assert errors_of(spec, [100.0]).tolist() == [0.0]

    def test_absolute_value(self):
        spec = base_spec("sphere", 2, bias=-50.0)
        assert errors_of(spec, [-49.0, -51.0]).tolist() == [1.0, 1.0]

    def test_rejects_non_finite(self):
        spec = base_spec("sphere", 2)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="best_fitness must be finite"):
                errors_of(spec, [1.0, bad])


class TestMakeSuite:
    def test_shape_and_categories(self):
        suite = make_suite(0, 10)
        assert len(suite) == 10
        cats = [s.category for s in suite]
        assert cats.count("unimodal") == 2
        assert cats.count("multimodal") == 4
        assert cats.count("hybrid") == 2
        assert cats.count("composite") == 2
        for s in suite:
            assert s.dimension == 10
            assert (s.fn.shift > -100.0).all() and (s.fn.shift < 100.0).all()

    def test_deterministic_per_seed(self):
        a, b = make_suite(0, 10), make_suite(0, 10)
        for s, t in zip(a, b):
            for f, g in zip(shifted_blocks(s), shifted_blocks(t), strict=True):
                np.testing.assert_array_equal(f.shift, g.shift)
                np.testing.assert_array_equal(f.rotation, g.rotation)

    def test_seeds_differ(self):
        a, b = make_suite(0, 10), make_suite(1, 10)
        assert any(not np.array_equal(s.fn.shift, t.fn.shift) for s, t in zip(a, b))

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            make_suite(0, 1)

    def test_rejects_a_negative_seed_by_name(self):
        # named by the library call itself, not only by the CLI's config, and
        # not by the generator's bare "expected non-negative integer"
        for seed in (-1, -(2**70)):
            with pytest.raises(ValueError, match=f"suite_seed must be non-negative, got {seed}"):
                make_suite(seed, 10)

    def test_describe_suite(self):
        text = describe_suite(make_suite(0, 10), 0)
        lines = text.strip().splitlines()
        assert len(lines) == 10
        assert lines[0].startswith("id=sphere category=unimodal d=10")
        assert "f_opt=100.0" in lines[0]


class TestSpecValidation:
    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            base_spec("sphere", 2, rotation=np.array([[1.0, 0.0], [0.5, 1.0]]))

    def test_rejects_shift_outside_bounds(self):
        with pytest.raises(ValueError, match="inside"):
            base_spec("sphere", 2, shift=np.array([150.0, 0.0]))

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="category"):
            ObjectiveSpec(
                id="x", category="weird",
                fn=ShiftedBlocks(("sphere",), np.zeros(2), np.eye(2), 0.0, (1.0,)),
            )

    @pytest.mark.parametrize("shift, rotation", [
        (np.zeros(3), np.eye(2)), (np.zeros((2, 1)), np.eye(2)), (np.zeros(2), np.eye(2)[:1]), (np.zeros(0), np.eye(0)),
    ], ids=["mismatched", "matrix-shift", "non-square-rotation", "zero-dimension"])
    def test_rejects_misshapen_shift_or_rotation(self, shift, rotation):
        with pytest.raises(ValueError, match=r"must be \(d,\) and \(d, d\)"):
            ShiftedBlocks(("sphere",), shift, rotation, 0.0, (1.0,))

    @pytest.mark.parametrize("shift, rotation", [
        (np.zeros(3), np.eye(3)), (np.zeros(3), None), (None, np.eye(3)),
    ], ids=["both", "shift", "rotation"])
    def test_base_spec_rejects_arrays_of_another_dimension(self, shift, rotation):
        # given both, a (3,) shift and a (3, 3) rotation used to build a d = 3 spec for dimension 2
        with pytest.raises(ValueError, match=r"must be \(d,\) and \(d, d\) for d = 2"):
            base_spec("sphere", 2, shift=shift, rotation=rotation)

    def test_rejects_a_composite_without_a_zero_offset_component(self):
        components = tuple(ShiftedBlocks(("sphere",), np.full(2, k), np.eye(2), 100.0 * k, (1.0,)) for k in (1, 2))
        with pytest.raises(ValueError, match="zero-offset component"):
            WeightedComposite(components, (10.0, 20.0))

    def test_rejects_a_composite_component_with_a_non_orthonormal_rotation(self):
        # a composite's optimum is its zero-offset component's shift, but every
        # component's rotation is checked, not only that one's
        sheared = np.array([[1.0, 0.0], [0.5, 1.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            ObjectiveSpec(
                id="x", category="composite",
                fn=WeightedComposite(
                    (ShiftedBlocks(("rastrigin",), np.zeros(2), np.eye(2), 0.0, (1.0,)),
                     ShiftedBlocks(("ackley",), np.ones(2), sheared, 100.0, (1.0,))),
                    (10.0, 20.0),
                ),
            )


class TestSuiteInvariants:
    def test_finite_everywhere_inside_bounds(self):
        rng = np.random.default_rng(7)
        for spec in make_suite(0, 10):
            points = rng.uniform(-100, 100, size=(200, 10))
            values = evaluate_batch(spec, points)
            assert np.isfinite(values).all(), spec.id

    def test_optimum_exact_at_shift(self):
        for d in (8,) + SUITE_DIMS:
            for spec in make_suite(5, d):
                assert one_row_value(spec, spec.fn.shift) == spec.f_opt, (spec.id, d)

    def test_values_never_below_f_opt(self):
        # required for the non-increasing error trace
        rng = np.random.default_rng(11)
        for spec in make_suite(2, 10):
            points = rng.uniform(-100, 100, size=(500, 10))
            assert (evaluate_batch(spec, points) >= spec.f_opt).all(), spec.id

    def test_sphere_rotation_invariance(self):
        rng = np.random.default_rng(3)
        shift = rng.uniform(-50, 50, 10)
        rotated = base_spec("sphere", 10, shift=shift, rotation=random_rotation(rng, 10))
        plain = base_spec("sphere", 10, shift=shift)
        points = rng.uniform(-100, 100, size=(100, 10))
        a = evaluate_batch(rotated, points)
        b = evaluate_batch(plain, points)
        for x, y in zip(a, b):
            assert math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)

    def test_composite_weighted_sum_lower_bound(self):
        rng = np.random.default_rng(13)
        for spec in make_suite(0, 10):
            if spec.category != "composite":
                continue
            points = rng.uniform(-100, 100, size=(300, 10))
            total = evaluate_batch(spec, points)
            component_vals = component_values(spec.fn, points) + spec.f_opt
            assert (total >= component_vals.min(axis=1) - 1e-9).all(), spec.id

    def test_rotations_orthonormal_to_tolerance(self):
        for spec in make_suite(0, 10):
            for fn in shifted_blocks(spec):
                err = np.abs(fn.rotation @ fn.rotation.T - np.eye(10)).max()
                assert err <= 1e-9, spec.id

    def test_composite_optimum_is_its_zero_offset_component_shift(self):
        for spec in make_suite(0, 10)[8:]:
            zero_offset = [c for c in spec.fn.components if c.bias == 0.0]
            assert len(zero_offset) == 1 and spec.fn.shift is zero_offset[0].shift


def assert_same_bits(actual, expected, what):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.tobytes() == expected.tobytes(), f"{what}: max |diff| {np.abs(actual - expected).max():.3e}"


class TestBatchInvariance:
    """A row's value depends on that row alone, never on the batch around it.

    Checked bitwise through `evaluate_batch`, the call the optimizer makes, on
    every suite function.
    """

    @pytest.mark.parametrize("d", SUITE_DIMS)
    @settings(max_examples=10, deadline=None)
    @given(suite_seed=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40))
    def test_rows_independent_of_batch_layout(self, d, suite_seed, seed, m):
        points = np.random.default_rng(seed).uniform(-100, 100, (m, d))
        embedded = np.empty(m * d + 1)[1:].reshape(m, d)  # one element into a larger buffer
        embedded[...] = points
        for spec in make_suite(suite_seed, d):
            full = evaluate_batch(spec, points)
            alone = [evaluate_batch(spec, points[i : i + 1])[0] for i in range(m)]
            assert_same_bits(alone, full, f"{spec.id} rows alone")
            for k in range(1, m):
                assert_same_bits(evaluate_batch(spec, points[:k]), full[:k], f"{spec.id} prefix {k}")
                assert_same_bits(evaluate_batch(spec, points[k:]), full[k:], f"{spec.id} offset {k}")
            assert_same_bits(evaluate_batch(spec, embedded), full, f"{spec.id} embedded copy")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), d=st.sampled_from(SUITE_DIMS),
           scale=st.sampled_from([1.0, 0.0512, 10.0]))
    def test_transform_matches_matmul_reference(self, seed, m, d, scale):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-100, 100, (m, d))
        shift = rng.uniform(-80, 80, d)
        rotation = random_rotation(rng, d)
        reference = scale * ((points - shift) @ rotation.T)
        worst = np.abs(scale * _transform(points, shift, rotation) - reference).max()
        assert worst <= 1e-12 * np.abs(reference).max()


# The kernels as they were written before their Python-wrapper calls were cut;
# each rewrite must reproduce them bit for bit.


def schwefel_three_branch(z):
    d = z.shape[-1]
    u = z + _SCHWEFEL_MU
    au = np.abs(u)
    m = np.mod(au, 500.0)
    g_core = u * np.sin(np.sqrt(au))
    g_hi = (500.0 - m) * np.sin(np.sqrt(np.abs(500.0 - m))) - (u - 500.0) ** 2 / (10000.0 * d)
    g_lo = (m - 500.0) * np.sin(np.sqrt(np.abs(m - 500.0))) - (u + 500.0) ** 2 / (10000.0 * d)
    g = np.where(u > 500.0, g_hi, np.where(u < -500.0, g_lo, g_core))
    return np.sum(_SCHWEFEL_PEAK - g, axis=-1)


def schwefel_two_branch(z):
    # the fold above +500 and the fold below -500 as separate branches
    d = z.shape[-1]
    u = z + _SCHWEFEL_MU
    g = u * np.sin(np.sqrt(np.abs(u)))
    hi = u > 500.0
    uh = u[hi]
    m = np.mod(uh, 500.0)
    g[hi] = (500.0 - m) * np.sin(np.sqrt(np.abs(500.0 - m))) - (uh - 500.0) ** 2 / (10000.0 * d)
    lo = u < -500.0
    ul = u[lo]
    m = np.mod(np.abs(ul), 500.0)
    g[lo] = (m - 500.0) * np.sin(np.sqrt(np.abs(m - 500.0))) - (ul + 500.0) ** 2 / (10000.0 * d)
    return np.add.reduce(_SCHWEFEL_PEAK - g, -1)


def ackley_mean_form(z):
    rms = np.sqrt(np.mean(z * z, axis=-1))
    mean_cos = np.mean(np.cos(2.0 * np.pi * z), axis=-1)
    return (20.0 - 20.0 * np.exp(-0.2 * rms)) + (float(np.exp(1.0)) - np.exp(mean_cos))


def griewank_prod_form(z):
    d = z.shape[-1]
    s = np.sum(z * z, axis=-1) / 4000.0
    p = np.prod(np.cos(z / np.sqrt(np.arange(1.0, d + 1.0))), axis=-1)
    return (1.0 + s) - p


def composite_stacking_shifts(fn, points):
    d = points.shape[-1]
    shifts = np.stack([c.shift for c in fn.components])
    sq_dist = np.sum((points[:, None, :] - shifts[None, :, :]) ** 2, axis=-1)
    sigmas = np.asarray(fn.sigmas)
    hit = sq_dist == 0.0
    vals = component_values(fn, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.exp(-sq_dist / (2.0 * d * sigmas**2)) / np.sqrt(sq_dist)
        wsum = w.sum(axis=1, keepdims=True)
        flat = wsum[:, 0] == 0.0
        if flat.any():
            w[flat] = 1.0
            wsum[flat] = w.shape[1]
        out = np.sum((w / wsum) * vals, axis=1)
    hit_rows = hit.any(axis=1)
    if hit_rows.any():
        first = np.argmax(hit[hit_rows], axis=1)
        out[hit_rows] = vals[hit_rows, first]
    return out + fn.bias


def one_class_form(fn, points):
    """A block function as the two classes it replaced scored it: a plain base
    as its base of the scaled transform plus the bias, a hybrid as a sum that
    starts from zeros, over blocks cut as they cut them."""
    d = points.shape[-1]
    if len(fn.bases) == 1:
        z = fn.scales[0] * np.einsum("ij,kj->ik", points - fn.shift, fn.rotation)
        return BASE_FUNCTIONS[fn.bases[0]](z) + fn.bias
    z = np.einsum("ij,kj->ik", points - fn.shift, fn.rotation)
    edges = np.linspace(0, d, min(len(fn.bases), d) + 1).astype(int)
    total = np.zeros(len(points))
    for base, scale, lo, hi in zip(fn.bases, fn.scales, edges[:-1], edges[1:]):
        total += BASE_FUNCTIONS[base](scale * z[:, lo:hi])
    return total + fn.bias


# z coordinates whose u = z + mu lands on, or within a few ulps of, +-500
SCHWEFEL_EDGES = np.array([
    u - _SCHWEFEL_MU for edge in (500.0, -500.0) for u in edge + np.arange(-3, 4) * np.spacing(500.0)
])


class TestKernelOracles:
    """Each rewritten kernel against its earlier form, compared bitwise."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), d=st.sampled_from(SUITE_DIMS),
           spread=st.sampled_from([100.0, 1000.0, 5000.0]))
    def test_schwefel_matches_three_branch_form(self, seed, m, d, spread):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-spread, spread, (m, d))
        k = min(z.size, len(SCHWEFEL_EDGES))
        z.flat[rng.choice(z.size, k, replace=False)] = SCHWEFEL_EDGES[:k]
        assert_same_bits(schwefel(z), schwefel_three_branch(z), "schwefel")

    @pytest.mark.parametrize("d", SUITE_DIMS)
    def test_schwefel_one_fold_matches_two_branch_form(self, d):
        # 10 000 rows reaching both folds, with every edge coordinate and a row at the optimum
        rng = np.random.default_rng(d)
        z = rng.uniform(-1000.0, 1000.0, (10_000, d))
        z[0] = 0.0
        z[1:].flat[rng.choice(z.size - d, len(SCHWEFEL_EDGES), replace=False)] = SCHWEFEL_EDGES
        u = z + _SCHWEFEL_MU
        assert (u > 500.0).any() and (u < -500.0).any() and (u == 500.0).any()
        values = schwefel(z)
        assert_same_bits(values, schwefel_two_branch(z), f"schwefel d={d}")
        assert values[0] == 0.0

    def test_schwefel_edge_coordinates_reach_the_fold(self):
        # the edges put u on both sides of each fold and exactly on +500; no
        # double z gives u = -500 exactly, since -500 - mu is not a double
        u = SCHWEFEL_EDGES + _SCHWEFEL_MU
        assert 500.0 in u
        for edge in (500.0, -500.0):
            assert (u > edge).sum() >= 2 and (u < edge).sum() >= 2
            assert np.abs(u - edge).min() <= np.spacing(500.0)
        z = SCHWEFEL_EDGES[None, :]
        assert_same_bits(schwefel(z), schwefel_three_branch(z), "schwefel edges")

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), d=st.sampled_from(SUITE_DIMS),
           scale=st.sampled_from([0.01, 1.0, 32.0, 600.0]))
    def test_ackley_and_griewank_match_numpy_mean_and_prod(self, seed, m, d, scale):
        z = scale * np.random.default_rng(seed).uniform(-1, 1, (m, d))
        assert_same_bits(ackley(z), ackley_mean_form(z), "ackley")
        assert_same_bits(griewank(z), griewank_prod_form(z), "griewank")

    @settings(max_examples=30, deadline=None)
    @given(suite_seed=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
           d=st.sampled_from(SUITE_DIMS), bias=st.sampled_from([None, 0.0, -0.0, 300.0]))
    def test_block_functions_match_their_two_class_forms(self, suite_seed, seed, m, d, bias):
        # every plain base, hybrid and composite component of the suite, with
        # its own bias (0, 100, ..., 1000) or the drawn one, on rows that
        # include one exactly at the shift
        rng = np.random.default_rng(seed)
        for spec in make_suite(suite_seed, d):
            for fn in shifted_blocks(spec):
                if bias is not None:
                    fn = replace(fn, bias=bias)
                points = rng.uniform(-100, 100, (m, d))
                points[0] = fn.shift
                values = fn.values(points)
                assert_same_bits(values, one_class_form(fn, points), f"{spec.id} bias {fn.bias}")
                assert values[0] == fn.bias, spec.id

    @pytest.mark.parametrize("d", SUITE_DIMS)
    def test_composite_matches_per_call_stacking(self, d):
        rng = np.random.default_rng(d)
        for spec in make_suite(4, d)[8:]:
            points = rng.uniform(-100, 100, (30, d))
            points[3] = spec.fn.components[1].shift  # on a shift: that component alone
            points[7] = spec.fn.components[0].shift
            points[11] = 1e5  # every weight underflows: equal weights
            assert_same_bits(spec.fn.values(points), composite_stacking_shifts(spec.fn, points), spec.id)
