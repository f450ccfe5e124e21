"""Box-constrained benchmark functions with seeded shifts and rotations.

The suite mirrors the usual four-category layout of competition benchmarks
(unimodal, multimodal, hybrid, composite) on the default box [-100, 100]^d,
but every function is generated from a seed and carries an analytically known
optimum, so runs are self-contained and error values are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
# exp(1.0) rather than np.e so the Ackley value cancels bitwise at the optimum
_E = float(np.exp(1.0))
_SCHWEFEL_MU = 420.9687462275036
_SCHWEFEL_PEAK = float(_SCHWEFEL_MU * np.sin(np.sqrt(_SCHWEFEL_MU)))

CATEGORIES = ("unimodal", "multimodal", "hybrid", "composite")


class BudgetExceeded(RuntimeError):
    """Raised when an evaluation would overrun the evaluation budget."""


@dataclass
class SearchBounds:
    """Uniform per-dimension box bounds for the decision variables."""

    lower: float = -100.0
    upper: float = 100.0

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"lower bound must be below upper bound, got [{self.lower}, {self.upper}]")

    @property
    def span(self) -> float:
        return self.upper - self.lower


@dataclass
class EvaluationCounter:
    """Tracks objective evaluations against a hard budget."""

    budget: int
    used: int = 0

    def spend(self, amount: int) -> None:
        if self.used + amount > self.budget:
            raise BudgetExceeded(f"budget of {self.budget} evaluations exhausted ({self.used} used, {amount} requested)")
        self.used += amount


# --- base functions, applied to already shifted/rotated coordinates ---------
# Each takes z of shape (m, d) and returns (m,).  All have their global
# minimum exactly 0.0 at z = 0, including in floating point.


# Reductions call the ufunc's `reduce` directly: it is what np.sum, np.mean
# and np.prod run underneath, in the same order, without their Python wrappers.


def sphere(z):
    return np.add.reduce(z * z, -1)


def bent_cigar(z):
    return z[..., 0] ** 2 + 1e6 * np.add.reduce(z[..., 1:] ** 2, -1)


def rastrigin(z):
    return np.add.reduce(z * z - 10.0 * np.cos(TWO_PI * z) + 10.0, -1)


def ackley(z):
    d = z.shape[-1]
    rms = np.sqrt(np.add.reduce(z * z, -1) / d)
    mean_cos = np.add.reduce(np.cos(TWO_PI * z), -1) / d
    return (20.0 - 20.0 * np.exp(-0.2 * rms)) + (_E - np.exp(mean_cos))


def griewank(z):
    d = z.shape[-1]
    s = np.add.reduce(z * z, -1) / 4000.0
    p = np.multiply.reduce(np.cos(z / np.sqrt(np.arange(1.0, d + 1.0))), -1)
    return (1.0 + s) - p


def schwefel(z):
    # Coordinates beyond |u| = 500 are folded back with a quadratic penalty so
    # the global minimum stays exactly 0 at z = 0 for any box/rotation.  The
    # fold is computed only on the coordinates that need it.
    d = z.shape[-1]
    u = z + _SCHWEFEL_MU
    g = u * np.sin(np.sqrt(np.abs(u)))
    hi = u > 500.0
    if hi.any():
        uh = u[hi]
        m = np.mod(uh, 500.0)
        g[hi] = (500.0 - m) * np.sin(np.sqrt(np.abs(500.0 - m))) - (uh - 500.0) ** 2 / (10000.0 * d)
    lo = u < -500.0
    if lo.any():
        ul = u[lo]
        m = np.mod(np.abs(ul), 500.0)
        g[lo] = (m - 500.0) * np.sin(np.sqrt(np.abs(m - 500.0))) - (ul + 500.0) ** 2 / (10000.0 * d)
    return np.add.reduce(_SCHWEFEL_PEAK - g, -1)


BASE_FUNCTIONS = {
    "sphere": sphere,
    "bent_cigar": bent_cigar,
    "rastrigin": rastrigin,
    "ackley": ackley,
    "griewank": griewank,
    "schwefel": schwefel,
}
UNIMODAL_BASES = ("sphere", "bent_cigar")
MULTIMODAL_BASES = ("rastrigin", "ackley", "griewank", "schwefel")

# domain scaling used when a base is embedded in the [-100, 100] suite box,
# mapping it onto its natural domain (competition-style shrink rates)
SUITE_SCALES = {
    "sphere": 1.0,
    "bent_cigar": 1.0,
    "rastrigin": 5.12 / 100.0,
    "ackley": 32.0 / 100.0,
    "griewank": 600.0 / 100.0,
    "schwefel": 1000.0 / 100.0,
}


# --- function payloads -------------------------------------------------------
# Plain dataclasses (picklable, so runs can be farmed out to worker processes).


def _transform(points, shift, rotation, scale):
    # unoptimized einsum sums each row in an order fixed by d alone, so a row is
    # bitwise-identical at any batch size, offset or alignment, with no (m, d, d)
    # temporary; `@` (or optimize=True) goes to BLAS, whose blocking follows m
    return scale * np.einsum("ij,kj->ik", points - shift, rotation)


@dataclass(eq=False)
class ShiftedBase:
    """A single base function under shift/rotation plus a constant offset.

    `scale` maps the box onto the base's natural domain before evaluation.
    """

    base: str
    shift: np.ndarray
    rotation: np.ndarray
    bias: float = 0.0
    scale: float = 1.0

    def values(self, points: np.ndarray) -> np.ndarray:
        z = _transform(points, self.shift, self.rotation, self.scale)
        return BASE_FUNCTIONS[self.base](z) + self.bias


@dataclass(eq=False)
class HybridBlocks:
    """Contiguous coordinate blocks, each scored by a different base function.

    All blocks share one shift and rotation, so the global optimum sits at the
    shift with value exactly `bias`.
    """

    bases: tuple[str, ...]
    shift: np.ndarray
    rotation: np.ndarray
    bias: float = 0.0
    scales: tuple[float, ...] | None = None
    # (base, scale, block) per block, fixed by the fields above
    blocks: list[tuple[str, float, slice]] = field(init=False, repr=False)

    def __post_init__(self):
        scales = self.scales or (1.0,) * len(self.bases)
        self.blocks = list(zip(self.bases, scales, self.block_slices(len(self.shift))))

    def block_slices(self, dimension: int) -> list[slice]:
        k = min(len(self.bases), dimension)
        edges = np.linspace(0, dimension, k + 1).astype(int)
        return [slice(int(edges[i]), int(edges[i + 1])) for i in range(k)]

    def values(self, points: np.ndarray) -> np.ndarray:
        z = _transform(points, self.shift, self.rotation, 1.0)
        total = np.zeros(len(points))
        for base, scale, block in self.blocks:
            total += BASE_FUNCTIONS[base](scale * z[:, block])
        return total + self.bias


@dataclass(eq=False)
class WeightedComposite:
    """Distance-weighted blend of shifted multimodal components.

    Component m contributes g_m(x) + offset_m with a normalized weight that
    decays with the distance from x to that component's shift; a point exactly
    on a shift receives that component's value alone.  Offsets are distinct
    and include 0, so the global minimum is exactly `bias`, attained at the
    shift of the zero-offset component.
    """

    components: tuple[ShiftedBase, ...]
    sigmas: tuple[float, ...]
    bias: float = 0.0
    # fixed by the fields above, so computed once rather than on every call
    shifts: np.ndarray = field(init=False, repr=False)
    width: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.shifts = np.stack([c.shift for c in self.components])
        self.width = 2.0 * self.shifts.shape[-1] * np.asarray(self.sigmas) ** 2

    def component_values(self, points: np.ndarray) -> np.ndarray:
        return np.stack([c.values(points) for c in self.components], axis=1)

    def values(self, points: np.ndarray) -> np.ndarray:
        sq_dist = np.add.reduce((points[:, None, :] - self.shifts[None, :, :]) ** 2, -1)
        hit = sq_dist == 0.0
        vals = self.component_values(points)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.exp(-sq_dist / self.width) / np.sqrt(sq_dist)
            wsum = np.add.reduce(w, 1, keepdims=True)
            flat = wsum[:, 0] == 0.0  # all weights underflowed: fall back to equal weights
            if flat.any():
                w[flat] = 1.0
                wsum[flat] = w.shape[1]
            out = np.add.reduce((w / wsum) * vals, 1)
        hit_rows = hit.any(axis=1)
        if hit_rows.any():
            first = np.argmax(hit[hit_rows], axis=1)
            out[hit_rows] = vals[hit_rows, first]
        return out + self.bias


@dataclass(eq=False)
class ObjectiveSpec:
    """A benchmark problem instance: function, box, and known optimum."""

    id: str
    category: str
    dimension: int
    bounds: SearchBounds
    shift: np.ndarray
    rotation: np.ndarray
    f_opt: float
    suite_seed: int
    fn: ShiftedBase | HybridBlocks | WeightedComposite = field(repr=False, default=None)

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        self.shift = np.asarray(self.shift, dtype=float)
        self.rotation = np.asarray(self.rotation, dtype=float)
        if self.shift.shape != (self.dimension,):
            raise ValueError("shift length must match dimension")
        if self.rotation.shape != (self.dimension, self.dimension):
            raise ValueError("rotation must be a d x d matrix")
        err = np.abs(self.rotation @ self.rotation.T - np.eye(self.dimension)).max()
        if err > 1e-9:
            raise ValueError(f"rotation is not orthonormal (max deviation {err:.3e})")
        if not (self.shift > self.bounds.lower).all() or not (self.shift < self.bounds.upper).all():
            raise ValueError("shift must lie strictly inside the bounds")


def evaluate_batch(spec: ObjectiveSpec, points: np.ndarray, counter: EvaluationCounter) -> np.ndarray:
    """Evaluate an (m, d) batch of points, charging m evaluations at once.

    A batch with any non-finite value (NaN or +-inf) raises ValueError naming
    the function and the number of such rows, before any of it is used.
    """
    if points.ndim != 2 or points.shape[1] != spec.dimension:
        raise ValueError(f"points have shape {points.shape}, expected (m, {spec.dimension})")
    counter.spend(len(points))
    values = spec.fn.values(points)
    if not np.isfinite(values).all():
        bad = len(values) - int(np.isfinite(values).sum())
        raise ValueError(f"{spec.id}: {bad} of {len(values)} rows evaluated to NaN or +-inf")
    return values


def random_rotation(rng: np.random.Generator, dimension: int) -> np.ndarray:
    """Orthonormal matrix from the QR factorization of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    return q * np.sign(np.diag(r))


def _draw_shift(rng: np.random.Generator, dimension: int, bounds: SearchBounds) -> np.ndarray:
    # keep optima away from the walls, like the usual 80%-of-box convention
    margin = 0.1 * bounds.span
    return rng.uniform(bounds.lower + margin, bounds.upper - margin, dimension)


def base_spec(
    name: str,
    dimension: int,
    *,
    bounds: SearchBounds | None = None,
    shift: np.ndarray | None = None,
    rotation: np.ndarray | None = None,
    bias: float = 0.0,
    scale: float = 1.0,
    suite_seed: int = 0,
) -> ObjectiveSpec:
    """Build a standalone spec for one base function (identity transform by default)."""
    if name not in BASE_FUNCTIONS:
        raise ValueError(f"unknown base function {name!r}")
    bounds = bounds or SearchBounds()
    if shift is None:
        shift = np.zeros(dimension)
    if rotation is None:
        rotation = np.eye(dimension)
    category = "unimodal" if name in UNIMODAL_BASES else "multimodal"
    return ObjectiveSpec(
        id=name,
        category=category,
        dimension=dimension,
        bounds=bounds,
        shift=np.asarray(shift, dtype=float),
        rotation=np.asarray(rotation, dtype=float),
        f_opt=bias,
        suite_seed=suite_seed,
        fn=ShiftedBase(name, np.asarray(shift, dtype=float), np.asarray(rotation, dtype=float), bias, scale),
    )


_HYBRID_MIXES = {
    "hybrid_1": ("rastrigin", "griewank", "sphere"),
    "hybrid_2": ("ackley", "schwefel", "bent_cigar"),
}
_COMPOSITE_MIXES = {
    "composite_1": (("rastrigin", "griewank", "ackley"), (10.0, 20.0, 30.0)),
    "composite_2": (("schwefel", "rastrigin", "ackley"), (10.0, 30.0, 50.0)),
}
_COMPONENT_OFFSETS = (0.0, 100.0, 200.0)


def make_suite(suite_seed: int, dimension: int, bounds: SearchBounds | None = None) -> list[ObjectiveSpec]:
    """Generate the fixed 10-function suite for one seed and dimension.

    Order: 2 unimodal, 4 multimodal, 2 hybrid, 2 composite.  Function i
    carries a constant offset of 100*(i+1), which is also its f_opt.
    """
    if dimension < 2:
        raise ValueError("suite requires dimension >= 2")
    bounds = bounds or SearchBounds()
    rng = np.random.default_rng(suite_seed)
    specs: list[ObjectiveSpec] = []

    def register(spec_id, category, shift, rotation, f_opt, fn):
        specs.append(
            ObjectiveSpec(
                id=spec_id,
                category=category,
                dimension=dimension,
                bounds=bounds,
                shift=shift,
                rotation=rotation,
                f_opt=f_opt,
                suite_seed=suite_seed,
                fn=fn,
            )
        )

    for name in UNIMODAL_BASES + MULTIMODAL_BASES:
        bias = 100.0 * (len(specs) + 1)
        shift = _draw_shift(rng, dimension, bounds)
        rotation = random_rotation(rng, dimension)
        category = "unimodal" if name in UNIMODAL_BASES else "multimodal"
        register(name, category, shift, rotation, bias, ShiftedBase(name, shift, rotation, bias, SUITE_SCALES[name]))

    for hybrid_id, mix in _HYBRID_MIXES.items():
        bias = 100.0 * (len(specs) + 1)
        shift = _draw_shift(rng, dimension, bounds)
        rotation = random_rotation(rng, dimension)
        scales = tuple(SUITE_SCALES[name] for name in mix)
        register(hybrid_id, "hybrid", shift, rotation, bias, HybridBlocks(mix, shift, rotation, bias, scales))

    for comp_id, (mix, sigmas) in _COMPOSITE_MIXES.items():
        bias = 100.0 * (len(specs) + 1)
        components = tuple(
            ShiftedBase(name, _draw_shift(rng, dimension, bounds), random_rotation(rng, dimension), offset, SUITE_SCALES[name])
            for name, offset in zip(mix, _COMPONENT_OFFSETS)
        )
        fn = WeightedComposite(components, sigmas, bias)
        # the spec-level shift/rotation are those of the zero-offset component,
        # i.e. the location of the global optimum
        register(comp_id, "composite", components[0].shift, components[0].rotation, bias, fn)

    return specs


def describe_suite(specs: list[ObjectiveSpec]) -> str:
    """One-line-per-function structured text description of a suite."""
    lines = []
    for s in specs:
        lines.append(
            f"id={s.id} category={s.category} d={s.dimension} "
            f"lower={s.bounds.lower!r} upper={s.bounds.upper!r} "
            f"f_opt={s.f_opt!r} suite_seed={s.suite_seed}"
        )
    return "\n".join(lines) + "\n"
