"""Box-constrained benchmark functions with seeded shifts and rotations.

The suite mirrors the usual four-category layout of competition benchmarks
(unimodal, multimodal, hybrid, composite) on the one box [-100, 100]^d,
but every function is generated from a seed and carries an analytically known
optimum, so runs are self-contained and error values are exact.  A plain
base function is the one-block case of a hybrid, and so is each composite
component: one class, `ShiftedBlocks`, scores them all and holds and validates
each shift and rotation once.
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
# the one search box, [LOWER, UPPER] in every coordinate, of every function
LOWER, UPPER = -100.0, 100.0


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
    # the global minimum stays exactly 0 at z = 0 for any rotation.  One pass
    # for both sides, exactly: u * sin(sqrt(|u|)) = sign(u) * (|u| * sin(sqrt(|u|))),
    # and with m = fmod(|u|, 500), fl(m - 500) = -fl(500 - m) and fl(u + 500)^2 = fl(|u| - 500)^2.
    d = z.shape[-1]
    u = z + _SCHWEFEL_MU
    a = np.abs(u)
    out = a > 500.0
    v = np.where(out, 500.0 - np.fmod(a, 500.0), a)
    g = np.sign(u) * (v * np.sin(np.sqrt(v))) - np.where(out, (a - 500.0) ** 2 / (10000.0 * d), 0.0)
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


def _transform(points, shift, rotation):
    # unoptimized einsum sums each row in an order fixed by d alone, so a row is
    # bitwise-identical at any batch size, offset or alignment, with no (m, d, d)
    # temporary; `@` (or optimize=True) goes to BLAS, whose blocking follows m
    return np.einsum("ij,kj->ik", points - shift, rotation)


@dataclass(eq=False)
class ShiftedBlocks:
    """Contiguous coordinate blocks of a shifted and rotated point, each scored
    by its own base function, plus a constant offset.

    A plain base function is the one-block case.  `scales` maps each block onto
    its base's natural domain.  The shift is a vector of length d and the
    rotation an orthonormal d x d matrix, so the global optimum sits at the
    shift with value exactly `bias`.
    """

    bases: tuple[str, ...]
    shift: np.ndarray
    rotation: np.ndarray
    bias: float
    scales: tuple[float, ...]
    # (base, scale, block) per block, fixed by the fields above
    blocks: list[tuple[str, float, slice]] = field(init=False, repr=False)

    def __post_init__(self):
        self.shift = np.asarray(self.shift, dtype=float)
        self.rotation = np.asarray(self.rotation, dtype=float)
        d = self.shift.size
        if d < 1 or self.shift.shape != (d,) or self.rotation.shape != (d, d):
            raise ValueError(f"shift {self.shift.shape} and rotation {self.rotation.shape} must be (d,) and (d, d)")
        err = np.abs(self.rotation @ self.rotation.T - np.eye(d)).max()
        if err > 1e-9:
            raise ValueError(f"rotation is not orthonormal (max deviation {err:.3e})")
        edges = np.linspace(0, d, min(len(self.bases), d) + 1).astype(int).tolist()
        self.blocks = list(zip(self.bases, self.scales, map(slice, edges[:-1], edges[1:])))

    def values(self, points: np.ndarray) -> np.ndarray:
        z = _transform(points, self.shift, self.rotation)
        (base, scale, block), *rest = self.blocks
        total = BASE_FUNCTIONS[base](scale * z[:, block])
        for base, scale, block in rest:
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

    components: tuple[ShiftedBlocks, ...]
    sigmas: tuple[float, ...]
    bias: float = 0.0
    # fixed by the fields above, so computed once rather than on every call
    shifts: np.ndarray = field(init=False, repr=False)
    width: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if all(c.bias != 0.0 for c in self.components):
            raise ValueError("a composite needs a zero-offset component, where its optimum sits")
        self.shifts = np.stack([c.shift for c in self.components])
        self.width = 2.0 * self.shifts.shape[-1] * np.asarray(self.sigmas) ** 2

    @property
    def shift(self) -> np.ndarray:
        """Where the global optimum sits: the zero-offset component's shift."""
        return next(c.shift for c in self.components if c.bias == 0.0)

    def values(self, points: np.ndarray) -> np.ndarray:
        sq_dist = np.add.reduce((points[:, None, :] - self.shifts[None, :, :]) ** 2, -1)
        hit = sq_dist == 0.0
        vals = np.stack([c.values(points) for c in self.components], axis=1)
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
    """A benchmark problem instance: a named function on the box, whose
    dimension and known optimum are read off the function itself."""

    id: str
    category: str
    fn: ShiftedBlocks | WeightedComposite = field(repr=False)

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if not ((self.fn.shift > LOWER) & (self.fn.shift < UPPER)).all():
            raise ValueError("shift must lie strictly inside the bounds")

    @property
    def dimension(self) -> int:
        return self.fn.shift.size

    @property
    def f_opt(self) -> float:
        return self.fn.bias


def evaluate_batch(spec: ObjectiveSpec, points: np.ndarray) -> np.ndarray:
    """Evaluate an (m, d) batch of points in one call.

    A batch with any non-finite value (NaN or +-inf) raises ValueError naming
    the function and the number of such rows, before any of it is used.
    """
    if points.ndim != 2 or points.shape[1] != spec.dimension:
        raise ValueError(f"points have shape {points.shape}, expected (m, {spec.dimension})")
    values = spec.fn.values(points)
    if not np.isfinite(values).all():
        bad = len(values) - int(np.isfinite(values).sum())
        raise ValueError(f"{spec.id}: {bad} of {len(values)} rows evaluated to NaN or +-inf")
    return values


def random_rotation(rng: np.random.Generator, dimension: int) -> np.ndarray:
    """Orthonormal matrix from the QR factorization of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    return q * np.sign(np.diag(r))


def _draw_shift(rng: np.random.Generator, dimension: int) -> np.ndarray:
    # keep optima away from the walls, like the usual 80%-of-box convention
    margin = 0.1 * (UPPER - LOWER)
    return rng.uniform(LOWER + margin, UPPER - margin, dimension)


def base_spec(
    name: str,
    dimension: int,
    *,
    shift: np.ndarray | None = None,
    rotation: np.ndarray | None = None,
    bias: float = 0.0,
) -> ObjectiveSpec:
    """Build a standalone spec for one base function (identity transform by default)."""
    if name not in BASE_FUNCTIONS:
        raise ValueError(f"unknown base function {name!r}")
    shift = np.zeros(dimension) if shift is None else np.asarray(shift, dtype=float)
    rotation = np.eye(dimension) if rotation is None else np.asarray(rotation, dtype=float)
    if shift.shape != (dimension,) or rotation.shape != (dimension, dimension):
        raise ValueError(f"shift {shift.shape} and rotation {rotation.shape} must be (d,) and (d, d) "
                         f"for d = {dimension}")
    category = "unimodal" if name in UNIMODAL_BASES else "multimodal"
    return ObjectiveSpec(name, category, ShiftedBlocks((name,), shift, rotation, bias, (1.0,)))


# (id, category, bases) of the suite's block functions, in suite order
_BLOCK_FUNCTIONS = (
    *((name, "unimodal", (name,)) for name in UNIMODAL_BASES),
    *((name, "multimodal", (name,)) for name in MULTIMODAL_BASES),
    ("hybrid_1", "hybrid", ("rastrigin", "griewank", "sphere")),
    ("hybrid_2", "hybrid", ("ackley", "schwefel", "bent_cigar")),
)
_COMPOSITE_MIXES = {
    "composite_1": (("rastrigin", "griewank", "ackley"), (10.0, 20.0, 30.0)),
    "composite_2": (("schwefel", "rastrigin", "ackley"), (10.0, 30.0, 50.0)),
}
_COMPONENT_OFFSETS = (0.0, 100.0, 200.0)


def make_suite(suite_seed: int, dimension: int) -> list[ObjectiveSpec]:
    """Generate the fixed 10-function suite for one seed and dimension.

    Order: 2 unimodal, 4 multimodal, 2 hybrid, 2 composite.  Function i
    carries a constant offset of 100*(i+1), which is also its f_opt.
    """
    if dimension < 2:
        raise ValueError("suite requires dimension >= 2")
    if suite_seed < 0:  # named here, not by the generator's bare "expected non-negative integer"
        raise ValueError(f"suite_seed must be non-negative, got {suite_seed}")
    rng = np.random.default_rng(suite_seed)

    def draw_blocks(bases, bias):
        # the shift is drawn before the rotation, and the suite's bits follow that order
        scales = tuple(SUITE_SCALES[name] for name in bases)
        return ShiftedBlocks(bases, _draw_shift(rng, dimension), random_rotation(rng, dimension), bias, scales)

    suite = []
    for spec_id, category, bases in _BLOCK_FUNCTIONS:
        suite.append(ObjectiveSpec(spec_id, category, draw_blocks(bases, 100.0 * (len(suite) + 1))))
    for comp_id, (mix, sigmas) in _COMPOSITE_MIXES.items():
        components = tuple(draw_blocks((name,), offset) for name, offset in zip(mix, _COMPONENT_OFFSETS))
        composite = WeightedComposite(components, sigmas, 100.0 * (len(suite) + 1))
        suite.append(ObjectiveSpec(comp_id, "composite", composite))
    return suite


def describe_suite(suite_seed: int, dimension: int) -> str:
    """One line per function of `make_suite(suite_seed, dimension)`, read off the suite's layout without drawing it."""
    layout = [(spec_id, category) for spec_id, category, _ in _BLOCK_FUNCTIONS]
    layout += [(comp_id, "composite") for comp_id in _COMPOSITE_MIXES]
    return "".join(
        f"id={spec_id} category={category} d={dimension} lower={LOWER!r} upper={UPPER!r} "
        f"f_opt={100.0 * (i + 1)!r} suite_seed={suite_seed}\n"
        for i, (spec_id, category) in enumerate(layout)
    )
