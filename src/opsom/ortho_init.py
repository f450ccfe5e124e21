"""Orthogonal-array construction and OA-based swarm initialization.

Arrays come from the classical basic-plus-interaction-column family over a
prime number of levels: with J basic columns there are alpha^J rows and
(alpha^J - 1)/(alpha - 1) columns, and any two columns contain every ordered
level pair equally often (strength 2).  Rows are mapped affinely into the
search box - level 1 lands exactly on the lower bound and level alpha exactly
on the upper bound - to give the optimizer an evenly spread initial swarm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import EvaluationCounter, ObjectiveSpec, SearchBounds, evaluate_batch

DEFAULT_ROW_CAP = 4096


@dataclass(eq=False)
class OrthogonalArray:
    """A rows x cols matrix over levels {1..alpha} with strength-2 balance."""

    levels: int
    entries: np.ndarray

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n**0.5) + 1))


def array_shape(levels: int, min_factors: int) -> tuple[int, int, int]:
    """Smallest (J, rows, cols) of the constructed family with cols >= min_factors."""
    j = 1
    while (levels**j - 1) // (levels - 1) < min_factors:
        j += 1
    return j, levels**j, (levels**j - 1) // (levels - 1)


def construct_oa(levels: int, min_factors: int, *, row_cap: int = DEFAULT_ROW_CAP) -> OrthogonalArray:
    """Construct the smallest strength-2 array with at least `min_factors` columns.

    Basic column k sits at index (levels**(k-1) - 1)/(levels - 1) and cycles
    through the levels in blocks; every other column is a mod-levels linear
    combination of an earlier column with the nearest basic column to its left.
    Requires a prime level count.
    """
    if not _is_prime(levels):
        raise ValueError(f"level count must be prime, got {levels}")
    if min_factors < 1:
        raise ValueError("min_factors must be at least 1")
    j_cols, rows, cols = array_shape(levels, min_factors)
    if rows > row_cap:
        raise ValueError(f"array would need {rows} rows, exceeding the cap of {row_cap}")

    a = np.zeros((rows, cols), dtype=np.int64)
    row_index = np.arange(rows)
    for k in range(1, j_cols + 1):
        basic = (levels ** (k - 1) - 1) // (levels - 1)
        a[:, basic] = (row_index // levels ** (j_cols - k)) % levels
        for s in range(basic):
            for t in range(1, levels):
                a[:, basic + s * (levels - 1) + t] = (a[:, s] * t + a[:, basic]) % levels
    return OrthogonalArray(levels=levels, entries=a + 1)


def verify_oa(oa: OrthogonalArray) -> bool:
    """Exhaustively check strength-2 balance (and per-column level balance).

    Returns False for malformed arrays instead of raising.
    """
    a = np.asarray(oa.entries)
    alpha = oa.levels
    if a.ndim != 2 or a.size == 0 or alpha < 2:
        return False
    if a.min() < 1 or a.max() > alpha:
        return False
    rows, cols = a.shape
    if rows % alpha:
        return False
    per_level = rows // alpha
    for c in range(cols):
        if not (np.bincount(a[:, c] - 1, minlength=alpha) == per_level).all():
            return False
    if cols >= 2:
        if rows % alpha**2:
            return False
        per_pair = rows // alpha**2
        for c1 in range(cols):
            for c2 in range(c1 + 1, cols):
                codes = (a[:, c1] - 1) * alpha + (a[:, c2] - 1)
                if not (np.bincount(codes, minlength=alpha**2) == per_pair).all():
                    return False
    return True


def map_to_search_space(oa: OrthogonalArray, bounds: SearchBounds, dimension: int) -> np.ndarray:
    """Map the first `dimension` columns of every row into the search box.

    Level 1 maps exactly onto the lower bound and level alpha exactly onto the
    upper bound; intermediate levels interpolate linearly.
    """
    if oa.cols < dimension:
        raise ValueError(f"array has {oa.cols} factors, need at least {dimension}")
    if oa.levels < 2:
        raise ValueError("mapping requires at least two levels")
    frac = (oa.entries[:, :dimension] - 1) / (oa.levels - 1)
    points = (1.0 - frac) * bounds.lower + frac * bounds.upper
    return np.clip(points, bounds.lower, bounds.upper)


def build_initial_swarm(
    n: int,
    spec: ObjectiveSpec,
    counter: EvaluationCounter,
    rng: np.random.Generator,
    *,
    levels: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Seed and score an initial swarm of exactly n positions from an OA.

    When the array has at least n rows, all rows are evaluated (charged to the
    counter) and the n fittest kept; otherwise all rows are kept and the
    remainder filled uniformly at random inside the bounds.
    """
    if n < 2 or n % 2:
        raise ValueError(f"population size must be even and >= 2, got {n}")
    d = spec.dimension
    oa = construct_oa(levels, d)
    points = map_to_search_space(oa, spec.bounds, d)
    if len(points) >= n:
        fitness = evaluate_batch(spec, points, counter)
        keep = np.argsort(fitness, kind="stable")[:n]
        return points[keep].copy(), fitness[keep].copy()
    fill = rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(n - len(points), d))
    positions = np.vstack([points, fill])
    fitness = evaluate_batch(spec, positions, counter)
    return positions, fitness


def format_oa(oa: OrthogonalArray) -> str:
    """Render an array as rows of space-separated levels."""
    return "\n".join(" ".join(str(v) for v in row) for row in oa.entries) + "\n"
