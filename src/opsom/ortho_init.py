"""Orthogonal-array construction and OA-based swarm initialization.

Arrays come from the classical basic-plus-interaction-column family over a
prime number of levels: with J basic columns there are alpha^J rows and
(alpha^J - 1)/(alpha - 1) columns, and any two columns contain every ordered
level pair equally often (strength 2).  Rows are mapped affinely into the
search box - level 1 lands exactly on the lower bound and level alpha exactly
on the upper bound - to give the optimizer an evenly spread initial swarm.

`build_initial_swarm` starts the swarms of all R runs of a cell, for either
algorithm and every ablation, and scores them in one batch.  Runs without the
array (pso, or opsom with `--no-oa`) start uniformly at random; the harness
rejects `--no-oa` when only pso runs, as it would change nothing.
"""

from __future__ import annotations

import numpy as np

from .objective import LOWER, UPPER, ObjectiveSpec, evaluate_batch
from .swarm_core import run_index

ROW_CAP = 4096


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n**0.5) + 1))


def array_shape(levels: int, min_factors: int) -> tuple[int, int, int]:
    """Smallest (J, rows, cols) of the family with cols >= min_factors; levels prime, rows <= ROW_CAP."""
    # an array has levels**J >= levels rows; refusing here spares a huge primality test
    if levels > ROW_CAP:
        raise ValueError(f"array would need at least {levels} rows, exceeding the cap of {ROW_CAP}")
    if not _is_prime(levels):
        raise ValueError(f"level count must be prime, got {levels}")
    j = 1
    while (levels**j - 1) // (levels - 1) < min_factors:
        j += 1
    if levels**j > ROW_CAP:
        raise ValueError(f"array would need {levels**j} rows, exceeding the cap of {ROW_CAP}")
    return j, levels**j, (levels**j - 1) // (levels - 1)


def construct_oa(levels: int, min_factors: int) -> np.ndarray:
    """Construct the smallest strength-2 array with at least `min_factors` columns.

    The result is a (rows, cols) int array over the levels 1..`levels`.
    Basic column k sits at index (levels**(k-1) - 1)/(levels - 1) and cycles
    through the levels in blocks; every other column is a mod-levels linear
    combination of an earlier column with the nearest basic column to its left.
    Requires a prime level count.
    """
    if min_factors < 1:
        raise ValueError("min_factors must be at least 1")
    j_cols, rows, cols = array_shape(levels, min_factors)

    a = np.zeros((rows, cols), dtype=np.int64)
    row_index = np.arange(rows)
    for k in range(1, j_cols + 1):
        basic = (levels ** (k - 1) - 1) // (levels - 1)
        a[:, basic] = (row_index // levels ** (j_cols - k)) % levels
        for s in range(basic):
            for t in range(1, levels):
                a[:, basic + s * (levels - 1) + t] = (a[:, s] * t + a[:, basic]) % levels
    return a + 1


def map_to_search_space(oa: np.ndarray, levels: int, lower: float, upper: float, dimension: int) -> np.ndarray:
    """Map the first `dimension` columns of every row of a `levels`-level array into the box [lower, upper].

    Level 1 maps exactly onto `lower` and level `levels` exactly onto `upper`;
    intermediate levels interpolate linearly.  The array needs at least
    `dimension` columns, as `construct_oa(levels, dimension)` gives.
    """
    frac = (oa[:, :dimension] - 1) / (levels - 1)
    points = (1.0 - frac) * lower + frac * upper
    return np.clip(points, lower, upper)


def build_initial_swarm(
    n: int,
    spec: ObjectiveSpec,
    rngs: list[np.random.Generator],
    *,
    levels: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Seed and score the (R, n, d) initial swarms of R runs; return them and their (R, n) fitness.

    Every run starts with the rows of the `levels` array (none without one),
    then its generator fills up to n rows uniformly in the box, so each
    run scores max(n, array rows) points.  One batch scores all runs.  When
    the array has at least n rows, each run keeps its n fittest, in stable
    fitness order.  `OptimizerConfig.validate` checks n and the levels.
    """
    d = spec.dimension
    points = (np.empty((0, d)) if levels is None
              else map_to_search_space(construct_oa(levels, d), levels, LOWER, UPPER, d))
    fill = (max(n - len(points), 0), d)
    positions = np.stack([np.vstack([points, rng.uniform(LOWER, UPPER, fill)]) for rng in rngs])
    fitness = evaluate_batch(spec, positions.reshape(-1, d)).reshape(len(rngs), -1)
    if len(points) < n:
        return positions, fitness
    keep = fitness.argsort(1, kind="stable")[:, :n]
    rows = run_index(len(rngs))
    return positions[rows, keep], fitness[rows, keep]


def format_oa(oa: np.ndarray) -> str:
    """Render an array as rows of space-separated levels."""
    return "\n".join(" ".join(str(v) for v in row) for row in oa) + "\n"
