"""Elite-position mutation: pull toward an archived personal best plus a
scaled difference of two random elite peers.

The j-th ranked elite moves toward the j-th entry of the phi archive, with
per-dimension uniform[0, 1] scaling of both terms.  Replacement is
unconditional; personal-best memory protects solution quality.  Velocities
are untouched.
"""

from __future__ import annotations

import numpy as np

from .objective import SearchBounds


def draw_partners(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """For each j in 0..m-1, draw a uniform pair (g, h) with j, g, h all distinct."""
    if m < 3:
        raise ValueError(f"need at least 3 elites to draw distinct partners, got {m}")
    j = np.arange(m)
    g = rng.integers(0, m - 1, size=m)
    g += g >= j
    lo = np.minimum(j, g)
    hi = np.maximum(j, g)
    h = rng.integers(0, m - 2, size=m)
    h += h >= lo
    h += h >= hi
    return g, h


def mutate_elites(
    elite_positions: np.ndarray,
    phi_positions: np.ndarray,
    bounds: SearchBounds,
    rng: np.random.Generator,
    *,
    delta1: np.ndarray | None = None,
    delta2: np.ndarray | None = None,
    partners: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Mutate the whole elite subgroup from one snapshot.

    Row j becomes x_j + delta1*(phi_j - x_j) + delta2*(x_g - x_h), clamped
    into the box, with g, h from `draw_partners`.  delta1/delta2/partners
    override the random draws (test hooks).
    """
    elite_positions = np.asarray(elite_positions, dtype=float)
    m, d = elite_positions.shape
    if partners is None:
        g, h = draw_partners(m, rng)
    else:
        g, h = partners
    if delta1 is None:
        delta1 = rng.uniform(size=(m, d))
    if delta2 is None:
        delta2 = rng.uniform(size=(m, d))
    mutated = (
        elite_positions
        + delta1 * (phi_positions - elite_positions)
        + delta2 * (elite_positions[g] - elite_positions[h])
    )
    return np.clip(mutated, bounds.lower, bounds.upper)
