"""Elite-position mutation: pull toward an archived personal best plus a
scaled difference of two random elite peers.

The j-th ranked elite moves toward the j-th entry of the phi archive, with
per-dimension uniform[0, 1] scaling of both terms.  Replacement is
unconditional; personal-best memory protects solution quality.  Velocities
are untouched.
"""

from __future__ import annotations

import numpy as np

from .objective import LOWER, UPPER
from .swarm_core import particle_index, run_index


def draw_partners(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each j in 0..m-1 (m >= 3), a uniform pair (g, h) with j, g, h all distinct.

    `u` is (R, 2, m) uniforms in [0, 1), one (2, m) block per run: g is the
    `int(u[r, 0] * (m - 1))`-th index other than j, h the
    `int(u[r, 1] * (m - 2))`-th index other than j and g.  Returns (R, m) g and h.
    """
    runs, _, m = u.shape
    j = particle_index(runs, m)
    g = (u[:, 0] * (m - 1)).astype(np.intp)
    g += g >= j
    lo = np.minimum(j, g)
    hi = np.maximum(j, g)
    h = (u[:, 1] * (m - 2)).astype(np.intp)
    h += h >= lo
    h += h >= hi
    return g, h


def mutate_elites(
    elite_positions: np.ndarray,
    phi_positions: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Mutate every run's whole elite subgroup from one snapshot.

    `elite_positions` and `phi_positions` are (R, m, d).  Row j of run r becomes
    x_j + delta1*(phi_j - x_j) + delta2*(x_g - x_h), clamped into the box.
    `u` is (R, 2*m*(1 + d)) uniforms in [0, 1): per run the first 2*m go to
    `draw_partners`, then delta1 and delta2, each (m, d) in row-major order.
    """
    elite_positions = np.asarray(elite_positions, dtype=float)
    runs, m, d = elite_positions.shape
    g, h = draw_partners(u[:, : 2 * m].reshape(runs, 2, m))
    delta = u[:, 2 * m :].reshape(runs, 2, m, d)
    rows = run_index(runs)
    mutated = (
        elite_positions
        + delta[:, 0] * (phi_positions - elite_positions)
        + delta[:, 1] * (elite_positions[rows, g] - elite_positions[rows, h])
    )
    np.maximum(mutated, LOWER, out=mutated)
    return np.minimum(mutated, UPPER, out=mutated)
