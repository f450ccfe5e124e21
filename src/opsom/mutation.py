"""Elite-position mutation: pull toward an archived personal best plus a
scaled difference of two random elite peers.

The j-th ranked elite moves toward the j-th entry of the phi archive, with
per-dimension uniform[0, 1] scaling of both terms.  Replacement is
unconditional; personal-best memory protects solution quality.  The result
is not clamped here: the step clamps the whole swarm once, with
`swarm_core.handle_bounds`, which leaves the elites' velocities untouched.
"""

from __future__ import annotations

import numpy as np


def draw_partners(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each j in 0..m-1 (m >= 3), a uniform pair (g, h) with j, g, h all distinct.

    `u` is (..., 2, m) uniforms in [0, 1), one (2, m) block per leading
    index: g is the `int(u[..., 0, j] * (m - 1))`-th index other than j, h the
    `int(u[..., 1, j] * (m - 2))`-th index other than j and g.  Returns
    (..., m) g and h.
    """
    m = u.shape[-1]
    j = np.arange(m)
    g = (u[..., 0, :] * (m - 1)).astype(np.intp)
    g += g >= j
    lo = np.minimum(j, g)
    hi = np.maximum(j, g)
    h = (u[..., 1, :] * (m - 2)).astype(np.intp)
    h += h >= lo
    h += h >= hi
    return g, h


def mutate_elites(
    elite_positions: np.ndarray,
    phi_positions: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    delta: np.ndarray,
) -> np.ndarray:
    """Mutate every run's whole elite subgroup from one snapshot.

    `elite_positions` and `phi_positions` are (R, m, d).  Row j of run r becomes
    x_j + delta1*(phi_j - x_j) + delta2*(x_g - x_h), which may leave the box.
    `g` and `h` (R, m) are the partners `draw_partners` picks, as rows of the
    flat (R*m, d) elite stack (run r's partners plus r*m); `delta` is
    (R, 2, m, d) uniforms in [0, 1): delta1, then delta2.
    """
    stack = elite_positions.reshape(-1, elite_positions.shape[-1])
    return (
        elite_positions
        + delta[:, 0] * (phi_positions - elite_positions)
        + delta[:, 1] * (stack.take(g, 0) - stack.take(h, 0))
    )
