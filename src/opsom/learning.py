"""The archive-guided velocity update for regular particles.

The three schemes share one update rule and differ only in which archive
supplies the guide: the representative with the best fitness wins, with ties
resolved in favor of phi, then psi, then chi (see `optimizer._archive_guides`).
The update replaces the fixed inertia weight with a fresh uniform draw per
dimension.
"""

from __future__ import annotations

import numpy as np


def regular_velocity_update(
    velocity: np.ndarray,
    position: np.ndarray,
    guide_position: np.ndarray,
    gbest_position: np.ndarray,
    v_max: float,
    r1: np.ndarray | float,
    r2: np.ndarray,
    r3: np.ndarray,
) -> np.ndarray:
    """New velocity r1*v + r2*(guide - x) + r3*(gbest - x), clamped to +-v_max.

    The r vectors are per-dimension uniform[0, 1] draws made by the caller;
    r1 may be a fixed inertia weight instead.  Works on a single (d,)
    particle or a stacked (m, d) batch.
    """
    velocity = r1 * velocity + r2 * (guide_position - position) + r3 * (gbest_position - position)
    np.maximum(velocity, -v_max, out=velocity)
    return np.minimum(velocity, v_max, out=velocity)
