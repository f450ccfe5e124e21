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
    rng: np.random.Generator,
    *,
    r1: np.ndarray | None = None,
    r2: np.ndarray | None = None,
    r3: np.ndarray | None = None,
) -> np.ndarray:
    """New velocity r1*v + r2*(guide - x) + r3*(gbest - x), clamped to +-v_max.

    The r vectors are fresh per-dimension uniform[0, 1] draws unless supplied
    explicitly (test hook; also used to pin r1 to a fixed inertia weight).
    Works on a single (d,) particle or a stacked (m, d) batch.
    """
    shape = np.shape(velocity)
    if r1 is None:
        r1 = rng.uniform(size=shape)
    if r2 is None:
        r2 = rng.uniform(size=shape)
    if r3 is None:
        r3 = rng.uniform(size=shape)
    velocity = r1 * velocity + r2 * (guide_position - position) + r3 * (gbest_position - position)
    return np.clip(velocity, -v_max, v_max)
