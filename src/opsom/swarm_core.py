"""Swarm state, the velocity rule, boundary handling, and best bookkeeping.

State is kept as (R, n, d) arrays: the R runs of one `run_cell` call, of one
cell or of several, advanced in lockstep.  All fitness comparisons are minimizing and personal/global bests
are replaced only on strict improvement, so plateaus never churn positions.
"""

from __future__ import annotations

import functools

import numpy as np

from .objective import LOWER, UPPER

# Clerc and Kennedy's constriction coefficients (IEEE TEC 6(1), 2002) and a velocity clamp of a fifth of the box
INERTIA = 0.729
COGNITIVE = SOCIAL = 1.49445
V_MAX = 0.2 * (UPPER - LOWER)


@functools.cache
def flat_rows(runs: int, stride: int, width: int = 1) -> np.ndarray:
    """Read-only (runs, width) array of r*stride + j for j < width.

    Seen through its flat (R*k, ...) view, an (R, k, ...) array holds run r's
    rows from r*k on, so adding the (R, 1) column `flat_rows(R, k)` to per-run
    indices gives flat rows: `take` gathers them and assignment scatters to
    them, at a third of the cost of `a[run, idx]` indexing.
    """
    index = np.arange(runs)[:, None] * stride + np.arange(width)
    index.flags.writeable = False
    return index


class SwarmState:
    """Positions, velocities, fitnesses, and best-so-far memory of R swarms.

    positions, velocities and pbest_positions are (R, n, d); fitness and
    pbest_fitness (R, n); gbest_position (R, d) and gbest_fitness (R,).
    """

    def __init__(self, positions: np.ndarray, velocities: np.ndarray, fitness: np.ndarray):
        # contiguous, so that the step scatters through flat views of them
        positions = np.ascontiguousarray(positions, dtype=float)
        velocities = np.ascontiguousarray(velocities, dtype=float)
        fitness = np.asarray(fitness, dtype=float)
        if positions.ndim != 3 or velocities.shape != positions.shape:
            raise ValueError("positions and velocities must both have shape (R, n, d)")
        if fitness.shape != positions.shape[:2]:
            raise ValueError("fitness must have one value per particle")
        self.positions = positions
        self.velocities = velocities
        self.fitness = fitness
        # no best yet: every finite fitness is an improvement
        self.pbest_positions = positions.copy()
        self.pbest_fitness = np.full_like(fitness, np.inf)
        self.gbest_position = positions[:, 0].copy()
        self.gbest_fitness = np.full(len(fitness), np.inf)
        update_bests(self)
        self.iteration = 0


def handle_bounds(position: np.ndarray, velocity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp every out-of-box coordinate of `position` to the violated bound.

    `velocity` belongs to the trailing rows of `position`, the learners: the
    last `velocity.size` values in C order.  Their clamped coordinates have
    their velocity zeroed in place; the rows before them, the mutated elites,
    have none to zero.
    """
    clipped = np.maximum(position, LOWER)
    np.minimum(clipped, UPPER, out=clipped)
    learners = slice(position.size - velocity.size, None)
    outside = clipped.reshape(-1)[learners] != position.reshape(-1)[learners]
    np.copyto(velocity, 0.0, where=outside.reshape(velocity.shape))
    return clipped, velocity


def update_bests(state: SwarmState) -> tuple[np.ndarray, np.ndarray]:
    """Refresh personal and global bests from current fitness (strict improvement only).

    Returns `improved` (R, n), the particles whose personal best moved, and
    `better` (R,), the runs whose global best moved.
    """
    improved = state.fitness < state.pbest_fitness
    if not np.count_nonzero(improved):
        return improved, np.zeros(len(improved), bool)
    np.copyto(state.pbest_positions, state.positions, where=improved[:, :, None])
    np.copyto(state.pbest_fitness, state.fitness, where=improved)
    runs, n, d = state.pbest_positions.shape
    best = state.pbest_fitness.argmin(1) + flat_rows(runs, n)[:, 0]
    best_fitness = state.pbest_fitness.take(best)
    better = best_fitness < state.gbest_fitness
    if np.count_nonzero(better):
        best_position = state.pbest_positions.reshape(-1, d).take(best, 0)
        state.gbest_position = np.where(better[:, None], best_position, state.gbest_position)
        state.gbest_fitness = np.where(better, best_fitness, state.gbest_fitness)
    return improved, better


def velocity_update(
    velocity: np.ndarray,
    position: np.ndarray,
    guide_position: np.ndarray,
    gbest_position: np.ndarray,
    a: np.ndarray | float,
    b: np.ndarray | float,
    c: np.ndarray | float,
) -> np.ndarray:
    """New velocity a*v + b*(guide - x) + c*(gbest - x), clamped to +-V_MAX.

    The one velocity rule of both algorithms.  With archive learning off (the
    baseline PSO, or opsom without archives) the guide is the personal best,
    with a = INERTIA, b = COGNITIVE*r1 and c = SOCIAL*r2; the archive-guided
    update passes per-dimension uniforms (a may be INERTIA instead).  Works
    on a single (d,) particle or a stacked (m, d) batch, or on (R, m, d) with
    gbest as (R, 1, d).
    """
    velocity = a * velocity + b * (guide_position - position) + c * (gbest_position - position)
    np.maximum(velocity, -V_MAX, out=velocity)
    return np.minimum(velocity, V_MAX, out=velocity)

