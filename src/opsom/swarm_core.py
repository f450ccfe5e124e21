"""Swarm state, the velocity rule, boundary handling, and best bookkeeping.

State is kept as (R, n, d) arrays: the R runs of one cell, advanced in
lockstep.  All fitness comparisons are minimizing and personal/global bests
are replaced only on strict improvement, so plateaus never churn positions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .objective import SearchBounds


@dataclass
class PsoParams:
    """Coefficients for the baseline velocity update."""

    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    v_max_fraction: float = 0.2

    def __post_init__(self):
        if not all(map(math.isfinite, (self.inertia, self.cognitive, self.social, self.v_max_fraction))):
            raise ValueError(f"PSO coefficients must be finite, got {self}")
        if not 0.0 <= self.inertia <= 1.0:
            raise ValueError("inertia must lie in [0, 1]")
        if self.cognitive < 0.0 or self.social < 0.0:
            raise ValueError("acceleration coefficients must be non-negative")
        if not 0.0 < self.v_max_fraction <= 1.0:
            raise ValueError("v_max_fraction must lie in (0, 1]")

    def v_max(self, bounds: SearchBounds) -> float:
        return self.v_max_fraction * bounds.span


@functools.cache
def run_index(runs: int) -> np.ndarray:
    """Read-only (runs, 1) column of run indices: `a[run_index(R), idx]` gathers
    `a[r, idx[r]]` for every run r."""
    index = np.arange(runs)[:, None]
    index.flags.writeable = False
    return index


@functools.cache
def particle_index(runs: int, n: int) -> np.ndarray:
    """Read-only (runs, n) rows of 0..n-1; numpy compares same-shape arrays
    faster than it broadcasts a single row."""
    index = np.tile(np.arange(n), (runs, 1))
    index.flags.writeable = False
    return index


class SwarmState:
    """Positions, velocities, fitnesses, and best-so-far memory of R swarms.

    positions, velocities and pbest_positions are (R, n, d); fitness and
    pbest_fitness (R, n); gbest_position (R, d) and gbest_fitness (R,).
    """

    def __init__(self, positions: np.ndarray, velocities: np.ndarray, fitness: np.ndarray):
        positions = np.asarray(positions, dtype=float)
        velocities = np.asarray(velocities, dtype=float)
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

    @property
    def n(self) -> int:
        return self.positions.shape[-2]

    def view(self, run: int) -> SwarmState:
        """Run `run` alone: every array with the run axis dropped (views, not copies)."""
        view = object.__new__(SwarmState)
        view.__dict__.update((k, v[run] if isinstance(v, np.ndarray) else v) for k, v in vars(self).items())
        return view


def handle_bounds(position: np.ndarray, velocity: np.ndarray, bounds: SearchBounds) -> tuple[np.ndarray, np.ndarray]:
    """Clamp out-of-box coordinates to the violated bound and zero their velocity."""
    outside = (position < bounds.lower) | (position > bounds.upper)
    clipped = np.maximum(position, bounds.lower)
    np.minimum(clipped, bounds.upper, out=clipped)
    return clipped, np.where(outside, 0.0, velocity)


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
    best = state.pbest_fitness.argmin(1)[:, None]
    rows = run_index(len(best))
    best_fitness = state.pbest_fitness[rows, best][:, 0]
    better = best_fitness < state.gbest_fitness
    if np.count_nonzero(better):
        best_position = state.pbest_positions[rows, best][:, 0]
        state.gbest_position = np.where(better[:, None], best_position, state.gbest_position)
        state.gbest_fitness = np.where(better, best_fitness, state.gbest_fitness)
    return improved, better


def sort_and_split(state: SwarmState) -> tuple[np.ndarray, np.ndarray]:
    """Rank each run's particles by current fitness and split into (elite, regular) halves.

    Elite is the better half; ties are broken toward the lower particle index.
    Both returned (R, n/2) index arrays are in ascending-fitness order.
    """
    if state.n % 2:
        raise ValueError(f"population size must be even, got {state.n}")
    order = state.fitness.argsort(kind="stable")
    half = state.n // 2
    return order[:, :half], order[:, half:]


def velocity_update(
    velocity: np.ndarray,
    position: np.ndarray,
    guide_position: np.ndarray,
    gbest_position: np.ndarray,
    v_max: float,
    a: np.ndarray | float,
    b: np.ndarray | float,
    c: np.ndarray | float,
) -> np.ndarray:
    """New velocity a*v + b*(guide - x) + c*(gbest - x), clamped to +-v_max.

    The one velocity rule of both algorithms.  With archive learning off (the
    baseline PSO, or opsom without archives) the guide is the personal best,
    with a = w, b = c1*r1 and c = c2*r2; the archive-guided update passes
    per-dimension uniforms (a may be a fixed inertia weight instead).  Works
    on a single (d,) particle or a stacked (m, d) batch, or on (R, m, d) with
    gbest as (R, 1, d).
    """
    velocity = a * velocity + b * (guide_position - position) + c * (gbest_position - position)
    np.maximum(velocity, -v_max, out=velocity)
    return np.minimum(velocity, v_max, out=velocity)

