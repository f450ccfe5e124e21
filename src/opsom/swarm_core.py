"""Swarm state, the velocity rule, the baseline PSO step, boundary handling,
and best bookkeeping.

State is kept as (n, d) arrays.  All fitness comparisons are minimizing and
personal/global bests are replaced only on strict improvement, so plateaus
never churn positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import EvaluationCounter, ObjectiveSpec, SearchBounds, evaluate_batch


@dataclass
class PsoParams:
    """Coefficients for the baseline velocity update."""

    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    v_max_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.inertia <= 1.0:
            raise ValueError("inertia must lie in [0, 1]")
        if self.cognitive < 0.0 or self.social < 0.0:
            raise ValueError("acceleration coefficients must be non-negative")
        if not 0.0 < self.v_max_fraction <= 1.0:
            raise ValueError("v_max_fraction must lie in (0, 1]")

    def v_max(self, bounds: SearchBounds) -> float:
        return self.v_max_fraction * bounds.span


class SwarmState:
    """Positions, velocities, fitnesses, and best-so-far memory of a swarm."""

    def __init__(self, positions: np.ndarray, velocities: np.ndarray, fitness: np.ndarray):
        positions = np.asarray(positions, dtype=float)
        velocities = np.asarray(velocities, dtype=float)
        fitness = np.asarray(fitness, dtype=float)
        if positions.ndim != 2 or velocities.shape != positions.shape:
            raise ValueError("positions and velocities must both have shape (n, d)")
        if fitness.shape != (len(positions),):
            raise ValueError("fitness must have one value per particle")
        self.positions = positions
        self.velocities = velocities
        self.fitness = fitness
        self.pbest_positions = positions.copy()
        self.pbest_fitness = fitness.copy()
        best = int(np.argmin(fitness))
        self.gbest_position = positions[best].copy()
        self.gbest_fitness = float(fitness[best])
        self.iteration = 0

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]


def handle_bounds(position: np.ndarray, velocity: np.ndarray, bounds: SearchBounds) -> tuple[np.ndarray, np.ndarray]:
    """Clamp out-of-box coordinates to the violated bound and zero their velocity."""
    outside = (position < bounds.lower) | (position > bounds.upper)
    clipped = np.maximum(position, bounds.lower)
    np.minimum(clipped, bounds.upper, out=clipped)
    return clipped, np.where(outside, 0.0, velocity)


def update_bests(state: SwarmState) -> SwarmState:
    """Refresh personal and global bests from current fitness (strict improvement only)."""
    improved = state.fitness < state.pbest_fitness
    np.copyto(state.pbest_positions, state.positions, where=improved[:, None])
    np.copyto(state.pbest_fitness, state.fitness, where=improved)
    best = int(state.pbest_fitness.argmin())
    best_fitness = float(state.pbest_fitness[best])
    if best_fitness < state.gbest_fitness:
        state.gbest_position = state.pbest_positions[best].copy()
        state.gbest_fitness = best_fitness
    return state


def sort_and_split(state: SwarmState) -> tuple[np.ndarray, np.ndarray]:
    """Rank particles by current fitness and split into (elite, regular) halves.

    Elite is the better half; ties are broken toward the lower particle index.
    Both returned index arrays are in ascending-fitness order.
    """
    if state.n % 2:
        raise ValueError(f"population size must be even, got {state.n}")
    order = state.fitness.argsort(kind="stable")
    half = state.n // 2
    return order[:half], order[half:]


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

    The one velocity rule of both algorithms.  The baseline passes its
    personal best as the guide with a = w, b = c1*r1 and c = c2*r2; the
    archive-guided update passes per-dimension uniforms (a may be a fixed
    inertia weight instead).  Works on a single (d,) particle or a stacked
    (m, d) batch.
    """
    velocity = a * velocity + b * (guide_position - position) + c * (gbest_position - position)
    np.maximum(velocity, -v_max, out=velocity)
    return np.minimum(velocity, v_max, out=velocity)


def pso_step(
    state: SwarmState,
    params: PsoParams,
    spec: ObjectiveSpec,
    counter: EvaluationCounter,
    u: np.ndarray,
) -> SwarmState:
    """One synchronous baseline PSO iteration over the whole swarm.

    `u` is the (2, n, d) block of uniforms in [0, 1): r1 then r2.  The sweep
    costs n evaluations; if the budget cannot cover it, `BudgetExceeded` is
    raised and the state is left untouched.
    """
    velocity = velocity_update(
        state.velocities, state.positions, state.pbest_positions, state.gbest_position,
        params.v_max(spec.bounds), params.inertia, params.cognitive * u[0], params.social * u[1],
    )
    position, velocity = handle_bounds(state.positions + velocity, velocity, spec.bounds)
    state.fitness = evaluate_batch(spec, position, counter)
    state.positions = position
    state.velocities = velocity
    update_bests(state)
    state.iteration += 1
    return state
