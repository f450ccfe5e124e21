"""Swarm state, baseline PSO updates, boundary handling, and best bookkeeping.

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


def baseline_velocity(
    params: PsoParams,
    bounds: SearchBounds,
    velocity: np.ndarray,
    position: np.ndarray,
    pbest_position: np.ndarray,
    gbest_position: np.ndarray,
    r1: np.ndarray,
    r2: np.ndarray,
) -> np.ndarray:
    """New velocity w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), clamped to +-v_max."""
    vmax = params.v_max(bounds)
    velocity = (
        params.inertia * velocity
        + params.cognitive * r1 * (pbest_position - position)
        + params.social * r2 * (gbest_position - position)
    )
    np.maximum(velocity, -vmax, out=velocity)
    return np.minimum(velocity, vmax, out=velocity)


def pso_step(
    state: SwarmState,
    params: PsoParams,
    spec: ObjectiveSpec,
    counter: EvaluationCounter,
    rng: np.random.Generator,
    *,
    r1: np.ndarray | None = None,
    r2: np.ndarray | None = None,
) -> SwarmState:
    """One synchronous baseline PSO iteration over the whole swarm.

    The sweep costs n evaluations; if the budget cannot cover it,
    `BudgetExceeded` is raised and the state is left untouched.  `r1`/`r2`
    override the per-dimension uniform draws (test hook); both come from one
    (2, n, d) draw unless both are given.
    """
    if r1 is None or r2 is None:
        drawn = rng.random((2, *state.positions.shape))
        r1 = drawn[0] if r1 is None else r1
        r2 = drawn[1] if r2 is None else r2
    velocity = baseline_velocity(
        params, spec.bounds, state.velocities, state.positions, state.pbest_positions, state.gbest_position, r1, r2
    )
    position, velocity = handle_bounds(state.positions + velocity, velocity, spec.bounds)
    state.fitness = evaluate_batch(spec, position, counter)
    state.positions = position
    state.velocities = velocity
    update_bests(state)
    state.iteration += 1
    return state
