"""The full optimizer loop (orthogonal init + archive learning + elite
mutation) and the baseline PSO loop, with per-iteration trace recording.

Every iteration costs exactly n evaluations (one sweep over the swarm).  A sweep
starts only while `used + n < budget`, so one that would end exactly on the budget
is skipped; a run ends within [budget - n, budget] evaluations and the trace
reconciles exactly.  Runs are bitwise deterministic for a fixed (config, spec, seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .archives import ArchiveEntry, ArchiveSet, push_chi, push_psi, refresh_phi
from .learning import regular_velocity_update
from .mutation import mutate_elites
from .objective import EvaluationCounter, ObjectiveSpec, error_of, evaluate_batch
from .ortho_init import array_shape, build_initial_swarm
from .swarm_core import PsoParams, SwarmState, handle_bounds, pso_step, sort_and_split, update_bests

ALGORITHMS = ("opsom", "pso")

Observer = Callable[[SwarmState, ArchiveSet], None]


@dataclass
class OptimizerConfig:
    """Settings for one optimization run."""

    algorithm: str = "opsom"
    population: int = 40
    budget: int | None = None  # None resolves to 10_000 * dimension
    oa_levels: int = 2
    pso_params: PsoParams = field(default_factory=PsoParams)
    no_oa: bool = False
    no_archives: bool = False
    no_mutation: bool = False
    fixed_inertia: bool = False
    seed: int = 0

    def resolved_budget(self, dimension: int) -> int:
        return 10_000 * dimension if self.budget is None else self.budget

    def validate(self, spec: ObjectiveSpec) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.population < 6 or self.population % 2:
            raise ValueError(f"population must be even and >= 6, got {self.population}")
        _, oa_rows, _ = array_shape(self.oa_levels, spec.dimension)
        budget = self.resolved_budget(spec.dimension)
        if budget < self.population + oa_rows:
            raise ValueError(
                f"budget {budget} cannot cover initialization "
                f"(population {self.population} + {oa_rows} array rows)"
            )


@dataclass(eq=False)
class RunRecord:
    """Per-iteration convergence/diversity trace plus the final result."""

    function_id: str
    algorithm: str
    dimension: int
    seed: int
    population: int
    budget: int
    iterations: np.ndarray
    evaluations: np.ndarray
    errors: np.ndarray
    diversities: np.ndarray
    best_error: float
    wall_time: float


def diversity(state: SwarmState) -> float:
    """Mean Euclidean distance of the particles from the swarm centroid."""
    centroid = state.positions.mean(axis=0)
    return float(np.linalg.norm(state.positions - centroid, axis=1).mean())


def exploration_ratio(diversities: np.ndarray) -> np.ndarray:
    """Per-iteration exploration percentage: diversity relative to its peak."""
    diversities = np.asarray(diversities, dtype=float)
    peak = diversities.max() if diversities.size else 0.0
    if peak <= 0.0:
        return np.zeros_like(diversities)
    return 100.0 * diversities / peak


class _Trace:
    def __init__(self, spec: ObjectiveSpec):
        self.spec = spec
        self.iterations: list[int] = []
        self.evaluations: list[int] = []
        self.errors: list[float] = []
        self.diversities: list[float] = []

    def snap(self, state: SwarmState, counter: EvaluationCounter) -> None:
        self.iterations.append(state.iteration)
        self.evaluations.append(counter.used)
        self.errors.append(error_of(self.spec, state.gbest_fitness))
        self.diversities.append(diversity(state))

    def record(self, config: OptimizerConfig, spec: ObjectiveSpec, state, budget, wall_time) -> RunRecord:
        return RunRecord(
            function_id=spec.id,
            algorithm=config.algorithm,
            dimension=spec.dimension,
            seed=config.seed,
            population=config.population,
            budget=budget,
            iterations=np.asarray(self.iterations),
            evaluations=np.asarray(self.evaluations),
            errors=np.asarray(self.errors),
            diversities=np.asarray(self.diversities),
            best_error=error_of(spec, state.gbest_fitness),
            wall_time=wall_time,
        )


def _uniform_init(n, spec, counter, rng):
    positions = rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(n, spec.dimension))
    return positions, evaluate_batch(spec, positions, counter)


def _seed_archives(archives: ArchiveSet, state: SwarmState, config: OptimizerConfig, rng) -> None:
    refresh_phi(archives, state)
    if config.no_archives:
        return
    for i in range(state.n):
        push_psi(archives, ArchiveEntry(state.pbest_positions[i].copy(), float(state.pbest_fitness[i])), rng)
    push_chi(archives, ArchiveEntry(state.gbest_position.copy(), state.gbest_fitness), rng)


def _archive_guides(archives: ArchiveSet, m: int, rng):
    """Sample one representative triple per particle and resolve the guides.

    Returns the (m, d) guide matrix: row-wise argmin fitness across the phi,
    psi, chi representatives, ties resolved in that priority order.
    """
    p = rng.integers(0, len(archives.phi_fitness), size=m)
    q = rng.integers(0, len(archives.psi), size=m)
    s = rng.integers(0, len(archives.chi), size=m)
    psi_fit = np.array([archives.psi[i].fitness for i in q])
    chi_fit = np.array([archives.chi[i].fitness for i in s])
    rep_fit = np.column_stack([archives.phi_fitness[p], psi_fit, chi_fit])
    which = np.argmin(rep_fit, axis=1)  # first minimum == phi > psi > chi priority
    guides = np.empty((m, archives.phi_positions.shape[1]))
    for row in range(m):
        if which[row] == 0:
            guides[row] = archives.phi_positions[p[row]]
        elif which[row] == 1:
            guides[row] = archives.psi[q[row]].position
        else:
            guides[row] = archives.chi[s[row]].position
    return guides


def _opsom_iteration(
    state: SwarmState,
    archives: ArchiveSet,
    config: OptimizerConfig,
    spec: ObjectiveSpec,
    counter: EvaluationCounter,
    rng: np.random.Generator,
) -> None:
    """One full iteration: regular sweep, elite sweep, bests, archive updates."""
    params = config.pso_params
    elite_idx, regular_idx = sort_and_split(state)
    if config.no_mutation:
        learner_idx = np.concatenate([regular_idx, elite_idx])
        mutate_idx = elite_idx[:0]
    else:
        learner_idx = regular_idx
        mutate_idx = elite_idx

    X, V = state.positions, state.velocities
    gbest = state.gbest_position
    vmax = params.v_max(spec.bounds)
    new_positions = X.copy()
    new_velocities = V.copy()

    m = len(learner_idx)
    if m:
        if config.no_archives:
            # archive learning disabled: plain baseline velocity update
            r = rng.uniform(size=(2, m, state.dimension))
            velocity = (
                params.inertia * V[learner_idx]
                + params.cognitive * r[0] * (state.pbest_positions[learner_idx] - X[learner_idx])
                + params.social * r[1] * (gbest - X[learner_idx])
            )
            velocity = np.clip(velocity, -vmax, vmax)
        else:
            guides = _archive_guides(archives, m, rng)
            r = rng.uniform(size=(3, m, state.dimension))
            r1 = np.full((m, state.dimension), params.inertia) if config.fixed_inertia else r[0]
            velocity = regular_velocity_update(
                V[learner_idx], X[learner_idx], guides, gbest, vmax, rng, r1=r1, r2=r[1], r3=r[2]
            )
        position, velocity = handle_bounds(X[learner_idx] + velocity, velocity, spec.bounds)
        new_positions[learner_idx] = position
        new_velocities[learner_idx] = velocity

    if len(mutate_idx):
        # positions assigned directly from the iteration-start snapshot;
        # velocities are left unchanged
        new_positions[mutate_idx] = mutate_elites(
            X[mutate_idx], archives.phi_positions, spec.bounds, rng
        )

    fitness = evaluate_batch(spec, new_positions, counter)
    improved = fitness < state.pbest_fitness
    previous_gbest = state.gbest_fitness
    state.positions = new_positions
    state.velocities = new_velocities
    state.fitness = fitness
    update_bests(state)
    refresh_phi(archives, state)
    if not config.no_archives:
        for i in np.flatnonzero(improved):
            push_psi(archives, ArchiveEntry(state.pbest_positions[i].copy(), float(state.pbest_fitness[i])), rng)
        if state.gbest_fitness < previous_gbest:
            push_chi(archives, ArchiveEntry(state.gbest_position.copy(), state.gbest_fitness), rng)
    state.iteration += 1


def run_opsom(config: OptimizerConfig, spec: ObjectiveSpec, observer: Observer | None = None) -> RunRecord:
    """Run the full optimizer on one problem and return its trace."""
    config.validate(spec)
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n = config.population
    budget = config.resolved_budget(spec.dimension)
    counter = EvaluationCounter(budget=budget)

    if config.no_oa:
        positions, fitness = _uniform_init(n, spec, counter, rng)
    else:
        positions, fitness = build_initial_swarm(n, spec, counter, rng, levels=config.oa_levels)
    state = SwarmState(positions, np.zeros_like(positions), fitness)
    archives = ArchiveSet(n)
    _seed_archives(archives, state, config, rng)

    trace = _Trace(spec)
    trace.snap(state, counter)
    if observer is not None:
        observer(state, archives)
    while counter.used + n < budget:
        _opsom_iteration(state, archives, config, spec, counter, rng)
        trace.snap(state, counter)
        if observer is not None:
            observer(state, archives)
    return trace.record(config, spec, state, budget, time.perf_counter() - start)


def run_pso(config: OptimizerConfig, spec: ObjectiveSpec, observer: Observer | None = None) -> RunRecord:
    """Run the baseline PSO on one problem and return its trace."""
    config.validate(spec)
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n = config.population
    budget = config.resolved_budget(spec.dimension)
    counter = EvaluationCounter(budget=budget)

    positions, fitness = _uniform_init(n, spec, counter, rng)
    state = SwarmState(positions, np.zeros_like(positions), fitness)
    archives = ArchiveSet(n)  # unused by the baseline; kept for a uniform observer signature

    trace = _Trace(spec)
    trace.snap(state, counter)
    if observer is not None:
        observer(state, archives)
    while counter.used + n < budget:
        pso_step(state, config.pso_params, spec, counter, rng)
        trace.snap(state, counter)
        if observer is not None:
            observer(state, archives)
    return trace.record(config, spec, state, budget, time.perf_counter() - start)


def run(config: OptimizerConfig, spec: ObjectiveSpec, observer: Observer | None = None) -> RunRecord:
    """Dispatch to the configured algorithm."""
    if config.algorithm == "opsom":
        return run_opsom(config, spec, observer)
    if config.algorithm == "pso":
        return run_pso(config, spec, observer)
    raise ValueError(f"unknown algorithm {config.algorithm!r}; choose from {ALGORITHMS}")
