"""One run loop for both algorithms - the full optimizer (orthogonal init +
archive learning + elite mutation) and the baseline PSO - with per-iteration
trace recording.

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

from .archives import ArchiveSet, push_chi, push_psi, refresh_phi
from .learning import regular_velocity_update
from .mutation import mutate_elites
from .objective import EvaluationCounter, ObjectiveSpec, error_of, evaluate_batch
from .ortho_init import array_shape, build_initial_swarm
from .swarm_core import PsoParams, SwarmState, baseline_velocity, handle_bounds, pso_step, sort_and_split, update_bests

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

    @property
    def uses_oa(self) -> bool:
        return self.algorithm == "opsom" and not self.no_oa

    def validate(self, spec: ObjectiveSpec) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.population < 6 or self.population % 2:
            raise ValueError(f"population must be even and >= 6, got {self.population}")
        # orthogonal init scores every array row, topping up to n when the array is smaller
        init_cost = self.population
        if self.uses_oa:
            init_cost = max(init_cost, array_shape(self.oa_levels, spec.dimension)[1])
        budget = self.resolved_budget(spec.dimension)
        if budget < init_cost:
            raise ValueError(f"budget {budget} cannot cover initialization ({init_cost} evaluations)")


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
    X = state.positions
    n = len(X)
    D = X - np.add.reduce(X, 0) / n
    return float(np.add.reduce(np.sqrt(np.add.reduce(D * D, 1))) / n)


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


def _seed_archives(archives: ArchiveSet, state: SwarmState, config: OptimizerConfig, rng) -> None:
    refresh_phi(archives, state)
    if config.no_archives:
        return
    for i in range(state.n):
        push_psi(archives, state.pbest_positions[i], state.pbest_fitness[i], rng)
    push_chi(archives, state.gbest_position, state.gbest_fitness, rng)


def _archive_guides(archives: ArchiveSet, m: int, rng):
    """Sample one representative triple per particle and resolve the guides.

    Returns the (m, d) guide matrix: row-wise argmin fitness across the phi,
    psi, chi representatives, ties resolved in that priority order.
    """
    psi, chi = archives.psi, archives.chi
    n_phi = len(archives.phi_fitness)
    # one call draws the same values as three sized calls in turn; the offsets
    # turn them into rows of the stacked phi | psi | chi tables
    idx = rng.integers(0, [[n_phi], [len(psi)], [len(chi)]], size=(3, m))
    idx += [[0], [n_phi], [n_phi + len(psi.fitness)]]
    fitness = np.concatenate((archives.phi_fitness, psi.fitness, chi.fitness))
    which = fitness[idx].argmin(0)  # first minimum == phi > psi > chi priority
    positions = np.concatenate((archives.phi_positions, psi.positions, chi.positions))
    return positions[idx[which, np.arange(m)]]


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
    # learners and mutated elites together cover every row
    new_positions = np.empty_like(X)
    new_velocities = V.copy()

    m = len(learner_idx)
    if m:
        x = X[learner_idx]
        if config.no_archives:
            # archive learning disabled: plain baseline velocity update
            r = rng.random((2, m, state.dimension))
            velocity = baseline_velocity(
                params, spec.bounds, V[learner_idx], x, state.pbest_positions[learner_idx], gbest, r[0], r[1]
            )
        else:
            guides = _archive_guides(archives, m, rng)
            r = rng.random((3, m, state.dimension))
            velocity = regular_velocity_update(
                V[learner_idx], x, guides, gbest, params.v_max(spec.bounds), rng,
                r1=params.inertia if config.fixed_inertia else r[0], r2=r[1], r3=r[2],
            )
        position, velocity = handle_bounds(x + velocity, velocity, spec.bounds)
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
        for i in improved.nonzero()[0]:
            push_psi(archives, state.pbest_positions[i], state.pbest_fitness[i], rng)
        if state.gbest_fitness < previous_gbest:
            push_chi(archives, state.gbest_position, state.gbest_fitness, rng)
    state.iteration += 1


def run(config: OptimizerConfig, spec: ObjectiveSpec, observer: Observer | None = None) -> RunRecord:
    """Run the configured algorithm on one problem and return its trace.

    `observer(state, archives)` is called after initialization and after every
    iteration; it reads the live state and archives and must not modify them.
    """
    config.validate(spec)
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    n = config.population
    budget = config.resolved_budget(spec.dimension)
    counter = EvaluationCounter(budget=budget)

    if config.uses_oa:
        positions, fitness = build_initial_swarm(n, spec, counter, rng, levels=config.oa_levels)
    else:
        positions = rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(n, spec.dimension))
        fitness = evaluate_batch(spec, positions, counter)
    state = SwarmState(positions, np.zeros_like(positions), fitness)
    archives = ArchiveSet(n, spec.dimension)  # left empty by the baseline
    opsom = config.algorithm == "opsom"
    if opsom:
        _seed_archives(archives, state, config, rng)

    trace = _Trace(spec)
    while True:
        trace.snap(state, counter)
        if observer is not None:
            observer(state, archives)
        if counter.used + n >= budget:
            return trace.record(config, spec, state, budget, time.perf_counter() - start)
        if opsom:
            _opsom_iteration(state, archives, config, spec, counter, rng)
        else:
            pso_step(state, config.pso_params, spec, counter, rng)
