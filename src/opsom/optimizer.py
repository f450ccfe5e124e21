"""One run loop for both algorithms - the full optimizer (orthogonal init +
archive learning + elite mutation) and the baseline PSO - with per-iteration
trace recording.

Every iteration costs exactly n evaluations (one sweep over the swarm).  A sweep
starts only while `used + n < budget`, so one that would end exactly on the budget
is skipped; a run ends within [budget - n, budget] evaluations and the trace
reconciles exactly.  Runs are bitwise deterministic for a fixed (config, spec, seed).

Random stream: initialization draws from the run's generator first.  After
that `run` makes exactly one `rng.random(K)` call per iteration, for either
algorithm, and hands the block to the step function, which draws nothing
itself.  A baseline PSO step reads it as (2, n, d): r1, then r2.  An opsom
iteration cuts it, in this order, into
  guide uniforms        3*m      (none with no_archives),
  velocity uniforms     3*m*d    (2*m*d with no_archives),
  partner uniforms      2*e,
  mutation deltas       2*e*d,
  eviction uniforms     n + 1    (none with no_archives),
where n is the population, m the number of learners (n/2, or n with
no_mutation) and e the number of mutated elites (n - m).  K depends only on
n, d and the flags.  A uniform u picks index `int(u * size)`; the j-th archive
push of an iteration evicts with the j-th eviction uniform when full.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .archives import ArchiveSet, push_chi, push_psi, refresh_phi
from .mutation import mutate_elites
from .objective import EvaluationCounter, ObjectiveSpec, evaluate_batch
from .ortho_init import array_shape, build_initial_swarm
from .swarm_core import PsoParams, SwarmState, handle_bounds, pso_step, sort_and_split, update_bests, velocity_update

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
    def __init__(self):
        self.iterations: list[int] = []
        self.evaluations: list[int] = []
        self.best_fitness: list[float] = []
        self.diversities: list[float] = []

    def snap(self, state: SwarmState, counter: EvaluationCounter) -> None:
        self.iterations.append(state.iteration)
        self.evaluations.append(counter.used)
        self.best_fitness.append(state.gbest_fitness)
        self.diversities.append(diversity(state))

    def record(self, config: OptimizerConfig, spec: ObjectiveSpec, state, budget, wall_time) -> RunRecord:
        # |best fitness - f_opt| for the whole trace at once
        fitness = np.asarray(self.best_fitness)
        if not np.isfinite(fitness).all():
            raise ValueError("best_fitness must be finite")
        errors = np.abs(fitness - spec.f_opt)
        return RunRecord(
            function_id=spec.id,
            algorithm=config.algorithm,
            dimension=spec.dimension,
            seed=config.seed,
            population=config.population,
            budget=budget,
            iterations=np.asarray(self.iterations),
            evaluations=np.asarray(self.evaluations),
            errors=errors,
            diversities=np.asarray(self.diversities),
            best_error=float(errors[-1]),
            wall_time=wall_time,
        )


def _seed_archives(archives: ArchiveSet, state: SwarmState, config: OptimizerConfig) -> None:
    refresh_phi(archives, state)
    if config.no_archives:
        return
    # n psi pushes and one chi push never fill an archive of capacity n, so
    # no eviction uniform is needed
    for i in range(state.n):
        push_psi(archives, state.pbest_positions[i], state.pbest_fitness[i], 0.0)
    push_chi(archives, state.gbest_position, state.gbest_fitness, 0.0)


def _archive_guides(archives: ArchiveSet, u: np.ndarray) -> np.ndarray:
    """Sample one representative triple per particle and resolve the guides.

    `u` is (3, m) uniforms in [0, 1) picking the phi, psi and chi
    representatives.  Returns the (m, d) guide matrix: row-wise argmin fitness
    across the three, ties resolved in phi, psi, chi priority order.
    """
    psi, chi = archives.psi, archives.chi
    n_phi = len(archives.phi_fitness)
    if not (n_phi and psi.size and chi.size):
        raise ValueError("every archive needs an entry before it can supply guides")
    m = u.shape[1]
    # the offsets turn archive indices into rows of the stacked phi | psi | chi tables
    idx = (u * [[n_phi], [psi.size], [chi.size]]).astype(np.intp)
    idx += [[0], [n_phi], [n_phi + len(psi.fitness)]]
    fitness = np.concatenate((archives.phi_fitness, psi.fitness, chi.fitness))
    which = fitness[idx].argmin(0)  # first minimum == phi > psi > chi priority
    positions = np.concatenate((archives.phi_positions, psi.positions, chi.positions))
    return positions[idx[which, np.arange(m)]]


def _block_layout(config: OptimizerConfig, n: int, d: int) -> tuple[int, ...]:
    """Lengths of the consecutive slices of one iteration's uniform block.

    The module docstring gives the layout; its sum is the block length K.
    """
    if config.algorithm == "pso":
        return (2 * n * d,)
    m = n if config.no_mutation else n // 2
    e = n - m
    if config.no_archives:
        return (0, 2 * m * d, 2 * e * (1 + d), 0)
    return (3 * m, 3 * m * d, 2 * e * (1 + d), n + 1)


def _opsom_iteration(
    state: SwarmState,
    archives: ArchiveSet,
    config: OptimizerConfig,
    spec: ObjectiveSpec,
    counter: EvaluationCounter,
    u: np.ndarray,
) -> None:
    """One full iteration: regular sweep, elite sweep, bests, archive updates.

    `u` is the iteration's uniform block, cut as `_block_layout` states.
    """
    params = config.pso_params
    elite_idx, regular_idx = sort_and_split(state)
    if config.no_mutation:
        learner_idx = np.concatenate([regular_idx, elite_idx])
        mutate_idx = elite_idx[:0]
    else:
        learner_idx = regular_idx
        mutate_idx = elite_idx

    d = state.dimension
    m, e = len(learner_idx), len(mutate_idx)
    archived = not config.no_archives
    layout = _block_layout(config, state.n, d)
    guide_u, velocity_u, mutation_u, evict_u = (
        u[end - length : end] for length, end in zip(layout, itertools.accumulate(layout))
    )

    X, V = state.positions, state.velocities
    gbest = state.gbest_position
    # learners and mutated elites together cover every row
    new_positions = np.empty_like(X)
    new_velocities = V.copy()

    x = X[learner_idx]
    r = velocity_u.reshape(-1, m, d)
    if archived:
        guides = _archive_guides(archives, guide_u.reshape(3, m))
        a, b, c = params.inertia if config.fixed_inertia else r[0], r[1], r[2]
    else:
        # archive learning disabled: plain baseline velocity update
        guides = state.pbest_positions[learner_idx]
        a, b, c = params.inertia, params.cognitive * r[0], params.social * r[1]
    velocity = velocity_update(V[learner_idx], x, guides, gbest, params.v_max(spec.bounds), a, b, c)
    position, velocity = handle_bounds(x + velocity, velocity, spec.bounds)
    new_positions[learner_idx] = position
    new_velocities[learner_idx] = velocity

    if e:
        # positions assigned directly from the iteration-start snapshot;
        # velocities are left unchanged
        new_positions[mutate_idx] = mutate_elites(X[mutate_idx], archives.phi_positions, spec.bounds, mutation_u)

    fitness = evaluate_batch(spec, new_positions, counter)
    improved = fitness < state.pbest_fitness
    previous_gbest = state.gbest_fitness
    state.positions = new_positions
    state.velocities = new_velocities
    state.fitness = fitness
    update_bests(state)
    refresh_phi(archives, state)
    if archived:
        psi_rows = improved.nonzero()[0]
        for i, evict in zip(psi_rows, evict_u):
            push_psi(archives, state.pbest_positions[i], state.pbest_fitness[i], evict)
        if state.gbest_fitness < previous_gbest:
            push_chi(archives, state.gbest_position, state.gbest_fitness, evict_u[len(psi_rows)])
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
        _seed_archives(archives, state, config)

    k = sum(_block_layout(config, n, spec.dimension))
    trace = _Trace()
    while True:
        trace.snap(state, counter)
        if observer is not None:
            observer(state, archives)
        if counter.used + n >= budget:
            return trace.record(config, spec, state, budget, time.perf_counter() - start)
        u = rng.random(k)
        if opsom:
            _opsom_iteration(state, archives, config, spec, counter, u)
        else:
            pso_step(state, config.pso_params, spec, counter, u.reshape(2, n, -1))
