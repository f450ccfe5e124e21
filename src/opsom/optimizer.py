"""One run loop and one step function for both algorithms.  The full
optimizer is plain PSO plus three strategies: orthogonal-array init, archive
learning for the regular half and mutation of the elite half.  The baseline
PSO is the same iteration with all three turned off.  `run_cell` advances the
R runs of one cell (configs equal but for the seed) in lockstep on (R, n, d)
state; `run` is its R = 1 case.

Every iteration costs exactly n evaluations per run (one sweep over the
swarm), and all R sweeps go to the objective as one batch.  A sweep starts
only while `used + n < budget`, so one that would end exactly on the budget
is skipped; a run ends within [budget - n, budget] evaluations and the trace
reconciles exactly.  Runs are bitwise deterministic for a fixed (config,
spec, seed), whichever cell they run in.

Learners: with mutation the swarm is sorted by fitness and split in half; the
worse half learns (in ascending-fitness order) and the better half is
mutated.  With no mutation, the baseline's case, all m = n particles learn in
particle order.

Random stream: each run keeps its own generator, and initialization draws
from it first.  After that each run's generator fills that run's row of an
(R, K) block with exactly one `random(K)` call per iteration, and the step
function, which draws nothing itself, reads row r for run r.  The block is
cut, in this order, into
  guide uniforms        3*m      (none without archives),
  velocity uniforms     3*m*d    (2*m*d without archives: r1, then r2),
  partner uniforms      2*e,
  mutation deltas       2*e*d,
  eviction uniforms     n + 1    (none without archives),
where n is the population, m the number of learners (n/2, or n with no
mutation) and e the number of mutated elites (n - m).  K depends only on n, d
and the flags; the baseline's block is (2, n, d): r1, then r2.  A uniform u
picks index `int(u * size)`; the j-th archive push of an iteration evicts with
the j-th eviction uniform when full.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .archives import ArchiveSet, push_chi, push_psi, refresh_phi
from .mutation import mutate_elites
from .objective import EvaluationCounter, ObjectiveSpec, evaluate_batch
from .ortho_init import array_shape, build_initial_swarm
from .swarm_core import (
    PsoParams,
    SwarmState,
    handle_bounds,
    run_index,
    sort_and_split,
    update_bests,
    velocity_update,
)

ALGORITHMS = ("opsom", "pso")
# picks psi's (0) and chi's (1) push order out of `ArchiveSet.order`
_PSI_CHI = np.array([[0], [1]])

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

    @property
    def uses_archives(self) -> bool:
        return self.algorithm == "opsom" and not self.no_archives

    @property
    def uses_mutation(self) -> bool:
        return self.algorithm == "opsom" and not self.no_mutation

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


def diversity(state: SwarmState) -> np.ndarray:
    """Each run's mean Euclidean distance of the particles from the swarm centroid, (R,)."""
    X = state.positions
    n = X.shape[1]
    D = X - np.add.reduce(X, 1, keepdims=True) / n
    return np.add.reduce(np.sqrt(np.add.reduce(D * D, 2)), 1) / n


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
        self.evaluations: list[list[int]] = []
        self.best_fitness: list[np.ndarray] = []
        self.diversities: list[np.ndarray] = []

    def snap(self, state: SwarmState, counters: list[EvaluationCounter]) -> None:
        self.iterations.append(state.iteration)
        self.evaluations.append([counter.used for counter in counters])
        # a reference, not a copy: see `update_bests`
        self.best_fitness.append(state.gbest_fitness)
        self.diversities.append(diversity(state))

    def records(self, configs: list[OptimizerConfig], spec: ObjectiveSpec, budget, wall_time) -> list[RunRecord]:
        # |best fitness - f_opt| for every run's whole trace at once, one row per run
        fitness = np.stack(self.best_fitness, 1)
        if not np.isfinite(fitness).all():
            raise ValueError("best_fitness must be finite")
        errors = np.abs(fitness - spec.f_opt)
        evaluations = np.array(self.evaluations).T.copy()
        diversities = np.stack(self.diversities, 1)
        return [
            RunRecord(
                function_id=spec.id,
                algorithm=config.algorithm,
                dimension=spec.dimension,
                seed=config.seed,
                population=config.population,
                budget=budget,
                iterations=np.array(self.iterations),
                evaluations=evaluations[r],
                errors=errors[r],
                diversities=diversities[r],
                best_error=float(errors[r, -1]),
                wall_time=wall_time / len(configs),
            )
            for r, config in enumerate(configs)
        ]


def _seed_archives(archives: ArchiveSet, state: SwarmState, config: OptimizerConfig) -> None:
    if config.uses_archives or config.uses_mutation:
        refresh_phi(archives, state)
    if not config.uses_archives:
        return
    # n psi pushes and one chi push never fill an archive of capacity n, so
    # no eviction uniform is needed
    everyone = np.ones(state.fitness.shape, bool)
    zeros = np.zeros(state.fitness.shape)
    push_psi(archives, state.pbest_positions, state.pbest_fitness, everyone, zeros)
    push_chi(archives, state.gbest_position[:, None], state.gbest_fitness[:, None], everyone[:, :1], zeros)


def _archive_guides(archives: ArchiveSet, u: np.ndarray) -> np.ndarray:
    """Sample one representative triple per particle and resolve the guides.

    `u` is (R, 3, m) uniforms in [0, 1) picking each run's phi, psi and chi
    representatives (the `int(u * size)`-th row; psi's and chi's in push
    order).  Returns the (R, m, d) guides: row-wise argmin fitness across the
    three, ties resolved in phi, psi, chi priority order.
    """
    if np.count_nonzero(archives.fill) < archives.fill.size:
        raise ValueError("every archive needs an entry before it can supply guides")
    idx = (u * archives.fill[:, :, None]).astype(np.intp)
    # psi and chi: push-order position -> slot -> row of the table
    rows = run_index(len(u))
    idx[:, 1:] = archives.order[rows[:, :, None], _PSI_CHI, idx[:, 1:]] + archives.offsets
    which = archives.fitness[rows[:, :, None], idx].argmin(1)  # first minimum == phi > psi > chi priority
    return archives.positions[rows, idx[rows, which, np.arange(u.shape[2])]]


def _block_layout(config: OptimizerConfig, n: int, d: int) -> tuple[int, ...]:
    """Lengths of the consecutive slices of one iteration's uniform block.

    The module docstring gives the layout; its sum is the block length K.
    """
    m = n // 2 if config.uses_mutation else n
    e = n - m
    if not config.uses_archives:
        return (0, 2 * m * d, 2 * e * (1 + d), 0)
    return (3 * m, 3 * m * d, 2 * e * (1 + d), n + 1)


def _opsom_iteration(
    state: SwarmState,
    archives: ArchiveSet,
    config: OptimizerConfig,
    spec: ObjectiveSpec,
    counters: list[EvaluationCounter],
    u: list[np.ndarray],
) -> None:
    """One iteration of every run: learner sweep, elite mutation, bests, archive updates.

    `u` holds the guide, velocity, partner-and-delta and eviction slices of
    the (R, K) uniform block, run r's in row r, cut as `_block_layout` states.
    With every strategy off this is one baseline PSO step, and `archives` is
    never read.
    """
    guide_u, velocity_u, mutation_u, evict_u = u
    params = config.pso_params
    archived, mutating = config.uses_archives, config.uses_mutation
    X, V = state.positions, state.velocities
    runs, n, d = X.shape
    rows = run_index(runs)
    if mutating:
        elite_idx, regular_idx = sort_and_split(state)
        learners, m = (rows, regular_idx), n // 2
    else:
        # everyone learns, in particle order; `a[...]` is a view of the whole array
        learners, m = ..., n

    x = X[learners]
    r = velocity_u.reshape(runs, -1, m, d)
    if archived:
        guides = _archive_guides(archives, guide_u.reshape(runs, 3, m))
        a, b, c = params.inertia if config.fixed_inertia else r[:, 0], r[:, 1], r[:, 2]
    else:
        guides = state.pbest_positions[learners]
        a, b, c = params.inertia, params.cognitive * r[:, 0], params.social * r[:, 1]
    velocity = velocity_update(
        V[learners], x, guides, state.gbest_position[:, None], params.v_max(spec.bounds), a, b, c
    )
    position, velocity = handle_bounds(x + velocity, velocity, spec.bounds)
    if mutating:
        # learners and mutated elites together cover every row; elites take
        # positions mutated from the iteration-start snapshot and keep their velocities
        new_positions = np.empty_like(X)
        new_velocities = V.copy()
        new_positions[learners] = position
        new_velocities[learners] = velocity
        new_positions[rows, elite_idx] = mutate_elites(
            X[rows, elite_idx], archives.phi_positions, spec.bounds, mutation_u
        )
        position, velocity = new_positions, new_velocities

    state.fitness = evaluate_batch(spec, position.reshape(-1, d), *counters).reshape(runs, n)
    state.positions = position
    state.velocities = velocity
    improved, better = update_bests(state)
    state.iteration += 1
    # phi is read only by the guides and the mutation; it, psi and chi move
    # only when some personal best did
    if not (archived or mutating) or not np.count_nonzero(improved):
        return
    refresh_phi(archives, state)
    if archived:
        push_psi(archives, state.pbest_positions, state.pbest_fitness, improved, evict_u)
        if np.count_nonzero(better):
            # a run's chi push takes the eviction uniform after its psi pushes
            chi_u = evict_u[rows, improved.sum(1)[:, None]]
            push_chi(archives, state.gbest_position[:, None], state.gbest_fitness[:, None], better[:, None], chi_u)


def run(config: OptimizerConfig, spec: ObjectiveSpec, observer: Observer | None = None) -> RunRecord:
    """Run the configured algorithm on one problem and return its trace.

    `observer(state, archives)` is called after initialization and after every
    iteration; it reads the live state and archives and must not modify them.
    """
    return run_cell([config], spec, observer)[0]


def run_cell(configs: list[OptimizerConfig], spec: ObjectiveSpec, observer: Observer | None = None) -> list[RunRecord]:
    """Run R configs that differ only in seed in lockstep; return their traces in order.

    Each run keeps its own generator and evaluation counter, so run r's record
    is bitwise the one `run(configs[r], spec)` gives.  An observer watches a
    single run, so it needs exactly one config; it sees that run's state and
    archives with the run axis dropped.
    """
    if not configs:
        raise ValueError("run_cell needs at least one config")
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("the configs of a cell may differ only in seed")
    if observer is not None and len(configs) > 1:
        raise ValueError(f"an observer watches one run, got {len(configs)} configs")
    config.validate(spec)
    start = time.perf_counter()
    rngs = [np.random.default_rng(c.seed) for c in configs]
    n, d = config.population, spec.dimension
    budget = config.resolved_budget(d)
    counters = [EvaluationCounter(budget=budget) for _ in configs]

    if config.uses_oa:
        swarms = [build_initial_swarm(n, spec, c, rng, levels=config.oa_levels) for c, rng in zip(counters, rngs)]
        positions, fitness = (np.stack(parts) for parts in zip(*swarms))
    else:
        positions = np.stack([rng.uniform(spec.bounds.lower, spec.bounds.upper, size=(n, d)) for rng in rngs])
        fitness = evaluate_batch(spec, positions.reshape(-1, d), *counters).reshape(len(configs), n)
    state = SwarmState(positions, np.zeros_like(positions), fitness)
    archives = ArchiveSet(len(configs), n, d)  # left empty by the baseline
    _seed_archives(archives, state, config)

    layout = _block_layout(config, n, d)
    u = np.empty((len(configs), sum(layout)))
    # views of the block's slices, cut once; every iteration refills the block
    u_slices = np.split(u, list(itertools.accumulate(layout[:-1])), 1)
    trace = _Trace()
    while True:
        trace.snap(state, counters)
        if observer is not None:
            observer(state.view(0), archives.view(0))
        # every run pays the same initialization and n per iteration, so all stop together
        if counters[0].used + n >= budget:
            return trace.records(configs, spec, budget, time.perf_counter() - start)
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        _opsom_iteration(state, archives, config, spec, counters, u_slices)
