"""One run loop and one step function for both algorithms.  The full
optimizer is plain PSO plus three strategies: orthogonal-array init, archive
learning for the regular half and mutation of the elite half.  The baseline
PSO is the same iteration with all three turned off.  `run_cell` advances R
runs (configs equal but for the seed) in lockstep on (R, n, d) state; the
runs may belong to several functions of one dimension, and consecutive runs
of one function form a block, which is a harness cell.  `run` is its R = 1
case.

Budget: initialization costs each run `init = max(n, array rows)`
evaluations with the orthogonal array and n without it, and every iteration
exactly n more (one sweep over the swarm; the sweeps of one block go to its
function as one batch).  A sweep starts only if it would end below the
budget, so a run makes exactly K = max(0, (budget - init - 1) // n)
iterations, counted before the loop, and ends within [budget - n, budget]
evaluations: below the budget unless the budget is init itself.  After
iteration k a run has made init + n*k evaluations; its record computes
`evaluations[k] = init + n*k` rather than storing it.  Runs are bitwise
deterministic for a fixed (config, spec, seed), whichever runs and functions
share their call.

Learners: with mutation the swarm is sorted by fitness and split in half; the
worse half learns (in ascending-fitness order) and the better half is
mutated.  With no mutation, the baseline's case, all m = n particles learn in
particle order.

Random stream: each run keeps its own generator, and initialization draws
from it first.  After that each run's generator fills that run's row of an
(R, B) block with exactly one `random(B)` call per iteration, and the step
function, which draws nothing itself, reads row r for run r.  The block is
cut, in this order, into
  guide uniforms        3*m      (none without archives),
  velocity uniforms     3*m*d    (2*m*d without archives: r1, then r2),
  partner uniforms      2*e,
  mutation deltas       2*e*d,
  eviction uniforms     n + 1    (none without archives),
where n is the population, m the number of learners (n/2, or n with no
mutation) and e the number of mutated elites (n - m).  Their sum, the width
B, depends only on n, d and the flags; the baseline's block is (2, n, d): r1,
then r2.  A uniform u picks index `int(u * size)`.  Into a full archive,
particle i's psi push overwrites the slot picked by eviction uniform i, and
the chi push the slot picked by the last one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .archives import ArchiveSet, refresh_phi
from .mutation import mutate_elites
from .objective import ObjectiveSpec, evaluate_batch
from .ortho_init import array_shape, build_initial_swarm
from .swarm_core import (
    COGNITIVE,
    INERTIA,
    SOCIAL,
    SwarmState,
    handle_bounds,
    run_index,
    sort_and_split,
    update_bests,
    velocity_update,
)

ALGORITHMS = ("opsom", "pso")

Observer = Callable[[SwarmState, ArchiveSet], None]
# the consecutive runs (a slice of the run axis) that share one function
Block = tuple[slice, ObjectiveSpec]


@dataclass
class OptimizerConfig:
    """Settings for one optimization run."""

    algorithm: str = "opsom"
    population: int = 40
    budget: int | None = None  # None resolves to 10_000 * dimension
    oa_levels: int = 2
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

    def validate(self, spec: ObjectiveSpec) -> int:
        """The one check of a run's settings, against `spec`; return the evaluations initialization costs each run."""
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.population < 6 or self.population % 2:
            raise ValueError(f"population must be even and >= 6, got {self.population}")
        if self.fixed_inertia and self.no_archives:  # the no-archives velocity always takes the inertia
            raise ValueError("fixed_inertia has no effect with no_archives")
        # orthogonal init scores every array row, topping up to n when the array
        # is smaller; the level count and row cap are checked whether or not the array is used
        rows = array_shape(self.oa_levels, spec.dimension)[1]
        init_cost = max(self.population, rows) if self.uses_oa else self.population
        budget = self.resolved_budget(spec.dimension)
        if budget < init_cost:
            raise ValueError(f"budget {budget} cannot cover initialization ({init_cost} evaluations)")
        return init_cost


@dataclass(eq=False)
class RunRecord:
    """One run's settings and best-error and diversity traces after iterations 0..K; the rest is derived."""

    function_id: str
    algorithm: str
    dimension: int
    seed: int
    population: int
    budget: int
    init: int  # the evaluations initialization cost, as `OptimizerConfig.validate` returns
    errors: np.ndarray
    diversities: np.ndarray
    wall_time: float

    @property
    def iterations(self) -> np.ndarray:
        return np.arange(len(self.errors))

    @property
    def evaluations(self) -> np.ndarray:
        return self.init + self.population * self.iterations

    @property
    def best_error(self) -> float:
        return float(self.errors[-1])


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
    """Each run's best fitness and swarm diversity after iterations 0..K, in (R, K + 1) arrays."""

    def __init__(self, runs: int, iterations: int):
        self.best_fitness = np.empty((runs, iterations + 1))
        self.diversities = np.empty((runs, iterations + 1))

    def snap(self, state: SwarmState) -> None:
        self.best_fitness[:, state.iteration] = state.gbest_fitness
        self.diversities[:, state.iteration] = diversity(state)

    def records(self, configs: list[OptimizerConfig], specs: list[ObjectiveSpec], budget: int, init_cost: int,
                wall_time: float) -> list[RunRecord]:
        if not np.isfinite(self.best_fitness).all():
            raise ValueError("best_fitness must be finite")
        # |best fitness - f_opt| for every run's whole trace at once, one row per run
        errors = np.abs(self.best_fitness - np.array([[spec.f_opt] for spec in specs]))
        return [
            RunRecord(
                function_id=spec.id,
                algorithm=config.algorithm,
                dimension=spec.dimension,
                seed=config.seed,
                population=config.population,
                budget=budget,
                init=init_cost,
                errors=errors[r],
                diversities=self.diversities[r],
                wall_time=wall_time / len(configs),
            )
            for r, (config, spec) in enumerate(zip(configs, specs))
        ]


def _archive_guides(archives: ArchiveSet, u: np.ndarray) -> np.ndarray:
    """Sample one representative triple per particle and resolve the guides.

    `u` is (R, 3, m) uniforms in [0, 1) picking each run's phi, psi and chi
    representatives (the `int(u * size)`-th row; psi's and chi's in slot
    order).  Returns the (R, m, d) guides: row-wise argmin fitness across the
    three, ties resolved in phi, psi, chi priority order.
    """
    if np.count_nonzero(archives.fill) < archives.fill.size:
        raise ValueError("every archive needs an entry before it can supply guides")
    idx = (u * archives.fill[:, :, None]).astype(np.intp) + archives.offsets  # rows of the table
    rows = run_index(len(u))
    which = archives.fitness[rows[:, :, None], idx].argmin(1)  # first minimum == phi > psi > chi priority
    return archives.positions[rows, idx[rows, which, np.arange(u.shape[2])]]


def _uniform_block(config: OptimizerConfig, runs: int, n: int, d: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """An empty (R, B) uniform block and views of its guide, velocity,
    partner-and-delta and eviction slices, cut as the module docstring states."""
    m = n // 2 if config.uses_mutation else n
    e = n - m
    layout = (3 * m, 3 * m * d, 2 * e * (1 + d), n + 1)
    if not config.uses_archives:
        layout = (0, 2 * m * d, 2 * e * (1 + d), 0)
    u = np.empty((runs, sum(layout)))
    return u, np.split(u, np.cumsum(layout)[:-1], 1)


def _opsom_iteration(
    state: SwarmState,
    archives: ArchiveSet,
    config: OptimizerConfig,
    blocks: list[Block],
    u: list[np.ndarray],
) -> None:
    """One iteration of every run: learner sweep, elite mutation, bests, archive updates.
    It writes the state's positions and velocities in place.

    `blocks` cover the run axis in order; each block's sweeps go to its
    function as one batch.  `u` holds the guide, velocity, partner-and-delta
    and eviction slices of the (R, B) uniform block, run r's in row r, cut by
    `_uniform_block`.  With every strategy off this is one baseline PSO step,
    and `archives` is never read.
    """
    guide_u, velocity_u, mutation_u, evict_u = u
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
        a, b, c = INERTIA if config.fixed_inertia else r[:, 0], r[:, 1], r[:, 2]
    else:
        guides = state.pbest_positions[learners]
        a, b, c = INERTIA, COGNITIVE * r[:, 0], SOCIAL * r[:, 1]
    velocity = velocity_update(V[learners], x, guides, state.gbest_position[:, None], a, b, c)
    X[learners], V[learners] = handle_bounds(x + velocity, velocity)
    if mutating:
        # learners and elites are disjoint, so the elites mutate from their
        # iteration-start positions; they keep their velocities
        X[rows, elite_idx] = mutate_elites(X[rows, elite_idx], archives.phi_positions, mutation_u)

    fitness = [evaluate_batch(spec, X[block].reshape(-1, d)) for block, spec in blocks]
    state.fitness = np.concatenate(fitness).reshape(runs, n)
    improved, better = update_bests(state)
    state.iteration += 1
    _update_archives(archives, state, config, improved, better, evict_u)


def _update_archives(archives: ArchiveSet, state: SwarmState, config: OptimizerConfig, improved: np.ndarray,
                     better: np.ndarray, evict_u: np.ndarray) -> None:
    """Refresh phi and push `update_bests`' improved personal bests (R, n) to psi and better
    global bests (R,) to chi; `evict_u` holds the (R, n + 1) eviction uniforms."""
    # phi is read only by the guides and the mutation; it, psi and chi move
    # only when some personal best did
    if not (config.uses_archives or config.uses_mutation) or not np.count_nonzero(improved):
        return
    refresh_phi(archives, state)
    if config.uses_archives:
        archives.psi.push(state.pbest_positions, state.pbest_fitness, improved, evict_u[:, :-1])
        if np.count_nonzero(better):
            archives.chi.push(state.gbest_position[:, None], state.gbest_fitness[:, None], better[:, None],
                              evict_u[:, -1:])


def run(config: OptimizerConfig, spec: ObjectiveSpec, observer: Observer | None = None) -> RunRecord:
    """Run the configured algorithm on one problem and return its trace.

    `observer(state, archives)` is called after initialization and after every
    iteration; it reads the live state and archives, which are overwritten in
    place, so it copies what it keeps, and it must not modify them.
    """
    return run_cell([config], [spec], observer)[0]


def run_cell(configs: list[OptimizerConfig], specs: list[ObjectiveSpec],
             observer: Observer | None = None) -> list[RunRecord]:
    """Run R configs that differ only in seed in lockstep, run r on `specs[r]`; return their traces in order.

    The specs share one dimension.  Consecutive runs of one spec form a
    block: one initialization call and one evaluation call per iteration.
    Every run makes the K iterations its budget affords (see the module
    docstring), and each keeps its own generator, so run r's record is bitwise
    the one `run(configs[r], specs[r])` gives; its `wall_time` is its share of
    the call's time.  An observer watches a single run, so it needs exactly
    one config; it sees that run's state and archives with the run axis
    dropped.
    """
    if not configs:
        raise ValueError("run_cell needs at least one config")
    if len(specs) != len(configs):
        raise ValueError(f"run_cell needs one spec per config, got {len(specs)} for {len(configs)} configs")
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("the configs of one call may differ only in seed")
    dimensions = sorted({spec.dimension for spec in specs})
    if len(dimensions) > 1:
        raise ValueError(f"the specs of one call must share one dimension, got {dimensions}")
    if observer is not None and len(configs) > 1:
        raise ValueError(f"an observer watches one run, got {len(configs)} configs")
    for c in configs:  # they differ only in seed, and each seed is checked
        init_cost = c.validate(specs[0])
    start = time.perf_counter()
    rngs = [np.random.default_rng(c.seed) for c in configs]
    runs, n, d = len(configs), config.population, dimensions[0]
    budget = config.resolved_budget(d)
    iterations = max(0, (budget - init_cost - 1) // n)
    starts = [r for r in range(runs) if r == 0 or specs[r] is not specs[r - 1]]
    blocks = [(slice(a, b), specs[a]) for a, b in zip(starts, [*starts[1:], runs])]

    levels = config.oa_levels if config.uses_oa else None
    swarms = [build_initial_swarm(n, spec, rngs[block], levels=levels) for block, spec in blocks]
    positions, fitness = (np.concatenate(parts) for parts in zip(*swarms))
    state = SwarmState(positions, np.zeros_like(positions), fitness)
    archives = ArchiveSet(runs, n, d)  # left empty by the baseline
    # every initial best is new; n + 1 pushes never fill an archive of capacity n, so evict_u is unread
    _update_archives(archives, state, config, np.ones((runs, n), bool), np.ones(runs, bool), np.zeros((runs, n + 1)))

    # the slices are views, cut once; every iteration refills the block
    u, u_slices = _uniform_block(config, runs, n, d)
    trace = _Trace(runs, iterations)
    while True:
        trace.snap(state)
        if observer is not None:
            observer(state.view(0), archives.view(0))
        if state.iteration == iterations:
            return trace.records(configs, specs, budget, init_cost, time.perf_counter() - start)
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        _opsom_iteration(state, archives, config, blocks, u_slices)
