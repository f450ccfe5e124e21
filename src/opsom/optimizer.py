"""One run loop and one step function for both algorithms.  The full
optimizer is plain PSO plus three strategies: orthogonal-array init, archive
learning for the regular half and mutation of the elite half.  The baseline
PSO is the same iteration with all three turned off.  `run_cell` advances
R runs of one config on every spec of one dimension in lockstep on (R, n, d)
state, run r seeded `run_seed(config.seed, r)`; each spec's R runs are a
harness cell.  `run` is its one-run, one-spec case.

Budget: initialization costs each run `init = max(n, array rows)`
evaluations with the orthogonal array and n without it, and every iteration
exactly n more (one sweep over the swarm; the sweeps of one cell go to its
function as one batch).  A sweep starts only if it would end below the
budget, so a run makes exactly K = max(0, (budget - init - 1) // n)
iterations, counted before the loop, and ends within [budget - n, budget]
evaluations: below the budget unless the budget is init itself.  After
iteration k a run has made init + n*k evaluations; its record computes
`evaluations[k] = init + n*k` rather than storing it.  Runs are bitwise
deterministic for a fixed (config, spec, run seed), whichever runs and
functions share their call.

Learners: with mutation each run's particles are ranked by fitness, ties to
the lower index, and the step moves one ranked copy of the swarm: its better
half, the elites, is mutated, and its worse half learns in ascending-fitness
order.  With no mutation, the baseline's case, all m = n particles learn in
particle order.  Either way one clamp puts the whole swarm back in the box,
zeroing the velocity of the learners' clamped coordinates only.

Random stream: each run keeps its own generator, and initialization draws
from it first.  After that the loop runs in blocks of T iterations (the last
block may be shorter), T = max(1, BLOCK_VALUES // (R*B)), so a block of
more than one iteration holds at most BLOCK_VALUES uniforms.  Per block, each run's generator fills that
run's (T_b, B) slab of an (R, T, B) block with exactly one `random(out=...)`
call, which draws the bits of T_b successive `random(B)` calls: slab row t
is the B uniforms of the block's t-th iteration.  The step function draws
nothing itself.  Each iteration's B uniforms are cut, in this order, into
  guide uniforms        3*m      (none without archives),
  velocity uniforms     3*m*d    (2*m*d without archives: r1, then r2),
  partner uniforms      2*e,
  mutation deltas       2*e*d,
  eviction uniforms     n + 1    (none without archives),
where n is the population, m the number of learners (n/2, or n with no
mutation) and e the number of mutated elites (n - m).  Their sum, the width
B, depends only on n, d and the flags; the baseline's is (2, n, d): r1, then
r2.  What depends on the uniforms alone, the mutation partners and the
baseline's c1*r1 and c2*r2, is derived once per block.  A uniform u picks
index `int(u * size)`.  In the one archive update, particle i's psi push into
a full psi overwrites the slot picked by eviction uniform i, and the chi push,
the top-ranked personal best, the slot picked by the last one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .archives import ArchiveSet
from .mutation import draw_partners, mutate_elites
from .objective import ObjectiveSpec, evaluate_batch
from .ortho_init import OA_LEVELS, array_shape, build_initial_swarm
from .swarm_core import (
    COGNITIVE,
    INERTIA,
    SOCIAL,
    SwarmState,
    flat_rows,
    handle_bounds,
    update_bests,
    velocity_update,
)

ALGORITHMS = ("opsom", "pso")
# the flags that switch off one of opsom's strategies; pso has none to switch off
ABLATIONS = ("no_oa", "no_archives", "no_mutation", "fixed_inertia")

# spreads consecutive run indices across seed space (64-bit golden ratio step)
RUN_SEED_STRIDE = 0x9E3779B97F4A7C15

Observer = Callable[[SwarmState, ArchiveSet], None]

# The size budget of every lockstep call, in float64 values (256 KiB).  A
# block of iterations holds at most this many uniforms, all runs together,
# unless one iteration's alone are more; and the harness stacks cells into one
# call while their (runs, n, d) state fits in it, unless one cell's alone does
# not.  The bound keeps what blocking adds to a call's memory small: the
# block, and the trace's ring of fewer values (B >= n*d).  At d=50 one opsom
# run peaked at 0.6 MiB with it and at 4.7 MiB with blocks of 64 iterations
# (tracemalloc).
BLOCK_VALUES = 2**15


def run_seed(base_seed: int, run_index: int) -> int:
    """Derived per-run seed of a base seed in [0, 2**64); run 0 uses the base seed itself."""
    return (base_seed ^ (run_index * RUN_SEED_STRIDE)) % 2**64


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for one optimization run."""

    algorithm: str = "opsom"
    population: int = 40
    budget: int | None = None  # None resolves to 10_000 * dimension
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

    def validate(self, dimension: int) -> int:
        """The one check of a run's settings at `dimension`; return the evaluations initialization costs each run."""
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        # run_seed keeps 64 bits, so a seed outside them would alias one inside
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.population < 6 or self.population % 2:
            raise ValueError(f"population must be even and >= 6, got {self.population}")
        if self.fixed_inertia and self.no_archives:  # the no-archives velocity always takes the inertia
            raise ValueError("fixed_inertia has no effect with no_archives")
        ablated = [flag for flag in ABLATIONS if getattr(self, flag)]
        if ablated and self.algorithm == "pso":
            raise ValueError(f"{ablated[0]} ablates opsom and has no effect on pso")
        # orthogonal init scores every array row, topping up to n when the array is smaller
        n = self.population
        init_cost = max(n, array_shape(OA_LEVELS, dimension)[1]) if self.uses_oa else n
        budget = self.resolved_budget(dimension)
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


def diversity(positions: np.ndarray) -> np.ndarray:
    """Mean Euclidean distance of the particles from the swarm centroid: (..., n, d) positions give (...)."""
    n = positions.shape[-2]
    D = positions - np.add.reduce(positions, -2, keepdims=True) / n
    return np.add.reduce(np.sqrt(np.add.reduce(np.multiply(D, D, out=D), -1)), -1) / n


def exploration_ratio(diversities: np.ndarray) -> np.ndarray:
    """Per-iteration exploration percentage: diversity relative to its peak."""
    diversities = np.asarray(diversities, dtype=float)
    peak = diversities.max() if diversities.size else 0.0
    if peak <= 0.0:
        return np.zeros_like(diversities)
    return 100.0 * diversities / peak


class _Trace:
    """Each run's best fitness and swarm diversity after iterations 0..K, in (R, K + 1) arrays.

    Snapshots copy the (R, n, d) positions into a ring of up to `block`
    entries; `diversity` runs on the whole ring once it is full, and once more
    on what the last snapshot leaves in it.
    """

    def __init__(self, shape: tuple[int, int, int], iterations: int, block: int):
        self.best_fitness = np.empty((shape[0], iterations + 1))
        self.diversities = np.empty((shape[0], iterations + 1))
        self.ring = np.empty((min(block, iterations + 1), *shape))

    def snap(self, state: SwarmState) -> None:
        k = state.iteration
        slot = k % len(self.ring)
        self.best_fitness[:, k] = state.gbest_fitness
        self.ring[slot] = state.positions
        if slot == len(self.ring) - 1 or k == self.best_fitness.shape[1] - 1:
            self.diversities[:, k - slot : k + 1] = diversity(self.ring[: slot + 1]).T

    def records(self, config: OptimizerConfig, seeds: list[int], specs: list[ObjectiveSpec], budget: int,
                init_cost: int, wall_time: float) -> list[RunRecord]:
        if not np.isfinite(self.best_fitness).all():
            raise ValueError("best_fitness must be finite")
        runs = list(product(specs, seeds))  # spec-major, one per row of the run axis
        # |best fitness - f_opt| for every run's whole trace at once, one row per run
        errors = np.abs(self.best_fitness - np.array([[spec.f_opt] for spec, _ in runs]))
        return [
            RunRecord(
                function_id=spec.id,
                algorithm=config.algorithm,
                dimension=spec.dimension,
                seed=seed,
                population=config.population,
                budget=budget,
                init=init_cost,
                errors=errors[r],
                diversities=self.diversities[r],
                wall_time=wall_time / len(errors),
            )
            for r, (spec, seed) in enumerate(runs)
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
    runs, _, m = u.shape
    idx = (u * archives.fill[:, :, None]).astype(np.intp) + archives.offsets  # rows of the flat table
    which = archives.fitness.take(idx).argmin(1)  # first minimum == phi > psi > chi priority
    chosen = idx.reshape(-1).take(which * m + flat_rows(runs, 3 * m, m))
    return archives.positions.reshape(-1, archives.positions.shape[-1]).take(chosen, 0)


def _block_layout(config: OptimizerConfig, n: int, d: int) -> tuple[int, ...]:
    """The widths of an iteration's guide, velocity, partner, delta and eviction
    uniforms, as the module docstring states; they sum to B."""
    m = n // 2 if config.uses_mutation else n
    e = n - m
    if not config.uses_archives:
        return 0, 2 * m * d, 2 * e, 2 * e * d, 0
    return 3 * m, 3 * m * d, 2 * e, 2 * e * d, n + 1


def _block_draws(config: OptimizerConfig, u: np.ndarray, n: int, d: int) -> list[np.ndarray]:
    """Cut an (R, T, B) block of uniforms and derive what depends on them alone, once for the block.

    Returns, each with leading (R, T) axes: the (3, m) guide uniforms; the
    (3, m, d) velocity uniforms, or without archives the (2, m, d) products
    c1*r1 and c2*r2, which overwrite their uniforms in `u`; the (e,)
    partners g and h as rows of the flat (R*e, d) elite stack; the
    (2, e, d) mutation deltas; the (n + 1,) eviction uniforms.  Iteration t
    of the block reads index t of the second axis.
    """
    runs, block, _ = u.shape
    m = n // 2 if config.uses_mutation else n
    e = n - m
    guide, velocity, partners, delta, evict = np.split(u, np.cumsum(_block_layout(config, n, d))[:-1], 2)
    velocity = velocity.reshape(runs, block, -1, m, d)
    if not config.uses_archives:  # in place, so a block takes no more memory
        velocity *= np.array([COGNITIVE, SOCIAL])[:, None, None]
    g, h = draw_partners(partners.reshape(runs, block, 2, e))
    offsets = flat_rows(runs, e)[:, None]
    return [guide.reshape(runs, block, -1, m), velocity, g + offsets, h + offsets,
            delta.reshape(runs, block, 2, e, d), evict]


def _opsom_iteration(
    state: SwarmState,
    archives: ArchiveSet,
    config: OptimizerConfig,
    specs: list[ObjectiveSpec],
    draws: list[np.ndarray],
    t: int,
) -> None:
    """One iteration of every run: learner sweep, elite mutation, bests, archive updates.
    It writes the state's positions and velocities in place.

    The run axis holds each spec's cell in turn, all of one size; each
    spec's sweeps go to it as one batch.  `draws` is what `_block_draws`
    derives from a block of uniforms, of which this is iteration `t`.  With
    every strategy off this is one baseline PSO step, and `archives` is never
    read.
    """
    guide_u, velocity_u, partner_g, partner_h, delta, evict_u = draws
    archived, mutating = config.uses_archives, config.uses_mutation
    X, V = state.positions, state.velocities
    runs, n, d = X.shape
    if mutating:
        # each run's particles best first, ties to the lower index, as rows of the flat (R*n, d)
        # views: `take` gathers them, assignment scatters to them.  Laid out (2, R, n/2), every
        # run's elites and then every run's learners, each half of the ranked copy is contiguous
        order = (state.fitness.argsort(kind="stable") + flat_rows(runs, n)).reshape(runs, 2, -1).swapaxes(0, 1)
        learners = order[1]
        X, V = X.reshape(-1, d), V.reshape(-1, d)
        moved = X.take(order, 0)
        x, v = moved[1], V.take(learners, 0)
    else:
        # everyone learns, in particle order; `a[...]` is a view of the whole array
        order, learners, x, v = ..., ..., X, V

    r = velocity_u[:, t]
    if archived:
        guides = _archive_guides(archives, guide_u[:, t])
        a, b, c = INERTIA if config.fixed_inertia else r[:, 0], r[:, 1], r[:, 2]
    else:
        guides = state.pbest_positions.reshape(-1, d).take(learners, 0) if mutating else state.pbest_positions
        a, b, c = INERTIA, r[:, 0], r[:, 1]
    velocity = velocity_update(v, x, guides, state.gbest_position[:, None], a, b, c)
    if mutating:
        x += velocity  # the learners move in place in `moved`
        # the elites mutate from their iteration-start positions and keep their velocities
        moved[0] = mutate_elites(moved[0], archives.phi_positions, partner_g[:, t], partner_h[:, t], delta[:, t])
    else:
        moved = x + velocity
    # one clamp of the whole swarm; only the learners' clamped velocities are zeroed
    X[order], V[learners] = handle_bounds(moved, velocity)

    fitness = [evaluate_batch(spec, rows) for spec, rows in zip(specs, state.positions.reshape(len(specs), -1, d))]
    state.fitness = np.concatenate(fitness).reshape(runs, n)
    improved, better = update_bests(state)
    state.iteration += 1
    _update_archives(archives, state, config, improved, better, evict_u[:, t])


def _update_archives(archives: ArchiveSet, state: SwarmState, config: OptimizerConfig, improved: np.ndarray,
                     better: np.ndarray, evict_u: np.ndarray) -> None:
    """`ArchiveSet.update` where it is needed; without archives it rebuilds phi alone."""
    # phi is read only by the guides and the mutation; it, psi and chi move
    # only when some personal best did
    if not (config.uses_archives or config.uses_mutation) or not np.count_nonzero(improved):
        return
    if not config.uses_archives:  # no pushes: phi alone
        improved, better = np.zeros_like(improved), np.zeros_like(better)
    archives.update(state, improved, better, evict_u)


def run(config: OptimizerConfig, spec: ObjectiveSpec, observer: Observer | None = None) -> RunRecord:
    """Run the configured algorithm on one problem and return its trace.

    `observer(state, archives)` is called after initialization and after every
    iteration; it reads the live state and archives, which are overwritten in
    place, so it copies what it keeps, and it must not modify them.  In its
    one-run view, `archives.psi_fitness` holds psi's filled slots.
    """
    return run_cell(config, [spec], 1, observer)[0]


def run_cell(config: OptimizerConfig, specs: list[ObjectiveSpec], runs: int = 1,
             observer: Observer | None = None) -> list[RunRecord]:
    """Run `config` R = `runs` times on every spec in lockstep; return the traces spec-major.

    Run r is seeded `run_seed(config.seed, r)` on every spec, so two configs
    of one seed make paired runs.  The specs share one dimension.  Spec j's
    cell, its R runs on rows j*R .. (j+1)*R - 1 of the run axis, makes one
    initialization call and one evaluation call per iteration.  Every run
    makes the K iterations its budget affords (see the module docstring) and
    keeps its own generator, so run r's record on spec j is bitwise the one
    `run` gives at seed `run_seed(config.seed, r)`; its `wall_time` is its
    share of the call's time.  An observer watches a single run, so it needs
    one run and one spec; it sees that run's state and archives with the run
    axis dropped.
    """
    if runs < 1 or not specs:
        raise ValueError("run_cell needs at least one run and one spec")
    dimensions = sorted({spec.dimension for spec in specs})
    if len(dimensions) > 1:
        raise ValueError(f"the specs of one call must share one dimension, got {dimensions}")
    if observer is not None and runs * len(specs) > 1:
        raise ValueError(f"an observer watches one run, got {runs * len(specs)} runs")
    init_cost = config.validate(dimensions[0])
    start = time.perf_counter()
    seeds = [run_seed(config.seed, r) for r in range(runs)]
    cells = [[np.random.default_rng(seed) for seed in seeds] for _ in specs]  # each run's own generator
    rngs = [rng for cell in cells for rng in cell]
    stacked, n, d = len(rngs), config.population, dimensions[0]  # the run axis holds every cell's runs
    budget = config.resolved_budget(d)
    iterations = max(0, (budget - init_cost - 1) // n)

    swarms = [build_initial_swarm(n, spec, cell, oa=config.uses_oa) for spec, cell in zip(specs, cells)]
    positions, fitness = (np.concatenate(parts) for parts in zip(*swarms))
    state = SwarmState(positions, np.zeros_like(positions), fitness)
    archives = ArchiveSet(stacked, n, d)  # left empty by the baseline
    # every initial best is new; n + 1 pushes never fill an archive of capacity n, so evict_u is unread
    _update_archives(archives, state, config, np.ones((stacked, n), bool), np.ones(stacked, bool),
                     np.zeros((stacked, n + 1)))

    width = sum(_block_layout(config, n, d))
    block = max(1, BLOCK_VALUES // (stacked * width))  # T, iterations per block
    u = np.empty((stacked, min(block, iterations), width))
    trace = _Trace(positions.shape, iterations, block)
    while True:
        trace.snap(state)
        if observer is not None:
            observer(state.view(0), archives.view(0))
        k = state.iteration
        if k == iterations:
            return trace.records(config, seeds, specs, budget, init_cost, time.perf_counter() - start)
        t = k % block
        if t == 0:  # the next min(T, K - k) iterations' uniforms, one call per run
            slab = u[:, : iterations - k]
            for rng, rows in zip(rngs, slab):
                rng.random(out=rows)
            draws = _block_draws(config, slab, n, d)
        _opsom_iteration(state, archives, config, specs, draws, t)
