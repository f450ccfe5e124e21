"""The three bounded archives feeding the regular-subgroup learning schemes,
kept for the R runs of a cell at once.

phi holds the personal bests of the half of the swarm with the best personal
bests, rebuilt from scratch every iteration.  psi collects personal bests that
strictly improved, chi collects global bests that strictly improved; both are
capped at the population size, evicting a uniformly random entry other than
the newest when full, so the latest global best is never lost from chi.

All three live in one table of rows per run, so guide sampling gathers from
it without stacking anything.
"""

from __future__ import annotations

import functools

import numpy as np

from .swarm_core import SwarmState, run_index


@functools.cache
def _moves(runs: int, length: int) -> np.ndarray:
    """Read-only (runs, length, length) table: `[r, k]` reorders run r's row of
    a flattened (runs, length) order so that position k moves to the end and
    the positions after it move up one."""
    j = np.arange(length)
    moves = j + (j >= j[:, None])
    moves[:, -1] = j
    moves = moves + (np.arange(runs) * length)[:, None, None]
    moves.flags.writeable = False
    return moves


class BoundedArchive:
    """Bounded (position, fitness) rows of R runs, in slots reached through an order.

    An archive of capacity cap has 2*cap slots: `positions` (R, 2*cap, d) and
    `fitness` (R, 2*cap).  `order` (R, 2*cap) lists every slot once: run r's
    rows first, `order[r, :size[r]]` in push order (oldest first), then a
    queue of free slots that new rows go into.  A push moves ints in `order`,
    never rows, and an evicted row's slot rejoins the end of the queue, so the
    rows of one `push` call never share a slot and go in with one write.
    Stored fitnesses are never re-evaluated.  `view(r)` gives run r alone:
    its rows gathered in push order.
    """

    def __init__(self, positions: np.ndarray, fitness: np.ndarray, size: np.ndarray, order: np.ndarray):
        self.positions = positions
        self.fitness = fitness
        self.size = size
        self.order = order
        order[...] = np.arange(order.shape[1])  # the first pushes fill slots 0, 1, 2, ...

    def __len__(self) -> int:
        if np.ndim(self.size):
            raise TypeError("an archive of several runs has one fill count per run: read .size")
        return int(self.size)

    def view(self, run: int) -> BoundedArchive:
        view = object.__new__(BoundedArchive)
        view.size = self.size[run]
        view.order = self.order[run, : view.size]
        view.positions, view.fitness = self.positions[run, view.order], self.fitness[run, view.order]
        return view

    def push(self, positions: np.ndarray, fitness: np.ndarray, pushed: np.ndarray, u: np.ndarray) -> None:
        """Push each run's rows i with `pushed[r, i]`, in index order.

        `positions` is (R, c, d), `fitness` and `pushed` (R, c) with c <= cap;
        `u` holds at least c eviction uniforms per run.  Run r's j-th push
        into a full archive first evicts its row at push-order position
        `int(u[r, j] * cap)`, i.e. `list.pop(k)` on the push-ordered list, so
        the newest row always survives.  The loop runs over push ranks j, each
        step over all runs.
        """
        pushes = pushed.cumsum(1)  # run r's pushes up to and including row i
        counts = pushes[:, -1]
        ranks = counts.max()
        if not ranks:
            return
        runs, slots = self.order.shape
        cap = slots // 2
        rows = run_index(runs)
        # run r's j-th push writes the queued slot at order position size[r] + j;
        # rows not pushed go to the last queued slot, which no push of this
        # call takes when some row is left out
        taken = np.where(pushed, pushes + (self.size - 1)[:, None], slots - 1)
        taken = self.order[rows, taken]
        self.positions[rows, taken] = positions
        self.fitness[rows, taken] = fitness
        j = np.arange(ranks)
        # a push into a full archive moves the evicted row's position to the
        # end, which shifts the newest row into the push order; a push into a
        # free place, or a run with no j-th push, leaves the order as it is
        free = (cap - self.size)[:, None]
        evicted = (u[:, :ranks] * cap).astype(np.intp)
        np.putmask(evicted, (j < free) | (j >= counts[:, None]), slots - 1)
        order = self.order
        for step in _moves(runs, slots)[rows[:, 0], evicted.T]:
            order = order.take(step)
        self.order[...] = order
        np.minimum(self.size + counts, cap, out=self.size)


class ArchiveSet:
    """The three archives of R swarms of a fixed even size n and dimension.

    Their rows share one table per run, `positions` (R, rows, d) and
    `fitness` (R, rows): phi's n/2 rows, then psi's 2n slots and chi's 2n
    slots.  `fill` (R, 3) counts the rows of phi, psi and chi, and `order`
    (R, 2, 2n) holds psi's and chi's slot orders.
    """

    def __init__(self, runs: int, population_size: int, dimension: int):
        if population_size < 2 or population_size % 2:
            raise ValueError(f"population size must be even and >= 2, got {population_size}")
        half = self.phi_capacity = population_size // 2
        cap = self.psi_capacity = self.chi_capacity = population_size
        self.positions = np.zeros((runs, half + 4 * cap, dimension))
        self.fitness = np.zeros((runs, half + 4 * cap))
        # phi is rebuilt wholesale every iteration and indexed by rank
        self.fill = np.zeros((runs, 3), dtype=np.intp)
        self.fill[:, 0] = half
        self.order = np.empty((runs, 2, 2 * cap), dtype=np.intp)
        self.phi_positions = self.positions[:, :half]
        self.phi_fitness = self.fitness[:, :half]
        psi, chi = slice(half, half + 2 * cap), slice(half + 2 * cap, half + 4 * cap)
        self.psi = BoundedArchive(self.positions[:, psi], self.fitness[:, psi], self.fill[:, 1], self.order[:, 0])
        self.chi = BoundedArchive(self.positions[:, chi], self.fitness[:, chi], self.fill[:, 2], self.order[:, 1])
        # the table rows where psi's and chi's slots start
        self.offsets = np.array([[psi.start], [chi.start]])

    def view(self, run: int) -> ArchiveSet:
        """Run `run` alone, with the run axis dropped."""
        view = object.__new__(ArchiveSet)
        view.__dict__.update(vars(self))
        for name in ("positions", "fitness", "fill", "order", "phi_positions", "phi_fitness"):
            setattr(view, name, getattr(self, name)[run])
        view.psi, view.chi = self.psi.view(run), self.chi.view(run)
        return view


def refresh_phi(archives: ArchiveSet, state: SwarmState) -> ArchiveSet:
    """Rebuild each run's phi as the personal bests of its top half by personal-best fitness.

    Entries are stored in ascending fitness order (ties toward the lower
    particle index), so phi[r, j] pairs with run r's j-th ranked elite particle.
    """
    order = state.pbest_fitness.argsort(kind="stable")[:, : archives.phi_capacity]
    rows = run_index(len(order))
    archives.phi_positions[...] = state.pbest_positions[rows, order]
    archives.phi_fitness[...] = state.pbest_fitness[rows, order]
    return archives


def push_psi(archives: ArchiveSet, positions: np.ndarray, fitness: np.ndarray, pushed: np.ndarray,
             u: np.ndarray) -> ArchiveSet:
    """Record the personal bests that strictly improved this iteration; `u` picks the evicted rows."""
    archives.psi.push(positions, fitness, pushed, u)
    return archives


def push_chi(archives: ArchiveSet, positions: np.ndarray, fitness: np.ndarray, pushed: np.ndarray,
             u: np.ndarray) -> ArchiveSet:
    """Record the global bests that strictly improved this iteration; `u` picks the evicted rows."""
    archives.chi.push(positions, fitness, pushed, u)
    return archives
