"""The three bounded archives feeding the regular-subgroup learning schemes,
kept for the R runs of a `run_cell` call at once.

phi holds the personal bests of the half of the swarm with the best personal
bests, rebuilt from scratch every iteration.  psi collects personal bests that
strictly improved, chi collects global bests that strictly improved; both are
capped at the population size.  A push into a full archive overwrites a
uniformly random slot, i.e. evicts a uniformly random older entry, so the
latest global best is never lost from chi.

All three live in one table of rows per run, so guide sampling gathers from
it without stacking anything.
"""

from __future__ import annotations

import numpy as np

from .swarm_core import SwarmState, flat_rows


class BoundedArchive:
    """Bounded (position, fitness) rows of R runs, in `cap` slots per run.

    `positions` is (R, cap, d) and `fitness` (R, cap); run r's rows fill its
    slots `[:size[r]]` in push order until the archive is full, and from then
    on every push overwrites a slot.  Stored fitnesses are never re-evaluated.
    `view(r)` gives run r alone: its filled slots, in slot order.
    """

    def __init__(self, positions: np.ndarray, fitness: np.ndarray, size: np.ndarray):
        self.positions = positions
        self.fitness = fitness
        self.size = size

    def __len__(self) -> int:
        if np.ndim(self.size):
            raise TypeError("an archive of several runs has one fill count per run: read .size")
        return int(self.size)

    def view(self, run: int) -> BoundedArchive:
        view = object.__new__(BoundedArchive)
        view.size = self.size[run]
        view.positions, view.fitness = self.positions[run, : view.size], self.fitness[run, : view.size]
        return view

    def push(self, positions: np.ndarray, fitness: np.ndarray, pushed: np.ndarray, u: np.ndarray) -> None:
        """Push each run's rows i with `pushed[r, i]`, in index order.

        `positions` is (R, c, d); `fitness`, `pushed` and the eviction
        uniforms `u` are (R, c).  Run r's row i fills the next free slot or,
        once the archive is full, overwrites slot `int(u[r, i] * cap)`; when
        rows of one call land on one slot, the later row wins.
        """
        runs, cap = self.fitness.shape
        pushes = pushed.cumsum(1)
        r, i = pushed.nonzero()  # run-major, each run's rows in index order
        free = pushes[r, i] + self.size[r] - 1  # the slot each push would fill
        slot = np.where(free < cap, free, (u[r, i] * cap).astype(np.intp))
        # of the pushes that land on one slot of a run, only the last one writes
        target, j = r * cap + slot, np.arange(len(r))
        last = np.full(runs * cap, -1, dtype=np.intp)
        np.maximum.at(last, target, j)
        lands = last[target] == j
        r, i, slot = r[lands], i[lands], slot[lands]
        self.positions[r, slot] = positions[r, i]
        self.fitness[r, slot] = fitness[r, i]
        np.minimum(self.size + pushes[:, -1], cap, out=self.size)


class ArchiveSet:
    """The three archives of R swarms of a fixed even size n and dimension.

    Their rows share one table per run, `positions` (R, rows, d) and
    `fitness` (R, rows): phi's n/2 rows, then psi's n slots and chi's n
    slots.  `fill` (R, 3) counts the rows of phi, psi and chi.
    """

    def __init__(self, runs: int, population_size: int, dimension: int):
        half = self.phi_capacity = population_size // 2
        cap = self.psi_capacity = self.chi_capacity = population_size
        self.positions = np.zeros((runs, half + 2 * cap, dimension))
        self.fitness = np.zeros((runs, half + 2 * cap))
        # phi is rebuilt wholesale every iteration and indexed by rank
        self.fill = np.zeros((runs, 3), dtype=np.intp)
        self.fill[:, 0] = half
        self.phi_positions = self.positions[:, :half]
        self.phi_fitness = self.fitness[:, :half]
        psi, chi = slice(half, half + cap), slice(half + cap, half + 2 * cap)
        self.psi = BoundedArchive(self.positions[:, psi], self.fitness[:, psi], self.fill[:, 1])
        self.chi = BoundedArchive(self.positions[:, chi], self.fitness[:, chi], self.fill[:, 2])
        # the rows of the flat (R*rows, d) table where each run's phi, psi and chi slots start, (R, 3, 1)
        self.offsets = flat_rows(runs, half + 2 * cap)[:, :, None] + np.array([[0], [psi.start], [chi.start]])

    def view(self, run: int) -> ArchiveSet:
        """Run `run` alone, with the run axis dropped."""
        view = object.__new__(ArchiveSet)
        view.__dict__.update(vars(self))
        for name in ("positions", "fitness", "fill", "phi_positions", "phi_fitness"):
            setattr(view, name, getattr(self, name)[run])
        view.psi, view.chi = self.psi.view(run), self.chi.view(run)
        return view


def refresh_phi(archives: ArchiveSet, state: SwarmState) -> ArchiveSet:
    """Rebuild each run's phi as the personal bests of its top half by personal-best fitness.

    Entries are stored in ascending fitness order (ties toward the lower
    particle index), so phi[r, j] pairs with run r's j-th ranked elite particle.
    """
    runs, n, d = state.pbest_positions.shape
    order = state.pbest_fitness.argsort(kind="stable")[:, : archives.phi_capacity] + flat_rows(runs, n)
    archives.phi_positions[...] = state.pbest_positions.reshape(-1, d).take(order, 0)
    archives.phi_fitness[...] = state.pbest_fitness.take(order)
    return archives
