"""The three bounded archives feeding the regular-subgroup learning schemes,
kept for the R runs of a `run_cell` call at once.

phi holds the personal bests of the half of the swarm with the best personal
bests, rebuilt from scratch every iteration.  psi collects personal bests that
strictly improved, chi collects global bests that strictly improved; both are
capped at the population size.  A push into a full archive overwrites a
uniformly random slot, i.e. evicts a uniformly random older entry, so the
latest global best is never lost from chi.

All three live in one table of rows per run, archive k in the rows from
`start[k]`, so guide sampling gathers from it without stacking anything.
"""

from __future__ import annotations

import numpy as np

from .swarm_core import SwarmState, flat_rows

PHI, PSI, CHI = 0, 1, 2  # an archive's index into `start`, `capacity` and the columns of `fill`


class ArchiveSet:
    """The three archives of R swarms of a fixed even size n and dimension.

    Their rows share one table per run, `positions` (R, rows, d) and
    `fitness` (R, rows): phi's n/2 rows, then psi's n slots and chi's n
    slots.  Archive k has `capacity[k]` rows from row `start[k]` on, of which
    `fill[:, k]` are filled, in push order (phi is always full);
    `phi_positions`, `phi_fitness` and their psi and chi namesakes view them.
    `view(r)` gives run r alone, each archive cut to its filled slots.
    """

    def __init__(self, runs: int, population_size: int, dimension: int):
        self.capacity = np.array([population_size // 2, population_size, population_size])
        self.start = self.capacity.cumsum() - self.capacity
        rows = int(self.capacity.sum())
        self.positions = np.zeros((runs, rows, dimension))
        self.fitness = np.zeros((runs, rows))
        # phi is rebuilt wholesale every iteration and indexed by rank
        self.fill = np.zeros((runs, 3), dtype=np.intp)
        self.fill[:, PHI] = self.capacity[PHI]
        # the rows of the flat (R*rows, d) table where each run's phi, psi and chi slots start, (R, 3, 1)
        self.offsets = flat_rows(runs, rows)[:, :, None] + self.start[:, None]
        self._name_rows(self.start + self.capacity)

    def _name_rows(self, stop: np.ndarray) -> None:
        # each archive's `*_positions` and `*_fitness` view its rows start[k]:stop[k]
        for k, name in enumerate(("phi", "psi", "chi")):
            rows = slice(self.start[k], stop[k])
            setattr(self, f"{name}_positions", self.positions[..., rows, :])
            setattr(self, f"{name}_fitness", self.fitness[..., rows])

    def view(self, run: int) -> ArchiveSet:
        """Run `run` alone, with the run axis dropped."""
        view = object.__new__(ArchiveSet)
        view.__dict__.update(vars(self))
        view.positions, view.fitness, view.fill = self.positions[run], self.fitness[run], self.fill[run]
        view._name_rows(self.start + view.fill)
        return view

    def push(self, k: int, positions: np.ndarray, fitness: np.ndarray, pushed: np.ndarray, u: np.ndarray) -> None:
        """Push each run's rows i with `pushed[r, i]` into archive k, in index order.

        `positions` is (R, c, d); `fitness`, `pushed` and the eviction
        uniforms `u` are (R, c).  Run r's row i fills the next free slot or,
        once the archive is full, overwrites slot `int(u[r, i] * cap)`; when
        rows of one call land on one slot, the later row wins.  Stored
        fitnesses are never re-evaluated.
        """
        runs, cap, size = len(self.fill), self.capacity[k], self.fill[:, k]
        pushes = pushed.cumsum(1)
        r, i = pushed.nonzero()  # run-major, each run's rows in index order
        free = pushes[r, i] + size[r] - 1  # the slot each push would fill
        slot = np.where(free < cap, free, (u[r, i] * cap).astype(np.intp))
        # of the pushes that land on one slot of a run, only the last one writes
        target, j = r * cap + slot, np.arange(len(r))
        last = np.full(runs * cap, -1, dtype=np.intp)
        np.maximum.at(last, target, j)
        lands = last[target] == j
        r, i, row = r[lands], i[lands], slot[lands] + self.start[k]
        self.positions[r, row] = positions[r, i]
        self.fitness[r, row] = fitness[r, i]
        np.minimum(size + pushes[:, -1], cap, out=size)


def refresh_phi(archives: ArchiveSet, state: SwarmState) -> ArchiveSet:
    """Rebuild each run's phi as the personal bests of its top half by personal-best fitness.

    Entries are stored in ascending fitness order (ties toward the lower
    particle index), so phi[r, j] pairs with run r's j-th ranked elite particle.
    """
    runs, n, d = state.pbest_positions.shape
    order = state.pbest_fitness.argsort(kind="stable")[:, : archives.capacity[PHI]] + flat_rows(runs, n)
    archives.phi_positions[...] = state.pbest_positions.reshape(-1, d).take(order, 0)
    archives.phi_fitness[...] = state.pbest_fitness.take(order)
    return archives
