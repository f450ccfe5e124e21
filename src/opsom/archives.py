"""The three bounded archives feeding the regular-subgroup learning schemes,
kept for the R runs of a `run_cell` call at once.

phi holds the personal bests of the half of the swarm with the best personal
bests.  psi collects personal bests that strictly improved, chi global bests
that strictly improved; both are capped at the population size.  A push into
a full archive overwrites a uniformly random slot, i.e. evicts a uniformly
random older entry, so the latest global best is never lost from chi.

All three live in one table of rows per run, archive k in the rows from
`start[k]`: guide sampling gathers from it without stacking anything, and one
`ArchiveSet.update` per iteration writes it with one gather and one scatter.
"""

from __future__ import annotations

import numpy as np

from .swarm_core import SwarmState, flat_rows

PHI, PSI, CHI = 0, 1, 2  # an archive's index into `start`, `capacity` and the columns of `fill`


class ArchiveSet:
    """The three archives of R swarms of a fixed even size n and dimension.

    Their rows share one table per run, `positions` (R, rows, d) and
    `fitness` (R, rows): phi's n/2 rows, then psi's n slots and chi's n
    slots, all written by `update`.  Archive k has `capacity[k]` rows from row
    `start[k]` on, of which `fill[:, k]` are filled, in push order (phi is
    always full); `phi_positions`, `phi_fitness` and their psi and chi
    namesakes view all `capacity[k]` rows of every run, so run r's filled
    psi rows are `psi_fitness[r, :fill[r, PSI]]`.
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
        # the flat rows phi is rebuilt into, and the archive of each of an update's n + 1 push candidates
        # per run (particle i to psi, the global best to chi) as a flat index into `fill` and `offsets`
        self._phi_rows = (self.offsets[:, PHI] + np.arange(self.capacity[PHI])).reshape(-1)
        self._archive = (flat_rows(runs, 3) + np.append(np.full(population_size, PSI), CHI)).reshape(-1)
        # each archive's `*_positions` and `*_fitness` view all its rows, filled or not
        for k, name in enumerate(("phi", "psi", "chi")):
            rows = slice(self.start[k], self.start[k] + self.capacity[k])
            setattr(self, f"{name}_positions", self.positions[:, rows])
            setattr(self, f"{name}_fitness", self.fitness[:, rows])

    def update(self, state: SwarmState, improved: np.ndarray, better: np.ndarray, u: np.ndarray) -> None:
        """Rebuild phi and push the (R, n) `improved` personal bests to psi and the (R,) `better`
        global bests to chi.  phi[r, j] is run r's j-th personal best by fitness, ties toward the
        lower index.  Run r's improved particle i pushes with eviction uniform `u[r, i]`, and its new
        global best, its top-ranked personal best, with `u[r, n]`; `u` is read only at pushes.  A
        push fills the next free slot or, once the archive is full, overwrites slot `int(u * n)`;
        of the pushes of one call that land on one slot, the later one wins."""
        runs, n, d = state.pbest_positions.shape
        # the flat pbest rows of each run's top half by fitness; the first is update_bests' argmin
        ranked = state.pbest_fitness.argsort(kind="stable")[:, : self.capacity[PHI]] + flat_rows(runs, n)
        pushed = np.concatenate((improved, better[:, None]), 1)
        pushes = pushed.cumsum(1)
        pushes[:, n] = better  # chi's one candidate is its own first push
        q = pushed.ravel().nonzero()[0]  # flat (run, candidate) indices, each run's in candidate order
        a = self._archive.take(q)  # each push's flat (run, archive) index
        free = pushes.take(q) + self.fill.take(a) - 1  # the slot each push would fill
        slot = np.where(free < n, free, (u.take(q) * n).astype(np.intp))  # psi and chi both hold n
        # of the pushes that land on one row of the flat table, only the last one writes
        target, j = self.offsets.take(a) + slot, np.arange(1, len(q) + 1)
        last = np.zeros(self.fitness.size, np.intp)
        np.maximum.at(last, target, j)
        lands = last[target] == j
        # the flat pbest row each candidate pushes: particle i's own, and chi the top-ranked one
        candidates = np.concatenate((flat_rows(runs, n, n), ranked[:, :1]), 1)
        rows = np.concatenate((self._phi_rows, target[lands]))
        source = np.concatenate((ranked.reshape(-1), candidates.take(q[lands])))
        self.positions.reshape(-1, d)[rows] = state.pbest_positions.reshape(-1, d).take(source, 0)
        self.fitness.reshape(-1)[rows] = state.pbest_fitness.take(source)
        np.minimum(self.fill[:, PSI:] + pushes[:, n - 1 :], n, out=self.fill[:, PSI:])
