"""The three bounded archives feeding the regular-subgroup learning schemes.

phi holds the personal bests of the half of the swarm with the best personal
bests, rebuilt from scratch every iteration.  psi collects personal bests that
strictly improved, chi collects global bests that strictly improved; both are
capped at the population size, evicting a uniformly random entry other than
the newest when full, so the latest global best is never lost from chi.
"""

from __future__ import annotations

import numpy as np

from .swarm_core import SwarmState


class BoundedArchive:
    """Fixed-capacity (position, fitness) rows in push order, oldest first.

    Rows `[0, len)` of `positions`/`fitness` are occupied; stored fitnesses are
    never re-evaluated.
    """

    def __init__(self, capacity: int, dimension: int):
        self.positions = np.empty((capacity, dimension))
        self.fitness = np.empty(capacity)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def push(self, position: np.ndarray, fitness: float, rng: np.random.Generator) -> None:
        """Append a row; when full, first evict a uniformly random older row.

        The eviction draw and the shift of the later rows reproduce `list.pop(k)`
        on a list ordered by push time, so the newest row always survives.
        """
        cap = len(self.fitness)
        if self.size < cap:
            self.size += 1
        else:
            k = int(rng.integers(0, cap))
            self.positions[k:-1] = self.positions[k + 1 :]
            self.fitness[k:-1] = self.fitness[k + 1 :]
        self.positions[self.size - 1] = position
        self.fitness[self.size - 1] = fitness


class ArchiveSet:
    """The three archives for a swarm of a fixed even size and dimension."""

    def __init__(self, population_size: int, dimension: int):
        if population_size < 2 or population_size % 2:
            raise ValueError(f"population size must be even and >= 2, got {population_size}")
        self.phi_capacity = population_size // 2
        self.psi_capacity = population_size
        self.chi_capacity = population_size
        # phi is rebuilt wholesale every iteration and indexed by rank
        self.phi_positions = np.empty((0, dimension))
        self.phi_fitness = np.empty(0)
        self.psi = BoundedArchive(self.psi_capacity, dimension)
        self.chi = BoundedArchive(self.chi_capacity, dimension)


def refresh_phi(archives: ArchiveSet, state: SwarmState) -> ArchiveSet:
    """Rebuild phi as the personal bests of the top half by personal-best fitness.

    Entries are stored in ascending fitness order (ties toward the lower
    particle index), so phi[j] pairs with the j-th ranked elite particle.
    """
    order = np.argsort(state.pbest_fitness, kind="stable")[: archives.phi_capacity]
    archives.phi_positions = state.pbest_positions[order].copy()
    archives.phi_fitness = state.pbest_fitness[order].copy()
    return archives


def push_psi(archives: ArchiveSet, position: np.ndarray, fitness: float, rng: np.random.Generator) -> ArchiveSet:
    """Record a personal best that strictly improved this iteration."""
    archives.psi.push(position, fitness, rng)
    return archives


def push_chi(archives: ArchiveSet, position: np.ndarray, fitness: float, rng: np.random.Generator) -> ArchiveSet:
    """Record a global best that strictly improved this iteration."""
    archives.chi.push(position, fitness, rng)
    return archives
