"""Orthogonally initialized particle swarm optimizer with archive learning
and elite mutation, a baseline PSO, an emulated four-category benchmark
suite, and a deterministic experiment harness.

The package root exports the library entry points; everything else is
imported from its submodule (e.g. `opsom.harness.main` for the CLI).
"""

from .objective import ObjectiveSpec, make_suite
from .optimizer import OptimizerConfig, RunRecord, run

__version__ = "0.1.0"

__all__ = [
    "ObjectiveSpec",
    "OptimizerConfig",
    "RunRecord",
    "make_suite",
    "run",
]
