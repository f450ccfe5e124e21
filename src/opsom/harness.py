"""Command-line experiment harness: configures runs, executes the repeated-run
protocol with paired seeds, and writes machine-readable outputs.

Run r of every (function, dimension) pair uses the same derived seed for
every algorithm, so paired comparisons differ only algorithmically.  The runs
of one (function, dimension, algorithm) cell advance in lockstep.  Output
files contain no timestamps and use shortest round-trip float formatting, so
repeated invocations with identical flags are byte-identical.

Subcommands:
  run      execute an experiment (one or more algorithms)
  compare  same as run but requires at least two algorithms
  oa       print a constructed orthogonal array
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .objective import ObjectiveSpec, describe_suite, make_suite
from .optimizer import ALGORITHMS, OptimizerConfig, RunRecord, exploration_ratio, run_cell
from .ortho_init import construct_oa, format_oa
from .swarm_core import PsoParams

# spreads consecutive run indices across seed space (64-bit golden ratio step)
RUN_SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

CSV_HEADER = "iteration,evals,best_error,diversity,exploration_pct"


def run_seed(base_seed: int, run_index: int) -> int:
    """Derived per-run seed; run 0 uses the base seed itself."""
    return (base_seed ^ (run_index * RUN_SEED_STRIDE)) & _MASK64


@dataclass
class ExperimentConfig:
    """A full experiment: suite x dimensions x algorithms x repeated runs."""

    suite_seed: int = 0
    dimensions: tuple[int, ...] = (10, 30, 50)
    runs: int = 25
    base_seed: int = 0
    algorithms: tuple[str, ...] = ("opsom",)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    out_dir: Path | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        # a repeat would write its cell's files twice and summarize duplicated runs
        for name, values in (("algorithm", self.algorithms), ("dimension", self.dimensions)):
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} list must be non-empty without repeats, got {list(values)}")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
        # the ablations switch off opsom's strategies; pso has none to switch off
        ablated = [f for f in ("no_oa", "no_archives", "no_mutation", "fixed_inertia") if getattr(self.optimizer, f)]
        if ablated and "opsom" not in self.algorithms:
            raise ValueError(f"{ablated[0]} ablates opsom, which is not among the algorithms {list(self.algorithms)}")
        levels = self.optimizer.oa_levels
        if levels != OptimizerConfig.oa_levels and ("opsom" not in self.algorithms or self.optimizer.no_oa):
            raise ValueError(f"oa_levels={levels} has no effect: no run uses the orthogonal array")

    def optimizer_for(self, algorithm: str, seed: int) -> OptimizerConfig:
        return replace(self.optimizer, algorithm=algorithm, seed=seed)


@dataclass
class SummaryStats:
    """Order statistics of final best-of-run errors for one experiment cell."""

    best: float
    worst: float
    median: float
    mean: float
    std: float

    def __post_init__(self):
        if not self.best <= self.median <= self.worst:
            raise ValueError("statistics out of order")
        if self.std < 0.0:
            raise ValueError("standard deviation must be non-negative")


def summarize(errors) -> SummaryStats:
    """Exact order statistics plus sample standard deviation (n-1 denominator)."""
    errors = np.asarray(list(errors), dtype=float)
    if errors.size == 0:
        raise ValueError("cannot summarize an empty cell")
    return SummaryStats(
        best=float(errors.min()),
        worst=float(errors.max()),
        median=float(np.median(errors)),
        mean=float(errors.mean()),
        std=float(errors.std(ddof=1)) if errors.size > 1 else 0.0,
    )


def execute(config: ExperimentConfig) -> dict[tuple[str, int, str], list[RunRecord]]:
    """Execute all runs of an experiment, grouped by (function, dimension, algorithm).

    Each such cell's runs advance in lockstep as one task; with jobs > 1 the
    cells are distributed over worker processes.  Results are identical to a
    sequential execution.
    """
    cells: list[list[OptimizerConfig]] = []
    specs: list[ObjectiveSpec] = []
    keys: list[tuple[str, int, str]] = []
    for dim in config.dimensions:
        for spec in make_suite(config.suite_seed, dim):
            for algo in config.algorithms:
                cells.append([config.optimizer_for(algo, run_seed(config.base_seed, r)) for r in range(config.runs)])
                specs.append(spec)
                keys.append((spec.id, dim, algo))
    if config.jobs > 1:
        # costlier cells come last (higher dimensions, and the suite's hybrid
        # and composite functions), so the pool takes them first and the
        # cheap ones even out the end
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            records = list(pool.map(run_cell, cells[::-1], specs[::-1], chunksize=1))[::-1]
    else:
        records = list(map(run_cell, cells, specs))
    return dict(zip(keys, records))


def format_convergence_csv(record: RunRecord) -> str:
    """Render one run's trace in the convergence CSV schema."""
    explore = exploration_ratio(record.diversities)
    lines = [CSV_HEADER]
    for i in range(len(record.iterations)):
        lines.append(
            f"{record.iterations[i]},{record.evaluations[i]},"
            f"{float(record.errors[i])!r},{float(record.diversities[i])!r},{float(explore[i])!r}"
        )
    return "\n".join(lines) + "\n"


def _summary_line(key: tuple[str, int, str], records: list[RunRecord]) -> str:
    stats = summarize([rec.best_error for rec in records])
    func, dim, algo = key
    return (
        f"function={func} dim={dim} algo={algo} runs={len(records)} budget={records[0].budget} "
        f"best={stats.best!r} median={stats.median!r} mean={stats.mean!r} "
        f"worst={stats.worst!r} std={stats.std!r}"
    )


def write_outputs(config: ExperimentConfig, grouped: dict[tuple[str, int, str], list[RunRecord]]) -> Path:
    """Write one convergence CSV per run plus the experiment summary file."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_lines = []
    for key, records in grouped.items():
        func, dim, algo = key
        for r, record in enumerate(records):
            path = out / f"{func}_d{dim}_{algo}_run{r:02d}.csv"
            path.write_text(format_convergence_csv(record))
        summary_lines.append(_summary_line(key, records))
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    for dim in config.dimensions:
        (out / f"suite_d{dim}.txt").write_text(describe_suite(make_suite(config.suite_seed, dim)))
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opsom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment_flags(p):
        exp, opt, pso = ExperimentConfig, OptimizerConfig, PsoParams
        p.add_argument("--algo", default=",".join(exp.algorithms), help="comma-separated algorithms (opsom, pso)")
        p.add_argument("--dim", default=",".join(map(str, exp.dimensions)), help="comma-separated dimensions")
        p.add_argument("--runs", type=int, default=exp.runs, help="runs per (function, dimension, algorithm)")
        p.add_argument("--seed", type=int, default=exp.base_seed, help="base seed for per-run seed derivation")
        p.add_argument("--suite-seed", type=int, default=exp.suite_seed, help="seed for suite shifts/rotations")
        p.add_argument("--pop", type=int, default=opt.population, help="population size (even, >= 6)")
        p.add_argument("--budget", type=int, default=opt.budget, help="evaluation budget (default 10000*d)")
        p.add_argument("--oa-levels", type=int, default=opt.oa_levels, help="orthogonal-array level count (prime)")
        p.add_argument("--inertia", type=float, default=pso.inertia)
        p.add_argument("--cognitive", type=float, default=pso.cognitive)
        p.add_argument("--social", type=float, default=pso.social)
        p.add_argument("--v-max-fraction", type=float, default=pso.v_max_fraction)
        p.add_argument("--no-oa", action="store_true", help="ablation: uniform random initialization")
        p.add_argument("--no-archives", action="store_true", help="ablation: baseline updates for regulars")
        p.add_argument("--no-mutation", action="store_true", help="ablation: elites learn like regulars")
        p.add_argument("--fixed-inertia", action="store_true", help="ablation: fixed inertia in scheme updates")
        p.add_argument("--jobs", type=int, default=exp.jobs, help="worker processes, each taking whole cells")
        p.add_argument("--out", required=True, help="output directory")

    run_p = sub.add_parser("run", help="run an experiment")
    add_experiment_flags(run_p)
    cmp_p = sub.add_parser("compare", help="run an experiment with at least two algorithms")
    add_experiment_flags(cmp_p)

    oa_p = sub.add_parser("oa", help="print a constructed orthogonal array")
    oa_p.add_argument("--levels", type=int, required=True, help="level count (prime)")
    oa_p.add_argument("--factors", type=int, required=True, help="minimum number of columns")
    return parser


def _experiment_from_args(args) -> ExperimentConfig:
    algorithms = tuple(a.strip() for a in args.algo.split(",") if a.strip())
    dimensions = tuple(int(d) for d in args.dim.split(","))
    optimizer = OptimizerConfig(
        population=args.pop,
        budget=args.budget,
        oa_levels=args.oa_levels,
        pso_params=PsoParams(args.inertia, args.cognitive, args.social, args.v_max_fraction),
        no_oa=args.no_oa,
        no_archives=args.no_archives,
        no_mutation=args.no_mutation,
        fixed_inertia=args.fixed_inertia,
    )
    return ExperimentConfig(
        suite_seed=args.suite_seed,
        dimensions=dimensions,
        runs=args.runs,
        base_seed=args.seed,
        algorithms=algorithms,
        optimizer=optimizer,
        out_dir=Path(args.out),
        jobs=args.jobs,
    )


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "oa":
            print(format_oa(construct_oa(args.levels, args.factors)), end="")
            return 0
        experiment = _experiment_from_args(args)
        if args.command == "compare" and len(experiment.algorithms) < 2:
            parser.error("compare requires at least two algorithms (e.g. --algo opsom,pso)")
        grouped = execute(experiment)
        out = write_outputs(experiment, grouped)
        print(f"wrote {sum(len(v) for v in grouped.values())} runs to {out}")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
