"""Command-line experiment harness: configures runs, executes the repeated-run
protocol with paired seeds, and writes machine-readable outputs.

Run r of every (function, dimension) pair uses the same derived seed for
every algorithm, so paired comparisons differ only algorithmically.  The runs
of one (function, dimension, algorithm) cell advance in lockstep, and small
cells of one (dimension, algorithm) share a task, advancing in lockstep with
each other; a run's record does not depend on its task.  Output files contain
no timestamps and use shortest round-trip float formatting, so repeated
invocations with identical flags are byte-identical.

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

from .objective import describe_suite, make_suite
from .optimizer import OptimizerConfig, RunRecord, exploration_ratio, run_cell
from .ortho_init import construct_oa, format_oa

# spreads consecutive run indices across seed space (64-bit golden ratio step)
RUN_SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

CSV_HEADER = "iteration,evals,best_error,diversity,exploration_pct"


# Cells share a task while its (swarms, n, d) state stays within this many
# float64 values (94 KiB per state array): 5 cells of d=30, R=2, n=40 share
# one, 3 of d=50, and a cell of the paper's R=25 is always alone.  Timed on
# one CPU of a 2-core Xeon (whole suite, budget 500*d, jobs 1, medians of 8
# alternations), this size took 1.11 s for opsom at d=30, R=2 against 1.44 s
# at one cell per task, and no (d, R, algorithm) with d in {10, 30, 50} and R
# in {1, 2, 25} was slower beyond its spread; twice the size slowed pso at
# d=50, R=2 (3.86 s against 3.06 s), which is evaluation-bound, with little
# dispatch to share.
TASK_VALUES = 12_000


def run_seed(base_seed: int, run_index: int) -> int:
    """Derived per-run seed of a base seed in [0, 2**64); run 0 uses the base seed itself."""
    return (base_seed ^ (run_index * RUN_SEED_STRIDE)) & _MASK64


def task_layout(cells: int, cell_values: int, jobs: int) -> list[range]:
    """Split `cells` cells of `cell_values` state values each into tasks; return each task's cell indices.

    A task takes as many cells as fit in `TASK_VALUES` (at least one), but
    there are at least `jobs` tasks while there are cells to fill them.  Cell
    i goes to task i mod T, so when the costlier cells come last every task
    gets its share of them.
    """
    per_task = max(1, TASK_VALUES // cell_values)
    tasks = min(cells, max(jobs, -(-cells // per_task)))
    return [range(t, cells, tasks) for t in range(tasks)]


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
        # run_seed keeps 64 bits, so a seed outside them would alias one inside
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must be in [0, 2**64), got {self.base_seed}")
        if self.suite_seed < 0:
            raise ValueError(f"suite_seed must be non-negative, got {self.suite_seed}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        # a repeat would write its cell's files twice and summarize duplicated runs
        for name, values in (("algorithm", self.algorithms), ("dimension", self.dimensions)):
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} list must be non-empty without repeats, got {list(values)}")
        # the ablations switch off opsom's strategies; pso has none to switch off.
        # An unknown algorithm name passes these rules, so `validate` names it
        ablated = [f for f in ("no_oa", "no_archives", "no_mutation", "fixed_inertia") if getattr(self.optimizer, f)]
        if ablated and set(self.algorithms) == {"pso"}:
            raise ValueError(f"{ablated[0]} ablates opsom, which is not among the algorithms {list(self.algorithms)}")
        levels = self.optimizer.oa_levels
        if levels != OptimizerConfig.oa_levels and (set(self.algorithms) == {"pso"} or self.optimizer.no_oa):
            raise ValueError(f"oa_levels={levels} has no effect: no run uses the orthogonal array")


def summarize(errors) -> dict[str, float]:
    """Best, median, mean, worst and sample standard deviation (n-1 denominator), in `summary.txt` order."""
    errors = np.asarray(list(errors), dtype=float)
    if errors.size == 0:
        raise ValueError("cannot summarize an empty cell")
    return {
        "best": float(errors.min()),
        "median": float(np.median(errors)),
        "mean": float(errors.mean()),
        "worst": float(errors.max()),
        "std": float(errors.std(ddof=1)) if errors.size > 1 else 0.0,
    }


def execute(config: ExperimentConfig) -> dict[tuple[str, int, str], list[RunRecord]]:
    """Execute all runs of an experiment, grouped by (function, dimension, algorithm).

    Each such cell's runs advance in lockstep, and `task_layout` packs the
    cells of each (dimension, algorithm) into tasks, so small cells share one
    `run_cell` call; with jobs > 1 the tasks are distributed over worker
    processes.  Results are identical to a sequential execution and to any
    other layout.  Every (dimension, algorithm) setting is validated before
    the first task runs, so a setting bad at any dimension runs nothing.
    """
    keys: list[tuple[str, int, str]] = []
    tasks = []  # each task's cell keys, configs and specs, R consecutive runs per cell
    for dim in config.dimensions:
        suite = make_suite(config.suite_seed, dim)
        for algo in config.algorithms:
            replace(config.optimizer, algorithm=algo, seed=config.base_seed).validate(suite[0])
        keys += [(spec.id, dim, algo) for spec in suite for algo in config.algorithms]
        for algo in config.algorithms:
            runs = [replace(config.optimizer, algorithm=algo, seed=run_seed(config.base_seed, r))
                    for r in range(config.runs)]
            for cells in task_layout(len(suite), config.runs * config.optimizer.population * dim, config.jobs):
                tasks.append(([(suite[i].id, dim, algo) for i in cells], runs * len(cells),
                              [suite[i] for i in cells for _ in runs]))
    task_keys, configs, specs = zip(*tasks)
    if config.jobs > 1:
        # costlier tasks come last (higher dimensions, and the suite's hybrid
        # and composite functions last in each task), so the pool takes them
        # first and the cheap ones even out the end; a forking pool starts
        # every worker at the first submit, so it gets no more workers than tasks
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(tasks))) as pool:
            results = list(pool.map(run_cell, configs[::-1], specs[::-1], chunksize=1))[::-1]
    else:
        results = list(map(run_cell, configs, specs))
    grouped = {}
    for cell_keys, records in zip(task_keys, results):
        for j, key in enumerate(cell_keys):
            grouped[key] = records[j * config.runs : (j + 1) * config.runs]
    return {key: grouped[key] for key in keys}


def format_convergence_csv(record: RunRecord) -> str:
    """Render one run's trace in the convergence CSV schema."""
    # each derived column once per record; `tolist` gives Python floats, whose repr round-trips
    columns = (record.iterations, record.evaluations, record.errors, record.diversities,
               exploration_ratio(record.diversities))
    rows = zip(*(column.tolist() for column in columns))
    lines = [CSV_HEADER, *(f"{k},{e},{err!r},{div!r},{x!r}" for k, e, err, div, x in rows)]
    return "\n".join(lines) + "\n"


def _summary_line(key: tuple[str, int, str], records: list[RunRecord]) -> str:
    stats = summarize([rec.best_error for rec in records])
    func, dim, algo = key
    head = f"function={func} dim={dim} algo={algo} runs={len(records)} budget={records[0].budget}"
    return " ".join([head, *(f"{name}={value!r}" for name, value in stats.items())])


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
        (out / f"suite_d{dim}.txt").write_text(describe_suite(make_suite(config.suite_seed, dim), config.suite_seed))
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opsom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment_flags(p):
        exp, opt = ExperimentConfig, OptimizerConfig
        p.add_argument("--algo", default=",".join(exp.algorithms), help="comma-separated algorithms (opsom, pso)")
        p.add_argument("--dim", default=",".join(map(str, exp.dimensions)), help="comma-separated dimensions")
        p.add_argument("--runs", type=int, default=exp.runs, help="runs per (function, dimension, algorithm)")
        p.add_argument("--seed", type=int, default=exp.base_seed, help="base seed for per-run seed derivation")
        p.add_argument("--suite-seed", type=int, default=exp.suite_seed, help="seed for suite shifts/rotations")
        p.add_argument("--pop", type=int, default=opt.population, help="population size (even, >= 6)")
        p.add_argument("--budget", type=int, default=opt.budget, help="evaluation budget (default 10000*d)")
        p.add_argument("--oa-levels", type=int, default=opt.oa_levels, help="orthogonal-array level count (prime)")
        p.add_argument("--no-oa", action="store_true", help="ablation: uniform random initialization")
        p.add_argument("--no-archives", action="store_true", help="ablation: baseline updates for regulars")
        p.add_argument("--no-mutation", action="store_true", help="ablation: elites learn like regulars")
        p.add_argument("--fixed-inertia", action="store_true", help="ablation: fixed inertia in scheme updates")
        p.add_argument("--jobs", type=int, default=exp.jobs, help="worker processes, each taking tasks of whole cells")
        p.add_argument("--out", required=True, help="output directory")

    run_p = sub.add_parser("run", help="run an experiment")
    add_experiment_flags(run_p)
    cmp_p = sub.add_parser("compare", help="run an experiment with at least two algorithms")
    add_experiment_flags(cmp_p)

    oa_p = sub.add_parser("oa", help="print a constructed orthogonal array")
    oa_p.add_argument("--levels", type=int, required=True, help="level count (prime)")
    oa_p.add_argument("--factors", type=int, required=True, help="minimum number of columns")
    return parser


def _split_list(text: str) -> tuple[str, ...]:
    """The entries of a comma-separated flag, stripped, without empty ones."""
    return tuple(entry.strip() for entry in text.split(",") if entry.strip())


def _experiment_from_args(args) -> ExperimentConfig:
    algorithms = _split_list(args.algo)
    dimensions = []
    for entry in _split_list(args.dim):
        try:
            dimensions.append(int(entry))
        except ValueError:
            raise ValueError(f"--dim expects comma-separated integers, got {entry!r}") from None
    optimizer = OptimizerConfig(
        population=args.pop,
        budget=args.budget,
        oa_levels=args.oa_levels,
        no_oa=args.no_oa,
        no_archives=args.no_archives,
        no_mutation=args.no_mutation,
        fixed_inertia=args.fixed_inertia,
    )
    return ExperimentConfig(
        suite_seed=args.suite_seed,
        dimensions=tuple(dimensions),
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
