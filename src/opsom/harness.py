"""Command-line experiment harness: configures runs, executes the repeated-run
protocol with paired seeds, and writes machine-readable outputs.

A cell runs one config R times, run r seeded `optimizer.run_seed(seed, r)`
for every algorithm, so paired comparisons differ only algorithmically.  The
runs of one (function, dimension, algorithm) cell advance in lockstep, and
cells of one (dimension, algorithm) share a task, advancing in lockstep with
each other, while their stacked state fits the loop's own block budget,
`optimizer.BLOCK_VALUES`; a run's record does not depend on its task.
Output files contain no timestamps and use shortest round-trip float
formatting, so repeated invocations with identical flags are byte-identical.

Subcommands:
  run      execute an experiment (one or more algorithms)
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
from .optimizer import ABLATIONS, BLOCK_VALUES, OptimizerConfig, RunRecord, exploration_ratio, run_cell
from .ortho_init import construct_oa, format_oa

CSV_HEADER = "iteration,evals,best_error,diversity,exploration_pct"


def task_layout(cells: int, cell_values: int, jobs: int) -> list[range]:
    """Split `cells` cells of `cell_values` state values each into tasks; return each task's cell indices.

    A task takes as many cells as its stacked (runs * cells, n, d) state fits
    in `optimizer.BLOCK_VALUES` (at least one), but there are at least `jobs`
    tasks while there are cells to fill them.  Cell i goes to task i mod T,
    so when the costlier cells come last every task gets its share of them.
    """
    per_task = max(1, BLOCK_VALUES // cell_values)
    tasks = min(cells, max(jobs, -(-cells // per_task)))
    return [range(t, cells, tasks) for t in range(tasks)]


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: suite x dimensions x algorithms x repeated runs."""

    suite_seed: int = 0
    dimensions: tuple[int, ...] = (10, 30, 50)
    runs: int = 25
    algorithms: tuple[str, ...] = ("opsom",)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    out_dir: Path | None = None
    jobs: int = 1

    def __post_init__(self):
        for name in ("dimensions", "algorithms"):  # a list would stay open to an append after the checks
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
        # `make_suite`'s own rule, checked here so that every setting is refused before any suite is drawn
        if min(self.dimensions) < 2:
            raise ValueError(f"suite requires dimension >= 2, got {min(self.dimensions)}")
        # the ablations switch off opsom's strategies; pso has none to switch off.
        # An unknown algorithm name passes these rules, so `validate` names it
        ablated = [flag for flag in ABLATIONS if getattr(self.optimizer, flag)]
        if ablated and set(self.algorithms) == {"pso"}:
            raise ValueError(f"{ablated[0]} ablates opsom, which is not among the algorithms {list(self.algorithms)}")
        if self.optimizer.algorithm != OptimizerConfig.algorithm:
            raise ValueError("optimizer.algorithm would be ignored: set algorithms")
        for dim in self.dimensions:  # every setting, so one bad only at a later dimension costs no run
            for algo in self.algorithms:
                self.cell_config(algo).validate(dim)

    def cell_config(self, algorithm: str) -> OptimizerConfig:
        """The config every cell of `algorithm` runs; pso has no strategy to ablate, so its flags stay off."""
        return replace(self.optimizer, algorithm=algorithm, **{flag: False for flag in ABLATIONS if algorithm == "pso"})


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
    cells of each (dimension, algorithm) into tasks of at most
    `optimizer.BLOCK_VALUES` state values, or one cell: one `run_cell` call of
    the algorithm's `cell_config`, R times, on the cells' specs.  With
    jobs > 1 the tasks are distributed over worker processes.  Each record
    is filed under the cell it names.  Results are identical to a sequential
    execution and to any other layout.  `ExperimentConfig` has already
    refused every bad setting.
    """
    suites = {dim: make_suite(config.suite_seed, dim) for dim in config.dimensions}
    grouped = {(spec.id, dim, algo): [] for dim in suites for spec in suites[dim] for algo in config.algorithms}
    tasks = []  # each task's config, the specs of its cells and the runs per cell
    for dim, suite in suites.items():
        for algo in config.algorithms:
            for cells in task_layout(len(suite), config.runs * config.optimizer.population * dim, config.jobs):
                tasks.append((config.cell_config(algo), [suite[i] for i in cells], config.runs))
    configs, specs, runs = zip(*tasks)
    if config.jobs > 1:
        # costlier tasks come last (higher dimensions, and the suite's hybrid
        # and composite functions last in each task), so the pool takes them
        # first and the cheap ones even out the end; a forking pool starts
        # every worker at the first submit, so it gets no more workers than tasks
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(tasks))) as pool:
            results = list(pool.map(run_cell, configs[::-1], specs[::-1], runs[::-1], chunksize=1))[::-1]
    else:
        results = list(map(run_cell, configs, specs, runs))
    for records in results:
        for record in records:
            grouped[record.function_id, record.dimension, record.algorithm].append(record)
    return grouped


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
        (out / f"suite_d{dim}.txt").write_text(describe_suite(config.suite_seed, dim))
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opsom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    exp, opt = ExperimentConfig, OptimizerConfig
    run_p = sub.add_parser("run", help="run an experiment")
    run_p.add_argument("--algo", default=",".join(exp.algorithms), help="comma-separated algorithms (opsom, pso)")
    run_p.add_argument("--dim", default=",".join(map(str, exp.dimensions)), help="comma-separated dimensions")
    run_p.add_argument("--runs", type=int, default=exp.runs, help="runs per (function, dimension, algorithm)")
    run_p.add_argument("--seed", type=int, default=opt.seed, help="base seed for per-run seed derivation")
    run_p.add_argument("--suite-seed", type=int, default=exp.suite_seed, help="seed for suite shifts/rotations")
    run_p.add_argument("--pop", type=int, default=opt.population, help="population size (even, >= 6)")
    run_p.add_argument("--budget", type=int, default=opt.budget, help="evaluation budget (default 10000*d)")
    run_p.add_argument("--no-oa", action="store_true", help="ablation: uniform random initialization")
    run_p.add_argument("--no-archives", action="store_true", help="ablation: baseline updates for regulars")
    run_p.add_argument("--no-mutation", action="store_true", help="ablation: elites learn like regulars")
    run_p.add_argument("--fixed-inertia", action="store_true", help="ablation: fixed inertia in scheme updates")
    run_p.add_argument("--jobs", type=int, default=exp.jobs, help="worker processes, each taking tasks of whole cells")
    run_p.add_argument("--out", required=True, help="output directory")

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
        no_oa=args.no_oa,
        no_archives=args.no_archives,
        no_mutation=args.no_mutation,
        fixed_inertia=args.fixed_inertia,
        seed=args.seed,
    )
    return ExperimentConfig(
        suite_seed=args.suite_seed,
        dimensions=dimensions,
        runs=args.runs,
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
        made = [path for path in (experiment.out_dir, *experiment.out_dir.parents) if not path.exists()]
        experiment.out_dir.mkdir(parents=True, exist_ok=True)  # before any run, so an unusable one costs none
        try:
            grouped = execute(experiment)
        except BaseException:  # nothing is written before every run ends, so each level made is empty
            for path in made:  # the deepest first
                path.rmdir()
            raise
        out = write_outputs(experiment, grouped)
        print(f"wrote {sum(len(v) for v in grouped.values())} runs to {out}")
        return 0
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a budget too large to trace
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
