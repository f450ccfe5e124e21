"""The benchmark's workloads, one measured pass each, and the correctness gate.

A pass is a fixed unit of work fully determined by the workload seed, so every
pass of a run must produce the same result digest: a hash over each run's
(function, algorithm, run, final evaluations, repr(best_error)).

Workloads (population 40, both algorithms, one pass = every cell once):
  suite_d10      10 functions x {opsom, pso} at d=10, budget 10 000*d, in
                 process.  Per-iteration dispatch dominates here (archives,
                 mutation, trace bookkeeping), so archive and lockstep
                 changes must show on it.
  suite_d50      the same cells at d=50 with budget 200*d, in process.  The
                 objective, mostly `_transform`, dominates, so an evaluation
                 kernel change must show here and dispatch changes barely.
  cli_d30_jobs2  `opsom run` as a subprocess at d=30, budget 500*d, 2 runs,
                 --jobs 2, once per algorithm so each algorithm's throughput
                 is its own figure.  The only workload that pays for harness
                 I/O, pickling and the process pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

POPULATION = 40
ALGORITHMS = ("opsom", "pso")
CLI_TIMEOUT_S = 150
# what a console-script `opsom` does, without needing the package installed
CLI_ENTRY = "import sys; from opsom.harness import main; sys.exit(main(sys.argv[1:]))"


@dataclass
class RunOutcome:
    """One optimizer run as the benchmark saw it."""

    function: str
    algorithm: str
    run: int
    evals: int
    best_error: str  # repr() of the final best error, as digested
    problems: list[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        return f"{self.function},{self.algorithm},{self.run},{self.evals},{self.best_error}"


@dataclass
class PassResult:
    """Timed units (one run, or one CLI invocation) and run outcomes of one pass."""

    units: list[tuple[str, float, int]] = field(default_factory=list)  # (algorithm, seconds, evals)
    outcomes: list[RunOutcome] = field(default_factory=list)

    def add(self, algorithm: str, seconds: float, outcomes: list[RunOutcome]) -> None:
        done = sum(o.evals for o in outcomes if not o.problems)
        self.units.append((algorithm, seconds, done))
        self.outcomes.extend(outcomes)

    def evals_per_s(self, algorithm: str | None = None) -> float:
        return pooled_evals_per_s([self], algorithm)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(o.key for o in self.outcomes).encode()).hexdigest()


def pooled_evals_per_s(passes: list[PassResult], algorithm: str | None = None) -> float:
    """Evaluations over seconds, summed across the passes' units (of one algorithm)."""
    mine = [u for p in passes for u in p.units if algorithm in (None, u[0])]
    return sum(u[2] for u in mine) / sum(u[1] for u in mine)


def check_trace(evals, errors, budget: int, n: int) -> list[str]:
    """Budget accounting and monotonicity of one run's trace."""
    evals = np.asarray(evals)
    errors = np.asarray(errors, dtype=float)
    problems = []
    if not budget - n <= evals[-1] <= budget:
        problems.append(f"final evaluations {evals[-1]} outside [{budget - n}, {budget}]")
    if np.any(np.diff(evals) != n):
        problems.append(f"evaluation trace does not step by exactly {n}")
    if np.any(np.diff(errors) > 0):
        problems.append("error trace increases")
    if not (math.isfinite(errors[-1]) and errors[-1] >= 0.0):
        problems.append(f"best_error {errors[-1]!r} is not finite and >= 0")
    return problems


class LibraryWorkload:
    """Every suite cell run in this process through `opsom.run`."""

    def __init__(self, name: str, dimension: int, budget_per_dim: int):
        self.name = name
        self.dimension = dimension
        self.budget = budget_per_dim * dimension
        self.suite = []
        self.seed = 0

    def prepare(self, opsom, seed: int, work_dir: Path) -> None:
        self.suite = opsom.make_suite(seed, self.dimension)
        self.seed = seed

    def warm_up(self, opsom) -> None:
        for algorithm in ALGORITHMS:
            config = opsom.OptimizerConfig(algorithm=algorithm, population=POPULATION,
                                           budget=20 * POPULATION, seed=self.seed)
            opsom.run(config, self.suite[0])

    def run_pass(self, opsom, tracer=None) -> PassResult:
        result = PassResult()
        for spec in self.suite:
            for algorithm in ALGORITHMS:
                config = opsom.OptimizerConfig(algorithm=algorithm, population=POPULATION,
                                               budget=self.budget, seed=self.seed)
                observer = tracer.observer() if tracer else None
                start = time.perf_counter()
                try:
                    record = opsom.run(config, spec, observer)
                except Exception:  # a crashing run is a failed run, not a crashed benchmark
                    seconds = time.perf_counter() - start
                    outcome = RunOutcome(spec.id, algorithm, 0, 0, "", [traceback.format_exc(limit=3)])
                    result.add(algorithm, seconds, [outcome])
                    continue
                seconds = time.perf_counter() - start
                if tracer:
                    tracer.note_record(record)
                problems = check_trace(record.evaluations, record.errors, self.budget, POPULATION)
                if record.best_error != record.errors[-1]:
                    problems.append("best_error differs from the last traced error")
                outcome = RunOutcome(spec.id, algorithm, 0, int(record.evaluations[-1]),
                                     repr(record.best_error), problems)
                result.add(algorithm, seconds, [outcome])
        return result


class CliWorkload:
    """`opsom run` once per algorithm, as a subprocess or via `harness.main`."""

    def __init__(self, name: str, dimension: int, budget_per_dim: int, runs: int, jobs: int):
        self.name = name
        self.dimension = dimension
        self.budget = budget_per_dim * dimension
        self.runs = runs
        self.jobs = min(jobs, os.cpu_count() or 1)
        self.function_ids: list[str] = []
        self.seed = 0
        self.work_dir = Path()
        self.env: dict[str, str] = {}

    def prepare(self, opsom, seed: int, work_dir: Path) -> None:
        self.function_ids = [spec.id for spec in opsom.make_suite(seed, self.dimension)]
        self.seed = seed
        self.work_dir = work_dir
        src = str(Path(opsom.__file__).resolve().parents[1])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def warm_up(self, opsom) -> None:
        """Nothing to warm: every invocation is a fresh interpreter."""

    def argv(self, algorithm: str, out: Path) -> list[str]:
        return ["run", "--algo", algorithm, "--dim", str(self.dimension), "--runs", str(self.runs),
                "--budget", str(self.budget), "--pop", str(POPULATION), "--seed", str(self.seed),
                "--suite-seed", str(self.seed), "--jobs", str(self.jobs), "--out", str(out)]

    def run_pass(self, opsom, tracer=None, in_process: bool = False) -> PassResult:
        """One invocation per algorithm; `in_process` calls `harness.main` here."""
        result = PassResult()
        for algorithm in ALGORITHMS:
            out = self.work_dir / algorithm
            shutil.rmtree(out, ignore_errors=True)
            argv = self.argv(algorithm, out)
            start = time.perf_counter()
            if in_process:
                with contextlib.redirect_stdout(io.StringIO()):
                    status, error = opsom.harness.main(argv), ""
            else:
                status, error = self.invoke(argv)
            seconds = time.perf_counter() - start
            outcomes = self.read_outputs(algorithm, out)
            if status != 0:
                for o in outcomes:
                    o.problems.append(f"exit status {status}: {error}")
            if tracer and out.is_dir():
                tracer.counts["harness.bytes_written"] += sum(
                    p.stat().st_size for p in out.iterdir() if p.is_file())
            result.add(algorithm, seconds, outcomes)
        return result

    def invoke(self, argv: list[str]) -> tuple[int, str]:
        """Run the CLI in its own process group, so a timeout also ends its pool workers."""
        proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *argv], env=self.env, text=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
            return proc.returncode, stderr[-2000:]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return -1, f"timed out after {CLI_TIMEOUT_S} s"

    def read_outputs(self, algorithm: str, out: Path) -> list[RunOutcome]:
        """Parse and check every CSV plus `summary.txt` of one invocation."""
        outcomes = []
        for function in self.function_ids:
            for r in range(self.runs):
                outcome = RunOutcome(function, algorithm, r, 0, "")
                try:
                    lines = (out / f"{function}_d{self.dimension}_{algorithm}_run{r:02d}.csv").read_text().splitlines()
                    header = lines[0].split(",")
                    rows = [line.split(",") for line in lines[1:]]
                    evals = [int(row[header.index("evals")]) for row in rows]
                    errors = [row[header.index("best_error")] for row in rows]
                    problems = check_trace(evals, [float(e) for e in errors], self.budget, POPULATION)
                    outcome.evals, outcome.best_error = evals[-1], errors[-1]
                    outcome.problems += problems
                except (OSError, ValueError, IndexError) as exc:
                    outcome.problems.append(f"unreadable convergence CSV: {exc!r}")
                outcomes.append(outcome)
        expected = len(self.function_ids) * self.runs + 2  # CSVs, summary.txt, suite_d<dim>.txt
        found = sum(1 for p in out.iterdir() if p.is_file()) if out.is_dir() else 0
        problems = [] if found == expected else [f"{found} output files, expected {expected}"]
        problems += self.check_summary(algorithm, out, outcomes)
        for o in outcomes:
            o.problems += problems
        return outcomes

    def check_summary(self, algorithm: str, out: Path, outcomes: list[RunOutcome]) -> list[str]:
        try:
            lines = (out / "summary.txt").read_text().splitlines()
            records = [dict(item.split("=", 1) for item in line.split()) for line in lines]
            stats = [{k: float(r[k]) for k in ("best", "median", "mean", "worst", "std")} for r in records]
        except (OSError, ValueError, KeyError) as exc:
            return [f"unparseable summary.txt: {exc!r}"]
        if [r.get("function") for r in records] != self.function_ids:
            return ["summary.txt does not list every function once, in suite order"]
        problems = []
        for record, stat in zip(records, stats):
            finals = [float(o.best_error) for o in outcomes
                      if o.function == record["function"] and o.best_error]
            if (record.get("dim"), record.get("algo"), record.get("runs"), record.get("budget")) != (
                    str(self.dimension), algorithm, str(self.runs), str(self.budget)):
                problems.append(f"summary.txt header fields wrong for {record['function']}")
            elif not all(map(math.isfinite, stat.values())) or finals and stat["best"] != min(finals):
                problems.append(f"summary.txt statistics wrong for {record['function']}")
        return problems


WORKLOADS = {
    "suite_d10": lambda: LibraryWorkload("suite_d10", 10, 10_000),
    "suite_d50": lambda: LibraryWorkload("suite_d50", 50, 200),
    "cli_d30_jobs2": lambda: CliWorkload("cli_d30_jobs2", 30, 500, runs=2, jobs=2),
}
