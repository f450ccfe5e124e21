"""Tests for the experiment harness: statistics, CSV output, paired seeding,
parallel execution, and the CLI."""

import hashlib
import os
import re
from dataclasses import FrozenInstanceError
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opsom
from opsom.harness import (
    CSV_HEADER,
    ExperimentConfig,
    _build_parser,
    _experiment_from_args,
    execute,
    format_convergence_csv,
    main,
    summarize,
    task_layout,
    write_outputs,
)
from opsom import harness
from opsom.objective import ObjectiveSpec, base_spec
from opsom.optimizer import BLOCK_VALUES, OptimizerConfig, RunRecord, run, run_cell, run_seed
from test_ortho_init import verify_oa


class PoisonedSphere:
    """Sphere whose batches, from the `after`-th call on, hold NaN on even rows and +inf on row 1."""

    def __init__(self, after: int, dimension: int):
        self.after = after
        self.calls = 0
        self.shift = np.zeros(dimension)
        self.bias = 0.0

    def values(self, points):
        self.calls += 1
        out = (points * points).sum(axis=1)
        if self.calls >= self.after:
            out[::2] = np.nan
            out[1] = np.inf
        return out


def poisoned_spec(dimension: int, after: int = 3) -> ObjectiveSpec:
    return ObjectiveSpec(id="poisoned", category="unimodal", fn=PoisonedSphere(after, dimension))


GOLDEN = Path(__file__).parent / "golden"
# pinned output digests: file stem -> flags added to the criterion-3 invocation
GOLDEN_CASES = {
    "criterion3": [],
    "no_archives": ["--no-archives"],
    "no_mutation_fixed_inertia": ["--no-mutation", "--fixed-inertia"],
    "no_oa": ["--no-oa"],
}


class TestRunSeed:
    def test_run_zero_uses_base_seed(self):
        assert run_seed(7, 0) == 7

    def test_distinct_across_runs(self):
        seeds = {run_seed(7, r) for r in range(100)}
        assert len(seeds) == 100

    def test_fits_in_64_bits(self):
        assert all(0 <= run_seed(123, r) < 2**64 for r in range(50))


class TestSummarize:
    def test_three_values(self):
        # the keys come in summary.txt order
        assert summarize([1.0, 2.0, 3.0]) == dict(best=1.0, median=2.0, mean=2.0, worst=3.0, std=1.0)
        assert list(summarize([1.0, 2.0, 3.0])) == ["best", "median", "mean", "worst", "std"]

    def test_even_count_median(self):
        assert summarize([1.0, 2.0, 3.0, 4.0])["median"] == 2.5

    def test_single_value(self):
        assert summarize([4.2]) == dict(best=4.2, median=4.2, mean=4.2, worst=4.2, std=0.0)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(0)
        errors = rng.uniform(0, 100, 25).tolist()
        s = summarize(errors)
        assert s["best"] == min(errors)
        assert s["worst"] == max(errors)
        assert abs(s["median"] - statistics.median(errors)) <= 1e-12
        assert abs(s["mean"] - statistics.fmean(errors)) <= 1e-12
        assert abs(s["std"] - statistics.stdev(errors)) <= 1e-12

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.dimensions == (10, 30, 50) and cfg.runs == 25

    def test_rejects_bad_runs(self):
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)

    @pytest.mark.parametrize("kw, message", [
        (dict(algorithms=()), "non-empty without repeats"),
        (dict(algorithms=("opsom", "pso", "opsom")), "non-empty without repeats"),
        (dict(dimensions=()), "non-empty without repeats"),
        (dict(dimensions=(10, 30, 10)), "non-empty without repeats"),
        (dict(jobs=0), "jobs must be at least 1"),
        (dict(jobs=-5), "jobs must be at least 1"),
        (dict(optimizer=OptimizerConfig(seed=-1)), r"seed must be in \[0, 2\*\*64\), got -1"),
        (dict(optimizer=OptimizerConfig(seed=2**64)), r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
        (dict(suite_seed=-1), "suite_seed must be non-negative, got -1"),
        (dict(dimensions=(10, 1)), "suite requires dimension >= 2, got 1"),
        # each cell's algorithm comes from algorithms; this ran opsom
        (dict(optimizer=OptimizerConfig(algorithm="pso")), "optimizer.algorithm would be ignored: set algorithms"),
    ], ids=["empty-algorithms", "repeated-algorithm", "empty-dimensions", "repeated-dimension", "zero-jobs",
            "negative-jobs", "negative-seed", "seed-past-64-bits", "negative-suite-seed", "dimension-below-2",
            "optimizer-algorithm"])
    def test_rejects_empty_or_repeated_lists(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kw)

    @pytest.mark.parametrize("flag", ["no_oa", "no_archives", "no_mutation", "fixed_inertia"])
    def test_rejects_ablations_without_opsom(self, flag):
        # pso has none of the strategies the flags switch off
        ablated = OptimizerConfig(**{flag: True})
        with pytest.raises(ValueError, match=f"{flag} ablates opsom, which is not among the algorithms"):
            ExperimentConfig(algorithms=("pso",), optimizer=ablated)
        # beside opsom the flag ablates opsom's cells, and pso's run without it
        config = ExperimentConfig(algorithms=("pso", "opsom"), optimizer=ablated)
        assert config.cell_config("pso") == OptimizerConfig(algorithm="pso")
        assert config.cell_config("opsom") == ablated

    def test_settings_cannot_change_after_the_checks(self):
        # every check runs at construction, so neither config may change afterwards:
        # a budget of 20 set later would run every d = 10 cell before d = 30 refused it
        config = ExperimentConfig(dimensions=(10, 30), runs=1, optimizer=OptimizerConfig(population=8, budget=200))
        with pytest.raises(FrozenInstanceError):
            config.optimizer.budget = 20
        with pytest.raises(FrozenInstanceError):
            config.runs = 0
        assert (config.optimizer.budget, config.runs) == (200, 1)

    def test_lists_are_kept_as_tuples(self):
        # a list stayed open to an append after every check had passed, and
        # `execute` would then have drawn the d = 4096 suite, minutes of work
        config = ExperimentConfig(dimensions=[10, 30], runs=1, algorithms=["opsom", "pso"])
        assert config.dimensions == (10, 30) and config.algorithms == ("opsom", "pso")
        with pytest.raises(AttributeError):
            config.dimensions.append(4096)


SMALL = dict(
    suite_seed=0,
    dimensions=(2,),
    runs=2,
    algorithms=("opsom", "pso"),
    optimizer=OptimizerConfig(population=6, budget=300, seed=5),
)


# with --pop 8, orthogonal init costs 16 evaluations at d = 10 (the 16-row
# array) and 32 at d = 30, so a budget of 20 is bad only at d = 30
LATE_BUDGET = dict(population=8, budget=20)
LATE_REFUSAL = "budget 20 cannot cover initialization (32 evaluations)"
# the two-level array would need 8192 rows at d = 4096
ROW_CAP_REFUSAL = "array would need 8192 rows, exceeding the cap of 4096"
# 10**18 + 9 is prime: trial division would run up to 10**9 before the row cap
HUGE_PRIME = "1000000000000000009"
HUGE_REFUSAL = f"array would need at least {HUGE_PRIME} rows, exceeding the cap of 4096"


@pytest.fixture
def work_started(monkeypatch):
    """The names of `make_suite`, `run_cell`, `evaluate_batch` and the worker pool, once per call, in call order."""
    import opsom.optimizer
    import opsom.ortho_init

    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(harness, "make_suite")
    spy(harness, "run_cell")
    spy(harness, "ProcessPoolExecutor")
    spy(opsom.optimizer, "evaluate_batch")
    spy(opsom.ortho_init, "evaluate_batch")
    return calls


def forbid_suites(monkeypatch):
    """Make any `make_suite` call in the harness fail at once: a d = 4096 suite
    draws fourteen 4096 x 4096 rotations, minutes of work and gigabytes."""

    def refuse(suite_seed, dim):
        raise AssertionError(f"a suite was drawn (d = {dim}) before the settings were refused")

    monkeypatch.setattr(harness, "make_suite", refuse)


class TestExecute:
    @pytest.mark.parametrize("jobs, algorithms, dimensions, optimizer, message", [
        (1, ("opsom", "pso"), (10, 30), LATE_BUDGET, LATE_REFUSAL),
        (2, ("opsom", "pso"), (10, 30), LATE_BUDGET, LATE_REFUSAL),
        (1, ("opsom", "cma"), (10, 30), dict(budget=20_000), "unknown algorithm 'cma'"),
        (2, ("opsom", "cma"), (10, 30), dict(budget=20_000), "unknown algorithm 'cma'"),
        (1, ("opsom",), (10, 4096), {}, ROW_CAP_REFUSAL),
    ], ids=["1", "2", "unknown-algorithm-1", "unknown-algorithm-2", "row-cap"])
    def test_setting_bad_at_a_later_dimension_is_refused_before_any_cell(self, monkeypatch, work_started, jobs,
                                                                         algorithms, dimensions, optimizer, message):
        if 4096 in dimensions:
            forbid_suites(monkeypatch)
        # the config itself refuses the setting, so `execute` is never reached
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(dimensions=dimensions, runs=3, algorithms=algorithms,
                             optimizer=OptimizerConfig(**optimizer), jobs=jobs)
        assert work_started == []

    @pytest.mark.parametrize("jobs, workers", [(64, 20), (2, 2)])
    def test_pool_gets_no_more_workers_than_cells(self, monkeypatch, jobs, workers):
        # a forking pool starts all its workers at the first submit; the fake
        # records the size asked for and maps in this process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        assert len(execute(ExperimentConfig(**SMALL, jobs=jobs))) == 20
        assert sizes == [workers]

    def test_grouping_and_pairing(self):
        grouped = execute(ExperimentConfig(**SMALL))
        assert len(grouped) == 10 * 2
        for (fid, dim, algo), records in grouped.items():
            assert len(records) == 2 and dim == 2
        # paired seeding: run r of every algorithm shares one seed
        for fid in ("sphere", "schwefel"):
            a = grouped[(fid, 2, "opsom")]
            b = grouped[(fid, 2, "pso")]
            assert [r.seed for r in a] == [r.seed for r in b] == [run_seed(5, 0), run_seed(5, 1)]

    def test_parallel_jobs_match_sequential(self):
        seq = execute(ExperimentConfig(**SMALL))
        par = execute(ExperimentConfig(**SMALL, jobs=2))
        assert seq.keys() == par.keys()
        for key in seq:
            assert len(seq[key]) == len(par[key])
            for a, b in zip(seq[key], par[key]):
                np.testing.assert_array_equal(a.errors, b.errors)
                np.testing.assert_array_equal(a.evaluations, b.evaluations)
                np.testing.assert_array_equal(a.diversities, b.diversities)
                np.testing.assert_array_equal(a.iterations, b.iterations)
                assert a.best_error == b.best_error


class TestTaskLayout:
    @settings(max_examples=300, deadline=None)
    @given(cells=st.integers(1, 40), cell_values=st.integers(1, 3 * BLOCK_VALUES), jobs=st.integers(1, 64))
    def test_every_cell_in_one_task(self, cells, cell_values, jobs):
        tasks = task_layout(cells, cell_values, jobs)
        assert sorted(i for task in tasks for i in task) == list(range(cells))
        assert len(tasks) >= min(jobs, cells)
        # no task's stacked state outgrows the block budget, unless one cell alone does
        assert all(len(task) * cell_values <= max(BLOCK_VALUES, cell_values) for task in tasks)

    @pytest.mark.parametrize("runs, d, jobs, sizes", [
        (2, 30, 2, [5, 5]),
        (2, 50, 2, [5, 5]),
        (2, 10, 1, [10]),
        (25, 10, 1, [3, 3, 2, 2]),
        (25, 50, 2, [1] * 10),
        # the rest of the paper's 25-run protocol: tasks of three d=10 cells, every larger cell alone
        (25, 10, 2, [3, 3, 2, 2]),
        (25, 30, 1, [1] * 10),
        (25, 30, 2, [1] * 10),
        (25, 50, 1, [1] * 10),
        (2, 30, 1, [10]),
        (2, 50, 1, [5, 5]),
    ])
    def test_cells_per_task_at_population_40(self, runs, d, jobs, sizes):
        assert [len(task) for task in task_layout(10, runs * 40 * d, jobs)] == sizes

    def test_cells_stride_across_tasks(self):
        # the `cli_d30_jobs2` benchmark shape: d=30, 2 runs, n=40, 2 jobs
        assert task_layout(10, 2 * 40 * 30, 2) == [range(0, 10, 2), range(1, 10, 2)]


class TestCsv:
    def test_header_and_shape(self):
        rec = run(OptimizerConfig(population=6, budget=300, seed=1), base_spec("sphere", 2))
        text = format_convergence_csv(rec)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER == "iteration,evals,best_error,diversity,exploration_pct"
        assert len(lines) == len(rec.iterations) + 1
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_exact_text_of_a_hand_built_record(self):
        # evals = init + n*k; every float in its shortest round-trip form; exploration is diversity over its peak
        rec = RunRecord(function_id="sphere", algorithm="opsom", dimension=2, seed=0, population=8, budget=40,
                        init=16, errors=np.array([3.5, 0.25, 0.1]), diversities=np.array([2.0, 4.0, 1.0]),
                        wall_time=0.0)
        assert format_convergence_csv(rec) == (
            "iteration,evals,best_error,diversity,exploration_pct\n"
            "0,16,3.5,2.0,50.0\n"
            "1,24,0.25,4.0,100.0\n"
            "2,32,0.1,1.0,25.0\n"
        )

    def test_floats_round_trip(self):
        rec = run(OptimizerConfig(population=6, budget=300, seed=1), base_spec("sphere", 2))
        row = format_convergence_csv(rec).strip().splitlines()[1].split(",")
        assert float(row[2]) == rec.errors[0]
        assert float(row[3]) == rec.diversities[0]


class TestOutputs:
    def test_files_written(self, tmp_path):
        cfg = ExperimentConfig(**SMALL, out_dir=tmp_path / "res")
        out = write_outputs(cfg, execute(cfg))
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert len(csvs) == 10 * 2 * 2
        assert "sphere_d2_opsom_run00.csv" in csvs
        assert "sphere_d2_pso_run01.csv" in csvs
        summary = (out / "summary.txt").read_text().strip().splitlines()
        assert len(summary) == 20
        assert all("median=" in line and "std=" in line for line in summary)
        assert (out / "suite_d2.txt").exists()

    def test_each_suite_is_drawn_once(self, tmp_path, work_started):
        # `suite_d<dim>.txt` is read off the suite's layout; the writer used to
        # draw every suite a second time, 1.6 s of rotations at d = 1000
        status = main(["run", "--algo", "opsom,pso", "--dim", "2,3", "--runs", "1", "--pop", "6",
                       "--budget", "100", "--out", str(tmp_path / "res")])
        assert status == 0
        assert work_started.count("make_suite") == 2
        assert (tmp_path / "res" / "suite_d3.txt").read_text().splitlines()[0] == (
            "id=sphere category=unimodal d=3 lower=-100.0 upper=100.0 f_opt=100.0 suite_seed=0")

    def test_byte_identical_across_invocations(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig(**SMALL, out_dir=tmp_path / sub)
            out = write_outputs(cfg, execute(cfg))
            texts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert texts[0] == texts[1]

    def test_cell_size_does_not_change_output_bytes(self, tmp_path):
        # run r's files are the same whether its cell holds 3 or 5 runs in lockstep
        flags = ["run", "--algo", "opsom,pso", "--dim", "10", "--seed", "11", "--pop", "8", "--budget", "2000"]
        outputs = []
        for runs in ("3", "5"):
            out = tmp_path / f"runs{runs}"
            assert main(flags + ["--runs", runs, "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.glob("*_run0[0-2].csv")})
        assert len(outputs[0]) == 10 * 2 * 3
        assert outputs[0] == outputs[1]

    def test_jobs_do_not_change_output_bytes(self, tmp_path):
        # every file of the acceptance criterion-3 invocation at 1 and 3 runs,
        # with 1 and 3 worker processes: each run count packs a (dimension,
        # algorithm)'s 10 cells into one task with 1 job and into 3 with 3 jobs;
        # and of the paper's cell shape, 25 runs at n=40, whose cells share
        # tasks of 3, 3, 2 and 2 with 1 job and with 2
        for runs, pop, budget, pool in (("1", "8", "2000", "3"), ("3", "8", "2000", "3"), ("25", "40", "400", "2")):
            flags = ["run", "--algo", "opsom,pso", "--dim", "10", "--runs", runs, "--seed", "11",
                     "--pop", pop, "--budget", budget]
            outputs = []
            for jobs in ("1", pool):
                out = tmp_path / f"runs{runs}_jobs{jobs}"
                assert main(flags + ["--jobs", jobs, "--out", str(out)]) == 0
                outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert len(outputs[0]) == 10 * 2 * int(runs) + 2
            assert outputs[0] == outputs[1], runs

    def test_golden_digests(self, tmp_path):
        """Every file of the acceptance criterion-3 invocation, alone and with each
        ablation flag set, matches its pinned SHA-256.

        The digests were taken with numpy 2.4.6 on scipy-openblas 0.3.31 (one
        thread).  A refactor must leave them unchanged; a change that alters
        output bits on purpose regenerates `tests/golden/<case>.sha256` with
        `sha256sum *` in the output directory and says why.
        """
        flags = ["run", "--algo", "opsom,pso", "--dim", "10", "--runs", "2", "--seed", "11",
                 "--pop", "8", "--budget", "2000"]
        for case, extra in GOLDEN_CASES.items():
            out = tmp_path / case
            assert main(flags + extra + ["--out", str(out)]) == 0
            pinned = dict(line.split()[::-1] for line in (GOLDEN / f"{case}.sha256").read_text().splitlines())
            actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
            assert actual.keys() == pinned.keys(), case
            changed = sorted(name for name in pinned if actual[name] != pinned[name])
            assert not changed, f"{case}: {len(changed)} of {len(pinned)} outputs changed: {changed}"


class TestNonFiniteObjective:
    """A batch with NaN or +-inf values fails the evaluation that produced it."""

    @pytest.mark.parametrize("algorithm", ["opsom", "pso"])
    def test_run_raises_at_the_first_bad_batch(self, algorithm):
        seen = []
        # both initialize uniformly; pso has no array to switch off
        config = OptimizerConfig(algorithm=algorithm, population=8, budget=400, no_oa=algorithm == "opsom")
        with pytest.raises(ValueError, match=r"^poisoned: 5 of 8 rows evaluated to NaN or \+-inf$"):
            run(config, poisoned_spec(4), observer=lambda state, archives: seen.append(state.iteration))
        # initialization and the first iteration were finite; the second iteration's batch raised
        assert seen == [0, 1]

    @pytest.mark.parametrize("algorithm", ["opsom", "pso"])
    def test_cell_raises_at_the_first_bad_batch(self, algorithm):
        # a cell of 3 runs evaluates 3 * 8 stacked rows at once: NaN on the 12
        # even rows, +inf on row 1
        config = OptimizerConfig(algorithm=algorithm, population=8, budget=400, no_oa=algorithm == "opsom")
        with pytest.raises(ValueError, match=r"^poisoned: 13 of 24 rows evaluated to NaN or \+-inf$"):
            run_cell(config, [poisoned_spec(4)], 3)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cli_reports_error_and_exits_1(self, tmp_path, capsys, monkeypatch, jobs):
        # with --jobs 2 the error is raised in a worker process and re-raised
        # here; each cell's 3 runs are one batch of 3 * 8 rows
        monkeypatch.setattr(harness, "make_suite", lambda suite_seed, dim: [poisoned_spec(dim)])
        status = main([
            "run", "--algo", "opsom,pso", "--dim", "4", "--runs", "3", "--pop", "8", "--no-oa",
            "--budget", "400", "--jobs", jobs, "--out", str(tmp_path / "z" / "sub"),
        ])
        assert status == 1
        assert "error: poisoned: 13 of 24 rows evaluated to NaN or +-inf" in capsys.readouterr().err
        # the output directory is made before the runs; both levels made go again
        assert not (tmp_path / "z").exists() and tmp_path.exists()


class TestCli:
    def test_oa_subcommand_rejects_an_array_over_the_row_cap(self, capsys):
        assert main(["oa", "--levels", "2", "--factors", "4096"]) == 1
        captured = capsys.readouterr()
        assert not captured.out and "8192 rows, exceeding the cap of 4096" in captured.err

    @pytest.mark.parametrize("levels, factors, digest", [
        ("2", "7", "c25f86e828b2ee1ed5e6085b919a54da9396f3644ab9988155ce8acfdcc70509"),
        ("3", "13", "52942bdf076a9161ecdc072c06d72480309e71285e71ebc0b9cff95ed60de934"),
        ("5", "6", "f33fe6d601d050e4e79946a81fa1455d218b1d5ad7a54dc5582c8133dbbe2073"),
        ("2", "63", "b53d97cc82e6d5162f1c4d3f0bdc4e7c94fe8127b1af9138e83c3c1d43b46c59"),
    ])
    def test_oa_subcommand_output_digests(self, capsys, levels, factors, digest):
        # pinned SHA-256 of the printed array, as the golden listings pin `run`
        assert main(["oa", "--levels", levels, "--factors", factors]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_oa_subcommand_prints_verifiable_array(self, capsys):
        assert main(["oa", "--levels", "2", "--factors", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        entries = np.array([[int(v) for v in line.split()] for line in lines])
        assert entries.shape == (8, 7)
        assert verify_oa(entries, 2)

    def test_run_subcommand(self, tmp_path, capsys):
        status = main([
            "run", "--algo", "opsom,pso", "--dim", "2", "--runs", "1", "--seed", "3",
            "--pop", "6", "--budget", "200", "--out", str(tmp_path / "exp"),
        ])
        assert status == 0
        assert (tmp_path / "exp" / "summary.txt").exists()
        assert len(list((tmp_path / "exp").glob("*.csv"))) == 20

    def test_module_entry_point_runs_without_runpy_warning(self):
        # `python -m opsom.harness` warns (an error under -W error) when importing
        # the package has already imported the harness module; `python -m opsom`
        # needs the package's __main__ module
        src = str(Path(opsom.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for module in ("opsom.harness", "opsom"):
            argv = ["-W", "error::RuntimeWarning", "-m", module, "oa", "--levels", "2", "--factors", "3"]
            proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, (module, proc.stderr)
            assert proc.stdout.splitlines() == ["1 1 1", "1 2 2", "2 1 2", "2 2 1"], module

    @pytest.mark.parametrize("levels, message", [
        ("0", "level count must be prime, got 0"),
        ("1", "level count must be prime, got 1"),
        ("4", "level count must be prime, got 4"),
        (HUGE_PRIME, HUGE_REFUSAL),
    ], ids=["0", "1", "4", "oa-huge-prime"])
    def test_bad_oa_levels_exit_1_without_output(self, levels, message):
        # the huge prime used to hang in its primality test; a subprocess
        # with a timeout turns a hang into a failure
        src = str(Path(opsom.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "opsom", "oa", "--levels", levels, "--factors", "1"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert not proc.stdout

    def test_list_flags_strip_entries_and_drop_empty_ones(self):
        args = _build_parser().parse_args(["run", "--algo", " opsom,,pso ", "--dim", "2, ,10,", "--out", "x"])
        experiment = _experiment_from_args(args)
        assert experiment.algorithms == ("opsom", "pso") and experiment.dimensions == (2, 10)

    def test_flag_defaults_are_the_config_defaults(self):
        args = _build_parser().parse_args(["run", "--out", "x"])
        assert _experiment_from_args(args) == ExperimentConfig(out_dir=Path("x"))

    def test_bad_flags_exit_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--nonsense"])
        assert exc.value.code != 0

    def test_invalid_value_reports_error(self, tmp_path, capsys):
        status = main([
            "run", "--algo", "opsom", "--dim", "2", "--runs", "1",
            "--pop", "7", "--budget", "200", "--out", str(tmp_path / "y"),
        ])
        assert status == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("algo, dim, jobs, extra, message", [
        (",", "2", "1", [], "non-empty without repeats"),
        ("opsom,opsom", "2", "1", [], "non-empty without repeats"),
        ("opsom", "2,2", "1", [], "non-empty without repeats"),
        ("opsom", "2", "0", [], "jobs must be at least 1, got 0"),
        ("opsom", "2", "-5", [], "jobs must be at least 1, got -5"),
        ("opsom,cma", "2", "1", [], "unknown algorithm 'cma'"),
        ("pso", "2", "1", ["--no-oa"], "no_oa ablates opsom"),
        ("pso", "2", "1", ["--no-archives"], "no_archives ablates opsom"),
        ("pso", "2", "1", ["--no-mutation"], "no_mutation ablates opsom"),
        ("pso", "2", "1", ["--fixed-inertia"], "fixed_inertia ablates opsom"),
        ("cma", "2", "1", ["--no-oa"], "unknown algorithm 'cma'"),
        ("opsom", "2", "1", ["--no-archives", "--fixed-inertia"], "fixed_inertia has no effect with no_archives"),
        ("opsom,pso", "2", "2", ["--no-archives", "--fixed-inertia"], "fixed_inertia has no effect with no_archives"),
        # run_seed keeps 64 bits: these ran as --seed 0 and --seed 18446744073709551613
        ("pso", "2", "1", ["--seed", "18446744073709551616"], "seed must be in [0, 2**64)"),
        ("pso", "2", "1", ["--seed", "-3"], "seed must be in [0, 2**64), got -3"),
        ("pso", "2", "1", ["--suite-seed", "-1"], "suite_seed must be non-negative, got -1"),
        ("opsom", "x", "1", [], "--dim expects comma-separated integers, got 'x'"),
        ("opsom", "2,x", "1", [], "--dim expects comma-separated integers, got 'x'"),
        ("opsom", ", ,", "1", [], "non-empty without repeats"),
        # refused by name before any setting is validated, not as a budget of 0 or -30000
        ("opsom", "0", "1", [], "suite requires dimension >= 2, got 0"),
        ("opsom", "-3", "1", [], "suite requires dimension >= 2, got -3"),
        ("opsom", "10,1", "1", [], "suite requires dimension >= 2, got 1"),
    ], ids=[",-2", "opsom,opsom-2", "opsom-2,2", "zero-jobs", "negative-jobs", "unknown-algorithm", "pso-no-oa",
            "pso-no-archives", "pso-no-mutation", "pso-fixed-inertia", "unknown-algorithm-no-oa",
            "no-archives-fixed-inertia", "no-archives-fixed-inertia-jobs-2", "seed-past-64-bits", "negative-seed",
            "negative-suite-seed", "non-integer-dim", "non-integer-second-dim", "only-empty-dims", "dim-0",
            "negative-dim", "later-dim-1"])
    def test_empty_or_repeated_lists_exit_1_without_output(self, tmp_path, capsys, algo, dim, jobs, extra, message):
        # also a worker count below 1, which used to run sequentially without a
        # word, and ablation flags that change nothing, which used to run as if
        # they were absent
        out = tmp_path / "z"
        status = main(["run", "--algo", algo, "--dim", dim, "--runs", "1", "--pop", "6", "--budget", "200",
                       "--jobs", jobs, *extra, "--out", str(out)])
        assert status == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs, extra, message", [
        ("1", ["--algo", "opsom,pso", "--dim", "10,30", "--pop", "8", "--budget", "20"], LATE_REFUSAL),
        ("2", ["--algo", "opsom,pso", "--dim", "10,30", "--pop", "8", "--budget", "20"], LATE_REFUSAL),
        ("1", ["--algo", "opsom", "--dim", "10,4096"], ROW_CAP_REFUSAL),
    ], ids=["1", "2", "row-cap"])
    def test_setting_bad_at_a_later_dimension_exits_1_before_any_run(self, monkeypatch, tmp_path, capsys,
                                                                     work_started, jobs, extra, message):
        # every d = 10 cell used to run before a d = 30 refusal, and the d = 10
        # suite was drawn before any; d = 4096 drew its own suite too, for two minutes
        if "10,4096" in extra:
            forbid_suites(monkeypatch)
        out = tmp_path / "late"
        status = main(["run", *extra, "--runs", "3", "--jobs", jobs, "--out", str(out)])
        assert status == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert work_started == [] and not out.exists()

    def test_empty_output_dir_exits_1_without_output(self, tmp_path, monkeypatch, capsys, work_started):
        # Path("") is the current directory, which used to receive every file
        monkeypatch.chdir(tmp_path)
        status = main(["run", "--dim", "2", "--runs", "1", "--pop", "6", "--budget", "60", "--out", ""])
        assert status == 1
        assert capsys.readouterr().err == "error: --out must name a directory, got ''\n"
        assert work_started == [] and list(tmp_path.iterdir()) == []

    def test_unwritable_output_dir(self, tmp_path, capsys, work_started):
        # the directory is made before any run; every run used to end before the refusal
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        status = main([
            "run", "--algo", "opsom", "--dim", "2", "--runs", "1",
            "--pop", "6", "--budget", "200", "--out", str(blocker / "sub"),
        ])
        assert status == 1
        assert "error: [Errno 20] Not a directory" in capsys.readouterr().err
        assert work_started == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unallocatable_budget_exits_1_without_traceback(self, tmp_path, capsys, jobs):
        # 10^15 evaluations at n = 6 trace 1.7e14 iterations of every run, petabytes
        # past the address space, so the allocation fails at once and touches no memory
        out = tmp_path / "huge" / "sub"
        status = main(["run", "--algo", "pso", "--dim", "2", "--runs", "1", "--pop", "6",
                       "--budget", "1000000000000000", "--jobs", jobs, "--out", str(out)])
        assert status == 1
        err = capsys.readouterr().err
        assert re.match(r"error: Unable to allocate [\d.]+ PiB", err) and "Traceback" not in err
        assert not (tmp_path / "huge").exists() and tmp_path.exists()

    def test_interrupt_removes_the_levels_made_and_propagates(self, tmp_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "run_cell", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--algo", "pso", "--dim", "2", "--runs", "1", "--pop", "6", "--budget", "200",
                  "--out", str(tmp_path / "a" / "b" / "c")])
        assert not (tmp_path / "a").exists() and tmp_path.exists()
