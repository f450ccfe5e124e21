"""Tests for the experiment harness: statistics, CSV output, paired seeding,
parallel execution, and the CLI."""

import hashlib
import os
from dataclasses import replace
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opsom
from opsom.harness import (
    CSV_HEADER,
    ExperimentConfig,
    SummaryStats,
    _build_parser,
    _experiment_from_args,
    execute,
    format_convergence_csv,
    main,
    run_seed,
    summarize,
    write_outputs,
)
from opsom import harness
from opsom.objective import ObjectiveSpec, SearchBounds, base_spec
from opsom.optimizer import OptimizerConfig, run, run_cell
from opsom.ortho_init import OrthogonalArray
from test_ortho_init import verify_oa


class PoisonedSphere:
    """Sphere whose batches, from the `after`-th call on, hold NaN on even rows and +inf on row 1."""

    def __init__(self, after: int, dimension: int):
        self.after = after
        self.calls = 0
        self.shift = np.zeros(dimension)

    def values(self, points):
        self.calls += 1
        out = (points * points).sum(axis=1)
        if self.calls >= self.after:
            out[::2] = np.nan
            out[1] = np.inf
        return out


def poisoned_spec(dimension: int, after: int = 3) -> ObjectiveSpec:
    return ObjectiveSpec(
        id="poisoned", category="unimodal", dimension=dimension, bounds=SearchBounds(), f_opt=0.0, suite_seed=0,
        fn=PoisonedSphere(after, dimension),
    )


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
        s = summarize([1.0, 2.0, 3.0])
        assert (s.best, s.median, s.mean, s.worst) == (1.0, 2.0, 2.0, 3.0)

    def test_even_count_median(self):
        assert summarize([1.0, 2.0, 3.0, 4.0]).median == 2.5

    def test_single_value(self):
        s = summarize([4.2])
        assert s.best == s.worst == s.median == s.mean == 4.2
        assert s.std == 0.0

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(0)
        errors = rng.uniform(0, 100, 25).tolist()
        s = summarize(errors)
        assert s.best == min(errors)
        assert s.worst == max(errors)
        assert abs(s.median - statistics.median(errors)) <= 1e-12
        assert abs(s.mean - statistics.fmean(errors)) <= 1e-12
        assert abs(s.std - statistics.stdev(errors)) <= 1e-12

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            SummaryStats(best=2.0, worst=1.0, median=1.5, mean=1.5, std=0.1)
        with pytest.raises(ValueError):
            SummaryStats(best=1.0, worst=2.0, median=1.5, mean=1.5, std=-0.1)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.dimensions == (10, 30, 50) and cfg.runs == 25

    def test_rejects_bad_runs(self):
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("opsom", "cma"))

    @pytest.mark.parametrize("kw, message", [
        (dict(algorithms=()), "non-empty without repeats"),
        (dict(algorithms=("opsom", "pso", "opsom")), "non-empty without repeats"),
        (dict(dimensions=()), "non-empty without repeats"),
        (dict(dimensions=(10, 30, 10)), "non-empty without repeats"),
        (dict(jobs=0), "jobs must be at least 1"),
        (dict(jobs=-5), "jobs must be at least 1"),
    ], ids=["empty-algorithms", "repeated-algorithm", "empty-dimensions", "repeated-dimension", "zero-jobs",
            "negative-jobs"])
    def test_rejects_empty_or_repeated_lists(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kw)

    @pytest.mark.parametrize("flag", ["no_oa", "no_archives", "no_mutation", "fixed_inertia"])
    def test_rejects_ablations_without_opsom(self, flag):
        # pso has none of the strategies the flags switch off
        ablated = OptimizerConfig(**{flag: True})
        with pytest.raises(ValueError, match=f"{flag} ablates opsom"):
            ExperimentConfig(algorithms=("pso",), optimizer=ablated)
        ExperimentConfig(algorithms=("pso", "opsom"), optimizer=ablated)

    @pytest.mark.parametrize("algorithms, flags", [(("pso",), {}), (("opsom",), dict(no_oa=True))], ids=["pso", "no-oa"])
    def test_rejects_oa_levels_where_no_run_uses_the_array(self, algorithms, flags):
        with pytest.raises(ValueError, match="oa_levels=3 has no effect"):
            ExperimentConfig(algorithms=algorithms, optimizer=OptimizerConfig(oa_levels=3, **flags))
        ExperimentConfig(algorithms=algorithms, optimizer=OptimizerConfig(**flags))
        ExperimentConfig(algorithms=("pso", "opsom"), optimizer=OptimizerConfig(oa_levels=3))


SMALL = dict(
    suite_seed=0,
    dimensions=(2,),
    runs=2,
    base_seed=5,
    algorithms=("opsom", "pso"),
    optimizer=OptimizerConfig(population=6, budget=300),
)


class TestExecute:
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


class TestCsv:
    def test_header_and_shape(self):
        rec = run(OptimizerConfig(population=6, budget=300, seed=1), base_spec("sphere", 2))
        text = format_convergence_csv(rec)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER == "iteration,evals,best_error,diversity,exploration_pct"
        assert len(lines) == len(rec.iterations) + 1
        assert all(len(line.split(",")) == 5 for line in lines[1:])

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
        # every file of the acceptance criterion-3 invocation, with 1 and 2 worker processes
        flags = ["run", "--algo", "opsom,pso", "--dim", "10", "--runs", "2", "--seed", "11",
                 "--pop", "8", "--budget", "2000"]
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(flags + ["--jobs", jobs, "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outputs[0]) == 10 * 2 * 2 + 2
        assert outputs[0] == outputs[1]

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
        config = OptimizerConfig(algorithm=algorithm, population=8, budget=400, no_oa=True)
        with pytest.raises(ValueError, match=r"^poisoned: 5 of 8 rows evaluated to NaN or \+-inf$"):
            run(config, poisoned_spec(4), observer=lambda state, archives: seen.append(state.iteration))
        # initialization and the first iteration were finite; the second iteration's batch raised
        assert seen == [0, 1]

    @pytest.mark.parametrize("algorithm", ["opsom", "pso"])
    def test_cell_raises_at_the_first_bad_batch(self, algorithm):
        # a cell of 3 runs evaluates 3 * 8 stacked rows at once: NaN on the 12
        # even rows, +inf on row 1
        config = OptimizerConfig(algorithm=algorithm, population=8, budget=400, no_oa=True)
        with pytest.raises(ValueError, match=r"^poisoned: 13 of 24 rows evaluated to NaN or \+-inf$"):
            run_cell([replace(config, seed=seed) for seed in range(3)], poisoned_spec(4))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cli_reports_error_and_exits_1(self, tmp_path, capsys, monkeypatch, jobs):
        # with --jobs 2 the error is raised in a worker process and re-raised
        # here; each cell's 3 runs are one batch of 3 * 8 rows
        monkeypatch.setattr(harness, "make_suite", lambda suite_seed, dim: [poisoned_spec(dim)])
        status = main([
            "run", "--algo", "opsom,pso", "--dim", "4", "--runs", "3", "--pop", "8", "--no-oa",
            "--budget", "400", "--jobs", jobs, "--out", str(tmp_path / "z"),
        ])
        assert status == 1
        assert "error: poisoned: 13 of 24 rows evaluated to NaN or +-inf" in capsys.readouterr().err
        assert not (tmp_path / "z").exists()


class TestCli:
    def test_oa_subcommand_rejects_an_array_over_the_row_cap(self, capsys):
        assert main(["oa", "--levels", "2", "--factors", "4096"]) == 1
        captured = capsys.readouterr()
        assert not captured.out and "8192 rows, exceeding the cap of 4096" in captured.err

    def test_oa_subcommand_prints_verifiable_array(self, capsys):
        assert main(["oa", "--levels", "2", "--factors", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        entries = np.array([[int(v) for v in line.split()] for line in lines])
        assert entries.shape == (8, 7)
        assert verify_oa(OrthogonalArray(levels=2, entries=entries))

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

    @pytest.mark.parametrize("levels", ["0", "1", "4"])
    def test_bad_oa_levels_exit_1_without_output(self, tmp_path, levels):
        # 0 used to hang and 1 to end in a ZeroDivisionError traceback; a
        # subprocess with a timeout turns a hang into a failure
        src = str(Path(opsom.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = tmp_path / "x"
        argv = ["-m", "opsom", "run", "--algo", "opsom", "--dim", "2", "--runs", "1", "--pop", "6", "--budget", "300",
                "--oa-levels", levels, "--out", str(out)]
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert f"level count must be prime, got {levels}" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("algo, extra, message", [
        ("pso", ["--oa-levels", "0"], "oa_levels=0 has no effect"),
        ("opsom", ["--no-oa", "--oa-levels", "4"], "oa_levels=4 has no effect"),
        ("pso", ["--oa-levels", "3"], "oa_levels=3 has no effect"),
    ], ids=["pso-levels-0", "no-oa-levels-4", "pso-levels-3"])
    def test_oa_levels_where_no_run_uses_the_array_exit_1_without_output(self, tmp_path, capsys, algo, extra, message):
        # these used to run as if the flag were absent
        out = tmp_path / "x"
        argv = ["run", "--algo", algo, "--dim", "2", "--runs", "1", "--pop", "6", "--budget", "300", *extra]
        assert main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_flag_defaults_are_the_config_defaults(self):
        args = _build_parser().parse_args(["run", "--out", "x"])
        assert _experiment_from_args(args) == ExperimentConfig(out_dir=Path("x"))

    def test_compare_requires_two_algorithms(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["compare", "--algo", "opsom", "--dim", "2", "--out", str(tmp_path / "x")])

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
        ("opsom", "2", "1", ["--cognitive", "nan"], "PSO coefficients must be finite"),
        ("pso", "2", "1", ["--cognitive", "nan"], "PSO coefficients must be finite"),
        ("opsom,pso", "2", "1", ["--social", "inf"], "PSO coefficients must be finite"),
        ("opsom", "2", "1", ["--v-max-fraction", "nan"], "PSO coefficients must be finite"),
        ("pso", "2", "1", ["--no-oa"], "no_oa ablates opsom"),
        ("pso", "2", "1", ["--no-archives"], "no_archives ablates opsom"),
        ("pso", "2", "1", ["--no-mutation"], "no_mutation ablates opsom"),
        ("pso", "2", "1", ["--fixed-inertia"], "fixed_inertia ablates opsom"),
        ("opsom", "2", "1", ["--no-archives", "--fixed-inertia"], "fixed_inertia has no effect with no_archives"),
        ("opsom,pso", "2", "2", ["--no-archives", "--fixed-inertia"], "fixed_inertia has no effect with no_archives"),
    ], ids=[",-2", "opsom,opsom-2", "opsom-2,2", "zero-jobs", "negative-jobs", "nan-cognitive", "pso-nan-cognitive",
            "inf-social", "nan-v-max-fraction", "pso-no-oa", "pso-no-archives", "pso-no-mutation",
            "pso-fixed-inertia", "no-archives-fixed-inertia", "no-archives-fixed-inertia-jobs-2"])
    def test_empty_or_repeated_lists_exit_1_without_output(self, tmp_path, capsys, algo, dim, jobs, extra, message):
        # also a worker count below 1, which used to run sequentially without a
        # word, non-finite PSO coefficients, which used to run (or fail at the
        # first evaluation, blaming the objective), and ablation flags that
        # change nothing, which used to run as if they were absent
        out = tmp_path / "z"
        status = main(["run", "--algo", algo, "--dim", dim, "--runs", "1", "--pop", "6", "--budget", "200",
                       "--jobs", jobs, *extra, "--out", str(out)])
        assert status == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        status = main([
            "run", "--algo", "opsom", "--dim", "2", "--runs", "1",
            "--pop", "6", "--budget", "200", "--out", str(blocker / "sub"),
        ])
        assert status == 1
        assert "error:" in capsys.readouterr().err
