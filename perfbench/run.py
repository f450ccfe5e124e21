"""opsom benchmark: objective evaluations per second on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite_d10 --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics, the
tracing overhead, and writes the spans to `perfbench/out/`.  The last line of
standard output is the JSON result; the line before it is a detail record
(per-pass samples, result digest, failures, environment).

The workload seed picks the suite and the run seeds.  Seeds 1 to 40 were
used while this benchmark was tuned; re-check a claim on a held-out seed such
as 1009.  The package measured is always `src/opsom` of this checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread everywhere: library workloads run in this single
# process, and the CLI's workers must not oversubscribe the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import COMPUTED, PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import ALGORITHMS, WORKLOADS, CliWorkload, pooled_evals_per_s  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_PASSES = 2
SETUP_REPEATS = 9
SETUP_CODE = "import sys, opsom; opsom.make_suite(int(sys.argv[1]), int(sys.argv[2])); print(opsom.__file__)"
END_TO_END_UNITS = {
    "evals_per_s": "1/s",
    "opsom_evals_per_s": "1/s",
    "pso_evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_opsom():
    """Import `opsom` from this checkout's `src/`, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import opsom
        import opsom.harness  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import opsom from {SRC}: {exc}")
    if Path(opsom.__file__).resolve().parent != SRC / "opsom":
        fail(f"imported opsom from {opsom.__file__}, not from {SRC}")
    return opsom


def environment(opsom) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "opsom_path": str(Path(opsom.__file__).resolve().parent),
    }


def measure_setup(seed: int, dimension: int) -> list[float]:
    """Fresh-interpreter time to import opsom and build the workload's suite."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one warms the file cache
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(seed), str(dimension)],
                              env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or Path(proc.stdout.strip()).resolve().parent != SRC / "opsom":
            fail(f"set-up interpreter failed: {proc.stderr[-2000:]}")
        if i:
            times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def tally(passes, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, sample problems): a run fails a check or differs from `reference`."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for i, outcome in enumerate(p.outcomes):
            attempted += 1
            faults = list(outcome.problems)
            if i >= len(reference.outcomes) or outcome.key != reference.outcomes[i].key:
                faults.append("result differs from the first pass")
            if faults:
                failed += 1
                problems.append(f"{outcome.function}/{outcome.algorithm}/run{outcome.run}: {'; '.join(faults)}")
    return attempted, failed, problems[:10]


def time_left(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean round so far, ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values),
            "samples": values}


def end_to_end(workload, opsom, args) -> tuple[dict, dict, int, int]:
    setup = measure_setup(args.seed, workload.dimension)
    workload.warm_up(opsom)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time_left(start, len(passes), args.seconds):
        passes.append(workload.run_pass(opsom))
    # Throughput is pooled over every pass of the run: with 2 to 8 passes the
    # mean is a steadier estimate than their median on a host whose speed
    # swings from pass to pass.
    metrics = {
        "evals_per_s": pooled_evals_per_s(passes),
        **{f"{a}_evals_per_s": pooled_evals_per_s(passes, a) for a in ALGORITHMS},
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "evals_per_s": [p.evals_per_s() for p in passes],
        **{f"{a}_evals_per_s": [p.evals_per_s(a) for p in passes] for a in ALGORITHMS},
        "setup_s": setup,
    }
    attempted, failed, problems = tally(passes, passes[0])
    detail = {
        "passes": len(passes),
        "result_digest": passes[0].digest,
        "samples": {name: summary(values) for name, values in samples.items()},
        "problems": problems,
    }
    return metrics, detail, attempted, failed


def traced(workload, opsom, args) -> tuple[dict, dict, int, int]:
    extra = {"in_process": True} if isinstance(workload, CliWorkload) else {}
    workload.warm_up(opsom)
    tracer = Tracer()
    plain, spanned = [], []
    start = time.perf_counter()
    while not spanned or time_left(start, len(spanned), args.seconds):
        plain.append(workload.run_pass(opsom, **extra))
        tracer.install()
        try:
            spanned.append(workload.run_pass(opsom, tracer, **extra))
        finally:
            tracer.uninstall()
    trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.npz"
    tracer.write(trace_file)
    untraced_eps = pooled_evals_per_s(plain)
    traced_eps = pooled_evals_per_s(spanned)
    metrics = tracer.per_layer_metrics(len(spanned), 1.0 - traced_eps / untraced_eps)
    attempted, failed, problems = tally(plain + spanned, plain[0])
    detail = {
        "passes": {"untraced": len(plain), "traced": len(spanned)},
        "result_digest": {"untraced": plain[0].digest, "traced": spanned[0].digest},
        "evals_per_s": {"untraced": untraced_eps, "traced": traced_eps},
        "absent_layers": tracer.absent,
        "computed_not_measured": COMPUTED,
        "trace_file": str(trace_file.relative_to(ROOT)),
        "spans": len(tracer.code),
        "problems": problems,
    }
    return metrics, detail, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    opsom = import_opsom()
    workload = WORKLOADS[args.workload]()
    work_dir = OUT / "work" / args.workload
    workload.prepare(opsom, args.seed, work_dir)
    try:
        measure = traced if args.trace else end_to_end
        metrics, detail, attempted, failed = measure(workload, opsom, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  fail_ratio=failed / attempted, environment=environment(opsom))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
