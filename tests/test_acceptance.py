"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The criteria built on the 25-paired-run protocol at d=10 (4, 5, 8 and 9), and
the digests of its traces, take a few minutes of CPU and are marked `slow`;
everything else is fast.  Run with
`pytest tests/test_acceptance.py -s` to see the status lines.
"""

import hashlib
import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from opsom.archives import CHI, PHI, PSI, ArchiveSet
from opsom.harness import ExperimentConfig, execute, main
from opsom.mutation import draw_partners, mutate_elites
from opsom.objective import base_spec, make_suite
from opsom.optimizer import OptimizerConfig, _archive_guides, _block_draws, _opsom_iteration, run, run_cell
from opsom.ortho_init import construct_oa, map_to_search_space
from opsom.swarm_core import COGNITIVE, INERTIA, SOCIAL, V_MAX, SwarmState, handle_bounds, velocity_update
from test_ortho_init import verify_oa


POPULATION = 40
DIMENSION = 10
BUDGET = 10_000 * DIMENSION
RUNS = 25
SUITE_SEED = 0
BASE_SEED = 7

ARRAY_FAMILY = [(2, j) for j in range(2, 6)] + [(3, 2), (3, 3), (5, 2)]

PROTOCOL_DIGESTS = Path(__file__).parent / "golden" / "protocol_d10.sha256"


def check(criterion, description, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance {criterion:>2}] {description}: {status}{' ' + detail if detail else ''}")
    assert condition, f"criterion {criterion} ({description}) failed {detail}"


def protocol_config(**kw):
    """The config of one (function, algorithm) cell; run_cell runs it RUNS times with paired seeds."""
    return OptimizerConfig(population=POPULATION, budget=BUDGET, seed=BASE_SEED, **kw)


@pytest.fixture(scope="module")
def comparison_records():
    """25 paired runs of both algorithms over the d=10 suite (criteria 4, 5, 8),
    keyed by (function, algorithm) and run through the CLI's `execute`."""
    experiment = ExperimentConfig(
        suite_seed=SUITE_SEED, dimensions=(DIMENSION,), runs=RUNS, algorithms=("opsom", "pso"),
        optimizer=protocol_config(),
        jobs=min(2, os.cpu_count() or 1),
    )
    return {(function_id, algo): records for (function_id, _, algo), records in execute(experiment).items()}


def protocol_digests(records_by_cell) -> dict[str, str]:
    """One SHA-256 per (function, algorithm) cell over every run's `errors` and then
    `diversities` bytes, in run order, keyed `<function>_<algorithm>`."""
    digests = {}
    for (function_id, algo), records in records_by_cell.items():
        digest = hashlib.sha256()
        for record in records:
            digest.update(record.errors.tobytes())
            digest.update(record.diversities.tobytes())
        digests[f"{function_id}_{algo}"] = digest.hexdigest()
    return digests


def test_criterion_1_oa_validity():
    start = time.perf_counter()
    all_valid = True
    for levels, j in ARRAY_FAMILY:
        factors = (levels**j - 1) // (levels - 1)
        oa = construct_oa(levels, factors)
        all_valid &= len(oa) == levels**j and verify_oa(oa, levels)
    elapsed = time.perf_counter() - start
    check(1, "OA validity by exhaustive pair enumeration", all_valid and elapsed < 1.0,
          f"(7 arrays in {elapsed * 1000:.0f} ms)")


def test_criterion_2_mapping_exactness():
    ok = True
    for levels, j in ARRAY_FAMILY:
        oa = construct_oa(levels, (levels**j - 1) // (levels - 1))
        for lo, hi in [(-100.0, 100.0), (0.0, 1.0), (-5.0, 3.0), (0.1, 0.3)]:
            points = map_to_search_space(oa, levels, lo, hi, oa.shape[1])
            ok &= bool(((points >= lo) & (points <= hi)).all())
            ok &= bool((points[oa == 1] == lo).all())
            ok &= bool((points[oa == levels] == hi).all())
    check(2, "mapping endpoints exact and all points in bounds", ok)


def test_criterion_3_determinism(tmp_path):
    flags = [
        "run", "--algo", "opsom,pso", "--dim", "10", "--runs", "2", "--seed", "11",
        "--pop", "8", "--budget", "2000",
    ]
    outputs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(flags + ["--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    same = outputs[0] == outputs[1] and len(outputs[0]) == 10 * 2 * 2
    check(3, "byte-identical convergence CSVs across invocations", same,
          f"({len(outputs[0])} files)")


@pytest.mark.slow
def test_criterion_4_monotonicity(comparison_records):
    violations = sum(
        int((np.diff(rec.errors) > 0).any())
        for records in comparison_records.values()
        for rec in records
    )
    total = sum(len(v) for v in comparison_records.values())
    check(4, "best_error non-increasing in every run", violations == 0,
          f"({total} runs checked)")


@pytest.mark.slow
def test_criterion_5_budget_accounting(comparison_records):
    ok = True
    for records in comparison_records.values():
        for rec in records:
            init = rec.evaluations[0]
            ok &= bool(BUDGET - POPULATION <= rec.evaluations[-1] <= BUDGET)
            expected = init + POPULATION * np.arange(len(rec.evaluations))
            ok &= bool((rec.evaluations == expected).all())
    check(5, "evaluations within [budget - n, budget] and trace reconciles", ok)


def test_criterion_6_archive_invariants():
    spec = make_suite(SUITE_SEED, DIMENSION)[2]  # rastrigin
    observed = []

    def observer(state, archives):
        observed.append((
            len(archives.phi_fitness), len(archives.psi_fitness), len(archives.chi_fitness),
            archives.chi_fitness.min() == state.gbest_fitness,
        ))

    run(OptimizerConfig(population=POPULATION, budget=20_000, seed=1), spec, observer=observer)
    ok = all(
        phi == POPULATION // 2 and psi <= POPULATION and chi <= POPULATION and chi_tracks
        for phi, psi, chi, chi_tracks in observed
    )
    check(6, "archive sizes and chi-minimum invariants hold every iteration", ok,
          f"({len(observed)} observation points)")


def test_criterion_7_scheme_selection_oracle():
    ok = True
    for fits in itertools.product([1.0, 2.0, 3.0], repeat=3):
        # one entry per archive, positioned at its archive's index (phi 0, psi 1, chi 2)
        archives = ArchiveSet(1, 2, 1)
        for k in (PHI, PSI, CHI):  # each archive's first slot
            archives.positions[0, archives.start[k]], archives.fitness[0, archives.start[k]] = float(k), fits[k]
        archives.fill[0] = 1
        u = np.random.default_rng(0).random(5)
        guide = _archive_guides(archives, u[2:].reshape(1, 3, 1))
        brute = min(range(3), key=lambda i: (fits[i], i))
        ok &= guide[0, 0, 0] == float(brute)
    check(7, "scheme selection matches brute-force argmin with phi>psi>chi ties", ok,
          "(27 fitness triples covering all 13 weak orderings)")


@pytest.mark.slow
def test_criterion_8_comparative_performance(comparison_records):
    suite = make_suite(SUITE_SEED, DIMENSION)
    wins_multimodal = 0
    wins_total = 0
    multimodal_count = 0
    details = []
    for spec in suite:
        opsom_median = np.median([r.best_error for r in comparison_records[(spec.id, "opsom")]])
        pso_median = np.median([r.best_error for r in comparison_records[(spec.id, "pso")]])
        win = opsom_median <= pso_median
        wins_total += win
        if spec.category == "multimodal":
            multimodal_count += 1
            wins_multimodal += win
        details.append(f"{spec.id}:{'W' if win else 'L'}")
    wall = sum(r.wall_time for recs in comparison_records.values() for r in recs)
    check(8, "paired-run medians: >=3/4 multimodal and >=6/10 overall",
          wins_multimodal >= 3 and wins_total >= 6,
          f"(multimodal {wins_multimodal}/{multimodal_count}, overall {wins_total}/10, "
          f"{' '.join(details)}, total optimizer time {wall:.0f}s)")


@pytest.mark.slow
def test_criterion_9_ablation_direction(comparison_records):
    spec = make_suite(SUITE_SEED, DIMENSION)[2]  # rastrigin, multimodal
    full_median = np.median([r.best_error for r in comparison_records[("rastrigin", "opsom")]])
    wins = 0
    details = [f"full={full_median:.4g}"]
    for flag in ("no_oa", "no_archives", "no_mutation"):
        errors = [record.best_error for record in run_cell(protocol_config(**{flag: True}), [spec], RUNS)]
        variant_median = np.median(errors)
        wins += full_median <= variant_median
        details.append(f"{flag}={variant_median:.4g}")
    check(9, "full optimizer beats single ablations on >=2 of 3", wins >= 2,
          f"({wins}/3 ablations, {', '.join(details)})")


@pytest.mark.slow
def test_protocol_digests(comparison_records):
    """The protocol's 20 cells match the SHA-256 lines pinned in `tests/golden/protocol_d10.sha256`.

    The four golden listings run a small case (pop 8, budget 2000, 2 runs), which
    a 1-ulp drift of a libm routine can pass; the protocol's 500 runs at
    10 000*d do not.  The digests were taken with numpy 2.4.6 on
    scipy-openblas 0.3.31 and glibc 2.36 on an AVX-512 x86-64 CPU.  A change
    that alters output bits on purpose rewrites the file as
    `<digest>  <cell>` lines from `protocol_digests(comparison_records)` and
    says why.
    """
    pinned = dict(line.split()[::-1] for line in PROTOCOL_DIGESTS.read_text().splitlines())
    actual = protocol_digests(comparison_records)
    assert actual.keys() == pinned.keys()
    changed = [cell for cell in pinned if actual[cell] != pinned[cell]]
    assert not changed, f"{len(changed)} of {len(pinned)} protocol cells changed: {changed}"


def test_criterion_10_equation_level_oracles():
    rng = np.random.default_rng(99)
    spec = base_spec("sphere", 5)
    worst = 0.0
    # the baseline step is the optimizer's step with every strategy off
    baseline = OptimizerConfig(algorithm="pso")

    for _ in range(100):
        n, d = 4, 5
        positions = rng.uniform(-100, 100, (n, d))
        velocities = rng.uniform(-V_MAX, V_MAX, (n, d))
        state = SwarmState(positions[None].copy(), velocities[None].copy(), (positions**2).sum(axis=1)[None])
        pbest = rng.uniform(-100, 100, (n, d))
        state.pbest_positions = pbest[None].copy()
        state.pbest_fitness = (pbest**2).sum(axis=1)[None]
        gbest = rng.uniform(-100, 100, d)
        state.gbest_position = gbest[None].copy()
        state.gbest_fitness = np.array([(gbest**2).sum()])
        r1, r2 = u = rng.uniform(size=(2, n, d))
        _opsom_iteration(state, None, baseline, [spec], _block_draws(baseline, u.reshape(1, 1, -1).copy(), n, d), 0)
        state = state.view(0)
        for i in range(n):
            for k in range(d):
                v = (INERTIA * velocities[i, k]
                     + COGNITIVE * r1[i, k] * (pbest[i, k] - positions[i, k])
                     + SOCIAL * r2[i, k] * (gbest[k] - positions[i, k]))
                v = min(max(v, -V_MAX), V_MAX)
                x = positions[i, k] + v
                if x < -100.0:
                    x, v = -100.0, 0.0
                elif x > 100.0:
                    x, v = 100.0, 0.0
                worst = max(worst, abs(x - state.positions[i, k]), abs(v - state.velocities[i, k]))

    for _ in range(100):
        d = 6
        v0 = rng.uniform(-V_MAX, V_MAX, d)
        x = rng.uniform(-100, 100, d)
        guide = rng.uniform(-100, 100, d)
        gbest = rng.uniform(-100, 100, d)
        r1, r2, r3 = rng.uniform(size=(3, d))
        out = velocity_update(v0, x, guide, gbest, r1, r2, r3)
        for k in range(d):
            v = r1[k] * v0[k] + r2[k] * (guide[k] - x[k]) + r3[k] * (gbest[k] - x[k])
            v = min(max(v, -V_MAX), V_MAX)
            worst = max(worst, abs(v - out[k]))

    for _ in range(100):
        m, d = 6, 4
        elite_positions = rng.uniform(-100, 100, (m, d))
        phi = rng.uniform(-100, 100, (m, d))
        pick = rng.uniform(size=(2, m))
        d1, d2 = rng.uniform(size=(2, m, d))
        g, h = draw_partners(pick[None])
        # the step's one clamp puts the mutated elites back in the box
        out = handle_bounds(mutate_elites(elite_positions[None], phi[None], g, h, np.stack((d1, d2))[None])[0],
                            np.empty((0, d)))[0]
        for j in range(m):
            # g is the pick[0]-th index other than j, h the pick[1]-th other than j and g
            g = [i for i in range(m) if i != j][int(pick[0, j] * (m - 1))]
            h = [i for i in range(m) if i not in (j, g)][int(pick[1, j] * (m - 2))]
            for k in range(d):
                x = (elite_positions[j, k]
                     + d1[j, k] * (phi[j, k] - elite_positions[j, k])
                     + d2[j, k] * (elite_positions[g, k] - elite_positions[h, k]))
                x = min(max(x, -100.0), 100.0)
                worst = max(worst, abs(x - out[j, k]))

    check(10, "update equations match direct-formula oracles to 1e-12", worst <= 1e-12,
          f"(max deviation {worst:.2e} over 300 random states)")
