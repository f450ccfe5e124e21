"""Outside-in tracing of opsom's layers.

Spans are recorded by replacing module attributes of the imported `opsom`
package with timing wrappers defined here; no file of the package changes.
A span is (name, id, parent id, start, end, value), kept in flat typed arrays
in memory and written out once at exit.  `value` carries the one count a
layer has: rows for `evaluate_batch`, m*d*d for `_transform`, evictions for
an archive push.

Wrapping draws nothing from a run's random stream; the benchmark checks that
a traced pass gives the same result digest as an untraced one.  A target
that a later refactor removes or renames is listed as absent, and the
metrics derived from it read 0.
"""

from __future__ import annotations

import array
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (span name, module, attribute within the module)
TARGETS = (
    ("objective.evaluate_batch", "opsom.objective", "evaluate_batch"),
    ("objective.transform", "opsom.objective", "_transform"),
    ("ortho_init.build_initial_swarm", "opsom.ortho_init", "build_initial_swarm"),
    ("archives.guides", "opsom.optimizer", "_archive_guides"),
    ("archives.push", "opsom.archives", "push_psi"),
    ("archives.push", "opsom.archives", "push_chi"),
    ("archives.refresh_phi", "opsom.archives", "refresh_phi"),
    ("learning.velocity", "opsom.learning", "regular_velocity_update"),
    ("mutation.mutate_elites", "opsom.mutation", "mutate_elites"),
    ("swarm_core.pso_step", "opsom.swarm_core", "pso_step"),
    ("swarm_core.update_bests", "opsom.swarm_core", "update_bests"),
    ("swarm_core.handle_bounds", "opsom.swarm_core", "handle_bounds"),
    ("swarm_core.sort_and_split", "opsom.swarm_core", "sort_and_split"),
    ("optimizer.iteration", "opsom.optimizer", "_opsom_iteration"),
    ("optimizer.trace", "opsom.optimizer", "_Trace.snap"),
    ("optimizer.trace", "opsom.optimizer", "diversity"),
    ("harness.execute", "opsom.harness", "execute"),
    ("harness.write", "opsom.harness", "write_outputs"),
    ("harness.format_csv", "opsom.harness", "format_convergence_csv"),
)
BASE_FN = "objective.base_fn"
OBJECTIVE_SPANS = ("objective.evaluate_batch", "objective.transform", BASE_FN)
# attribute a worker-side record carries its spans home in
PAYLOAD_ATTR = "perfbench_trace"

# derived from array shapes, not measured
COMPUTED = ("objective.transform.flops", "objective.transform.temp_bytes")
# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "objective.evaluate_batch.calls": "count",
    "objective.evaluate_batch.rows": "count",
    "objective.evaluate_batch.self_s": "s",
    "objective.transform.calls": "count",
    "objective.transform.self_s": "s",
    "objective.transform.flops": "flop",
    "objective.transform.temp_bytes": "B",
    "objective.base_fn.self_s": "s",
    "objective.self_share": "ratio",
    "archives.guides.calls": "count",
    "archives.guides.self_s": "s",
    "archives.push.calls": "count",
    "archives.push.self_s": "s",
    "archives.refresh_phi.self_s": "s",
    "archives.evict_ratio": "ratio",
    "learning.velocity.self_s": "s",
    "learning.improve_ratio": "ratio",
    "mutation.mutate_elites.self_s": "s",
    "mutation.improve_ratio": "ratio",
    "swarm_core.pso_step.self_s": "s",
    "swarm_core.update_bests.self_s": "s",
    "swarm_core.handle_bounds.self_s": "s",
    "swarm_core.sort_and_split.self_s": "s",
    "optimizer.iteration.self_s": "s",
    "optimizer.trace.self_s": "s",
    "optimizer.iterations": "count",
    "ortho_init.build_initial_swarm.self_s": "s",
    "ortho_init.build_initial_swarm.rows_evaluated": "count",
    "harness.execute_s": "s",
    "harness.write_s": "s",
    "harness.bytes_written": "B",
    "harness.worker_busy_ratio": "ratio",
    "harness.pool_overhead_s": "s",
    "trace_overhead": "ratio",
}


def _resolve(owner, dotted: str):
    """(container, leaf name, current value) of a dotted attribute, or None."""
    *path, leaf = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    value = getattr(owner, leaf, None) if owner is not None else None
    return (owner, leaf, value) if callable(value) else None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder plus the module patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.code = array.array("H")
        self.ident = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.value = array.array("d")
        self.stack = [0]
        self.next_id = 1
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.last_split = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn, before=None, after=None):
        code = self._code(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            ident = self.next_id
            self.next_id = ident + 1
            parent = self.stack[-1]
            self.stack.append(ident)
            ctx = before(args) if before else None
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                self.stack.pop()
                # the hook may append spans of its own (merged worker spans)
                value = after(ctx, args, result) if after else 0.0
                self.code.append(code)
                self.ident.append(ident)
                self.parent.append(parent)
                self.start.append(start)
                self.end.append(end)
                self.value.append(value)

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- per-layer hooks -----------------------------------------------------

    @staticmethod
    def _rows(ctx, args, result):
        return float(len(args[1]))

    @staticmethod
    def _transform_volume(ctx, args, result):
        m, d = np.shape(args[0])
        return float(m * d * d)

    @staticmethod
    def _archive_len(which):
        def size(archives):
            try:
                return len(getattr(archives, which))
            except (AttributeError, TypeError):
                return None

        def before(args):
            return size(args[0])

        def after(ctx, args, result):
            # the push appended one entry; whatever it is short of that was evicted
            now = size(args[0])
            return 0.0 if ctx is None or now is None else float(ctx + 1 - now)

        return before, after

    def _keep_split(self, ctx, args, result):
        self.last_split = result
        return 0.0

    def _execute_done(self, ctx, args, result):
        """Merge the worker-side spans the records carried home."""
        config = args[0]
        self.counts["harness.jobs_x_execute_s"] += config.jobs * (time.perf_counter() - ctx)
        for records in (result or {}).values():
            for record in records:
                self.note_record(record)
                payload = record.__dict__.pop(PAYLOAD_ATTR, None)
                if payload is not None:
                    self.merge(payload)
        return 0.0

    def note_record(self, record) -> None:
        self.counts["optimizer.iterations"] += len(record.iterations) - 1
        self.counts["runs.wall_s"] += record.wall_time

    def observer(self):
        """Observer that counts regular and elite moves that improved a personal best."""
        previous = None

        def observe(state, archives):
            nonlocal previous
            split, self.last_split = self.last_split, None
            if previous is not None and split is not None:
                improved = state.pbest_fitness < previous
                elite, regular = split
                self.counts["learning.moves"] += len(regular)
                self.counts["learning.improved"] += int(improved[regular].sum())
                self.counts["mutation.moves"] += len(elite)
                self.counts["mutation.improved"] += int(improved[elite].sum())
            previous = state.pbest_fitness.copy()

        return observe

    def _harness_run(self, fn):
        """Worker-side wrapper of the harness's `run`: trace one run, ship its spans home."""

        def traced_run(config, spec, observer=None):
            saved_stack, saved_counts = self.stack, self.counts
            self.stack, self.counts = [0], Counter()
            mark = len(self.code)
            try:
                record = fn(config, spec, observer or self.observer())
                setattr(record, PAYLOAD_ATTR, self.export(mark))
            finally:
                self.truncate(mark)
                self.stack, self.counts = saved_stack, saved_counts
            return record

        return traced_run

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded opsom module that references it."""
        self.absent = []
        modules = [m for n, m in sys.modules.items() if n == "opsom" or n.startswith("opsom.")]
        hooks = {
            "objective.evaluate_batch": (None, self._rows),
            "objective.transform": (None, self._transform_volume),
            "swarm_core.sort_and_split": (None, self._keep_split),
            "harness.execute": (lambda args: time.perf_counter(), self._execute_done),
        }
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            found = _resolve(module, attr) if module is not None else None
            if found is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner, leaf, fn = found
            before, after = hooks.get(name, (None, None))
            if name == "archives.push":
                before, after = self._archive_len("psi" if attr == "push_psi" else "chi")
            wrapper = self._wrap(name, fn, before, after)
            if owner is not module:
                self._patch(owner, leaf, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)
        objective = sys.modules.get("opsom.objective")
        table = getattr(objective, "BASE_FUNCTIONS", None)
        if isinstance(table, dict):
            for key, fn in list(table.items()):
                self._undo.append((table, key, fn))
                table[key] = self._wrap(BASE_FN, fn)
        else:
            self.absent.append("opsom.objective.BASE_FUNCTIONS")
        harness = sys.modules.get("opsom.harness")
        if harness is not None and callable(getattr(harness, "run", None)):
            self._patch(harness, "run", self._harness_run(harness.run))
        else:
            self.absent.append("opsom.harness.run")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- moving spans between processes -------------------------------------

    def _columns(self):
        return (self.code, self.ident, self.parent, self.start, self.end, self.value)

    def export(self, mark: int) -> tuple:
        """Spans recorded since `mark` plus this run's counts, as picklable bytes."""
        return tuple(col[mark:].tobytes() for col in self._columns()) + (dict(self.counts),)

    def truncate(self, mark: int) -> None:
        for col in self._columns():
            del col[mark:]

    def merge(self, payload: tuple) -> None:
        raw_code, raw_ident, raw_parent, *rest, counts = payload
        ident = np.frombuffer(raw_ident, dtype=np.int64)
        parent = np.frombuffer(raw_parent, dtype=np.int64)
        if len(ident):
            # worker ids may collide with ours; shift them past our counter
            offset = self.next_id - int(ident.min())
            ident = ident + offset
            parent = np.where(parent != 0, parent + offset, 0)
            self.next_id = int(ident.max()) + 1
        for col, raw in zip(self._columns(), (raw_code, ident.tobytes(), parent.tobytes(), *rest)):
            col.frombytes(raw)
        self.counts.update(counts)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: np.frombuffer(c, dtype=c.typecode) for k, c in zip(
                ("code", "id", "parent", "start", "end", "value"), self._columns())},
        )

    # -- per-layer metrics ----------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, total and self time and summed value per span name."""
        code = np.frombuffer(self.code, dtype=np.uint16).astype(np.intp)
        ident = np.frombuffer(self.ident, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        value = np.frombuffer(self.value)
        order = np.argsort(ident)
        has_parent = parent != 0
        parent_pos = order[np.searchsorted(ident, parent[has_parent], sorter=order)]
        child = np.bincount(parent_pos, weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(code, minlength=k)
        totals = {
            name: {
                "calls": float(calls[i]),
                "self_s": float(np.bincount(code, weights=self_time, minlength=k)[i]),
                "total_s": float(np.bincount(code, weights=dur, minlength=k)[i]),
                "value": float(np.bincount(code, weights=value, minlength=k)[i]),
            }
            for i, name in enumerate(self.names)
        }
        if "ortho_init.build_initial_swarm" in self.names and "objective.evaluate_batch" in self.names:
            init = self.names.index("ortho_init.build_initial_swarm")
            evals = np.flatnonzero(code == self.names.index("objective.evaluate_batch"))
            under_init = evals[has_parent[evals]]
            parents = order[np.searchsorted(ident, parent[under_init], sorter=order)]
            rows = value[under_init][code[parents] == init].sum()
            totals["ortho_init.build_initial_swarm"]["rows_evaluated"] = float(rows)
        return totals

    def per_layer_metrics(self, passes: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics, averaged per traced pass; ratios are over all of them."""
        t = self.layer_totals()
        c = self.counts

        def get(name, key):
            return t.get(name, {}).get(key, 0.0)

        objective_self = sum(get(n, "self_s") for n in OBJECTIVE_SPANS)
        pushes = get("archives.push", "calls")
        jobs_x_execute = c["harness.jobs_x_execute_s"]
        run_wall = c["runs.wall_s"]
        jobs = _ratio(jobs_x_execute, get("harness.execute", "total_s"))
        metrics = {
            "objective.evaluate_batch.calls": get("objective.evaluate_batch", "calls"),
            "objective.evaluate_batch.rows": get("objective.evaluate_batch", "value"),
            "objective.evaluate_batch.self_s": get("objective.evaluate_batch", "self_s"),
            "objective.transform.calls": get("objective.transform", "calls"),
            "objective.transform.self_s": get("objective.transform", "self_s"),
            "objective.transform.flops": 2.0 * get("objective.transform", "value"),
            "objective.transform.temp_bytes": 8.0 * get("objective.transform", "value"),
            "objective.base_fn.self_s": get(BASE_FN, "self_s"),
            "archives.guides.calls": get("archives.guides", "calls"),
            "archives.guides.self_s": get("archives.guides", "self_s"),
            "archives.push.calls": pushes,
            "archives.push.self_s": get("archives.push", "self_s"),
            "archives.refresh_phi.self_s": get("archives.refresh_phi", "self_s"),
            "learning.velocity.self_s": get("learning.velocity", "self_s"),
            "mutation.mutate_elites.self_s": get("mutation.mutate_elites", "self_s"),
            "swarm_core.pso_step.self_s": get("swarm_core.pso_step", "self_s"),
            "swarm_core.update_bests.self_s": get("swarm_core.update_bests", "self_s"),
            "swarm_core.handle_bounds.self_s": get("swarm_core.handle_bounds", "self_s"),
            "swarm_core.sort_and_split.self_s": get("swarm_core.sort_and_split", "self_s"),
            "optimizer.iteration.self_s": get("optimizer.iteration", "self_s"),
            "optimizer.trace.self_s": get("optimizer.trace", "self_s"),
            "optimizer.iterations": float(c["optimizer.iterations"]),
            "ortho_init.build_initial_swarm.self_s": get("ortho_init.build_initial_swarm", "self_s"),
            "ortho_init.build_initial_swarm.rows_evaluated": get("ortho_init.build_initial_swarm", "rows_evaluated"),
            "harness.execute_s": get("harness.execute", "total_s"),
            "harness.write_s": get("harness.write", "total_s"),
            "harness.bytes_written": float(c["harness.bytes_written"]),
            "harness.pool_overhead_s": get("harness.execute", "total_s") - _ratio(run_wall, jobs),
        }
        metrics = {k: v / passes for k, v in metrics.items()}
        metrics["objective.self_share"] = _ratio(objective_self, run_wall)
        metrics["archives.evict_ratio"] = _ratio(get("archives.push", "value"), pushes)
        metrics["learning.improve_ratio"] = _ratio(c["learning.improved"], c["learning.moves"])
        metrics["mutation.improve_ratio"] = _ratio(c["mutation.improved"], c["mutation.moves"])
        metrics["harness.worker_busy_ratio"] = _ratio(run_wall, jobs_x_execute)
        metrics["trace_overhead"] = overhead
        return {k: metrics[k] for k in PER_LAYER_UNITS}
