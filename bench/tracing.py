"""Outside-in layer tracing for the nosig benchmark.

The program is not edited.  A Tracer rebinds public functions in every
``nosig.*`` module namespace that looks them up, records one span per
call (name, start, end, parent span, batch rows), and puts the original
functions back when it closes.  Spans stay in memory; layer_metrics()
reduces them to the per-layer metrics after the traced unit ends.

A wrapper passes arguments and return values through untouched, so a
traced unit must produce byte-identical outputs; the benchmark checks
that against a plain unit.  A rebound name that no longer exists is
recorded as absent and the metrics that depend on it are left out.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter

# (defining module, function name) -> span name.  Every loaded nosig
# module that holds the same function object under that name is rebound,
# so a call is traced whichever namespace it is looked up from.
TARGETS = {
    ("nosig.cli", "main"): "cli.main",
    ("nosig.optimizer", "sweep"): "cli.sweep",
    ("nosig.optimizer", "nelder_mead_batch"): "optimizer.nelder_mead",
    ("nosig.bounds", "family_chsh_bounds"): "bounds.batch",
    ("nosig.bounds", "family_bounds"): "bounds.family",
    ("nosig.uniqueness", "uniqueness_scan"): "uniqueness.scan",
    ("nosig.feasibility", "joint_feasible"): "feasibility.lp",
    ("nosig.correlations", "born_joint3"): "correlations.born",
    ("nosig.correlations", "fach_closed_form"): "correlations.closed_form",
    ("nosig.correlations", "horodecki_chsh_max"): "correlations.horodecki",
    ("nosig.qlinalg", "hermitian_eigenvalues"): "qlinalg.eig",
    ("nosig.qlinalg", "partial_trace"): "qlinalg.partial_trace",
}

# Per-layer metric -> (unit, span names it is computed from).  A metric
# whose span could not be installed is reported absent, not as zero.
METRICS = {
    "optimizer.calls": ("count", ("optimizer.nelder_mead",)),
    "optimizer.busy_s": ("s", ("optimizer.nelder_mead",)),
    "optimizer.self_s": ("s", ("optimizer.nelder_mead",)),
    "optimizer.objective_s": ("s", ("optimizer.nelder_mead",)),
    "optimizer.objective_calls": ("count", ("optimizer.nelder_mead",)),
    "optimizer.objective_rows": ("count", ("optimizer.nelder_mead",)),
    "optimizer.rows_per_objective_call": ("rows/call",
                                          ("optimizer.nelder_mead",)),
    "optimizer.iterations": ("count", ("optimizer.nelder_mead",)),
    "optimizer.rows_exhausted": ("count", ("optimizer.nelder_mead",)),
    "bounds.batch_calls": ("count", ("bounds.batch",)),
    "bounds.batch_rows": ("count", ("bounds.batch",)),
    "bounds.batch_s": ("s", ("bounds.batch",)),
    "bounds.us_per_call": ("us", ("bounds.batch",)),
    "bounds.us_per_row": ("us", ("bounds.batch",)),
    "bounds.family_calls": ("count", ("bounds.family",)),
    "bounds.family_s": ("s", ("bounds.family",)),
    "uniqueness.scan_s": ("s", ("uniqueness.scan",)),
    "uniqueness.self_s": ("s", ("uniqueness.scan", "optimizer.nelder_mead")),
    "uniqueness.near_zero_count": ("count", ("uniqueness.scan",)),
    "feasibility.lp_calls": ("count", ("feasibility.lp",)),
    "feasibility.lp_s": ("s", ("feasibility.lp",)),
    "feasibility.lp_p50_us": ("us", ("feasibility.lp",)),
    "feasibility.infeasible": ("count", ("feasibility.lp",)),
    "correlations.born_calls": ("count", ("correlations.born",)),
    "correlations.born_s": ("s", ("correlations.born",)),
    "correlations.closed_form_s": ("s", ("correlations.closed_form",)),
    "correlations.horodecki_s": ("s", ("correlations.horodecki",)),
    "qlinalg.eig_calls": ("count", ("qlinalg.eig",)),
    "qlinalg.eig_s": ("s", ("qlinalg.eig",)),
    "qlinalg.partial_trace_s": ("s", ("qlinalg.partial_trace",)),
    "cli.self_s": ("s", ("cli.main", "cli.sweep")),
    "trace.wall_s": ("s", ()),
    "trace.overhead_frac": ("fraction", ()),
}

def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Rebinds the TARGETS while open; use as a context manager."""

    def __init__(self):
        # Each span is [name, start, end, parent index, rows].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str, rows: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, rows])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if name == "optimizer.nelder_mead":
            return self._wrap_nelder_mead(fn)
        rows_of = (lambda args: _rows(args[1])) if name == "bounds.batch" \
            else (lambda args: 0)

        def traced(*args, **kwargs):
            index = self._open(name, rows_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "feasibility.lp" and not result.feasible:
                self.counts["feasibility.infeasible"] += 1
            elif name == "uniqueness.scan":
                self.counts["uniqueness.near_zero_count"] += \
                    result.near_zero_count
            return result
        return traced

    def _wrap_nelder_mead(self, fn):
        def traced(objective, x0, *args, **kwargs):
            def traced_objective(points):
                index = self._open("optimizer.objective", _rows(points))
                try:
                    return objective(points)
                finally:
                    self._close(index)

            index = self._open("optimizer.nelder_mead", _rows(x0))
            try:
                points, values, iters = fn(traced_objective, x0, *args,
                                           **kwargs)
            finally:
                self._close(index)
            self.counts["optimizer.iterations"] += int(iters.sum())
            if "max_iters" in kwargs:
                self.counts["optimizer.rows_exhausted"] += int(
                    (iters >= kwargs["max_iters"]).sum())
            return points, values, iters
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("nosig.") and m is not None]
        for (home, attr), name in TARGETS.items():
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def layer_metrics(tracer: Tracer, traced_wall_s: float,
                  plain_wall_s: float) -> dict[str, float]:
    """Reduce the recorded spans to the per-layer metrics."""
    total: Counter = Counter()
    calls: Counter = Counter()
    rows: Counter = Counter()
    durations: dict[str, list[float]] = {}
    child_s = [0.0] * len(tracer.spans)
    for name, start, end, parent, n_rows in tracer.spans:
        duration = end - start
        total[name] += duration
        calls[name] += 1
        rows[name] += n_rows
        durations.setdefault(name, []).append(duration)
        if parent >= 0:
            child_s[parent] += duration
    self_s: Counter = Counter()
    for (name, start, end, _, _), inner in zip(tracer.spans, child_s):
        self_s[name] += end - start - inner

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    lp = durations.get("feasibility.lp", [])
    metrics = {
        "optimizer.calls": calls["optimizer.nelder_mead"],
        "optimizer.busy_s": total["optimizer.nelder_mead"],
        "optimizer.self_s": self_s["optimizer.nelder_mead"],
        "optimizer.objective_s": total["optimizer.objective"],
        "optimizer.objective_calls": calls["optimizer.objective"],
        "optimizer.objective_rows": rows["optimizer.objective"],
        "optimizer.rows_per_objective_call": per(
            rows["optimizer.objective"], calls["optimizer.objective"]),
        "optimizer.iterations": tracer.counts["optimizer.iterations"],
        "optimizer.rows_exhausted": tracer.counts["optimizer.rows_exhausted"],
        "bounds.batch_calls": calls["bounds.batch"],
        "bounds.batch_rows": rows["bounds.batch"],
        "bounds.batch_s": total["bounds.batch"],
        "bounds.us_per_call": per(total["bounds.batch"],
                                  calls["bounds.batch"], 1e6),
        "bounds.us_per_row": per(total["bounds.batch"],
                                 rows["bounds.batch"], 1e6),
        "bounds.family_calls": calls["bounds.family"],
        "bounds.family_s": total["bounds.family"],
        "uniqueness.scan_s": total["uniqueness.scan"],
        "uniqueness.self_s": self_s["uniqueness.scan"],
        "uniqueness.near_zero_count":
            tracer.counts["uniqueness.near_zero_count"],
        "feasibility.lp_calls": calls["feasibility.lp"],
        "feasibility.lp_s": total["feasibility.lp"],
        "feasibility.lp_p50_us": 1e6 * statistics.median(lp) if lp else 0.0,
        "feasibility.infeasible": tracer.counts["feasibility.infeasible"],
        "correlations.born_calls": calls["correlations.born"],
        "correlations.born_s": total["correlations.born"],
        "correlations.closed_form_s": total["correlations.closed_form"],
        "correlations.horodecki_s": total["correlations.horodecki"],
        "qlinalg.eig_calls": calls["qlinalg.eig"],
        "qlinalg.eig_s": total["qlinalg.eig"],
        "qlinalg.partial_trace_s": total["qlinalg.partial_trace"],
        "cli.self_s": self_s["cli.main"],
        "trace.wall_s": traced_wall_s,
        "trace.overhead_frac": traced_wall_s / plain_wall_s - 1.0,
    }
    return {name: value for name, value in metrics.items()
            if not set(METRICS[name][1]) & set(tracer.absent)}
