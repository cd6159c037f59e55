"""The three nosig benchmark workloads and the child process that runs one.

run.py starts this file as a fresh process, once per measurement:

    python3 bench/workloads.py --mode {setup,plain,trace} \
        --workload {sweep,uniqueness,oracle} --seed N --seconds S

``setup`` imports nosig, builds the inputs and makes a warm-up call, so
the parent can time set-up from process start to exit.  ``plain`` runs
whole units of the workload for about S seconds and prints timings.
``trace`` runs one plain unit and one traced unit (see tracing.py) and
prints the per-layer metrics.  The last stdout line is one JSON object.

Every workload drives nosig through its public functions.  Each looks
them up as module attributes at call time (``correlations.decompose``,
not a name imported once), so the tracer's rebinding also times the
calls the benchmark makes itself.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pickle
import resource
import statistics
import sys
import threading
from time import perf_counter, perf_counter_ns

import numpy as np

from nosig import (bounds, cli, correlations, feasibility, measurements,
                   states, uniqueness)

import tracing


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Sweep:
    """``nosig sweep`` through cli.main with the canonical search shape.

    The grid keeps both endpoints of the canonical 0:pi/2:21 grid and its
    midpoint.  Interior points dominate the canonical sweep (19 of 21)
    and cost about ten times an endpoint, so one interior point carries
    most of the cost profile.
    """

    LOCKSTEP = True
    SHAPES = {"full": ("0,pi/4,pi/2", 200, 2000),
              "tiny": ("0,pi/4,pi/2", 4, 400)}
    EXPECT = {"l_bar_at_0": -4.0, "l_bar_at_pi_2": 2.0,
              "endpoint_tol": 1e-6, "interior_below": 2.0 - 1e-3,
              "symmetry_tol": 1e-3}

    def __init__(self, seed: int, size: str = "full"):
        grid, restarts, max_iters = self.SHAPES[size]
        self.argv = ["sweep", "--grid", grid, "--restarts", str(restarts),
                     "--max-iters", str(max_iters), "--tol", "1e-10",
                     "--seed", str(seed)]
        self.ops = 2 * restarts * len(grid.split(","))

    @staticmethod
    def _main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def warm_up(self):
        self._main(["sweep", "--grid", "0", "--restarts", "2",
                    "--max-iters", "20"])

    def run_unit(self):
        return self._main(self.argv), None

    @staticmethod
    def digest(output) -> str:
        return _sha256(output[1])

    @staticmethod
    def check(output, expect) -> tuple[int, list[str]]:
        code, text = output
        failures = [] if code == 0 else [f"exit code {code}"]
        rows = list(csv.DictReader(io.StringIO(text)))
        attempted = 1
        for row in rows:
            alpha, lo, up = (float(row[k]) for k in ("alpha", "L_bar",
                                                      "U_bar"))
            attempted += 2
            if alpha == 0.0:
                ok = abs(lo - expect["l_bar_at_0"]) <= expect["endpoint_tol"]
            elif abs(alpha - math.pi / 2) < 1e-8:
                ok = abs(lo - expect["l_bar_at_pi_2"]) <= \
                    expect["endpoint_tol"]
            else:
                ok = lo < expect["interior_below"]
            if not ok:
                failures.append(f"L_bar={lo!r} at alpha={alpha!r}")
            if not abs(lo + up) <= expect["symmetry_tol"]:
                failures.append(f"L_bar+U_bar={lo + up!r} at alpha={alpha!r}")
        if not rows:
            failures.append("sweep CSV has no rows")
        return attempted, failures


class Uniqueness:
    """theorem2_check at cos^2(alpha) = 0.85, CLI-default scan shape.

    10000 samples and 100 local starts: one 34-dimensional Nelder-Mead
    batch of 101 rows, three rounds, whose objective is the B-C marginal
    residual rather than the bounds kernel.
    """

    LOCKSTEP = True
    SHAPES = {"full": (10000, 100), "tiny": (200, 2)}
    EXPECT = {"confirmed": True, "contradiction": True,
              "max_distance_near_zero": 1e-3}
    ALPHA = math.acos(math.sqrt(0.85))

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.samples, self.starts = self.SHAPES[size]
        self.ops = self.starts + 1      # the known point is one more start

    def warm_up(self):
        uniqueness.residual(self.ALPHA, uniqueness.unique_point_params())

    def run_unit(self):
        return uniqueness.theorem2_check(
            self.ALPHA, n_samples=self.samples, n_local_starts=self.starts,
            seed=self.seed), None

    @staticmethod
    def digest(output) -> str:
        return _sha256(repr(output))

    @staticmethod
    def check(output, expect) -> tuple[int, list[str]]:
        scan = output.scan
        failures = []
        if scan.confirmed != expect["confirmed"]:
            failures.append(f"scan.confirmed={scan.confirmed}")
        if output.contradiction != expect["contradiction"]:
            failures.append(f"contradiction={output.contradiction}")
        if not scan.max_distance_near_zero < expect["max_distance_near_zero"]:
            failures.append(
                f"max_distance_near_zero={scan.max_distance_near_zero!r}")
        return 3, failures


def _random_family(rng) -> measurements.SettingsFamily:
    return measurements.SettingsFamily.from_params(
        rng.uniform(0.0, 2.0 * math.pi, 14))


def _unit_qubit(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _z_joint(state) -> np.ndarray:
    """z-basis outcome table of a three-qubit state, by squared amplitude."""
    return np.abs(np.asarray(state).reshape(2, 2, 2)) ** 2


class Oracle:
    """A seeded stream of small checks, each with a known answer.

    It is the only workload that loads feasibility, correlations, qlinalg
    and the dataclass bounds path, and it never calls the optimizer.
    Each check is timed on its own; its verification is not timed.
    """

    LOCKSTEP = False
    SHAPES = {"full": 300, "tiny": 2}
    EXPECT = {"ghz_independent": False, "ghz_dependent": True,
              "product_independent": True, "family_marginals": True,
              "witness_tol": 1e-9, "closed_form_tol": 1e-12,
              "batch_tol": 1e-12, "horodecki_tol": 1e-9,
              "residual_tol": 1e-12}
    KINDS = ("ghz_independent", "ghz_dependent", "product_independent",
             "family_marginals", "closed_form", "batch_bounds",
             "horodecki", "residual")

    def __init__(self, seed: int, size: str = "full"):
        rng = np.random.default_rng(seed)
        per_kind = self.SHAPES[size]
        kinds = [k for k in self.KINDS for _ in range(per_kind)]
        order = rng.permutation(len(kinds))
        self.stream = [(kinds[i], self._draw(kinds[i], rng)) for i in order]
        self.ops = len(self.stream)

    @staticmethod
    def _draw(kind: str, rng) -> tuple:
        if kind in ("ghz_independent", "ghz_dependent"):
            t = rng.uniform(0.2, math.pi / 2 - 0.2)
            state = np.zeros(8, dtype=np.complex128)
            state[0] = math.cos(t)
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            state[7] = phase * math.sin(t)
            return (state,)
        if kind == "product_independent":
            a, b, c = (_unit_qubit(rng) for _ in range(3))
            return (np.kron(np.kron(a, b), c),)
        if kind in ("family_marginals", "closed_form"):
            return rng.uniform(0.0, math.pi / 2), _random_family(rng)
        if kind == "batch_bounds":
            fam = _random_family(rng)
            return (rng.uniform(0.0, math.pi / 2), fam,
                    np.array(fam.to_params())[None, :])
        if kind == "horodecki":
            return (math.acos(math.sqrt(rng.uniform(0.6, 1.0))),)
        return (rng.uniform(0.05, math.pi / 2 - 0.05),)      # residual

    # One function per kind: the timed program calls of one check.
    @staticmethod
    def ghz_independent(state):
        return feasibility.theorem1_check(state, True).result

    @staticmethod
    def ghz_dependent(state):
        return feasibility.theorem1_check(state, False).result

    product_independent = ghz_independent

    @staticmethod
    def family_marginals(alpha, fam):
        q = correlations.quantum_joint(alpha, fam.a1, fam.b, fam.c1)
        spec = feasibility.MarginalSpec(n_a=2, n_b=3, n_c=2, ab=q.sum(axis=2),
                                        bc=q.sum(axis=0), ac=q.sum(axis=1))
        return feasibility.joint_feasible(spec), q

    @staticmethod
    def closed_form(alpha, fam):
        d = correlations.decompose(
            correlations.quantum_joint(alpha, fam.a1, fam.b, fam.c1))
        return d, correlations.fach_closed_form(alpha, fam.a1, fam.b, fam.c1)

    @staticmethod
    def batch_bounds(alpha, fam, row):
        fb = bounds.family_bounds(alpha, fam)
        lower, upper = bounds.family_chsh_bounds(alpha, row)
        return fb.chsh_lower, fb.chsh_upper, float(lower[0]), float(upper[0])

    @staticmethod
    def horodecki(alpha):
        return correlations.horodecki_chsh_max(states.rho_ac_analytic(alpha))

    @staticmethod
    def residual(alpha):
        return uniqueness.residual(alpha, uniqueness.unique_point_params())

    def warm_up(self):
        seen = set()
        for kind, args in self.stream:
            if kind not in seen:
                seen.add(kind)
                getattr(self, kind)(*args)

    def run_unit(self):
        results, op_ns = [], []
        for kind, args in self.stream:
            op = getattr(self, kind)
            t0 = perf_counter_ns()
            try:
                result = op(*args)
            except Exception as exc:    # counted as a failed check
                result = exc
            op_ns.append(perf_counter_ns() - t0)
            results.append(result)
        return (self.stream, results), [ns / 1e6 for ns in op_ns]

    @staticmethod
    def _witness_errors(res, tables, expect) -> list[str]:
        w = res.witness
        if w is None:
            return ["no witness"]
        errors = [] if float(w.min()) >= 0.0 else [f"witness min {w.min()!r}"]
        for axis, table in tables.items():
            err = float(np.max(np.abs(w.sum(axis=axis) - table)))
            if not err <= expect["witness_tol"]:
                errors.append(f"witness marginal {axis} off by {err!r}")
        return errors

    @classmethod
    def _check_one(cls, kind, args, result, expect) -> list[str]:
        if isinstance(result, Exception):
            return [f"raised {result!r}"]
        if kind in ("ghz_independent", "ghz_dependent", "product_independent",
                    "family_marginals"):
            res, q = result if kind == "family_marginals" else (result, None)
            if res.feasible != expect[kind]:
                return [f"feasible={res.feasible}"]
            if not res.feasible:
                return []
            if q is None:
                joint = _z_joint(args[0])
                tables = {2: joint.sum(axis=2), 0: joint.sum(axis=0)}
                if kind == "product_independent":
                    tables[1] = np.outer(joint.sum(axis=(1, 2)),
                                         joint.sum(axis=(0, 1)))
            else:
                tables = {2: q.sum(axis=2), 0: q.sum(axis=0),
                          1: q.sum(axis=1)}
            return cls._witness_errors(res, tables, expect)
        if kind == "closed_form":
            d, (f, a, c) = result
            err = max(float(np.max(np.abs(x - y)))
                      for x, y in ((d.f, f), (d.a, a), (d.c, c)))
            ok, what = err <= expect["closed_form_tol"], err
        elif kind == "batch_bounds":
            lo, up, lo_b, up_b = result
            err = max(abs(lo - lo_b), abs(up - up_b))
            ok, what = err <= expect["batch_tol"], err
        elif kind == "horodecki":
            err = abs(result - 2.0 * math.sqrt(2.0) * math.cos(args[0]) ** 2)
            ok, what = err <= expect["horodecki_tol"], err
        else:
            ok, what = result.residual <= expect["residual_tol"], \
                result.residual
        return [] if ok else [f"off by {what!r}"]

    @classmethod
    def check(cls, output, expect) -> tuple[int, list[str]]:
        stream, results = output
        failures = []
        for i, ((kind, args), result) in enumerate(zip(stream, results)):
            failures += [f"check {i} ({kind}): {e}"
                         for e in cls._check_one(kind, args, result, expect)]
        return len(stream), failures

    @staticmethod
    def digest(output) -> str:
        return hashlib.sha256(pickle.dumps(output[1])).hexdigest()


WORKLOADS = {"sweep": Sweep, "uniqueness": Uniqueness, "oracle": Oracle}


class Tally:
    """Attempted and failed checks, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.messages += failures[:10 - len(self.messages)]

    def same(self, what: str, a: str, b: str) -> None:
        self.add(1, [] if a == b else [f"{what}: {a} != {b}"])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.messages}


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


_REFERENCE_INPUT = np.arange(12.0)
REFERENCE_S = 1e-4      # reference-kernel time that defines "reference speed"


def _reference_kernel() -> float:
    """Time a fixed numpy loop that does not touch nosig."""
    t0 = perf_counter()
    for _ in range(50):
        np.sin(_REFERENCE_INPUT) + np.cos(_REFERENCE_INPUT) * _REFERENCE_INPUT
    return perf_counter() - t0


class HostSpeed:
    """Samples the host's speed on a thread while a unit runs.

    Every PERIOD_S the thread times the reference kernel.  main() pins
    lockstep workloads to one CPU, so the thread runs on the unit's core
    between the unit's own steps and sees the speed the unit sees.
    factor() converts seconds measured during the unit into seconds at
    the speed where the reference kernel takes REFERENCE_S.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.samples.append(_reference_kernel())

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        if not self.samples:
            self.samples.append(_reference_kernel())
        return statistics.fmean(REFERENCE_S / t for t in self.samples)


def measure_plain(work, seconds: float, expect=None) -> dict:
    """Run whole units until the next would end after `seconds`.

    The host's speed swings by up to 2x within seconds (other tenants on
    shared cores), so raw times are not reported as metrics; they go in
    the record.  The oracle reruns identical checks, so each check keeps
    its fastest repeat and wall_s is one pass at those times.  Sweep and
    uniqueness run their restarts in lockstep inside one long call, so
    nothing in them repeats within a run: their unit time is converted
    to reference speed with HostSpeed, wall_s is the median unit, and op
    time is wall_s over operations.  Every unit after the first must
    reproduce the first one's digest.
    """
    expect = expect or work.EXPECT
    tally, unit_s, ref_s, per_unit, digests = Tally(), [], [], [], []
    start = perf_counter()
    while True:
        speed = HostSpeed() if work.LOCKSTEP else None
        with speed or contextlib.nullcontext():
            t0 = perf_counter()
            output, per_op = work.run_unit()
            unit_s.append(perf_counter() - t0)
        if speed:
            ref_s.append(unit_s[-1] * speed.factor())
        else:
            per_unit.append(per_op)
        tally.add(*work.check(output, expect))
        digests.append(work.digest(output))
        if len(digests) > 1:
            tally.same("rerun digest", digests[0], digests[-1])
        if perf_counter() - start + statistics.median(unit_s) > seconds:
            break
    if work.LOCKSTEP:
        wall_s = statistics.median(ref_s)
        op_p50 = op_p99 = 1e3 * wall_s / work.ops
        extra = {"op_samples": len(ref_s), "reference_unit_s": ref_s}
    else:
        best = np.min(per_unit, axis=0)      # each check's fastest repeat
        wall_s = float(best.sum()) / 1e3
        op_p50, op_p99 = _percentile(best, 50), _percentile(best, 99)
        raw = np.concatenate(per_unit)
        extra = {"op_samples": len(best),
                 "raw_op_p50_ms": _percentile(raw, 50),
                 "raw_op_p99_ms": _percentile(raw, 99)}
    return {"wall_s": wall_s, "ops_per_s": work.ops / wall_s,
            "op_p50_ms": op_p50, "op_p99_ms": op_p99,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_unit": work.ops, "units": len(unit_s),
            "raw_unit_s": unit_s, **extra, "digest": digests[0],
            **tally.as_dict()}


def measure_trace(work, expect=None) -> dict:
    """One plain unit, then one traced unit; outputs must match bytewise."""
    expect = expect or work.EXPECT
    tally = Tally()
    t0 = perf_counter()
    plain, _ = work.run_unit()
    plain_s = perf_counter() - t0
    with tracing.Tracer() as tracer:
        t0 = perf_counter()
        traced, _ = work.run_unit()
        traced_s = perf_counter() - t0
    for output in (plain, traced):
        tally.add(*work.check(output, expect))
    digest = work.digest(plain)
    tally.same("traced digest", digest, work.digest(traced))
    return {"metrics": tracing.layer_metrics(tracer, traced_s, plain_s),
            "absent": tracer.absent, "digest": digest, **tally.as_dict()}


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):           # numpy < 1.26 only prints
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            np.show_config()
        blas = out.getvalue()
    return {"numpy": np.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "plain", "trace"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    work = WORKLOADS[args.workload](args.seed)
    if work.LOCKSTEP:
        # One CPU for the whole process, so that HostSpeed's thread shares
        # the core the unit runs on instead of sampling the other one.
        # The oracle stays free to move: its best-of-N needs fast moments.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work.warm_up()
    if args.mode == "setup":
        result = {}
    elif args.mode == "plain":
        result = {**measure_plain(work, args.seconds), **_environment()}
    else:
        result = measure_trace(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
