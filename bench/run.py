"""Benchmark of the nosig package: three workloads, one result per run.

    python3 bench/run.py --workload {sweep,uniqueness,oracle,all} \
        --seed N --seconds S --trace {0,1}

Run it from anywhere; it finds the package in ``src/`` next to this
directory and imports it from there, so nothing needs installing.

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics: ``setup_s`` is the median of SETUP_PROBES fresh
processes that import nosig, build the inputs and make a warm-up call;
every other metric comes from one more fresh process that runs whole
units of the workload for about S seconds.  Its times are taken so that
the shared host's changing speed cancels out (each check's fastest
repeat, or unit time at a reference speed; see workloads.measure_plain);
raw times are in the record.  ``--trace 1`` instead runs one plain and
one traced unit and reports the per-layer metrics, from raw times.

Each workload checks its outputs; a failed check is counted, never
raised.  The lines before the last print every metric by name and unit,
then a JSON record of the run (environment, sample counts, digests,
failures).  The last line is the result: one JSON object with the keys
correct, attempted, failed and metrics.  Exit status is 0 when a result
was printed, 2 when the package source is missing, 1 when a child
process failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "uniqueness", "oracle")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170.0
UNITS = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def _child(mode: str, workload: str, seed: int, seconds: float,
           deadline: float) -> tuple[float, dict]:
    """Run bench/workloads.py once; return its wall time and JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} {workload}: timed out") from None
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} {workload}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    """Digest of the package source, for checkouts that are not git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(seed: int) -> dict:
    return {"git_sha": _git_sha(), "src_sha256": _src_sha256(), "seed": seed,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg_start": os.getloadavg()}


def run_plain(workload: str, seed: int, seconds: float,
              deadline: float) -> dict:
    # Set-up probes go on both sides of the timed child, so that they
    # sample the host at two moments.
    setup = [_child("setup", workload, seed, seconds, deadline)[0]
             for _ in range(SETUP_PROBES // 2)]
    _, child = _child("plain", workload, seed, seconds, deadline)
    setup += [_child("setup", workload, seed, seconds, deadline)[0]
              for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    metrics = {name: child[name] for name in UNITS if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setup)
    record = {k: v for k, v in child.items() if k not in metrics}
    record["setup_probes_s"] = setup
    record["failed_frac"] = child["failed"] / child["attempted"]
    return {"metrics": {n: {"value": v, "unit": UNITS[n]}
                        for n, v in metrics.items()}, "record": record}


def run_trace(workload: str, seed: int, seconds: float,
              deadline: float) -> dict:
    _, child = _child("trace", workload, seed, seconds, deadline)
    metrics = {n: {"value": v, "unit": tracing.METRICS[n][0]}
               for n, v in child.pop("metrics").items()}
    child["failed_frac"] = child["failed"] / child["attempted"]
    return {"metrics": metrics, "record": child}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "nosig" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'nosig'}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    run = run_trace if args.trace else run_plain
    results = {}
    for name in names:
        env = _environment(args.seed)
        try:
            out = run(name, args.seed, args.seconds,
                      perf_counter() + CHILD_TIMEOUT_S)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        rec = out["record"]
        for metric, m in out["metrics"].items():
            print(f"{name:10s} {metric:36s} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:10s} {'failed_frac':36s} {rec['failed_frac']:>16.6g} "
              f"({rec['failed']}/{rec['attempted']} checks)")
        print(json.dumps({"workload": name, "environment": env,
                          "record": rec}))
        results[name] = {"correct": rec["failed"] == 0,
                         "attempted": rec["attempted"],
                         "failed": rec["failed"], "metrics": out["metrics"]}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
