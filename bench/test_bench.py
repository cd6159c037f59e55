"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import nosig.bounds  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())
WRONG = {
    "sweep": {"l_bar_at_0": -3.0, "l_bar_at_pi_2": 1.0, "endpoint_tol": -1.0,
              "interior_below": -10.0, "symmetry_tol": -1.0},
    "uniqueness": {"confirmed": False, "contradiction": False,
                   "max_distance_near_zero": -1.0},
    "oracle": {"ghz_independent": True, "ghz_dependent": False,
               "product_independent": False, "family_marginals": False,
               "witness_tol": -1.0, "closed_form_tol": -1.0,
               "batch_tol": -1.0, "horodecki_tol": -1.0,
               "residual_tol": -1.0},
}


def tiny(name: str, seed: int = 1):
    return workloads.WORKLOADS[name](seed, size="tiny")


@pytest.fixture(scope="module")
def traced():
    cache = {}

    def get(name: str, seed: int, rep: int = 0) -> dict:
        if (name, seed, rep) not in cache:
            cache[name, seed, rep] = workloads.measure_trace(tiny(name, seed))
        return cache[name, seed, rep]
    return get


@pytest.fixture(scope="module")
def outputs():
    return {name: tiny(name).run_unit()[0] for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_counts_and_outputs(traced, name):
    first, second = traced(name, 1), traced(name, 1, rep=1)
    assert first["failed"] == 0, first["failures"]
    assert first["digest"] == second["digest"]
    exact = [m for m, p in PREDICTIONS["per_layer"].items() if p.get("exact")]
    assert exact
    for metric in exact:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_seed_reaches_the_sweep(traced):
    assert traced("sweep", 1)["digest"] != traced("sweep", 2)["digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_wrong_expectation_is_counted(outputs, name):
    work = workloads.WORKLOADS[name]
    assert work.check(outputs[name], work.EXPECT)[1] == []
    assert set(WRONG[name]) == set(work.EXPECT)
    for key, value in WRONG[name].items():
        attempted, failures = work.check(outputs[name],
                                         {**work.EXPECT, key: value})
        assert 0 < len(failures) <= attempted, key


def test_failed_frac_counts_a_flipped_lp_verdict():
    work = tiny("oracle")
    result = workloads.measure_plain(
        work, seconds=0.0, expect={**work.EXPECT, "ghz_independent": True})
    per_kind = workloads.Oracle.SHAPES["tiny"]
    assert result["failed"] == per_kind
    assert result["attempted"] == work.ops


def test_lockstep_times_are_taken_at_reference_speed():
    work = tiny("sweep")
    result = workloads.measure_plain(work, seconds=0.0)
    assert result["failed"] == 0 and result["units"] == 1
    assert result["wall_s"] == result["reference_unit_s"][0] > 0
    assert result["op_p50_ms"] == result["op_p99_ms"] == \
        pytest.approx(1e3 * result["wall_s"] / work.ops)


def test_layer_split_follows_the_workload_design(traced):
    oracle = traced("oracle", 1)["metrics"]
    assert oracle["optimizer.calls"] == 0
    assert oracle["bounds.batch_rows"] == oracle["bounds.family_calls"] > 0
    assert oracle["feasibility.infeasible"] == workloads.Oracle.SHAPES["tiny"]
    sweep = traced("sweep", 1)["metrics"]
    assert sweep["feasibility.lp_calls"] == 0
    assert sweep["optimizer.calls"] == 6            # 3 points x 2 directions
    assert sweep["bounds.batch_calls"] == sweep["optimizer.objective_calls"]
    uniq = traced("uniqueness", 1)["metrics"]
    assert uniq["bounds.batch_calls"] == 0
    assert uniq["optimizer.calls"] == 3             # restarted simplex rounds
    assert uniq["uniqueness.near_zero_count"] >= 1


def test_tracer_restores_every_name():
    before = {(m, a): getattr(sys.modules[m], a) for m, a in tracing.TARGETS}
    with tracing.Tracer():
        assert nosig.bounds.family_bounds is not before["nosig.bounds",
                                                        "family_bounds"]
    after = {(m, a): getattr(sys.modules[m], a) for m, a in tracing.TARGETS}
    assert after == before


def test_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(nosig.bounds, "family_bounds")
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["bounds.family"]
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    assert "bounds.family_s" not in metrics
    assert "bounds.batch_s" in metrics


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in tracing.METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(PREDICTIONS["per_layer"]) == set(tracing.METRICS)
    assert set(PREDICTIONS["workloads"]) == set(run.WORKLOADS)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
