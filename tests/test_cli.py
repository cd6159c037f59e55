import hashlib
import json
import math

import numpy as np
import pytest

from nosig import cli, feasibility
from nosig.cli import (CSV_HEADER, main, parse_angle, parse_grid,
                       parse_params, records_to_csv, records_to_json)
from nosig.errors import (DegenerateInputError, InvalidInputError,
                          InvalidMarginalError)
from nosig.optimizer import OptimizerConfig, sweep
from nosig.uniqueness import UniquenessScanReport

SWEEP_ARGS = ["sweep", "--grid", "0:pi/2:3", "--restarts", "2",
              "--max-iters", "300", "--seed", "4"]


class TestParseAngle:
    def test_plain_float(self):
        assert parse_angle("0.5") == 0.5
        assert parse_angle("-1.25e-1") == -0.125

    def test_pi_forms(self):
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
        assert parse_angle("2*pi") == pytest.approx(2 * math.pi)
        assert parse_angle("0.5pi") == pytest.approx(math.pi / 2)
        assert parse_angle("3*pi/8") == pytest.approx(3 * math.pi / 8)
        assert parse_angle("-pi/2") == pytest.approx(-math.pi / 2)
        assert parse_angle(" PI ") == pytest.approx(math.pi)

    def test_rejects_garbage(self):
        for bad in ("abc", "pi/0", "1..2", ""):
            with pytest.raises(InvalidInputError):
                parse_angle(bad)


class TestParseGrid:
    def test_linspace_form(self):
        grid = parse_grid("0:pi/2:5")
        assert len(grid) == 5
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(math.pi / 2)
        assert np.allclose(np.diff(grid), math.pi / 8)

    def test_comma_list(self):
        assert parse_grid("0, 0.3, 1.2") == (0.0, 0.3, 1.2)
        assert parse_grid("0.7") == (0.7,)

    def test_single_point_range(self):
        assert parse_grid("pi/4:pi/4:1") == (pytest.approx(math.pi / 4),)

    def test_half_pi_is_exact(self):
        assert parse_grid("pi/2") == (math.pi / 2,)
        assert parse_grid("0:pi/2:21")[-1] == math.pi / 2

    def test_rejects_malformed(self):
        for bad in ("0:1", "0:1:2:3", "0:1:x", "0:1:0", "1:0:3",
                    "0.5,0.4", "", "0,2.0", "nan", "0,nan", "nan,0.5",
                    "0,1.5707963267949"):
            with pytest.raises(InvalidInputError):
                parse_grid(bad)


class TestParseParams:
    def test_fourteen_values(self):
        text = ",".join(["pi/4"] * 14)
        vals = parse_params(text)
        assert len(vals) == 14
        assert all(v == pytest.approx(math.pi / 4) for v in vals)

    def test_wrong_count(self):
        with pytest.raises(InvalidInputError):
            parse_params(",".join(["0"] * 13))


class TestSweepCommand:
    def test_csv_shape(self, capsys):
        assert main(SWEEP_ARGS) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        row = lines[1].split(",")
        assert len(row) == len(CSV_HEADER.split(","))
        assert float(row[0]) == 0.0
        assert float(row[2]) == pytest.approx(-4.0, abs=1e-6)
        assert float(row[3]) == pytest.approx(4.0, abs=1e-6)
        assert int(row[4]) == 2

    def test_byte_identical_runs(self, capsys):
        main(SWEEP_ARGS)
        first = capsys.readouterr().out
        main(SWEEP_ARGS)
        second = capsys.readouterr().out
        assert first == second

    def test_rendered_floats_are_stable(self, capsys):
        main(SWEEP_ARGS)
        for line in capsys.readouterr().out.splitlines()[1:]:
            for cell in line.split(","):
                assert f"{float(cell):.9g}" == cell

    def test_json_round_trip(self, capsys):
        main(SWEEP_ARGS + ["--format", "json"])
        data = json.loads(capsys.readouterr().out)
        main(SWEEP_ARGS)
        csv_lines = capsys.readouterr().out.splitlines()
        names = CSV_HEADER.split(",")
        assert len(data) == 3
        for rec, line in zip(data, csv_lines[1:]):
            cells = line.split(",")
            assert list(rec) == names
            for name, cell in zip(names, cells):
                assert rec[name] == pytest.approx(float(cell), abs=0)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(SWEEP_ARGS + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        main(SWEEP_ARGS)
        assert path.read_text() == capsys.readouterr().out

    def test_explicit_seed_overrides_env(self, capsys, monkeypatch):
        # --seed is the only seed source: NOSIG_SEED changes nothing
        base = SWEEP_ARGS[:-2]  # drop --seed 4
        monkeypatch.setenv("NOSIG_SEED", "9")
        main(SWEEP_ARGS)
        explicit = capsys.readouterr().out
        main(base)
        default = capsys.readouterr().out
        monkeypatch.delenv("NOSIG_SEED")
        main(SWEEP_ARGS)
        assert explicit == capsys.readouterr().out
        main(base + ["--seed", "0"])
        assert default == capsys.readouterr().out
        main(base + ["--seed", "9"])
        assert default != capsys.readouterr().out

    def test_missing_seed_defaults_to_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("NOSIG_SEED", raising=False)
        base = SWEEP_ARGS[:-2]
        main(base)
        default_out = capsys.readouterr().out
        main(base + ["--seed", "0"])
        assert default_out == capsys.readouterr().out

    def test_capped_best_restart_warns_on_stderr(self, capsys):
        # the warning goes to stderr alone: stdout keeps its CSV or JSON
        # bytes, and the exit code stays 0
        argv = ["sweep", "--grid", "pi/4", "--restarts", "2",
                "--max-iters", "3"]
        records = sweep(OptimizerConfig(restarts=2, max_iters=3,
                                        alpha_grid=(math.pi / 4,)))
        assert [(r.capped_lower, r.capped_upper) for r in records] == \
            [(True, True)]
        for fmt, render in (("csv", records_to_csv),
                            ("json", records_to_json)):
            assert main(argv + ["--format", fmt]) == 0
            out, err = capsys.readouterr()
            assert out == render(records)
            assert err.splitlines() == [
                f"warning: alpha=0.785398163: the best restart of the "
                f"{name} search stopped at --max-iters 3"
                for name in ("lower", "upper")]
        assert main(["sweep", "--grid", "pi/4", "--restarts", "20",
                     "--seed", "1"]) == 0
        assert capsys.readouterr().err == ""

    def test_unwritable_out_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        assert main(SWEEP_ARGS + ["--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert not path.exists()

    def test_unwritable_out_rejected_before_search(self, capsys, monkeypatch,
                                                  tmp_path):
        def no_search(cfg):
            raise AssertionError("sweep ran despite an unwritable --out")

        monkeypatch.setattr(cli, "sweep", no_search)
        path = tmp_path / "missing" / "x.csv"
        assert main(SWEEP_ARGS + ["--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_failed_search_keeps_existing_out(self, capsys, monkeypatch,
                                              tmp_path):
        def failing_search(cfg):
            raise InvalidInputError("search failed")

        monkeypatch.setattr(cli, "sweep", failing_search)
        path = tmp_path / "x.csv"
        path.write_text("earlier output\n")
        assert main(SWEEP_ARGS + ["--out", str(path)]) == 2
        assert path.read_text() == "earlier output\n"
        assert capsys.readouterr().err == "error: search failed\n"

    def test_failed_search_removes_new_out(self, capsys, monkeypatch,
                                           tmp_path):
        # the file this run created goes, on exit 3 and on Ctrl-C alike
        def failing_search(cfg):
            raise RuntimeError("search failed")

        def interrupted_search(cfg):
            raise KeyboardInterrupt

        path = tmp_path / "new.csv"
        monkeypatch.setattr(cli, "sweep", failing_search)
        assert main(SWEEP_ARGS + ["--out", str(path)]) == 3
        assert not path.exists()
        monkeypatch.setattr(cli, "sweep", interrupted_search)
        with pytest.raises(KeyboardInterrupt):
            main(SWEEP_ARGS + ["--out", str(path)])
        assert not path.exists()

    @pytest.mark.parametrize("precision", ["0", "-1"])
    def test_bad_precision_rejected_before_search(self, capsys, monkeypatch,
                                                  precision):
        def no_search(cfg):
            raise AssertionError("sweep ran despite a bad --precision")

        monkeypatch.setattr(cli, "sweep", no_search)
        assert main(SWEEP_ARGS + ["--precision", precision]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--precision" in captured.err

    def test_bad_grid_usage_error(self, capsys):
        assert main(["sweep", "--grid", "1:0:5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestChshCommand:
    def test_cos2_form(self, capsys):
        assert main(["chsh", "--alpha-cos2", "0.85"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"{2 * math.sqrt(2) * 0.85:.9g}"

    def test_alpha_form(self, capsys):
        assert main(["chsh", "--alpha", "pi/2"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=1e-9)

    def test_threshold_value(self, capsys):
        main(["chsh", "--alpha-cos2", str(1 / math.sqrt(2))])
        assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=1e-9)

    def test_out_of_range(self, capsys):
        assert main(["chsh", "--alpha-cos2", "1.5"]) == 2

    def test_exclusive_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["chsh", "--alpha", "0.5", "--alpha-cos2", "0.5"])
        assert exc.value.code == 2


class TestDecomposeCommand:
    def test_ghz_pinned_correlator(self, capsys):
        params = ",".join(["0"] * 14)
        assert main(["decompose", "--alpha", "pi/2", "--params", params]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "E = 1"

    def test_which_selects_settings(self, capsys):
        params = ",".join(["0"] * 4 + ["pi", "0", "0", "0"] + ["0"] * 6)
        main(["decompose", "--alpha", "pi/2", "--params", params,
              "--which", "11"])
        flipped = capsys.readouterr().out
        assert flipped.splitlines()[-1] == "E = -1"
        main(["decompose", "--alpha", "pi/2", "--params", params,
              "--which", "12"])
        assert capsys.readouterr().out.splitlines()[-1] == "E = 1"


class TestGhzCheckCommand:
    def test_independence_reproduces_theorem(self, capsys):
        assert main(["ghz-check"]) == 0
        out = capsys.readouterr().out
        assert "INFEASIBLE (Theorem 1 reproduced)" in out
        assert "1.5" in out

    def test_without_independence(self, capsys):
        assert main(["ghz-check", "--no-independence"]) == 0
        out = capsys.readouterr().out
        assert "FEASIBLE" in out
        assert "p(0,0,0) = 0.5" in out
        assert "p(1,1,1) = 0.5" in out

    @pytest.mark.parametrize("flags, first", [
        ([], "FEASIBLE (unexpected: Theorem 1 NOT reproduced)"),
        (["--no-independence"],
         "INFEASIBLE (unexpected without the independence condition)")],
        ids=["independence", "no-independence"])
    def test_unexpected_verdict_exits_1(self, capsys, monkeypatch, flags,
                                        first):
        # feasible with independence, infeasible without: both fail the check
        def flipped(independence):
            return feasibility.Theorem1Report(
                independence=independence,
                result=feasibility.FeasibilityResult(
                    feasible=independence, witness=None, residual=0.5,
                    pivots=0))

        monkeypatch.setattr(cli, "theorem1_check", flipped)
        assert main(["ghz-check"] + flags) == 1
        assert capsys.readouterr().out.splitlines()[0] == first


class TestUniquenessCommand:
    def test_small_confirmed_scan(self, capsys):
        assert main(["uniqueness", "--alpha", "pi/4", "--samples", "50",
                     "--starts", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "CONFIRMED" in out
        assert "min residual" in out
        assert "rows at max_iters, next residual" in out
        assert "stop residual     : 1.000000e-08" in out

    def test_counterexample_exits_1(self, capsys, monkeypatch):
        calls = []

        def counterexample(alpha, **scan_args):
            calls.append(scan_args)
            return UniquenessScanReport(
                alpha=alpha, n_samples=10, n_local_starts=2, seed=0,
                min_residual=0.0, distance_at_min=0.5, near_zero_count=2,
                max_distance_near_zero=0.5, n_capped=0, next_residual=1.0,
                stop_residual=1e-8, confirmed=False, n_least_squares=2)

        monkeypatch.setattr(cli, "uniqueness_scan", counterexample)
        assert main(["uniqueness", "--alpha", "pi/4"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == ("NOT CONFIRMED: a counterexample candidate was "
                             "found")
        assert calls == [{}]  # unset flags leave the library defaults

    def test_endpoint_usage_error(self, capsys):
        assert main(["uniqueness", "--alpha", "0", "--samples", "10",
                     "--starts", "2"]) == 2

    def test_more_starts_than_samples_usage_error(self, capsys):
        assert main(["uniqueness", "--alpha", "pi/4", "--samples", "3",
                     "--starts", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_local_starts <= n_samples" in captured.err


class TestBoundsCommand:
    def test_product_limit_window(self, capsys):
        params = ",".join(["0.3"] * 14)
        assert main(["bounds", "--alpha", "0", "--params", params]) == 0
        out = capsys.readouterr().out
        assert "chsh_lower=-4 chsh_upper=4" in out
        assert "forces_violation=False" in out
        assert out.count("per-b") == 4


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_angle_returns_2(self, capsys):
        assert main(["chsh", "--alpha", "zebra"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["5", "nan"])
    def test_bounds_alpha_outside_range(self, capsys, alpha):
        params = ",".join(["0.3"] * 14)
        assert main(["bounds", "--alpha", alpha, "--params", params]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1.5707963267949", "2.0"])
    @pytest.mark.parametrize("command", [
        ["sweep", "--restarts", "1", "--max-iters", "1", "--grid"],
        ["bounds", "--params", ",".join(["0.3"] * 14), "--alpha"],
        ["chsh", "--alpha"],
        ["decompose", "--params", ",".join(["0.3"] * 14), "--alpha"],
        ["uniqueness", "--samples", "2", "--starts", "1", "--alpha"]])
    def test_alpha_above_half_pi(self, capsys, command, alpha):
        # one range rule for every command: [0, pi/2] with no slack
        assert main(command + [alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside [0, pi/2]" in captured.err

    def test_bounds_non_finite_param(self, capsys):
        params = ",".join(["0.3"] * 13 + ["nan"])
        assert main(["bounds", "--alpha", "0.5", "--params", params]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_nan_tol(self, capsys):
        assert main(SWEEP_ARGS + ["--tol", "nan"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_returns_3(self, capsys, monkeypatch):
        def unbounded(a, b):
            raise RuntimeError("phase-one column unbounded; inconsistent "
                               "tableau")

        monkeypatch.setattr(feasibility, "_phase_one_simplex", unbounded)
        assert main(["ghz-check"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: numerical failure: phase-one column "
                                "unbounded; inconsistent tableau\n")

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("command", [
        ["sweep", "--grid", "0", "--restarts", "2", "--max-iters", "1"],
        ["uniqueness", "--alpha", "pi/4", "--samples", "2", "--starts", "1"]])
    def test_seed_outside_64_bits(self, capsys, command, seed):
        # one seed rule for both randomized commands
        assert main(command + ["--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must fit in 64 unsigned bits" in captured.err

    @pytest.mark.parametrize("error", [InvalidMarginalError,
                                       DegenerateInputError])
    def test_package_errors_inside_a_command_exit_2(self, capsys,
                                                    monkeypatch, error):
        def failing(independence):
            raise error("raised inside the command")

        monkeypatch.setattr(cli, "theorem1_check", failing)
        assert main(["ghz-check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: raised inside the command\n"


class TestGoldenDigests:
    """SHA-256 of stdout, pinned across commits (reruns within one
    commit are compared by acceptance criterion 9)."""

    def digest(self, capsys, argv):
        capsys.readouterr()
        assert main(argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    def test_sweep(self, capsys):
        argv = ["sweep", "--grid", "0:pi/2:5", "--restarts", "3",
                "--max-iters", "400", "--seed", "7"]
        assert self.digest(capsys, argv) == \
            "8d67571dc1e3324c8cd50555552abb5f88d03e8458c96eee220d04d463712147"

    def test_uniqueness(self, capsys):
        argv = ["uniqueness", "--alpha", "0.8", "--samples", "200",
                "--starts", "4", "--seed", "5"]
        assert self.digest(capsys, argv) == \
            "7e5760dcf25727ce72e38ef1ecadcfef7d76c44d8e77a831b140a79e207e8620"
