"""Acceptance gate: the nine headline checks at their stated tolerances.

Each criterion is one test that prints its own pass line, so a verbose
run reads as a checklist.  The sweep criteria share one module-scoped
200-restart sweep over the canonical 21-point grid (seed 42), which
dominates the runtime of this file.
"""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from nosig.cli import main, records_to_csv
from nosig.correlations import (correlator, decompose, fach_closed_form,
                                horodecki_chsh_max, quantum_joint, recompose)
from nosig.bounds import family_bounds, family_chsh_bounds, h_bounds
from nosig.feasibility import theorem1_check
from nosig.measurements import BlochSetting, QutritBasis, SettingsFamily
from nosig import optimizer
from nosig.optimizer import OptimizerConfig, maximize_chsh_lower, sweep
from nosig.states import rho_ac_analytic
from nosig.uniqueness import uniqueness_scan

GRID = tuple(np.linspace(0.0, math.pi / 2, 21))
SWEEP_CFG = OptimizerConfig(restarts=200, max_iters=2000, tol=1e-10,
                            seed=42, alpha_grid=GRID)
KAPPA = 4.83055464273694  # (L_bar + 4) / sin 2alpha on the complex branch


def _report(num: int, label: str):
    print(f"criterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def sweep_run():
    """The canonical sweep, and the iteration counts of its restarts."""
    iters, search = [], optimizer.nelder_mead_batch

    def recording(*args, **kwargs):
        out = search(*args, **kwargs)
        iters.append(out[2])
        return out

    optimizer.nelder_mead_batch = recording
    try:
        return sweep(SWEEP_CFG), iters
    finally:
        optimizer.nelder_mead_batch = search


@pytest.fixture(scope="module")
def full_sweep(sweep_run):
    return sweep_run[0]


def test_criterion_1_endpoint_reproduction(full_sweep):
    first, last = full_sweep[0], full_sweep[-1]
    assert first.alpha == 0.0
    assert last.alpha == pytest.approx(math.pi / 2)
    assert first.l_bar == pytest.approx(-4.0, abs=1e-6)
    assert first.u_bar == pytest.approx(4.0, abs=1e-6)
    assert last.l_bar == pytest.approx(2.0, abs=1e-6)
    assert last.u_bar == pytest.approx(-2.0, abs=1e-6)
    _report(1, "endpoint reproduction")


def test_criterion_2_mid_curve_value():
    alpha = math.acos(math.sqrt(1.0 / math.sqrt(2.0)))
    best = maximize_chsh_lower(alpha, SWEEP_CFG)
    assert 0.3 <= best.value <= 0.5, f"L_bar at threshold = {best.value}"
    _report(2, "mid-curve value")


def test_criterion_3_no_forced_violation(full_sweep):
    for rec in full_sweep[1:-1]:
        assert rec.l_bar < 2.0 - 1e-3, \
            f"L_bar({rec.alpha}) = {rec.l_bar} reaches 2"
        assert rec.u_bar > -2.0 + 1e-3, \
            f"U_bar({rec.alpha}) = {rec.u_bar} reaches -2"
    _report(3, "no forced violation on the grid")


def test_criterion_4_direction_symmetry(full_sweep):
    for rec in full_sweep:
        assert abs(rec.u_bar + rec.l_bar) <= 1e-3, \
            f"asymmetry at alpha={rec.alpha}: {rec.u_bar + rec.l_bar}"
    _report(4, "lower/upper symmetry")


def test_lower_and_upper_searches_agree_to_round_off(full_sweep):
    # U = -L at C-antipodal settings, so the two independent searches
    # must meet at the same value; criterion 4 gates it at 1e-3
    for rec in full_sweep:
        assert abs(rec.u_bar + rec.l_bar) <= 1e-12, rec.alpha


def born_window(alpha, params):
    """(L, U) of one 14-parameter family from Born-rule statistics alone:
    each pair's windows via quantum_joint -> decompose -> h_bounds."""
    fam = SettingsFamily.from_params(params)
    lo, up = {}, {}
    for x, a in enumerate((fam.a1, fam.a2)):
        for z, c in enumerate((fam.c1, fam.c2)):
            d = decompose(quantum_joint(alpha, a, fam.b, c))
            lo[x, z], up[x, z] = (float(np.sum(w))
                                  for w in h_bounds(d.f, d.a, d.c))
    return (lo[0, 0] + lo[0, 1] + lo[1, 0] - up[1, 1],
            up[0, 0] + up[0, 1] + up[1, 0] - lo[1, 1])


def test_every_winner_audited_against_the_born_rule(full_sweep):
    # the printed L_bar and U_bar are read off the norm table (bounds
    # docstring); at each record's reported settings, the 14-angle kernel
    # and the Born rule must both give them back
    for rec in full_sweep:
        for params, value, side in ((rec.params_lower, rec.l_bar, 0),
                                    (rec.params_upper, rec.u_bar, 1)):
            kernel = family_chsh_bounds(rec.alpha, params)[side][0]
            born = born_window(rec.alpha, params)[side]
            assert abs(kernel - value) <= 1e-12, (rec.alpha, side, kernel)
            assert abs(born - value) <= 1e-12, (rec.alpha, side, born)


def test_complex_branch_of_the_curve(full_sweep):
    # ROADMAP item 6: up to alpha* in (0.950, 0.960), L_bar = -4 + kappa
    # sin 2alpha (kappa as in test_optimizer); grid points 13-20 lie past
    # alpha* and well above that line
    for i, rec in enumerate(full_sweep):
        gap = rec.l_bar - (-4.0 + KAPPA * math.sin(2.0 * rec.alpha))
        if i <= 12:
            assert abs(gap) <= 1e-9, (i, gap)
        else:
            assert gap > 0.4, (i, gap)


def test_canonical_sweep_restarts_all_converge(sweep_run):
    # no restart of either direction stops at max_iters, so a capped
    # search cannot pass for a converged one
    _, iters = sweep_run
    assert len(iters) == 2 * len(GRID)
    assert all(len(i) == SWEEP_CFG.restarts for i in iters)
    assert max(int(i.max()) for i in iters) < SWEEP_CFG.max_iters


def test_canonical_sweep_csv_pinned(full_sweep):
    # the CSV that `nosig sweep --grid 0:pi/2:21 --restarts 200 --seed 42`
    # writes, pinned across commits
    csv = records_to_csv(full_sweep).encode()
    assert hashlib.sha256(csv).hexdigest() == \
        "a1bd8d002ba307042d637960633c75a6da5e95209c5225887e4e2d0ac56e2b58"


def test_criterion_5_chsh_threshold():
    for c2 in np.linspace(0.6, 1.0, 9):
        alpha = math.acos(math.sqrt(c2))
        value = horodecki_chsh_max(rho_ac_analytic(alpha))
        assert value == pytest.approx(2.0 * math.sqrt(2.0) * c2, abs=1e-9)
    threshold = math.acos(math.sqrt(1.0 / math.sqrt(2.0)))
    assert horodecki_chsh_max(rho_ac_analytic(threshold)) == \
        pytest.approx(2.0, abs=1e-9)
    _report(5, "CHSH threshold of the A-C marginal")


def test_criterion_6_marginal_feasibility(capsys):
    assert main(["ghz-check"]) == 0
    assert "INFEASIBLE" in capsys.readouterr().out
    assert main(["ghz-check", "--no-independence"]) == 0
    assert "FEASIBLE" in capsys.readouterr().out
    witness = theorem1_check(independence=False).result.witness
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = expected[1, 1, 1] = 0.5
    assert np.allclose(witness, expected, atol=1e-9)
    with capsys.disabled():
        _report(6, "marginal feasibility verdicts")


SCAN_REPR_SHA256 = {
    0.5: "89591d3e170c4421f24598cb6a0e51c1d7d7f27e7b64b1de98fba6af93512f2e",
    0.85: "f9e4f6c1a5aa61f84ca14f4285d291dfb5ed4b540cf4483482a53d6860fe3a72",
}


@pytest.mark.parametrize("cos2", [0.5, 0.85])
def test_criterion_7_uniqueness_scan(cos2):
    alpha = math.acos(math.sqrt(cos2))
    rep = uniqueness_scan(alpha, n_samples=10000, n_local_starts=100, seed=0)
    assert rep.near_zero_count >= 1
    assert rep.max_distance_near_zero < 1e-3, \
        f"counterexample candidate at distance {rep.max_distance_near_zero}"
    assert rep.confirmed
    # the random starts reach the unique point, and the nearest other end
    # value is far above NEAR_ZERO_RESIDUAL
    assert rep.near_zero_count >= 90
    assert rep.next_residual >= 1e-6
    # every start, the known point included, ends at the unique point, and
    # none runs to the iteration cap
    assert rep.near_zero_count == rep.n_local_starts + 1
    assert rep.n_capped == 0
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == \
        SCAN_REPR_SHA256[cos2]
    _report(7, f"uniqueness scan at cos^2 = {cos2}")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        alpha = rng.uniform(0.0, math.pi / 2)
        fam = SettingsFamily.from_params(rng.uniform(0, 2 * math.pi, 14))
        a, b, c = fam.a1, fam.b, fam.c1
        joint = quantum_joint(alpha, a, b, c)
        d = decompose(joint)
        f2, a2, c2 = fach_closed_form(alpha, a, b, c)
        assert np.max(np.abs(d.f - f2)) <= 1e-12
        assert np.max(np.abs(d.a - a2)) <= 1e-12
        assert np.max(np.abs(d.c - c2)) <= 1e-12
        assert np.max(np.abs(recompose(d) - joint)) <= 1e-14
        rep = family_bounds(alpha, fam).m11
        e = correlator(d)
        assert rep.lower_sum - 1e-10 <= e <= rep.upper_sum + 1e-10
        other_b = QutritBasis(tuple(rng.uniform(0, 2 * math.pi, 6)))
        e_other = correlator(decompose(quantum_joint(alpha, a, other_b, c)))
        assert abs(e - e_other) <= 1e-10
    _report(8, "closed form vs Born rule over 1000 draws")


def test_criterion_9_byte_identical_outputs(tmp_path, capsys):
    args = ["sweep", "--grid", "0:pi/2:5", "--restarts", "3",
            "--max-iters", "400", "--seed", "7"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    for path in paths:
        assert main(args + ["--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()

    json_paths = [tmp_path / name for name in ("a.json", "b.json")]
    for path in json_paths:
        assert main(args + ["--format", "json", "--out", str(path)]) == 0
    assert json_paths[0].read_bytes() == json_paths[1].read_bytes()
    assert json.loads(json_paths[0].read_text())[0]["restarts"] == 3

    capsys.readouterr()
    runs = []
    for _ in range(2):
        assert main(["uniqueness", "--alpha", "0.8", "--samples", "40",
                     "--starts", "3", "--seed", "5"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]

    cmd = [sys.executable, "-m", "nosig.cli", "chsh", "--alpha-cos2", "0.85"]
    outs = [subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]
    with capsys.disabled():
        _report(9, "byte-identical determinism")
