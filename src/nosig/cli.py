"""Command-line front end: sweeps, bound reports, and theorem checks.

Exit codes: 0 on success, 1 when a scientific check fails (a theorem
verdict comes out opposite to expectation), 2 on usage errors, 3 on a
numerical failure (a RuntimeError such as an inconsistent LP tableau).
Every input error is a usage error: bad arguments, inconsistent
marginals and an unwritable --out path alike.  Randomized subcommands
are deterministic given --seed, which defaults to 0 and must lie in
[0, 2**64).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .bounds import family_bounds
from .correlations import (correlator, decompose, horodecki_chsh_max,
                           quantum_joint)
from .errors import InvalidInputError
from .feasibility import theorem1_check
from .measurements import SettingsFamily
from .optimizer import OptimizerConfig, SweepRecord, sweep
from .states import _check_alpha, rho_ac_analytic
from .uniqueness import uniqueness_scan

CSV_HEADER = ("alpha,cos2_alpha,L_bar,U_bar,restarts,iterations_total,"
              "thetaA1,phiA1,thetaA2,phiA2,thetaC1,phiC1,thetaC2,phiC2,"
              "b1,b2,b3,b4,b5,b6")
_PI_FORM = re.compile(r"^([+-]?[0-9]*\.?[0-9]+|[+-])?\s*\*?\s*pi\s*(?:/\s*"
                      r"([0-9]*\.?[0-9]+))?$")


def parse_angle(text: str) -> float:
    """A float, or a pi expression: pi, 2*pi, pi/4, 0.5pi, 3*pi/8."""
    s = text.strip().lower()
    m = _PI_FORM.match(s)
    if m:
        raw = m.group(1)
        coeff = -1.0 if raw == "-" else (1.0 if raw in (None, "", "+")
                                         else float(raw))
        div = float(m.group(2)) if m.group(2) else 1.0
        if div == 0.0:
            raise InvalidInputError(f"division by zero in angle {text!r}")
        return coeff * math.pi / div
    try:
        return float(s)
    except ValueError:
        raise InvalidInputError(f"cannot parse angle {text!r}") from None


def parse_grid(text: str) -> tuple[float, ...]:
    """Either start:end:n (inclusive, n points) or a comma list of angles."""
    s = text.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"grid {text!r} is not start:end:n")
        start, end = parse_angle(parts[0]), parse_angle(parts[1])
        try:
            n = int(parts[2])
        except ValueError:
            raise InvalidInputError(f"grid count {parts[2]!r} is not an "
                                    "integer") from None
        if n < 1:
            raise InvalidInputError("grid needs at least one point")
        if n > 1 and not end > start:
            raise InvalidInputError("grid requires end > start")
        values = np.linspace(start, end, n)
    else:
        values = np.array([parse_angle(p) for p in s.split(",") if p.strip()])
        if values.size == 0:
            raise InvalidInputError("empty grid")
        if np.any(np.diff(values) <= 0):
            raise InvalidInputError("grid values must be strictly increasing")
    return tuple(_check_alpha(v) for v in values)


def parse_params(text: str) -> list[float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 14:
        raise InvalidInputError(f"need 14 comma-separated reals, got {len(parts)}")
    return [parse_angle(p) for p in parts]


def record_fields(rec: SweepRecord, precision: int) -> dict:
    """The serialized view of one sweep record in CSV header order (CSV
    and JSON share it): each float formatted once, the two counts as ints."""
    values = (rec.alpha, rec.cos2_alpha, rec.l_bar, rec.u_bar, rec.restarts,
              rec.iterations_total, *rec.params_lower)
    return {name: v if isinstance(v, int) else f"{v:.{precision}g}"
            for name, v in zip(CSV_HEADER.split(","), values)}


def records_to_csv(records, precision: int = 9) -> str:
    lines = [CSV_HEADER] + [",".join(map(str, record_fields(r, precision)
                                         .values())) for r in records]
    return "\n".join(lines) + "\n"


def records_to_json(records, precision: int = 9) -> str:
    return json.dumps([{k: v if isinstance(v, int) else float(v)
                        for k, v in record_fields(r, precision).items()}
                       for r in records], indent=2) + "\n"


def _cmd_sweep(args) -> int:
    if args.precision < 1:
        raise InvalidInputError(f"--precision {args.precision} is below 1")
    cfg = OptimizerConfig(restarts=args.restarts, max_iters=args.max_iters,
                          tol=args.tol, seed=args.seed,
                          alpha_grid=parse_grid(args.grid))
    created = args.out is not None and not os.path.exists(args.out)
    if args.out is not None:
        open(args.out, "a").close()  # fail before the search, truncate nothing
    try:
        records = sweep(cfg)
    except BaseException:  # Ctrl-C too: remove only a file this run made
        if created:
            os.remove(args.out)
        raise
    text = (records_to_csv(records, args.precision) if args.format == "csv"
            else records_to_json(records, args.precision))
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    return 0


def _cmd_bounds(args) -> int:
    alpha = parse_angle(args.alpha)
    fam = SettingsFamily.from_params(parse_params(args.params))
    fb = family_bounds(alpha, fam)
    for name, rep in (("M11", fb.m11), ("M12", fb.m12),
                      ("M21", fb.m21), ("M22", fb.m22)):
        per_b = " ".join(f"[{lo:+.6f},{up:+.6f}]"
                         for lo, up in zip(rep.lower_b, rep.upper_b))
        print(f"{name}: per-b {per_b}  sum [{rep.lower_sum:+.9g}, "
              f"{rep.upper_sum:+.9g}]")
    print(f"family: chsh_lower={fb.chsh_lower:.9g} "
          f"chsh_upper={fb.chsh_upper:.9g} "
          f"forces_violation={fb.forces_violation}")
    return 0


def _cmd_chsh(args) -> int:
    if args.alpha_cos2 is not None:
        c2 = float(args.alpha_cos2)
        if not 0.0 <= c2 <= 1.0:
            raise InvalidInputError(f"--alpha-cos2 {c2!r} outside [0, 1]")
        alpha = math.acos(math.sqrt(c2))
    else:
        alpha = parse_angle(args.alpha)
    print(f"{horodecki_chsh_max(rho_ac_analytic(alpha)):.9g}")
    return 0


def _cmd_decompose(args) -> int:
    alpha = parse_angle(args.alpha)
    fam = SettingsFamily.from_params(parse_params(args.params))
    a = fam.a1 if args.which[0] == "1" else fam.a2
    c = fam.c1 if args.which[1] == "1" else fam.c2
    d = decompose(quantum_joint(alpha, a, fam.b, c))
    print("b         F             A             C             H")
    for b in range(3):
        print(f"{b}  {d.f[b]:+.9f}  {d.a[b]:+.9f}  {d.c[b]:+.9f}  "
              f"{d.h[b]:+.9f}")
    print(f"E = {correlator(d):.9g}")
    return 0


def _cmd_ghz_check(args) -> int:
    report = theorem1_check(independence=not args.no_independence)
    if report.independence:
        if report.contradiction:
            print("INFEASIBLE (Theorem 1 reproduced)")
            print(f"phase-one violation floor: "
                  f"{report.result.residual:.9g}")
            return 0
        print("FEASIBLE (unexpected: Theorem 1 NOT reproduced)")
        return 1
    if report.result.feasible:
        print("FEASIBLE (independence dropped; local-variable model exists)")
        w = report.result.witness
        for idx in np.argwhere(w > 1e-12):
            i, j, k = idx
            print(f"  p({i},{j},{k}) = {w[i, j, k]:.9g}")
        return 0
    print("INFEASIBLE (unexpected without the independence condition)")
    return 1


def _cmd_uniqueness(args) -> int:
    scan_args = {k: v for k, v in vars(args).items()
                 if k not in ("command", "func", "alpha")}
    rep = uniqueness_scan(parse_angle(args.alpha), **scan_args)
    print(f"alpha={rep.alpha:.9g} samples={rep.n_samples} "
          f"local_starts={rep.n_local_starts} seed={rep.seed}")
    print(f"min residual      : {rep.min_residual:.6e}")
    print(f"distance at min   : {rep.distance_at_min:.6e}")
    print(f"near-zero minima  : {rep.near_zero_count} "
          f"(max distance {rep.max_distance_near_zero:.6e})")
    print(f"capped / next     : {rep.n_capped} rows at max_iters, "
          f"next residual {rep.next_residual:.6e}")
    print(f"stop residual     : {rep.stop_residual:.6e}")
    print(f"least squares     : {rep.n_least_squares} of "
          f"{rep.n_local_starts + 1} rows below the stop")
    if rep.confirmed:
        print("CONFIRMED: every exact-marginal point sits at the unique "
              "purification")
        return 0
    print("NOT CONFIRMED: a counterexample candidate was found")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nosig",
        description="Finite-speed-influence constraints on quantum "
                    "correlations: bound sweeps, marginal feasibility, "
                    "and purification uniqueness checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="optimize the CHSH bound window over "
                                     "an alpha grid and emit CSV or JSON")
    p.add_argument("--grid", required=True,
                   help="start:end:n (angles, pi allowed) or comma list")
    p.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    p.add_argument("--max-iters", type=int,
                   default=OptimizerConfig.max_iters)
    p.add_argument("--tol", type=float, default=OptimizerConfig.tol)
    p.add_argument("--seed", type=int, default=OptimizerConfig.seed)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--precision", type=int, default=9,
                   help="significant digits in emitted floats")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="per-measurement and family CHSH "
                                      "bounds for explicit settings")
    p.add_argument("--alpha", required=True)
    p.add_argument("--params", required=True,
                   help="14 comma-separated reals (settings layout)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("chsh", help="maximal CHSH value of the A-C marginal")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha")
    group.add_argument("--alpha-cos2", type=float, default=None)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("decompose", help="F/A/C/H table of one measurement")
    p.add_argument("--alpha", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--which", choices=("11", "12", "21", "22"), default="11")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("ghz-check", help="GHZ marginal feasibility (LP)")
    p.add_argument("--no-independence", action="store_true",
                   help="drop the A-C independence condition")
    p.set_defaults(func=_cmd_ghz_check)

    p = sub.add_parser("uniqueness", help="purification uniqueness scan")
    p.add_argument("--alpha", required=True)
    # unset flags stay out of the namespace: uniqueness_scan's defaults hold
    p.add_argument("--samples", type=int, dest="n_samples",
                   default=argparse.SUPPRESS)
    p.add_argument("--starts", type=int, dest="n_local_starts",
                   default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_uniqueness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the package errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
