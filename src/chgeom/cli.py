"""Command-line interface.

Subcommands:

  verify-model    dual-route curvature verification of the ambient model
  construct       build a ruled minimal submanifold and check its
                  second fundamental form against the closed form
  sweep           radius sweep of tube invariants to CSV
  classify        classify a hypersurface germ given as JSON
  residuals       finite-difference residual suite on a tube chart
  nonexistence    feasibility scan of the eigenvalue constraints

Exit codes: 0 success, 1 verification failure or an indeterminate check
(a valid input the check cannot decide), 2 usage or malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import jacobi, numlab, spectral, tubes
from .construction import (
    build_submanifold,
    orbit_second_fundamental_form,
    rigidity_form_check,
)
from .model import (
    CURVATURE_TOLERANCE,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    ModelParams,
    SolvableModel,
    check_positive,
    rate,
)
from .spectral import HypersurfaceGerm, classify

SWEEP_COLUMNS = (
    "r,lambda1,lambda2,lambda3,lambda4,mult1,mult2,mult3,mult4,"
    "b1sq,b2sq,g,h,detD,detD_expected,classify_status"
)

# the residuals suites that read the frame-field table
FRAME_SUITES = ("graded_connection", "graded_curvature", "unit_pair_gauss", "frame_connection")


def _fmt(x) -> str:
    return repr(float(x))


def _cmd_verify_model(args) -> int:
    check_positive("--tolerance", args.tolerance)
    params = ModelParams(n=args.n, c=args.c)
    model = SolvableModel(params)
    report = model.verify_curvature(samples=args.samples, seed=args.seed)
    print(f"max curvature residual   {report.max_residual:.3e}")
    print(f"holomorphic sectional    {report.holomorphic_error:.3e}")
    print(f"totally real sectional   {report.totally_real_error:.3e}")
    print(f"pinching violation       {report.pinching_violation:.3e}")
    ok = report.passed(args.tolerance)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_construct(args) -> int:
    params = ModelParams(n=args.n, c=args.c)
    phi = args.phi if args.phi is not None else math.pi / 2.0
    spec = build_submanifold(params, args.k, phi)
    form = orbit_second_fundamental_form(spec)
    report = rigidity_form_check(form, spec)
    print(f"angle                    {phi!r}")
    print(f"submanifold dimension    {spec.tangent_basis.shape[0]}")
    print(f"normal dimension         {spec.normal_basis.shape[0]}")
    print(f"shape-form residual      {report.max_residual:.3e}")
    print(f"mean-curvature norm      {report.trace_norm:.3e}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(spec.to_json_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    ok = report.passed
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _sweep_row(r, params, spec) -> str:
    s = rate(params.c)
    es = spectral.catalog_at_radius(r, params.c, params.n, spec.k)
    # a g = 3 row has no lambda_4 block: nan with multiplicity 0
    values, mults = zip(*es.blocks, *[(float("nan"), 0)] * (4 - es.g))
    dmat = jacobi.focal_determinant_matrix(
        es.lambda1, es.lambda2, es.b1, es.b2, params.c, r
    )
    det_d = float(np.linalg.det(dmat))
    det_expected = float(jacobi.sech(s * r) ** 3)
    outcome = classify(tubes.tube_germ(spec, spec.normal_basis[0], r))
    status = outcome.branch if outcome.branch else (outcome.reason or "unknown")
    cells = [
        _fmt(r),
        *map(_fmt, values),
        *map(str, mults),
        _fmt(es.b1sq),
        _fmt(es.b2sq),
        str(outcome.g if outcome.g else es.g),
        str(outcome.h),
        _fmt(det_d),
        _fmt(det_expected),
        status,
    ]
    return ",".join(cells)


def _cmd_sweep(args) -> int:
    params = ModelParams(n=args.n, c=args.c)
    for option, value in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        if not math.isfinite(value):
            raise ValueError(f"{option} must be a finite radius, got {value!r}")
    spec = build_submanifold(params, args.k, math.pi / 2.0)
    if args.r_min <= 0 or args.r_max < args.r_min or args.count < 1:
        raise ValueError("need 0 < r-min <= r-max and count >= 1")
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    check_positive("--ode-step", args.ode_step)
    radii = np.linspace(args.r_min, args.r_max, args.count)
    rows = [_sweep_row(float(r), params, spec) for r in radii]
    text = "\n".join([SWEEP_COLUMNS] + rows) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    try:
        with open(args.input) as fh:
            payload = json.load(fh)
        germ = HypersurfaceGerm.from_json_dict(payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed germ input: {exc}") from exc
    result = classify(
        germ, tol=args.tolerance, grouping_tol=args.grouping_tol
    )
    print(result.to_json())
    return 0


def _cmd_residuals(args) -> int:
    params = ModelParams(n=args.n, c=args.c)
    check_positive("--tolerance", args.tolerance)
    spec = build_submanifold(params, args.k, math.pi / 2.0)
    chart = numlab.tube_chart(spec, args.r)
    x0 = np.zeros(chart.domain_dim)
    field = numlab.GermField(chart, x0, fd_step=args.fd_step)
    values = dict(numlab.gauss_codazzi_residuals(field))
    values["real_eigenspace"] = numlab.real_eigenspace_residual(field)
    indeterminate = None
    try:
        values["graded_connection"] = numlab.graded_connection_residuals(field)
        values["graded_curvature"] = numlab.graded_curvature_residuals(field)
        values["unit_pair_gauss"] = numlab.unit_pair_gauss_residual(field)
        for name, val in numlab.frame_connection_residuals(field).items():
            values[f"frame_{name}"] = val
    except numlab.FrameFieldsUnavailable as exc:
        indeterminate = str(exc)
    ok = True
    for name, val in values.items():
        good = val < args.tolerance
        ok = ok and good
        print(f"{name:20s} {val:.3e}  {'PASS' if good else 'FAIL'}")
    if indeterminate is None:
        return 0 if ok else 1
    # a valid input whose frame suites cannot run: neither a pass nor
    # malformed input
    for name in FRAME_SUITES:
        print(f"{name:20s} {'-':9s}  INDETERMINATE")
    print(f"indeterminate: {indeterminate}")
    return 1


def _cmd_nonexistence(args) -> int:
    report = spectral.nonexistence_scan(
        args.c,
        grid_shape=tuple(args.grid),
        sum_band=args.sum_band,
    )
    print(f"c                        {args.c!r}")
    print(f"grid                     {report.grid_shape}")
    print(f"points scanned           {report.total_points}")
    print(f"feasible points          {report.feasible_count}")
    if report.certificate:
        print(f"certificate              {report.certificate}")
    if args.c < 0:
        print(f"curve samples            {len(report.curve_points)}")
        if report.max_refined_residual is None:
            print("max refined residual     none")
            return 1
        print(f"max refined residual     {report.max_refined_residual:.3e}")
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(
                    {
                        "c": args.c,
                        "curve_points": [
                            list(map(float, row)) for row in report.curve_points
                        ],
                    },
                    fh,
                    indent=2,
                )
            print(f"wrote {args.output}")
        return 0
    return 0 if report.feasible_count == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chgeom",
        description="Numerical lab for hypersurface geometry in complex "
        "hyperbolic space modeled on a solvable Lie group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-model", help="dual-route curvature check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tolerance", type=float, default=CURVATURE_TOLERANCE)
    p.set_defaults(func=_cmd_verify_model)

    p = sub.add_parser("construct", help="build a ruled minimal submanifold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--phi", type=float, default=None, help="radians")
    p.add_argument("--output", type=str, default=None, help="JSON out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("sweep", help="tube invariants over a radius grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument(
        "--ode-step", type=float, default=1e-3,
        help="accepted for compatibility; rows use the closed-form tube germ",
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="accepted for compatibility; rows are computed in order",
    )
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("classify", help="classify a germ from JSON")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--tolerance", type=float, default=spectral.CLASSIFY_TOLERANCE)
    p.add_argument("--grouping-tol", type=float, default=spectral.GROUPING_TOLERANCE)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("residuals", help="finite-difference identity suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--fd-step", type=float, default=numlab.DEFAULT_FD_STEP)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.set_defaults(func=_cmd_residuals)

    p = sub.add_parser("nonexistence", help="eigenvalue feasibility scan")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--grid", type=int, nargs=3, default=[100, 100, 100])
    p.add_argument("--sum-band", type=float, default=0.1)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=_cmd_nonexistence)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one command; may be called repeatedly in one process.

    The parser is built on the first call and reused: ``parse_args``
    returns a fresh namespace each time, so no option carries over.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
