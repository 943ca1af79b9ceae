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
(a valid input the check cannot decide), 2 usage or malformed input,
including an ``--output`` path that cannot be written: it is opened
before the command runs, and a command that fails leaves no file there
that was not there before.

Each subcommand loads only the modules it runs: ``sweep`` imports
``tubes`` and ``residuals`` imports ``numlab`` when they start, so the
other commands never compile either.  Both are looked up on the module
at call time, which is where the benchmark's span recorder wraps them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import jacobi, spectral
from .construction import (
    RIGIDITY_TOLERANCE, build_submanifold, form_scale, rigidity_form_check,
)
from .model import (
    CURVATURE_TOLERANCE,
    DEFAULT_FD_STEP,
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


def _fmt(x) -> str:
    return repr(float(x))


def _cmd_verify_model(args) -> int:
    check_positive("--tolerance", args.tolerance)
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    params = ModelParams(n=args.n, c=args.c)
    model = SolvableModel(params)
    # past the double range (|c| near its largest value) a residual is
    # inf or nan and fails, with no numpy warning
    with np.errstate(all="ignore"):
        report = model.verify_curvature(samples=args.samples, seed=args.seed)
    print(f"max curvature residual   {report['curvature']:.3e}")
    print(f"holomorphic sectional    {report['holomorphic']:.3e}")
    print(f"totally real sectional   {report['totally_real']:.3e}")
    print(f"pinching violation       {report['pinching']:.3e}")
    # all(v < tol), not max(...) < tol: a NaN residual must fail
    ok = all(v < args.tolerance for v in report.values())
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_construct(args) -> int:
    params = ModelParams(n=args.n, c=args.c)
    spec = build_submanifold(params, args.k, args.phi)
    report = rigidity_form_check(spec)
    print(f"angle                    {args.phi!r}")
    print(f"submanifold dimension    {spec.tangent_basis.shape[0]}")
    print(f"normal dimension         {spec.normal_basis.shape[0]}")
    print(f"shape-form residual      {report['shape_form']:.3e}")
    print(f"mean-curvature norm      {report['trace']:.3e}")
    # relative to the form's scale past 1, as its rounding is
    ok = report["shape_form"] <= RIGIDITY_TOLERANCE * form_scale(spec.second_fundamental_form)
    if args.output and ok:  # a failing command writes no file
        with open(args.output, "w") as fh:
            json.dump(spec.to_json_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _sweep_row(r, es, outcome, det_d, det_expected) -> str:
    # a g = 3 row has no lambda_4 block: nan with multiplicity 0
    values, mults = zip(*es.blocks, *[(float("nan"), 0)] * (4 - es.g))
    status = outcome.branch or outcome.reason  # a label carries its branch
    cells = [
        _fmt(r),
        *map(_fmt, values),
        *map(str, mults),
        _fmt(es.b1sq),
        _fmt(es.b2sq),
        str(outcome.g),
        str(outcome.h),
        _fmt(det_d),
        _fmt(det_expected),
        status,
    ]
    return ",".join(cells)


def _cmd_sweep(args) -> int:
    from . import tubes

    params = ModelParams(n=args.n, c=args.c)
    for option, value in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        if not math.isfinite(value):
            raise ValueError(f"{option} must be a finite radius, got {value!r}")
    spec = build_submanifold(params, args.k, math.pi / 2.0)
    if args.r_max < args.r_min or args.count < 1:
        raise ValueError("need r-min <= r-max and count >= 1")
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    check_positive("--ode-step", args.ode_step)
    radii = [float(r) for r in np.linspace(args.r_min, args.r_max, args.count)]
    germs = tubes.tube_germs(spec, spec.normal_basis[0], radii)
    entries = [spectral.catalog_at_radius(r, params.c, params.n, spec.k) for r in radii]
    outcomes = spectral.classify_batch(germs)
    lam1, lam2, b1, b2 = np.array([(es.lambda1, es.lambda2, es.b1, es.b2) for es in entries]).T
    dets = np.linalg.det(
        jacobi.focal_determinant_matrix(lam1, lam2, b1, b2, params.c, radii)
    ).tolist()
    # sech^3 per element: a scalar's ** 3 keeps bits that the array's moves
    sech = jacobi.sech(rate(params.c) * np.array(radii))
    rows = [
        _sweep_row(r, es, outcome, det_d, float(x**3))
        for r, es, outcome, det_d, x in zip(radii, entries, outcomes, dets, sech)
    ]
    text = "\n".join([SWEEP_COLUMNS] + rows) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    check_positive("--tolerance", args.tolerance)
    try:
        # strict UTF-8: json.loads on raw bytes would also take UTF-16,
        # a byte-order mark and encoded surrogates
        with open(args.input, "rb") as fh:
            payload = json.loads(fh.read().decode("utf-8"))
        germ = HypersurfaceGerm.from_json_dict(payload)
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        # RecursionError: json gives up on arrays nested past the limit
        raise ValueError(f"malformed germ input: {exc}") from exc
    print(classify(germ, tol=args.tolerance).to_json())
    return 0


def _cmd_residuals(args) -> int:
    from . import numlab

    params = ModelParams(n=args.n, c=args.c)
    check_positive("--tolerance", args.tolerance)
    check_positive("--fd-step", args.fd_step)
    spec = build_submanifold(params, args.k, math.pi / 2.0)
    chart = numlab.tube_chart(spec, args.r)
    x0 = np.zeros(chart.domain_dim)
    field = numlab.GermField(chart, x0, fd_step=args.fd_step)
    values, skipped, reason = numlab.residual_suites(field)
    ok = True
    for name, val in values.items():
        good = val < args.tolerance
        ok = ok and good
        print(f"{name:20s} {val:.3e}  {'PASS' if good else 'FAIL'}")
    if not skipped:
        return 0 if ok else 1
    # a valid input on which some suites cannot run: neither a pass nor
    # malformed input
    for name in skipped:
        print(f"{name:20s} {'-':9s}  INDETERMINATE")
    print(f"indeterminate: {reason}")
    return 1


def _cmd_nonexistence(args) -> int:
    report = spectral.nonexistence_scan(args.c, grid_shape=tuple(args.grid))
    print(f"c                        {args.c!r}")
    print(f"grid                     {report.grid_shape}")
    print(f"points scanned           {report.total_points}")
    print(f"feasible points          {report.feasible_count}")
    if report.certificate:
        print(f"certificate              {report.certificate}")
    curve = []
    if args.c < 0:
        print(f"curve samples            {len(report.curve_points)}")
        if report.max_refined_residual is None:
            print("max refined residual     none")
            return 1
        print(f"max refined residual     {report.max_refined_residual:.3e}")
        curve = [list(map(float, row)) for row in report.curve_points]
    if args.output:
        with open(args.output, "w") as fh:
            json.dump({"c": args.c, "curve_points": curve}, fh, indent=2)
        print(f"wrote {args.output}")
    # c > 0 has no catalog solution, so a feasible cell there is a failure
    return 1 if args.c > 0 and report.feasible_count else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chgeom",
        description="Numerical lab for hypersurface geometry in complex "
        "hyperbolic space modeled on a solvable Lie group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> subcommand parser, for main

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
    p.add_argument("--phi", type=float, default=math.pi / 2, help="radians")
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
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("residuals", help="finite-difference identity suite")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--fd-step", type=float, default=DEFAULT_FD_STEP)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.set_defaults(func=_cmd_residuals)

    p = sub.add_parser("nonexistence", help="eigenvalue feasibility scan")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--grid", type=int, nargs=3, default=[100, 100, 100])
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=_cmd_nonexistence)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parse(argv: list) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, from a parser built on the
    first call and reused.

    A subcommand's arguments are parsed by that subcommand's parser
    alone, which is what the full parser hands them to.  The full parser
    runs only where its own level answers: no subcommand, ``-h``, an
    unknown name, or an argument the subcommand leaves unrecognized; so
    every help text, usage error and exit code is its own.  The namespace
    lacks only ``command``, which no subcommand reads.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    sub = _PARSER.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    """Run one command; may be called repeatedly in one process.

    Parsing returns a fresh namespace each time, so no option carries
    over from one call to the next.
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    output = getattr(args, "output", None)
    existed = not output or os.path.lexists(output)
    try:
        if output:
            open(output, "a").close()  # an unwritable path fails before any work
        code = args.func(args)
    except (ValueError, OSError) as exc:
        # OSError: an --output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    if code and not existed and os.path.lexists(output):
        os.remove(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
