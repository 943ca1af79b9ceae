"""Command-line interface tests, run in-process through main(argv).

The input contract of the CLI (README, "Command line") lives in two
tests.  ``test_contract`` runs one row of ``CONTRACT`` per input: the
argv, the exit code, and the stderr and stdout it must print.
``test_walk`` draws inputs over the documented domain of every option in
``DOMAINS``, pushes at most one option out of it, and checks the
invariants that hold for every input.  A new malformed input is one more
row; a new option needs a ``DOMAINS`` entry, or the walk fails.
``test_console_script`` reruns one row per (subcommand, exit code) in a
fresh interpreter, through the call the installed ``chgeom`` script makes.
"""

import ast
import contextlib
import functools
import io
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chgeom import cli, model, numlab, spectral, tubes
from chgeom.cli import SWEEP_COLUMNS, main
from chgeom.construction import build_submanifold
from chgeom.jacobi import special_radius
from chgeom.model import ModelParams
from chgeom.oracles import horosphere_germ, tube_germ, w_orbit
from chgeom.spectral import catalog_germ
from chgeom.tubes import MAX_RADIUS, MAX_RATE_RADIUS
from test_hygiene import unclassified_reasons


def _match(pattern, text):
    """Each line of pattern matches one line of text, "*" standing for any
    run of characters within it; a pattern line "..." matches any run of
    lines."""
    regex = "".join(
        r"(?:.*\n)*" if line == "..." else re.escape(line).replace(r"\*", ".*") + "\n"
        for line in pattern.splitlines()
    )
    return re.fullmatch(regex, text) is not None


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _contains(want, got):
    """got holds want: a dict's items recursively, a string by _match."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(
            key in got and _contains(value, got[key]) for key, value in want.items()
        )
    if isinstance(want, str):
        return isinstance(got, str) and _match(want, got + "\n")
    return want == got


class _Record(NamedTuple):
    """The content of a germ file; a row's argv holds it where the file's
    path goes, as ``--input``."""

    label: str
    content: bytes


def _germ(label, *edits, n=3, k=2, r=0.7, flip=False):
    """The catalog germ (n, k, r) at c = -4 as a record, in the opposite
    co-orientation if flip, after each edit (path, value): a dotted path
    of fields and row indices, and the new value or a function of the old
    one."""
    germ = catalog_germ(ModelParams(n=n, c=-4.0), k, r=r)
    data = (germ.flipped() if flip else germ).to_json_dict()
    for path, value in edits:
        *head, last = [int(key) if key.isdigit() else key for key in path.split(".")]
        parent = functools.reduce(operator.getitem, head, data)
        parent[last] = value(parent[last]) if callable(value) else value
    return _Record(label, json.dumps(data).encode())


def _j_breaking_fake(n, k, c=-4.0, r=0.7, seed=0):
    """The catalog germ (n, k, r) at c with its non-Hopf rows re-split
    (ROADMAP item 13): W, the J-invariant complement of its (xi, U1, U2,
    A), gives the lambda_3 rows A, a seeded unit v in W, Jv and seeded
    further directions of W, and the lambda_4 rows its rest.  Spectrum,
    multiplicities and b_i are the catalog's, but the lambda_3 space is
    not totally real.  Needs k >= 2 and 2n - 2 - k >= 3."""
    params, es = ModelParams(n=n, c=c), spectral.catalog_at_radius(r, c, n, k)
    germ = catalog_germ(params, k, r=r)
    xi, u1, u2 = germ.normal, *germ.tangent_basis[:2]
    frame = np.array((xi, u1, u2, (model.j_action(u1) + es.b1 * xi) / -es.b2))
    w = np.linalg.svd(frame)[2][4:]  # orthonormal rows spanning W
    rng = np.random.default_rng(seed)
    v = rng.normal(size=len(w)) @ w
    v /= np.linalg.norm(v)
    # in W's coordinates: v, Jv, then the further directions, orthonormalised
    cols = np.column_stack((w @ v, w @ model.j_action(v), rng.normal(size=(len(w), len(w) - 2))))
    split = np.linalg.qr(cols)[0].T @ w
    lam4 = es.lambda4 if es.g == 4 else es.lambda2
    values = [es.lambda1, es.lambda2] + [es.lambda3] * (2 * n - 2 - k) + [lam4] * (k - 1)
    rows = np.vstack((frame[1:], split))
    return spectral.HypersurfaceGerm(params, xi, rows, np.diag(values)).validate()


def _conjugated_complex_structure(n, kind):
    """P J P^-1, which squares to -1 but is not the model's J: P a shear
    (the result is not skew) or a random rotation."""
    j = model.standard_complex_structure(n)
    if kind == "non-skew":
        p = np.eye(2 * n)
        p[0, 2] = 0.5
    else:
        p, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(2 * n, 2 * n)))
    jmat = p @ j @ np.linalg.inv(p)
    assert np.allclose(jmat @ jmat, -np.eye(2 * n), atol=1e-12)
    return jmat.tolist()


J3 = model.standard_complex_structure(3).tolist()
# (edits, message) of the single-defect n = 3 records: the reader's
# message, which ``HypersurfaceGerm.validate`` raises too
SINGLE_DEFECTS = {
    **{f"{field} misshapen": ([(field, lambda rows: rows[:-1])],
                              f"germ {field} has shape {got}, expected {want} for n=3")
       for field, got, want in (("normal", "(5,)", "(6,)"), ("tangent_basis", "(4, 6)", "(5, 6)"),
                                ("shape", "(4, 5)", "(5, 5)"))},
    **{f"{path.split('.')[0]} non-finite": ([(path, math.nan)],
                                            f"germ {path.split('.')[0]} has a non-finite entry")
       for path in ("normal.1", "tangent_basis.1.1", "shape.1.1")},
    "non-orthonormal frame": (
        [("normal", lambda v: [2.0 * x for x in v])], "normal + tangent basis is not orthonormal"),
    "asymmetric shape": (
        [("shape.0.1", lambda x: x + 0.5)], "shape operator matrix is not symmetric"),
}
SUITES = numlab.RESIDUAL_SUITES
# argparse's usage lines, wrapped to the terminal's width
USAGE = "usage: chgeom *\n...\n"
NO_OUTPUT_DIR = "[Errno 2] No such file or directory: '{tmp}/missing/x.json'"
# every suite passes: the frame suite prints one line per pair of U1, U2, A
ALL_PASS = "\n".join([f"{name:20s} *  PASS" for name in SUITES[:-1]] + ["frame_* *  PASS"] * 9)


def _residuals_out(verdicts, skipped, reason):
    """residuals' stdout: a line per (suite, verdict) that ran, an
    INDETERMINATE line per skipped suite, then the reason."""
    return "\n".join(
        [f"{name:20s} *  {verdict}" for name, verdict in verdicts]
        + [f"{name:20s} -          INDETERMINATE" for name in skipped]
        + [f"indeterminate: {reason}"]
    )


def _row(argv, code, err="", out="", xfail=None):
    """One input: its argv, its exit code, and _match patterns for stderr
    and stdout.  out may also be a tuple of patterns, one of which stdout
    must match, a dict, which classify's stdout must hold as strict JSON,
    or None (not checked).  "{tmp}" stands for the test's temporary
    directory.  xfail names the ROADMAP item of a known defect."""
    name = " ".join(arg.label if isinstance(arg, _Record) else arg for arg in argv)
    marks = [pytest.mark.xfail(strict=True, reason=xfail)] if xfail else []
    return pytest.param(argv, code, err, out, id=name, marks=marks)


VERIFY = ["verify-model", "--n", "2", "--c", "-4"]
CONSTRUCT = ["construct", "--n", "3", "--c", "-4", "--k", "2"]
SWEEP = ["sweep", "--n", "3", "--k", "2"]
SWEEP_2 = ["sweep", "--n", "2", "--c", "-4", "--k", "1", "--r-min", "0.5", "--r-max", "0.5",
           "--count", "1"]
RESIDUALS = ["residuals", "--n", "3", "--k", "2"]
RESIDUALS_2 = ["residuals", "--n", "2", "--c", "-4", "--k", "1", "--r", "0.3"]
GRID_30 = ["--grid", "30", "30", "30"]
GRID_165 = ["--grid", "165", "165", "165"]
# |c| too small or too large for 2 c sqrt(-c - 3 lambda3^2) to be a
# normal double
EXTREME_CURVATURES = (-1e-250, -1e-300, -1e-310, -5e-324, -1e250, -1e300)
# the catalog germ off the catalog by 0.11: unclassified at the default
# tolerance, and a NaN tolerance must not turn it into a tube label
OFF_CATALOG = _germ("off-catalog", ("shape.0.0", lambda x: x + 0.05))
# the spectrum of _germ's default record
CATALOG_3_2 = spectral.catalog_at_radius(0.7, -4.0, 3, 2)
# a k = 2 orbit of Kaehler angle phi = 1.0 < pi/2: its tubes have h = 3
PHI_1_ORBIT = build_submanifold(ModelParams(n=4, c=-4.0), 2, 1.0)
# the orbit W_w of w^perp = span{e1, Je1, e2}, whose Kaehler angle is not
# constant (ROADMAP item 26)
MIXED_ORBIT = w_orbit(ModelParams(n=4, c=-4.0), np.eye(8)[[2, 3, 4]])
MALFORMED = "error: malformed germ input:"
TOO_WIDE = "exceeds 20.0 (s = sqrt(-c)/2): the tube's Jacobi modes are too ill-conditioned there"
SMALLEST_RADIUS = "the smallest tube radius for k >= 2"
MIN_SCALE = "r and s^2*r stay at least 1e-300 (s = sqrt(-c)/2)"
FRAMES_NEED = "the frame suites cannot run: at grouping tolerance 0.0001"
NEIGHBOUR_H1 = "a stencil neighbour of the center germ has h = 1 projected eigenspaces, not 2"
DEPTH = sys.getrecursionlimit() + 100


def _with_j(path, value):
    """Edits that set one entry of the record, giving it the legacy J first
    where the entry is J's."""
    return ([("J", J3)] if path.startswith("J.") else []) + [(path, value)]


CONTRACT = [
    # verify-model
    _row([*VERIFY, "--samples", "50"], 0, out="...\nPASS"),
    # n = 8: the widest Lie tables the column-sum kernel sees
    _row(["verify-model", "--n", "8", "--c=-2.7"], 0, out="...\nPASS"),
    *[_row([*VERIFY, f"--samples={s}"], 2, f"error: --samples must be >= 1, got {s}")
      for s in ("0", "-3")],
    _row([*VERIFY, "--seed=-1"], 2, "error: --seed must be a non-negative integer, got -1"),
    *[_row([*VERIFY, "--samples", "5", f"--tolerance={v}"], 2,
           f"error: --tolerance must be positive and finite, got {float(v)!r}")
      for v in ("nan", "inf", "0", "-1")],
    _row(["verify-model", "--n", "3", "--c=-1e300"], 0, out="...\nPASS",
         xfail="ROADMAP item 12: totally real sectional 1.5e284 reads FAIL at c = -1e300"),
    # the products overflow: a residual is inf or nan and fails (item 12
    # owns the verdict), with no numpy warning
    _row(["verify-model", "--n", "2", f"--c={-sys.float_info.max!r}", "--samples", "1"], 1,
         out="...\nFAIL"),
    # construct
    _row(["construct", "--n", "3", "--c", "-4", "--k", "3"], 2, "error: k=3 exceeds n-1=2"),
    # the checks on n, c, k and phi, which construct --output records
    *[_row(["construct", "--n", "3", "--c", "-4", f"--k={k}"], 2,
           f"error: k must be a positive integer, got {k}") for k in ("0", "-1")],
    _row(["construct", "--n", "3", "--c", "-4", "--k", "1.5"], 2,
         f"{USAGE}chgeom construct: error: argument --k: invalid int value: '1.5'"),
    _row(["construct", "--n", "1", "--c", "-4", "--k", "1"], 2,
         "error: n must be an integer >= 2, got 1"),
    *[_row([*CONSTRUCT, f"--phi={phi}"], 2, f"error: phi must lie in [0, pi/2], got {float(phi)!r}")
      for phi in ("-5e-324", "-1", "2", "nan", "inf")],
    _row(["construct", "--n", "3", "--c", "-4", "--k", "1", "--phi", "1.0"], 2,
         "error: k=1 odd requires phi = pi/2 (totally real normal space)"),
    # within RIGHT_ANGLE_TOLERANCE of pi/2, phi is totally real
    _row(["construct", "--n", "3", "--c", "-4", "--k", "1", "--phi", repr(math.pi / 2 + 5e-13)],
         0, out="...\nPASS"),
    *[_row(["construct", "--n", "3", f"--c={c}", "--k", "2"], 2,
           f"error: c must be a nonzero finite real, got {float(c)!r}") for c in ("0", "nan", "inf")],
    _row(["construct", "--n", "3", "--c", "4", "--k", "2"], 2,
         "error: the solvable group model exists only for c < 0; use ambient_curvature for c > 0"),
    # phi = 0: a complex normal space, the totally geodesic CH^{n-k/2}
    _row([*CONSTRUCT, "--phi=0"], 0, out="...\nPASS"),
    *[_row([*CONSTRUCT, "--phi", phi], 0, out="...\nPASS") for phi in ("1e-6", "1e-8", "1e-9")],
    # the Koszul form's rounding grows like sin(phi) s: the verdict, like
    # the form's symmetry check, is relative to its largest entry past 1,
    # while the printed residual stays absolute
    *[_row(["construct", "--n", "3", f"--c={c}", "--k", "2", "--phi", "1.0"], 0,
           out=f"...\nshape-form residual      {residual}\n...\nPASS")
      for c, residual in (("-1e20", "4.768e-07"), ("-1e300", "4.543e+133"))],
    # --output is opened before the command runs: nothing is printed
    _row([*CONSTRUCT, "--output={tmp}/missing/x.json"], 2, f"error: {NO_OUTPUT_DIR}"),
    # sweep
    *[_row([*SWEEP, f"--c={c!r}", "--count", "2", "--r-min", "0.5" if abs(c) < 1 else "1e-160",
            "--r-max", "1" if abs(c) < 1 else "1e-155"], 2, f"error: c = {c!r} is out of range*")
      for c in (-1e-250, -1e250, -1e300)],
    # for k >= 2, r and s^2 r stay at least 1e-300 (tubes.min_radius): the
    # tube germs are checked first, so below that bound their error is the
    # one printed, also where the catalog rejects c; where the bound
    # exceeds MAX_RADIUS, the error names c
    _row([*SWEEP, "--c=-1e-300", "--count", "2", "--r-min", "0.5", "--r-max", "1"], 2,
         f"error: r = 0.5 is below 4.0, {SMALLEST_RADIUS} at c = -1e-300: {MIN_SCALE}"),
    *[_row([*SWEEP, f"--c={c!r}", "--count", "2", "--r-min", "0.5", "--r-max", "1"], 2,
           f"error: c = {c!r} leaves no tube radius for k >= 2: the smallest, {low}, "
           f"exceeds 10.0, as {MIN_SCALE}")
      for c, low in ((-1e-310, "39999999999.998146"), (-5e-324, "inf"))],
    *[_row([*SWEEP, f"--c={c}", "--r-min", r, "--r-max", r, "--count", "1"], 2,
           f"error: r = {float(r)!r} is below {low}, {SMALLEST_RADIUS} at c = {float(c)!r}: "
           f"{MIN_SCALE}")
      for c, r, low in (("-1", "1e-308", "4e-300"), ("-1", "5e-324", "4e-300"),
                        ("-1e-205", "1e-300", "4e-95"))],
    _row([*SWEEP, "--c", "-100", "--r-min", "0.5", "--r-max", "10", "--count", "8"], 2,
         f"error: s*r = 22.857142857142854 {TOO_WIDE}"),
    # a radius that both the tube germ and the catalog reject: the tube
    # germ's error is the one printed
    _row([*SWEEP, "--c=-1e6", "--r-min", "1", "--r-max", "2", "--count", "2"], 2,
         f"error: s*r = 500.0 {TOO_WIDE}"),
    _row([*SWEEP, "--c", "-4", "--r-min", "0.5", "--r-max", "0.2", "--count", "3"], 2,
         "error: need r-min <= r-max and count >= 1"),
    _row([*SWEEP_2, "--jobs", "0"], 2, "error: --jobs must be >= 1"),
    *[_row([*SWEEP_2, f"--ode-step={v}"], 2,
           f"error: --ode-step must be positive and finite, got {float(v)!r}")
      for v in ("0", "-1e-3", "nan", "inf")],
    *[_row([*SWEEP, "--c", "-4", "--count", "3", *[
        f"{name}={value if name == option else default}"
        for name, default in (("--r-min", "0.5"), ("--r-max", "1.0"))]], 2,
        f"error: {option} must be a finite radius, got {float(value)!r}")
      for option in ("--r-min", "--r-max") for value in ("nan", "inf", "-inf")],
    # a k = 1 gap near the grouping tolerance: no Python warning
    _row(["sweep", "--n", "2", "--c", "-100", "--k", "1", "--r-min", "0.001", "--r-max", "2.0",
          "--count", "8"], 0, out=f"{SWEEP_COLUMNS}\n..."),
    # r = 0 at k = 1 is the ruled hypersurface itself
    _row(["sweep", "--n", "3", "--c", "-4", "--k", "1", "--r-min", "0", "--r-max", "0.4",
          "--count", "3"], 0, out=f"{SWEEP_COLUMNS}\n0.0,*,1.0,1.0,G3_K1\n..."),
    _row([*SWEEP, "--c", "-4", "--r-min", "0.2", "--r-max", "0.4", "--count", "2",
          "--output={tmp}/missing/x.json"], 2, f"error: {NO_OUTPUT_DIR}"),
    _row([*SWEEP, "--c=-1e-20", "--r-min", "0.5", "--r-max", "0.5", "--count", "1"], 0,
         out=f"{SWEEP_COLUMNS}\n0.5,*,4,2,*,G4",
         xfail="ROADMAP item 12: at c = -1e-20 the row reads g = 2, h = 1 and hopf, "
         "where the same s*r at c = -4 reads G4"),
    # at c = -1e10 the absolute CLASSIFY_TOLERANCE meets eigenvalues near
    # 5e4: from s*r = 1 the rows miss by 3.8e-6 to 7.6e-6
    _row(["sweep", "--n", "3", "--c=-1e10", "--k", "2", "--r-min", "1e-5", "--r-max", "6e-5",
          "--count", "6"], 0,
         out=tuple("\n".join([SWEEP_COLUMNS, *[f"*,{cell}" for cell in cells]])
                   for cells in itertools.product(("G4", "indeterminate*"), repeat=6)),
         xfail="ROADMAP item 12: at c = -1e10 the rows from s*r = 1 read residuals, "
         "where the same s*r at c = -4 reads G4"),
    # below r = 1e-9 a catalog tube reads G4 or indeterminate (item 1's target)
    *[_row(["sweep", "--n", n, "--c", "-4", "--k", k, "--r-min", r, "--r-max", r, "--count", "1"],
           0, out=(f"{SWEEP_COLUMNS}\n{r},*,G4", f"{SWEEP_COLUMNS}\n{r},*,indeterminate*"),
           xfail=f"ROADMAP item 1: at r = {r} the (n, k) = ({n}, {k}) tube reads {status}")
      for n, k, r, status in (("4", "3", "1e-60", "residuals"),
                              ("3", "2", "1e-300", "'branch G3_K1 requires k = 1'"))],
    # classify: valid records exit 0 with strict JSON, whatever the label;
    # the catalog's branches in either co-orientation
    *[_row(["classify", _germ(f"catalog k={k} r={r:.6g}" + " flipped" * flip, k=k, r=r,
                              flip=flip)], 0,
           out={"model": family, "branch": branch, "k": k, "r": pytest.approx(r, abs=1e-9)})
      for k, r, family, branch in ((2, 0.7, "tube", "G4"),
                                   (2, special_radius(-4.0), "tube", "G3_KBIG"),
                                   (1, 0.7, "equidistant", "G3_K1"))
      for flip in (False, True)],
    _row(["classify", _germ("c=4", ("c", 4.0))], 0,
         out={"model": "unclassified", "reason": "*no real roots for c > 0*"}),
    *[_row(["classify", _germ(f"c={c!r}", ("c", c))], 0,
           out={"model": "unclassified", "reason": f"c = {c!r} is out of range*"})
      for c in EXTREME_CURVATURES],
    # a small-r k = 2 germ whose lambda_1/lambda_3 gap sits near the
    # spectrum-wide grouping tolerance: no Python warning
    _row(["classify", _germ("r=1.5e-7", r=1.5e-7)], 0, out={}),
    # the shape scaled by 1e308 stays finite and symmetric: g = 4, h = 2,
    # and the catalog quadratic, which overflows to inf - inf, is null
    _row(["classify", _germ("shape*1e308", ("shape", lambda s: [[1e308 * x for x in row]
                                                               for row in s]))], 0,
         out={"g": 4, "h": 2, "residuals": {"quadratic": None}}),
    # one row per fixed reason of an unclassified germ
    _row(["classify", OFF_CATALOG], 0, out={"model": "unclassified", "reason": "residuals"}),
    _row(["classify", _Record("horosphere", horosphere_germ(ModelParams(n=3, c=-4.0)).to_json()
                              .encode())], 0,
         out={"model": "unclassified", "g": 2, "h": 1, "reason": "hopf"}),
    _row(["classify", _Record("tube of W^6_phi, phi=1.0, r=0.7", tube_germ(
        PHI_1_ORBIT, PHI_1_ORBIT.normal_basis[0], 0.7).to_json().encode())], 0,
         out={"model": "unclassified", "g": 4, "h": 3, "reason": "h=3"}),
    # both Hopf spaces, lambda_3 and lambda_4 set to lambda_2
    _row(["classify", _germ("two values", *[(f"shape.{i}.{i}", CATALOG_3_2.lambda2)
                                            for i in (2, 3, 4)])], 0,
         out={"model": "unclassified", "g": 2, "h": 2, "reason": "g=2"}),
    # lambda_3 of multiplicity 1 reads as k = 3 >= n
    _row(["classify", _germ("lambda_3 once", ("shape.3.3", CATALOG_3_2.lambda4))], 0,
         out={"model": "unclassified", "g": 4, "h": 2, "reason": "multiplicities"}),
    # the catalog spectrum on a lambda_3 space that J does not keep
    # totally real: no holomorphic isometry carries it to the catalog germ
    *[_row(["classify", _Record(f"J-breaking fake n={n} k={k}",
                                json.dumps(_j_breaking_fake(n, k).to_json_dict()).encode())], 0,
           out={"model": "unclassified"},
           xfail=f"ROADMAP item 13: classify labels the fake tube, k={k}, r=0.7")
      for n, k in ((4, 3), (5, 4), (6, 5))],
    # a natural fake: the tube around the mixed-angle orbit W_w, w^perp =
    # span{e1, Je1, e2}, at eta = e2 has the catalog germ's spectrum and
    # b_i, but J keeps its lambda_4 space and its lambda_3 space holds a
    # complex line
    *[_row(["classify", _Record(f"mixed-angle W_w tube eta=e2 r={r}", tube_germ(
        MIXED_ORBIT, MIXED_ORBIT.normal_basis[2], r).to_json().encode())], 0,
           out={"model": "unclassified"},
           xfail=f"ROADMAP item 13: classify labels the mixed-angle tube G4, k=3, r={r}")
      for r in (0.3, 0.7, 1.2)],
    # lambda_2 and lambda_4 of the entry at the germ's own lambda_3 lie
    # closer than the grouping tolerance: no branch or radius is claimed
    _row(["classify", _germ("n=4 k=2 r=r*(1+1e-9)", n=4, k=2,
                            r=special_radius(-4.0) * (1 + 1e-9))], 0,
         out={"model": "unclassified", "g": 3, "r": None, "residuals": {},
                 "reason": "indeterminate: lambda_2 and lambda_4 closer than the grouping tolerance"}),
    *[_row(["classify", OFF_CATALOG, f"--tolerance={v}"], 2,
           f"error: --tolerance must be positive and finite, got {float(v)!r}")
      for v in ("nan", "inf", "0", "-1")],
    # one tolerance: the decomposition groups at --tolerance/10, and
    # there is no grouping option, whatever value it is given
    _row(["classify", OFF_CATALOG, "--grouping-tol", "1e-7"], 2,
         f"{USAGE}chgeom: error: unrecognized arguments: --grouping-tol 1e-7"),
    *[_row(["classify", OFF_CATALOG, f"--grouping-tol={v}"], 2,
           f"{USAGE}chgeom: error: unrecognized arguments: --grouping-tol={v}")
      for v in ("nan", "inf", "0", "-1")],
    # the smallest tolerance: its tenth, the grouping tolerance, is 0,
    # which groups equal eigenvalues only
    _row(["classify", _germ("catalog k=2 r=0.7 tol/10 = 0"), "--tolerance=5e-324"], 0,
         out={"model": "unclassified", "g": 4, "h": 2, "reason": "residuals"}),
    # classify: malformed records exit 2 with one error line
    _row(["classify", "--input={tmp}/missing.json"], 2,
         f"{MALFORMED} [Errno 2] No such file or directory: '{{tmp}}/missing.json'"),
    *[_row(["classify", _Record(text, text.encode())], 2, f"{MALFORMED} {message}")
      for text, message in (
          ('{"bad": 1}', "germ record has no field 'c'"),
          ('{"n": 3}', "germ record has no field 'c'"),
          ("[1, 2]", "germ record must be a JSON object, got list"),
          ("5", "germ record must be a JSON object, got int"))],
    # one invalid UTF-8 string in a field classify does not read
    *[_row(["classify", _Record(f"note {raw!r}",
                                _germ("").content[:-1] + b', "note": "' + raw + b'"}')], 2,
           f"{MALFORMED} 'utf-8' codec can't decode byte {raw[0]:#x} in *")
      for raw in (b"\xe9", b"\x80", b"\xed\xa0\x80")],
    _row(["classify", _Record("nested past the recursion limit", b"[" * DEPTH + b"]" * DEPTH)],
         2, f"{MALFORMED} maximum recursion depth exceeded*"),
    *[_row(["classify", _Record(f"n={n}", _germ("", n=2, k=1).content.replace(
        b'"n": 2', f'"n": {n}'.encode(), 1))], 2,
        f"{MALFORMED} n must be an integer >= 2, got {float(n)!r}") for n in ("2.5", "1e400")],
    *[_row(["classify", _germ(f"c={c!r}", ("c", c))], 2,
           f"{MALFORMED} germ c must be a JSON number, got {c!r}") for c in (True, "-4")],
    *[_row(["classify", _germ(f"{path}={value}", *_with_j(path, value))], 2,
           f"{MALFORMED} germ {path.split('.')[0]} has a non-finite entry")
      for path in ("normal.0", "tangent_basis.0.0", "shape.0.0", "J.0.0")
      for value in (math.nan, math.inf, -math.inf)],
    # inf <= inf passes the symmetry test: the finiteness check rejects it
    _row(["classify", _germ("opposite infinities", ("shape.0.1", math.inf),
                            ("shape.1.0", -math.inf))], 2,
         f"{MALFORMED} germ shape has a non-finite entry"),
    # S - S^T overflows: worded under the check's errstate, no warning
    _row(["classify", _germ("opposite 1e308", ("shape.0.1", 1e308), ("shape.1.0", -1e308))], 2,
         f"{MALFORMED} shape operator matrix is not symmetric"),
    # a finite normal of length 1e200 overflows frame frame^T
    _row(["classify", _germ("normal*1e200", ("normal", lambda v: [1e200 * x for x in v]))], 2,
         f"{MALFORMED} normal + tangent basis is not orthonormal"),
    *[_row(["classify", _germ(f"shape={want}", ("shape", shape))], 2,
           f"{MALFORMED} germ shape has shape {want}, expected (5, 5) for n=3")
      for shape, want in ((np.eye(3).tolist(), "(3, 3)"), (1.0, "()"))],
    *[_row(["classify", _germ(f"J {kind} n={n}", ("J", _conjugated_complex_structure(n, kind)),
                              n=n, k=n - 1)], 2,
           f"{MALFORMED} germ J is not the model's complex structure for n={n}")
      for kind in ("non-skew", "rotated") for n in (2, 3, 4)],
    # -1 followed by 400 zeros does not convert to a float
    *[_row(["classify", _germ(f"{path}=-1e400", *_with_j(path, -(10**400)))], 2,
           f"{MALFORMED} malformed germ record: int too large to convert to float")
      for path in ("c", "normal.0", "shape.0.0", "J.0.0")],
    # two defects: the first in the order frame, shape matrix, J is named
    _row(["classify", _germ("frame, asymmetric shape", ("normal", lambda v: [2 * x for x in v]),
                            ("shape.0.1", lambda x: x + 0.5))], 2,
         f"{MALFORMED} normal + tangent basis is not orthonormal"),
    _row(["classify", _germ("nan shape, tangent_basis shape", ("shape.1.1", math.nan),
                            ("tangent_basis", lambda t: t[:-1]))], 2,
         f"{MALFORMED} germ tangent_basis has shape (4, 6), expected (5, 6) for n=3"),
    _row(["classify", _germ("foreign J, inf normal", ("J", J3), ("J.0.0", 0.5),
                            ("normal.0", math.inf))], 2,
         f"{MALFORMED} germ normal has a non-finite entry"),
    *[_row(["classify", _germ(kind, *edits)], 2, f"{MALFORMED} {message}")
      for kind, (edits, message) in SINGLE_DEFECTS.items()],
    # residuals
    _row(RESIDUALS_2, 0, out=ALL_PASS),
    # the benchmark's n = 4 configuration
    _row(["residuals", "--n", "4", "--c", "-4", "--k", "3", "--r", "0.5"], 0, out=ALL_PASS),
    # the tube layer's radius domain, as sweep reads it
    *[_row([*RESIDUALS_2[:-2], f"--r={r}"], 2,
           f"error: radius must lie in [0, 10.0], got {float(r)!r}") for r in ("nan", "inf", "30")],
    _row(["residuals", "--n", "3", "--c", "-4", "--k", "1", "--r", "0"], 0, out=ALL_PASS),
    _row([*RESIDUALS, "--c", "-4", "--r", "1e-308"], 2,
         f"error: r = 1e-308 is below 1e-300, {SMALLEST_RADIUS} at c = -4.0: {MIN_SCALE}"),
    _row([*RESIDUALS, "--c=-1e-310", "--r", "0.5"], 2,
         "error: c = -1e-310 leaves no tube radius for k >= 2: the smallest, 39999999999.998146, "
         f"exceeds 10.0, as {MIN_SCALE}"),
    *[_row([*RESIDUALS_2, f"--fd-step={v}"], 2,
           f"error: --fd-step must be positive and finite, got {float(v)!r}")
      for v in ("nan", "inf", "0", "-1")],
    *[_row([*RESIDUALS_2, f"--tolerance={v}"], 2,
           f"error: --tolerance must be positive and finite, got {float(v)!r}")
      for v in ("nan", "inf", "0", "-1")],
    # a large radius: lambda_1, lambda_3 and lambda_4 merge into one
    # projected group, which at r = 6 falls below the projection threshold
    _row([*RESIDUALS, "--c", "-4", "--r", "5.0"], 1, out=_residuals_out(
        [("gauss", "FAIL"), ("codazzi", "FAIL"), ("real_eigenspace", "FAIL")], SUITES[3:],
        f"{FRAMES_NEED} the center germ has no non-projected lambda_3 eigenspace "
        "(2 eigenvalue groups: 0.999909, 2)")),
    _row([*RESIDUALS, "--c", "-4", "--r", "6.0"], 1, out=_residuals_out(
        [("gauss", "FAIL"), ("codazzi", "FAIL"), ("real_eigenspace", "PASS")], SUITES[3:],
        f"{FRAMES_NEED} the center germ has h = 1 projected eigenspaces, not 2 "
        "(2 eigenvalue groups: 0.999988, 2)")),
    _row([*RESIDUALS, "--c", "-4", "--r", "1e-100"], 1, out=_residuals_out(
        [("gauss", "PASS"), ("codazzi", "PASS"), ("real_eigenspace", "PASS")], SUITES[3:],
        f"{FRAMES_NEED} {NEIGHBOUR_H1}")),
    # a singular chart metric runs no suite
    *[_row([*RESIDUALS, *extra], 1, out=_residuals_out([], SUITES, "no suite can run: the "
                                                       "chart's coordinate tangents are linearly "
                                                       "dependent at fd-step *"))
      for extra in (["--c", "-4", "--r", "0.5", "--fd-step", "1e-300"],
                    ["--c", "-400", "--r", "2.0"], ["--c", "-4", "--r", "1e-300"],
                    ["--c=-1e300", "--r", "1e-151"])],
    # chart values past the double range run no suite
    *[_row([*RESIDUALS, "--c", "-4", "--r", "0.7", "--fd-step", step], 1,
           out=_residuals_out([], SUITES, "no suite can run: the chart's coordinate tangents "
                              f"are not finite at fd-step {float(step):g}"))
      for step in ("1e200", "1e300", "1.7e308")],
    # suite values past the double range read INDETERMINATE, not nan FAIL
    _row([*RESIDUALS, "--c=-1e200", "--r", "1e-151", "--fd-step", "1e-100"], 1,
         out=_residuals_out([("real_eigenspace", "PASS")], ("gauss", "codazzi", *SUITES[3:]),
                            f"the values of gauss, codazzi are not finite; {FRAMES_NEED} "
                            f"{NEIGHBOUR_H1}")),
    _row([*RESIDUALS, "--c=-1e100", "--r", "1e-151", "--fd-step", "1e-100"], 1,
         out="...\nunit_pair_gauss      -          INDETERMINATE\n"
         "indeterminate: the values of unit_pair_gauss are not finite"),
    # a decomposition that fails on finite stacks stops the run
    _row(["residuals", "--n", "2", "--c=-1.0", "--k", "1", "--r=5e-324", "--fd-step=1e22"], 1,
         out=_residuals_out([("gauss", "FAIL"), ("codazzi", "FAIL")], SUITES[2:],
                            "a suite's linear algebra failed: Singular matrix")),
    # (eigh's reply to a NaN matrix depends on the LAPACK build)
    _row(["residuals", "--n", "2", "--c=-1e300", "--k", "1", "--r=1e-233", "--fd-step=1e-74"], 1,
         out="...\nindeterminate: the values of gauss* not finite*"),
    # |c| from 1e-10 to 1e10 and r from 1e-8 to 10: exit 2, with one error
    # line, exactly where s*r exceeds the tube layer's bound
    *[_row([*RESIDUALS, f"--c={c}", "--r", r], code,
           f"error: s*r = * {TOO_WIDE}" if code == 2 else "", out="" if code == 2 else None)
      for c, codes in (("-1e-10", "1111"), ("-4", "1101"), ("-1e4", "1122"), ("-1e10", "1222"))
      for r, code in zip(("1e-8", "1e-3", "0.7", "10"), map(int, codes))],
    _row([*RESIDUALS, "--c", "-4", "--r", "1e-3"], 0, out=ALL_PASS,
         xfail="ROADMAP item 2: unit_pair_gauss reads 1.96e-3 FAIL on a true tube at r = 1e-3"),
    _row([*RESIDUALS, "--c", "-4", "--r", "1.5"], 0, out=ALL_PASS,
         xfail="ROADMAP item 2: gauss reads 4.9e-3 FAIL on a true tube at r = 1.5"),
    _row([*RESIDUALS, "--c", "-100", "--r", "0.14"], 0, out=ALL_PASS,
         xfail="ROADMAP item 12: gauss reads 4.727e-02 FAIL at c = -100, s*r = 0.7: the "
         "absolute --tolerance 1e-3 does not scale with the curvature"),
    # nonexistence
    _row(["nonexistence", "--c", "4", *GRID_30], 0,
         out="c                        4.0\ngrid                     (30, 30, 30)\n"
         "points scanned           27000\nfeasible points          0\ncertificate              *"),
    # the catalog's c > 0 scan
    _row(["nonexistence", "--c", "3.1", *GRID_165], 0,
         out="...\nfeasible points          0\ncertificate              *"),
    # a long lambda_3 axis
    _row(["nonexistence", "--c", "-4", "--grid", "4000", "10", "10"], 0,
         out="...\nmax refined residual     *"),
    # the scan imposes the trace relation, not a second band on the
    # quadratic: --sum-band is an unrecognized option, whatever its width
    *[_row(["nonexistence", "--c", "-4", "--grid", "5", "5", "5", "--sum-band", width], 2,
           f"{USAGE}chgeom: error: unrecognized arguments: --sum-band {width}")
      for width in ("0.1", "-1", "0", "inf", "nan")],
    *[_row(["nonexistence", "--c", "-4", "--grid", *grid], 2,
           f"error: every grid axis needs >= 2 samples, got ({', '.join(grid)})")
      for grid in (["1", "1", "1"], ["0", "5", "5"], ["5", "5", "1"])],
    _row(["nonexistence", "--c", "-4", "--grid", "2", "2", "2", "--output={tmp}/curve.json"], 1,
         out="...\ncurve samples            0\nmax refined residual     none"),
    *[_row(["nonexistence", f"--c={c}", "--grid", "5", "5", "5"], 2,
           f"error: the scan needs a finite nonzero c, got c={float(c)!r}")
      for c in ("0", "nan", "inf", "-inf")],
    # outside 7.92e-206 <= |c| <= 2.06e204 the b^2 formulas leave the
    # normal doubles on the box
    *[_row(["nonexistence", f"--c={c!r}", *GRID_30], 2, f"error: c = {c!r} is out of range*")
      for c in (-1e210, 1e210, -1e250, 1e250, -1e300, 1e300, -2.1e204, 2.1e204,
                -7e-206, 7e-206, -1e-250, 1e-250, -5e-324, 5e-324)],
    # the ordering margin is relative to sqrt|c|
    *[_row(["nonexistence", f"--c={c!r}", *GRID_30], 0,
           out="...\ncurve samples            20\nmax refined residual     *")
      for c in (-1e-30, -1e-100, -1e-200)],
    *[_row(["nonexistence", f"--c={c!r}", *GRID_30], 0,
           out=f"c                        {c!r}\ngrid                     (30, 30, 30)\n"
           f"points scanned           27000\n{tail}")
      for c, tail in ((-1e200, "feasible points          643\ncurve samples            20\n"
                               "max refined residual     3.885e-16"),
                      (1e200, "feasible points          0\ncertificate              *"))],
    # with 160 lambda3 samples, sample 106 is sqrt(-c)/2 in exact
    # arithmetic and rounds to a value where lambda1 == lambda3
    _row(["nonexistence", "--c", "-3.4746401821558717", "--grid", "160", "160", "160"], 0,
         out="...\ncurve samples            106\nmax refined residual     *"),
    # an unwritable --output fails before the scan, also where the scan
    # would exit 1 (no refined sample on a 2 x 2 x 2 grid)
    *[_row(["nonexistence", "--c", c, "--grid", grid, grid, grid,
            "--output={tmp}/missing/x.json"], 2, f"error: {NO_OUTPUT_DIR}")
      for c, grid in (("-4", "40"), ("4", "20"), ("-4", "2"))],
    _row(["nonexistence", "--c", "4", *GRID_30, "--output={tmp}"], 2,
         "error: [Errno 21] Is a directory: '{tmp}'"),
    # no subcommand, or an unknown one
    _row([], 2, f"{USAGE}chgeom: error: the following arguments are required: command"),
    _row(["frobnicate"], 2,
         f"{USAGE}chgeom: error: argument command: invalid choice: 'frobnicate' *"),
]


def _resolve(argv, tmp):
    """argv as the command gets it: a _Record written to tmp/germ.json
    and passed as --input, and "{tmp}" replaced by tmp."""
    resolved = []
    for arg in argv:
        if isinstance(arg, _Record):
            (tmp / "germ.json").write_bytes(arg.content)
            arg = f"--input={tmp / 'germ.json'}"
        resolved.append(arg.replace("{tmp}", str(tmp)))
    return resolved


def _check_row(run, argv, code, err, out, tmp):
    """run(argv), which returns the exit code, stdout and stderr of the
    row's command, gives the row's code and prints its stderr and stdout,
    with no traceback; a command that fails leaves no --output file that
    was not there before."""
    argv = _resolve(argv, tmp)
    outputs = [arg.split("=", 1)[1] for arg in argv if arg.startswith("--output=")]
    fresh = [path for path in outputs if not os.path.lexists(path)]
    got, stdout, stderr = run(argv)
    assert got == code
    assert "Traceback" not in stderr
    assert _match(err.replace("{tmp}", str(tmp)), stderr), stderr
    if isinstance(out, dict):
        assert _contains(out, json.loads(stdout, parse_constant=_reject_constant))
    elif isinstance(out, tuple):
        assert any(_match(pattern, stdout) for pattern in out), stdout
    elif out is not None:
        assert _match(out, stdout), stdout
    if code:
        assert not [path for path in fresh if os.path.lexists(path)]


@pytest.mark.parametrize("argv, code, err, out", CONTRACT)
def test_contract(argv, code, err, out, tmp_path, capsys):
    """Each input exits with its code and prints its stderr and stdout,
    with no warning and no traceback."""

    def run(argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(argv)
        captured = capsys.readouterr()
        return got, captured.out, captured.err

    _check_row(run, argv, code, err, out, tmp_path)


def test_every_classify_reason_has_a_contract_row():
    """Each fixed reason of ``spectral``'s unclassified germs (N standing
    for digits) is the reason of a classify row."""
    outs = [row.values[3] for row in CONTRACT if row.values[0][:1] == ["classify"]]
    pinned = [out["reason"] for out in outs if isinstance(out, dict) and "reason" in out]
    tree = ast.parse(Path(spectral.__file__).read_text())
    missing = [reason for reason in sorted(unclassified_reasons(tree))
               if not any(re.fullmatch(re.escape(reason).replace("N", r"\d+"), got)
                          for got in pinned)]
    assert not missing, f"no classify row gives reason {missing}"


@pytest.mark.parametrize("n, k", [(4, 3), (5, 4), (6, 5)])
def test_j_breaking_fake_is_off_the_catalog_only_in_j(n, k):
    """The item 13 fakes of the classify rows: the catalog germ's spectrum,
    but J pairs v and Jv inside the lambda_3 space, which on the catalog
    germ is totally real."""
    es = spectral.catalog_at_radius(0.7, -4.0, n, k)
    catalog, fake = catalog_germ(ModelParams(n=n, c=-4.0), k, r=0.7), _j_breaking_fake(n, k)

    def lambda3_pairing(germ):
        values, vectors = np.linalg.eigh(germ.shape)
        rows = vectors[:, np.abs(values - es.lambda3) < 1e-9].T @ germ.tangent_basis
        assert len(rows) == 2 * n - 2 - k
        return np.linalg.svd(rows @ model.j_action(rows).T, compute_uv=False)

    assert np.max(np.abs(np.linalg.eigvalsh(fake.shape) - np.linalg.eigvalsh(catalog.shape))) < 1e-12
    assert np.max(lambda3_pairing(catalog)) < 1e-12
    assert np.all(np.abs(lambda3_pairing(fake)[:2] - 1.0) < 1e-12)


def _src_env():
    """The environment with the source tree first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# what the installed chgeom script runs (pyproject.toml, [project.scripts])
CONSOLE_SCRIPT = "import sys; from chgeom.cli import main; sys.exit(main())"


def _console_rows():
    """The first non-xfail CONTRACT row of each (subcommand, exit code)."""
    rows = {}
    for row in CONTRACT:
        argv, code = row.values[:2]
        if not row.marks:
            rows.setdefault((argv[0] if argv else None, code), row)
    return list(rows.values())


@pytest.mark.parametrize("argv, code, err, out", _console_rows())
def test_console_script(argv, code, err, out, tmp_path):
    """The row's command in a fresh interpreter, through the installed
    script's call: its exit code reaches the process, and the process's
    stderr and stdout are the row's."""

    def run(argv):
        proc = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *argv], capture_output=True,
                              text=True, env=_src_env(), timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    _check_row(run, argv, code, err, out, tmp_path)


def test_console_script_is_cli_main():
    """The installed script calls cli.main, as CONSOLE_SCRIPT does."""
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert 'chgeom = "chgeom.cli:main"' in pyproject.read_text().splitlines()


MAX_FLOAT = sys.float_info.max
SUBNORMAL = 5e-324


def _log_uniform(lo, hi, *edges):
    """Floats spread log-uniformly over [lo, hi], and the edge values."""
    spread = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0**e, lo), hi))
    return st.one_of(spread, st.sampled_from(edges)) if edges else spread


def _curvatures(lo, hi, *edges):
    """c < 0 with |c| over [lo, hi] and its edges, or near 1."""
    return st.one_of(_log_uniform(lo, hi, *edges), _log_uniform(1e-2, 1e2)).map(operator.neg)


def _top_radius(c):
    """The largest radius the tube layer takes at c: r <= 10 and s*r <= 20
    (s = sqrt(-c)/2), as the floating-point test reads it."""
    s = model.rate(c)
    r = min(MAX_RADIUS, MAX_RATE_RADIUS / s)
    while s * r > MAX_RATE_RADIUS:
        r = math.nextafter(r, 0.0)
    return r


def _low_radius(c, k):
    """The smallest radius the walk draws at c: the tube layer's
    ``min_radius`` (for k >= 2, where r = 0 is the focal set), and at
    least the smallest double."""
    return max(SUBNORMAL, tubes.min_radius(c, k))


def _radii(c, low=SUBNORMAL):
    """Radii in [low, top] at c: log-uniform, log-uniform in s*r over
    [1e-2, 1.2], and the edge values."""
    s, top = model.rate(c), _top_radius(c)
    edges = [r for r in (low, SUBNORMAL, 1e-300, special_radius(c), MAX_RADIUS, top)
             if low <= r <= top]
    near = st.floats(-2.0, math.log10(1.2)).map(lambda e: min(max(10.0**e / s, low), top))
    return st.one_of(_log_uniform(low, top, *edges), near)


SWEEP_CURVATURES = _curvatures(1e-205, 1e205, 1e-205, 1e205)


@st.composite
def _catalog_records(draw):
    n = draw(st.integers(2, 6))
    k, c = draw(st.integers(1, n - 1)), draw(SWEEP_CURVATURES)
    r = draw(_radii(c, _low_radius(c, k)))
    label = f"catalog n={n} k={k} c={c!r} r={r!r}"
    if k >= 2 and 2 * n - 2 - k >= 3 and draw(st.booleans()):  # an item 13 fake
        seed = draw(st.integers(0, 2**32 - 1))
        germ = _j_breaking_fake(n, k, c, r, seed)
        label = f"J-breaking fake of the {label}, seed {seed}"
    else:
        germ = catalog_germ(ModelParams(n=n, c=c), k, r=r)
    germ = germ.flipped() if draw(st.booleans()) else germ  # either co-orientation
    data = germ.to_json_dict()
    if draw(st.booleans()):  # a rotated tangent frame: T -> Q T, S -> Q S Q^T
        seed = draw(st.integers(0, 2**32 - 1))
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(2 * n - 1,) * 2))
        shape = q @ germ.shape @ q.T
        data.update(tangent_basis=(q @ germ.tangent_basis).tolist(),
                    shape=((shape + shape.T) / 2).tolist())
        label += f" rotated by seed {seed}"
    return _Record(label, json.dumps(data).encode())


class Domain(NamedTuple):
    """An option's documented domain: a strategy of values in it, which
    may be a function of the values drawn for the options before it, and
    argument strings outside it, which may be a function of the values
    drawn for every option."""

    good: object
    bad: object = ()


def _n(cap):
    return Domain(st.integers(2, cap), ["1", "0", "2.5", "x"])


def _too_far(v, low=None, past_top=True):
    """Radii out of the tube layer's domain at v's c and k: low, or by
    default those below ``min_radius`` (none at k = 1, where r = 0 is the
    orbit itself), then negative, non-finite and past the top."""
    if low is None:
        low = ["0", repr(SUBNORMAL), "1e-308"] if v["--k"] > 1 else []
    far = [*low, "-1", "nan", "inf", "x"]
    return far + [repr(_top_radius(v["--c"]) * (1 + 1e-9))] if past_top else far


EDGES = (SUBNORMAL, 1e-300, 1e300, MAX_FLOAT)
POSITIVE = Domain(_log_uniform(1e-323, 1e308, *EDGES), ["0", "-1", "nan", "inf", "-inf", "x"])
CURVATURE = Domain(_curvatures(1e-323, 1e308, *EDGES), ["0", "4", "nan", "inf", "-inf", "x"])
K = Domain(lambda v: st.integers(1, v["--n"] - 1), lambda v: [str(v["--n"]), "0", "x"])
# one tube radius, sweep's --r-min and residuals' --r
TUBE_RADIUS = Domain(lambda v: _radii(v["--c"], _low_radius(v["--c"], v["--k"])), _too_far)
# a path under a missing directory, and a directory
OUTPUT = Domain(st.just(os.devnull), ["{tmp}/missing/x.json", "{tmp}"])
MALFORMED_RECORDS = [
    argv[1] for argv, code, *_ in (row.values for row in CONTRACT)
    if code == 2 and len(argv) == 2 and isinstance(argv[1], _Record)
]
DOMAINS = {
    "verify-model": {
        "--n": _n(6), "--c": CURVATURE,
        "--samples": Domain(st.integers(1, 20), ["0", "-3", "x"]),
        "--seed": Domain(st.integers(0, 2**64), ["-1", "x"]),
        "--tolerance": POSITIVE,
    },
    "construct": {
        "--n": _n(8), "--c": CURVATURE, "--k": K,
        # an odd k needs phi = pi/2; an even k takes any phi in [0, pi/2]
        "--phi": Domain(
            lambda v: st.just(math.pi / 2) if v["--k"] % 2 else st.one_of(
                st.just(0.0),
                _log_uniform(1e-323, math.pi / 2, SUBNORMAL, 1e-9, math.pi / 2),
                _log_uniform(1e-2, math.pi / 2)),
            ["-5e-324", "-1", "nan", "inf", repr(math.pi / 2 + 0.01), "x"],
        ),
        "--output": OUTPUT,
    },
    "sweep": {
        "--n": _n(6),
        # the catalog's 2 c sqrt(-c - 3 lambda3^2) is a normal double
        "--c": Domain(SWEEP_CURVATURES, ["-5e-324", "-1e-300", "-1e300", repr(-MAX_FLOAT),
                                         "0", "4", "nan", "x"]),
        "--k": K,
        "--r-min": TUBE_RADIUS,
        # the grid is r-min alone at count 1
        "--r-max": Domain(
            lambda v: _radii(v["--c"], v["--r-min"]),
            lambda v: _too_far(v, [repr(v["--r-min"] / 2)], past_top=v["--count"] > 1),
        ),
        "--count": Domain(st.integers(1, 3), ["0", "-1", "1.5", "x"]),
        "--ode-step": POSITIVE,
        "--jobs": Domain(st.integers(1, 2**31), ["0", "-1", "x"]),
        "--output": OUTPUT,
    },
    "classify": {
        "--input": Domain(_catalog_records(), MALFORMED_RECORDS),
        "--tolerance": POSITIVE,
    },
    "residuals": {
        # k = 1 where c leaves no tube radius for k >= 2
        "--n": _n(4), "--c": CURVATURE,
        "--k": K._replace(good=lambda v: st.integers(
            1, v["--n"] - 1 if tubes.min_radius(v["--c"], 2) <= MAX_RADIUS else 1)),
        "--r": TUBE_RADIUS,
        "--fd-step": POSITIVE, "--tolerance": POSITIVE,
    },
    "nonexistence": {
        # b^2 numerators below the overflow and denominators normal doubles
        "--c": Domain(
            st.one_of(*[_log_uniform(7.92e-206, 2.06e204, 7.92e-206, 2.06e204).map(sign)
                        for sign in (operator.pos, operator.neg)]),
            ["0", "nan", "inf", "-inf", "5e-324", "-1e-300", "1e300", repr(-MAX_FLOAT), "x"],
        ),
        "--grid": Domain(
            st.tuples(*[st.integers(2, 20)] * 3),
            [("1", "5", "5"), ("5", "0", "5"), ("5", "5", "-1"), ("x", "5", "5"), ("5", "5")],
        ),
        "--output": OUTPUT,
    },
}
# flags whose out-of-domain values the CLI itself rejects, by the flag's name
NAMED_FLAGS = {"--tolerance", "--fd-step", "--ode-step", "--jobs", "--seed", "--samples"}
SUBCOMMANDS = cli.build_parser().subcommands
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _options(command):
    return [action for action in SUBCOMMANDS[command]._actions if action.dest != "help"]


def _given(spec, values):
    return spec(values) if callable(spec) else spec


def _arguments(option, value):
    if isinstance(value, _Record):
        return [value]  # --input, by _resolve
    if isinstance(value, tuple):
        return [option, *map(str, value)]
    # "--opt=value": argparse reads a separate "-inf" as an option
    return [f"{option}={value!r}" if isinstance(value, float) else f"{option}={value}"]


def _finite_cells(command, out):
    """stdout without the cells documented as nan: lambda4 of a sweep row
    with mult4 = 0 (a g = 3 row)."""
    if command != "sweep" or not out:
        return out
    rows = [dict(zip(SWEEP_COLUMNS.split(","), line.split(","))) for line in out.splitlines()[1:]]
    return "\n".join(
        ",".join(v for key, v in row.items() if key != "lambda4" or row["mult4"] != "0")
        for row in rows
    )


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_walk(data, tmp_path_factory):
    """Inputs drawn over every option's domain, with at most one option
    pushed out of it: exit 2, with one error line or argparse's usage,
    exactly when one was; otherwise exit 0 or 1 and an empty stderr.
    Never a traceback or a warning; a value pushed out of a flag in
    ``NAMED_FLAGS`` that parses is reported under that flag's name;
    classify prints strict JSON; exit 0
    prints no nan or inf but the sweep's documented lambda4 cell; and
    residuals fails no suite where it holds today (2 <= n <= 4, c in
    [-4, -0.01], s*r in [1e-2, 1.2], default flags)."""
    assert {name: set(domains) for name, domains in DOMAINS.items()} == {
        name: {action.option_strings[0] for action in _options(name)} for name in SUBCOMMANDS
    }
    command = data.draw(st.sampled_from(sorted(DOMAINS)), label="command")
    domains, values = DOMAINS[command], {}
    for action in _options(command):
        option = action.option_strings[0]
        values[option] = data.draw(_given(domains[option].good, values), label=option)
    pushed = bad = None
    if data.draw(st.integers(0, 3), label="push an option") == 0:  # one example in four
        pushed = data.draw(st.sampled_from([o for o, d in domains.items() if d.bad]), label="out")
    argv, passed = [command], set()
    for action in _options(command):
        option = action.option_strings[0]
        value = values[option]
        if option == pushed:
            value = bad = data.draw(st.sampled_from(_given(domains[option].bad, values)),
                                    label=option)
        elif not action.required and data.draw(st.booleans(), label=f"omit {option}"):
            continue
        passed.add(option)
        argv += _arguments(option, value)
    argv = _resolve(argv, tmp_path_factory.getbasetemp())
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert "Traceback" not in err and "Warning" not in err
    assert code in (0, 1, 2)
    assert (code == 2) == (pushed is not None), (code, err)
    if code == 2:
        assert re.fullmatch(r"error: .*\n|usage: chgeom (.*\n)*chgeom.*: error: .*\n", err), err
        if pushed in NAMED_FLAGS and bad != "x":
            assert err.startswith(f"error: {pushed} "), err
        return
    assert err == ""
    if command == "classify":
        json.loads(out, parse_constant=_reject_constant)
    if code == 0:
        assert not NON_FINITE.search(_finite_cells(command, out)), out
    if command == "residuals" and not {"--fd-step", "--tolerance"} & passed:
        c, r = values["--c"], values["--r"]
        if -4.0 <= c <= -0.01 and 1e-2 <= model.rate(c) * r <= 1.2:
            assert not [line for line in out.splitlines() if line.endswith("FAIL")], out


def _finite_radii(c, k):
    """Finite radii in and around the tube layer's domain at c and k: any
    finite float, [-20, 20], the walk's radii and the domain's edges and
    their neighbours."""
    low, top = tubes.min_radius(c, k), _top_radius(c)
    edges = [0.0, low, top, MAX_RADIUS, 1e-300, 1e-308, SUBNORMAL, -SUBNORMAL]
    edges += [math.nextafter(r, side) for r in (low, top) for side in (-math.inf, math.inf)]
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-20.0, 20.0),
                     _radii(c, _low_radius(c, k)), st.sampled_from(edges))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_sweep_and_residuals_share_the_tube_domain(data):
    """One radius domain: over the catalog's |c| range, ``sweep`` at the
    one radius r exits 2 exactly when ``residuals --r r`` does, and with
    the same error line."""
    n = data.draw(st.integers(2, 4), label="n")
    k, c = data.draw(st.integers(1, n - 1), label="k"), data.draw(SWEEP_CURVATURES, label="c")
    r = data.draw(_finite_radii(c, k), label="r")
    common = [f"--n={n}", f"--c={c!r}", f"--k={k}"]
    replies = []
    for argv in (["sweep", *common, f"--r-min={r!r}", f"--r-max={r!r}", "--count=1"],
                 ["residuals", *common, f"--r={r!r}"]):
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(argv)
        replies.append((code == 2, stderr.getvalue()))
    assert replies[0] == replies[1], (r, replies)


@pytest.mark.parametrize("kind", sorted(SINGLE_DEFECTS))
def test_validate_raises_the_readers_message(kind):
    """``HypersurfaceGerm.validate`` is the one germ check: on each
    single-defect record it raises, with no warning, the message that
    classify prints after its ``malformed germ input: `` prefix (the
    ``CONTRACT`` row of the record)."""
    edits, message = SINGLE_DEFECTS[kind]
    data = json.loads(_germ(kind, *edits).content)
    arrays = {field: data[field] for field in ("normal", "tangent_basis", "shape")}
    germ = spectral.HypersurfaceGerm(params=ModelParams(n=3, c=-4.0), **arrays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            germ.validate()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("n, phi", [(3, None), (4, "1.0471975511965976")])
def test_construct_writes_spec(n, phi, tmp_path, capsys):
    """The spec file holds exactly the documented keys, and they are the
    orbit's own arrays."""
    out_path = tmp_path / "spec.json"
    code = main([
        "construct", "--n", str(n), "--c", "-4", "--k", "2", *(["--phi", phi] if phi else []),
        "--output", str(out_path),
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert set(payload) == {"n", "c", "k", "phi", "normal_basis", "tangent_basis", "pxi_unit"}
    angle = float(phi) if phi else math.pi / 2
    assert payload == build_submanifold(ModelParams(n=n, c=-4.0), 2, angle).to_json_dict()
    out = capsys.readouterr().out
    assert "shape-form resid" in out and out.strip().endswith("PASS")


@pytest.mark.parametrize("n,k", [(3, 2), (5, 4), (8, 6), (6, 2)])
def test_construct_passes_on_a_quarter_decade_angle_grid(n, k, tmp_path, capsys):
    """phi = 10^(e/4), e = -64..0: every run passes, and the frame it
    writes (normal rows over tangent rows) is orthonormal to 2 eps."""
    path = tmp_path / "spec.json"
    for e in range(-64, 1):
        phi = 10.0 ** (e / 4)
        argv = ["construct", "--n", str(n), "--c", "-4", "--k", str(k), "--phi", repr(phi)]
        assert main(argv + ["--output", str(path)]) == 0, phi
        assert capsys.readouterr().out.splitlines()[-1] == "PASS", phi
        data = json.loads(path.read_text())
        frame = np.array(data["normal_basis"] + data["tangent_basis"])
        assert np.max(np.abs(frame @ frame.T - np.eye(2 * n))) <= 4.4e-16, phi


CURVATURE_RESIDUALS = ("curvature", "holomorphic", "totally_real", "pinching")


@pytest.mark.parametrize("key", [*CURVATURE_RESIDUALS, "shape_form"])
def test_a_nan_residual_fails(key, monkeypatch, capsys):
    """verify-model and construct pass on all(v < tol): max(...) skips a
    NaN that is not first, so each residual is tried."""
    if key == "shape_form":
        monkeypatch.setattr(cli, "rigidity_form_check",
                            lambda spec: {"shape_form": math.nan, "trace": 0.0})
    else:
        monkeypatch.setattr(model.SolvableModel, "verify_curvature", lambda self, samples, seed: {
            name: math.nan if name == key else 0.0 for name in CURVATURE_RESIDUALS})
    assert main(CONSTRUCT if key == "shape_form" else VERIFY) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("command, builds", [
    # criterion 10's sweep
    (["sweep", "--n", "3", "--c", "-4", "--k", "2",
      "--r-min", "0.2", "--r-max", "1.4", "--count", "7"], 0),
    (["classify"], 0),
    (["construct", "--n", "4", "--c", "-4", "--k", "2", "--phi", "1.0"], 1),
    (["residuals", "--n", "3", "--c", "-4", "--k", "2", "--r", "0.7"], 1),
], ids=["sweep", "classify", "construct", "residuals"])
def test_solvable_model_builds_per_command(command, builds, monkeypatch, tmp_path, capsys):
    """sweep and classify read closed forms only and build no Lie-algebra
    table; construct builds one, for the Koszul route it compares with the
    closed-form II, and residuals one, the tube chart's, which its
    finite-difference field shares."""
    if command == ["classify"]:
        path = tmp_path / "germ.json"
        path.write_text(catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json())
        command = ["classify", "--input", str(path)]
    init = model.SolvableModel.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.SolvableModel, "__init__", counted)
    assert main(command) == 0
    assert len(built) == builds


def test_sweep_deterministic(tmp_path):
    args = [
        "sweep", "--n", "3", "--c", "-4", "--k", "2",
        "--r-min", "0.2", "--r-max", "1.0", "--count", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == SWEEP_COLUMNS
    assert len(lines) == 6


def test_sweep_special_radius_row(tmp_path):
    rstar = special_radius(-4.0)
    out = tmp_path / "s.csv"
    code = main([
        "sweep", "--n", "3", "--c", "-4", "--k", "2",
        "--r-min", repr(rstar - 0.1), "--r-max", repr(rstar),
        "--count", "3", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    last = lines[-1].split(",")
    row = dict(zip(header, last))
    assert row["g"] == "3"
    assert row["lambda4"] == "nan"
    assert row["mult4"] == "0"
    assert row["mult2"] == "2"  # merged lambda_2 = lambda_4 block
    assert row["classify_status"] == "G3_KBIG"
    # interior rows stay generic
    first = dict(zip(header, lines[1].split(",")))
    assert first["g"] == "4" and first["classify_status"] == "G4"
    # determinant column matches its closed form at the matched radius
    assert abs(float(row["detD"]) - float(row["detD_expected"])) < 1e-10


def test_special_radius_test_is_relative_to_the_rate(tmp_path):
    """At c = -1e-100 (s = 5e-51) a radius of 0.5 is far from r* ~ 1.3e50:
    its row is G4, with lambda_4 and no nan cell.  At r* itself the
    catalog reads G3_KBIG across the scales of c."""
    out = tmp_path / "s.csv"
    code = main([
        "sweep", "--n", "3", "--c=-1e-100", "--k", "2",
        "--r-min", "0.5", "--r-max", "0.5", "--count", "1", "--output", str(out),
    ])
    assert code == 0
    header, line = out.read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert "nan" not in row.values()
    assert float(row["lambda4"]) == 2.0
    assert [row[f"mult{i}"] for i in range(1, 5)] == ["1", "1", "2", "1"]
    for c in (-0.02, -1.0, -4.0, -100.0, -1e4):
        es = spectral.catalog_at_radius(special_radius(c), c, 3, 2)
        assert es.branch == "G3_KBIG", c


def test_sweep_at_strong_curvature(tmp_path, capsys):
    """At c = -100, tanh(s r) rounds to 1 from s*r ~ 19; the sweep keys
    the catalog by r, so every row up to s*r = 20 has finite cells."""
    base = [
        "sweep", "--n", "3", "--c", "-100", "--k", "2",
        "--r-min", "0.5", "--count", "8",
    ]
    out = tmp_path / "s.csv"
    assert main(base + ["--r-max", "4.0", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 9
    for line in lines[1:]:
        row = {key: float(v) for key, v in zip(header, line.split(",")[:11])}
        for key in ("lambda1", "lambda2", "lambda3", "b1sq", "b2sq"):
            assert math.isfinite(row[key]), (key, line)
        assert row["lambda1"] <= row["lambda3"] < row["lambda2"]


def test_parser_defaults_are_the_library_constants():
    parse = cli.build_parser().parse_args
    args = parse(["verify-model", "--n", "2", "--c", "-4"])
    assert (args.samples, args.seed, args.tolerance) == (
        model.DEFAULT_SAMPLES, model.DEFAULT_SEED, model.CURVATURE_TOLERANCE
    )
    args = parse(["classify", "--input", "germ.json"])
    assert args.tolerance == spectral.CLASSIFY_TOLERANCE
    assert not hasattr(args, "grouping_tol")
    args = parse(["residuals", "--n", "3", "--c", "-4", "--k", "2", "--r", "0.7"])
    assert args.fd_step == model.DEFAULT_FD_STEP
    # one definition: the lab reads the model's step
    assert numlab.DEFAULT_FD_STEP is model.DEFAULT_FD_STEP


def _classify_record(data, tmp_path, capsys):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(data))
    code = main(["classify", "--input", str(path)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (4, 3)])
def test_classify_reads_a_legacy_record_with_the_model_j(n, k, tmp_path, capsys):
    germ = catalog_germ(ModelParams(n=n, c=-4.0), k, r=0.7)
    data = germ.to_json_dict()
    assert "J" not in data
    plain = _classify_record(data, tmp_path, capsys)
    data["J"] = model.standard_complex_structure(n).tolist()
    legacy = _classify_record(data, tmp_path, capsys)
    assert plain[0] == legacy[0] == 0
    assert legacy[1].out == plain[1].out and legacy[1].err == plain[1].err == ""


def test_classify_fails_a_nan_residual(monkeypatch, tmp_path, capsys):
    """A NaN residual never compares above the tolerance, so the rule is
    all(v <= tol): the germ is unclassified for its residuals, and the
    NaN is null in the JSON."""
    monkeypatch.setattr(spectral, "catalog_quadratic", lambda *args: math.nan)
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    code, captured = _classify_record(data, tmp_path, capsys)
    assert code == 0 and captured.err == ""
    res = json.loads(captured.out)
    assert (res["model"], res["reason"], res["k"]) == ("unclassified", "residuals", None)
    assert res["residuals"]["quadratic"] is None


@pytest.mark.parametrize("extra, ran", [
    (["--c", "-4", "--r", "0.5", "--fd-step", "1e-300"], 0),
    (["--c", "-400", "--r", "2.0"], 0),
    (["--c", "-4", "--r", "1e-300"], 0),
    (["--c", "-4", "--r", "1e-100"], 3),
    (["--c", "-4", "--r", "5.0"], 3),
])
def test_residual_suites_return_what_residuals_prints(extra, ran, capsys):
    """The runner's partial values, skipped suites and reason are the
    lines of the indeterminate command."""
    argv = ["residuals", "--n", "3", "--k", "2", *extra]
    args = cli.build_parser().parse_args(argv)
    spec = build_submanifold(ModelParams(n=3, c=args.c), 2, math.pi / 2.0)
    chart = numlab.tube_chart(spec, args.r)
    field = numlab.GermField(chart, np.zeros(chart.domain_dim), fd_step=args.fd_step)
    values, skipped, reason = numlab.residual_suites(field)
    assert list(values) == ["gauss", "codazzi", "real_eigenspace"][:ran]
    assert skipped == numlab.RESIDUAL_SUITES[ran:]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:ran] == [
        f"{name:20s} {val:.3e}  {'PASS' if val < args.tolerance else 'FAIL'}"
        for name, val in values.items()
    ]
    assert lines[ran:-1] == [f"{name:20s} -          INDETERMINATE" for name in skipped]
    assert lines[-1] == f"indeterminate: {reason}"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: the absolute NUMERIC_GROUPING_TOLERANCE = 1e-4 "
    "merges every principal curvature of order s = 5e-6, so real_eigenspace "
    "reads 7.071e-01 FAIL on a true tube",
)
def test_residuals_at_a_small_curvature_prints_no_fail(capsys):
    """A true tube at c = -1e-10 fails no suite: each prints PASS or
    INDETERMINATE."""
    main(["residuals", "--n", "3", "--c=-1e-10", "--k", "2", "--r", "0.7"])
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if line.endswith("FAIL")]


def test_nonexistence_writes_its_curve(tmp_path, capsys):
    """--output holds c and the refined curve: no rows for c > 0, and for
    c < 0 rows (lambda3, lambda1, lambda2, b1^2, b2^2) of five finite
    numbers, ordered lambda1 < lambda3 < lambda2 and on the trace relation
    lambda1 + lambda2 = 3 lambda3."""
    path = tmp_path / "curve.json"
    assert main(["nonexistence", "--c", "4", "--grid", "20", "20", "20", f"--output={path}"]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {path}\n")
    assert json.loads(path.read_text()) == {"c": 4.0, "curve_points": []}
    assert main(["nonexistence", "--c", "-4", "--grid", "40", "40", "40", f"--output={path}"]) == 0
    payload = json.loads(path.read_text())
    assert payload["c"] == -4.0 and payload["curve_points"]
    assert all(len(row) == 5 and all(map(math.isfinite, row)) for row in payload["curve_points"])
    assert all(l1 < l3 < l2 and abs(l1 + l2 - 3 * l3) <= 1e-12
               for l3, l1, l2, _, _ in payload["curve_points"])


def test_nonexistence_refines_the_catalog_scan(capsys):
    """The catalog's c < 0 scan at 165^3 finds the curve and refines it to
    1e-9."""
    assert main(["nonexistence", "--c=-3.1", *GRID_165]) == 0
    report = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines())
    assert int(report["curve samples"]) > 0
    assert float(report["max refined residual"]) <= 1e-9


# one valid argv per subcommand; its last option is a required one
_VALID_ARGV = {
    "verify-model": ["--n", "2", "--c", "-4"],
    "construct": ["--n", "3", "--c", "-4", "--k", "2"],
    "sweep": ["--n", "2", "--c", "-4", "--k", "1", "--r-min", "0.5", "--r-max", "0.5", "--count", "1"],
    "classify": ["--input", "germ.json"],
    "residuals": ["--n", "2", "--c", "-4", "--k", "1", "--r", "0.3"],
    "nonexistence": ["--c", "4"],
}


def _usage_argvs():
    """Help, a missing required option, a bad type and an unknown option
    for each subcommand; no arguments, top-level help, an unknown name."""
    cases = [[], ["-h"], ["bogus"]]
    for name, argv in _VALID_ARGV.items():
        bad_type = ["--tolerance", "x"] if name == "classify" else [argv[0], "x"]
        cases += [
            [name, "-h"],
            [name, *argv[:-2]],
            [name, *argv, *bad_type],
            [name, *argv, "--bogus"],
        ]
    return cases


@pytest.mark.parametrize("argv", _usage_argvs(), ids=lambda argv: " ".join(argv) or "none")
def test_dispatch_matches_the_full_parser(argv, capsys):
    """main gives the help, usage errors and exit codes of the full
    parser's own parse_args."""
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (code, got.out, got.err) == (int(exc.value.code or 0), want.out, want.err)


@pytest.mark.parametrize("name", sorted(_VALID_ARGV))
def test_dispatch_parses_what_the_full_parser_does(name):
    """A subcommand's own parser gives the full parser's namespace, but
    for the subcommand name the full parser records."""
    argv = [name, *_VALID_ARGV[name]]
    full = vars(cli.build_parser().parse_args(argv))
    assert full.pop("command") == name
    assert vars(cli._parse(argv)) == full



def test_sweep_builds_the_tube_modes_once_per_command(monkeypatch):
    """A sweep does the radius-independent set-up of its tube germs once
    and classifies all its radii in one ``classify_batch`` call, never
    through the one-germ ``classify``."""
    calls = {"modes": 0, "batches": [], "classify": 0}
    modes, batch, classify = tubes._tube_modes, spectral.classify_batch, cli.classify

    def counted_modes(*args, **kwargs):
        calls["modes"] += 1
        return modes(*args, **kwargs)

    def counted_batch(germs, *args, **kwargs):
        calls["batches"].append(len(germs))
        return batch(germs, *args, **kwargs)

    def counted_classify(*args, **kwargs):
        calls["classify"] += 1
        return classify(*args, **kwargs)

    monkeypatch.setattr(tubes, "_tube_modes", counted_modes)
    monkeypatch.setattr(spectral, "classify_batch", counted_batch)
    monkeypatch.setattr(cli, "classify", counted_classify)
    for count in (1, 3, 7):
        calls.update(modes=0, batches=[], classify=0)
        assert main([
            "sweep", "--n", "3", "--c", "-4", "--k", "2",
            "--r-min", "0.2", "--r-max", "1.4", "--count", str(count),
            "--output", os.devnull,
        ]) == 0
        assert calls == {"modes": 1, "batches": [count], "classify": 0}


@pytest.mark.parametrize(
    "n, c, k, r_min, r_max, count",
    [
        (2, "-4", 1, "0.0", "3.0", 7),
        (3, "-4", 2, "0.1", "1.4", 9),
        (4, "-1", 3, "0.05", "6.0", 6),
        (3, "-100", 2, "0.01", "3.9", 8),
        (5, "-9", 2, "0.2", "2.0", 5),
    ],
)
def test_sweep_rows_equal_one_radius_sweeps(n, c, k, r_min, r_max, count, capsys):
    """The rows of an m-radius sweep are, byte for byte, the rows of m
    one-radius sweeps at its radii: the batch leaks nothing across radii.
    Each grid runs past r* at its c."""
    base = ["sweep", "--n", str(n), f"--c={c}", "--k", str(k)]
    assert main(base + ["--r-min", r_min, "--r-max", r_max, "--count", str(count)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == SWEEP_COLUMNS and len(rows) == count
    radii = np.linspace(float(r_min), float(r_max), count)
    assert float(r_max) > special_radius(float(c))
    for r, row in zip(radii, rows):
        one = [*base, "--r-min", repr(float(r)), "--r-max", repr(float(r)), "--count", "1"]
        assert main(one) == 0
        assert capsys.readouterr().out.splitlines() == [SWEEP_COLUMNS, row]


def test_parser_built_once_and_options_do_not_leak(tmp_path, capsys, monkeypatch):
    builds = []
    original = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "_PARSER", None)
    germ = tmp_path / "germ.json"
    germ.write_text(catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json())
    sweep = [
        "sweep", "--n", "3", "--c", "-4", "--k", "2",
        "--r-min", "0.2", "--r-max", "1.0", "--count", "3",
    ]
    assert main(["sweep", "--n", "3"]) == 2
    assert main(["classify", "--input", str(germ)]) == 0
    out_file = tmp_path / "s.csv"
    assert main(sweep + ["--output", str(out_file)]) == 0
    capsys.readouterr()
    assert main(sweep) == 0
    assert capsys.readouterr().out == out_file.read_text()
    assert len(builds) == 1


# Run in a fresh interpreter: print which chgeom modules a bare
# ``import chgeom`` loads, then, after importing chgeom.cli and after each
# command, which of the lazily loaded modules are in sys.modules.
_IMPORT_GRAPH_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    import chgeom

    root = [m for m in sys.modules if m.startswith("chgeom.")]
    import chgeom.cli

    germ, commands = sys.argv[1], json.loads(sys.argv[2])
    lazy = ("chgeom.numlab", "chgeom.oracles", "chgeom.tubes")
    seen = {"root": root, "import": [m for m in lazy if m in sys.modules]}
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = chgeom.cli.main([germ if a == "GERM" else a for a in argv])
        seen[argv[0]] = [code, [m for m in lazy if m in sys.modules]]
    print(json.dumps(seen))
""")


def test_commands_load_numlab_and_tubes_only_when_they_run_them(tmp_path):
    """Importing chgeom loads no submodule; importing chgeom.cli loads
    neither the finite-difference lab nor the tube germs; verify-model,
    construct, classify and nonexistence never load them, sweep loads
    tubes, and residuals loads both; no command loads the oracles."""
    germ = tmp_path / "germ.json"
    germ.write_text(catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json())
    commands = [
        ["verify-model", "--n", "2", "--c", "-4", "--samples", "5"],
        ["construct", "--n", "3", "--c", "-4", "--k", "2"],
        ["classify", "--input", "GERM"],
        ["nonexistence", "--c", "4", "--grid", "10", "10", "10"],
        ["sweep", "--n", "2", "--c", "-4", "--k", "1",
         "--r-min", "0.5", "--r-max", "0.5", "--count", "1"],
        ["residuals", "--n", "2", "--c", "-4", "--k", "1", "--r", "0.3"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_SCRIPT, str(germ), json.dumps(commands)],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "root": [],
        "import": [],
        "verify-model": [0, []],
        "construct": [0, []],
        "classify": [0, []],
        "nonexistence": [0, []],
        "sweep": [0, ["chgeom.tubes"]],
        "residuals": [0, ["chgeom.numlab", "chgeom.tubes"]],
    }
