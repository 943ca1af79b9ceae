"""Command-line interface tests, run in-process through main(argv)."""

import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from chgeom import (
    ModelParams, SubmanifoldSpec, build_submanifold, catalog_germ, cli, model, numlab,
    spectral, tubes,
)
from chgeom.cli import SWEEP_COLUMNS, main
from chgeom.jacobi import special_radius


def test_verify_model(capsys):
    code = main(["verify-model", "--n", "2", "--c", "-4", "--samples", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("PASS")


def test_construct_writes_spec(tmp_path, capsys):
    out_path = tmp_path / "spec.json"
    code = main([
        "construct", "--n", "3", "--c", "-4", "--k", "2",
        "--output", str(out_path),
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    spec = SubmanifoldSpec.from_json_dict(payload)
    assert spec.k == 2
    assert spec.tangent_basis.shape == (4, 6)
    out = capsys.readouterr().out
    assert "shape-form resid" in out and out.strip().endswith("PASS")


def test_construct_rejects_large_k(capsys):
    code = main(["construct", "--n", "3", "--c", "-4", "--k", "3"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("phi", ["1e-6", "1e-8", "1e-9"])
def test_construct_accepts_a_small_kahler_angle(phi, capsys):
    code = main(["construct", "--n", "3", "--c", "-4", "--k", "2", "--phi", phi])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


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


@pytest.mark.parametrize("key", CURVATURE_RESIDUALS)
def test_verify_model_fails_on_a_nan_residual(key, monkeypatch, capsys):
    # max(...) skips a NaN that is not first, so each residual is tried
    def verify_curvature(self, samples, seed):
        return {name: math.nan if name == key else 0.0 for name in CURVATURE_RESIDUALS}

    monkeypatch.setattr(model.SolvableModel, "verify_curvature", verify_curvature)
    code = main(["verify-model", "--n", "2", "--c", "-4"])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL"


def test_construct_fails_on_a_nan_shape_form(monkeypatch, capsys):
    def rigidity_form_check(spec):
        return {"shape_form": math.nan, "trace": 0.0}

    monkeypatch.setattr(cli, "rigidity_form_check", rigidity_form_check)
    code = main(["construct", "--n", "3", "--c", "-4", "--k", "2"])
    assert code == 1
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


# |c| too small or too large for 2 c sqrt(-c - 3 lambda3^2) to be a
# normal double
EXTREME_CURVATURES = (-1e-250, -1e-300, -1e-310, -5e-324, -1e250, -1e300)


@pytest.mark.parametrize("c", EXTREME_CURVATURES)
def test_sweep_rejects_a_curvature_out_of_range(c, capsys):
    # radii with s r far below the catalog's bound at either end
    r_min, r_max = ("0.5", "1") if abs(c) < 1.0 else ("1e-160", "1e-155")
    code = main([
        "sweep", "--n", "3", f"--c={c!r}", "--k", "2",
        "--r-min", r_min, "--r-max", r_max, "--count", "2",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: c = {c!r} is out of range")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("c", EXTREME_CURVATURES)
def test_classify_names_a_curvature_out_of_range(c, tmp_path, capsys):
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    code, captured = _classify_record({**data, "c": c}, tmp_path, capsys)
    assert code == 0 and captured.err == ""
    result = json.loads(captured.out)
    assert result["model"] == "unclassified"
    assert result["reason"].startswith(f"c = {c!r} is out of range")


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
    # s*r = 50 at r = 10: past the tube germ's bound, an error and exit 2
    capsys.readouterr()
    assert main(base + ["--r-max", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_sweep_names_the_tube_error_of_its_first_bad_radius(capsys):
    """At a radius that both the tube germ and the catalog reject, the tube
    germ's error is the one printed."""
    code = main([
        "sweep", "--n", "3", "--c=-1e6", "--k", "2",
        "--r-min", "1", "--r-max", "2", "--count", "2",
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: s*r = 500.0 exceeds 20.0 (s = sqrt(-c)/2): "
        "the tube's Jacobi modes are too ill-conditioned there\n"
    )


def test_sweep_rejects_bad_range(capsys):
    code = main([
        "sweep", "--n", "3", "--c", "-4", "--k", "2",
        "--r-min", "0.5", "--r-max", "0.2", "--count", "3",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_classify_germ_file(tmp_path, capsys):
    germ = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7)
    path = tmp_path / "germ.json"
    path.write_text(germ.to_json())
    code = main(["classify", "--input", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "tube"
    assert payload["k"] == 2
    assert abs(payload["r"] - 0.7) < 1e-9


def test_classify_positive_curvature_germ(tmp_path, capsys):
    """An h = 2 germ in CP^n(c), c > 0, is valid input: classify exits 0
    and says why the catalog has no such hypersurface."""
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    data["c"] = 4.0
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(data))
    assert main(["classify", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["model"] == "unclassified"
    assert "no real roots for c > 0" in payload["reason"]
    assert captured.err == ""


def test_parser_defaults_are_the_library_constants():
    parse = cli.build_parser().parse_args
    args = parse(["verify-model", "--n", "2", "--c", "-4"])
    assert (args.samples, args.seed, args.tolerance) == (
        model.DEFAULT_SAMPLES, model.DEFAULT_SEED, model.CURVATURE_TOLERANCE
    )
    args = parse(["classify", "--input", "germ.json"])
    assert (args.tolerance, args.grouping_tol) == (
        spectral.CLASSIFY_TOLERANCE, spectral.GROUPING_TOLERANCE
    )
    args = parse(["residuals", "--n", "3", "--c", "-4", "--k", "2", "--r", "0.7"])
    assert args.fd_step == model.DEFAULT_FD_STEP
    # one definition: the lab reads the model's step
    assert numlab.DEFAULT_FD_STEP is model.DEFAULT_FD_STEP


def test_classify_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bad": 1}))
    assert main(["classify", "--input", str(path)]) == 2
    assert "malformed" in capsys.readouterr().err
    assert main(["classify", "--input", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("raw", [
    b"\xe9",  # a Latin-1 byte
    b"\x80",  # a lone continuation byte
    b"\xed\xa0\x80",  # an encoded surrogate, which surrogatepass would take
])
def test_classify_rejects_a_germ_file_that_is_not_utf8(raw, tmp_path, capsys):
    """A valid germ with one invalid UTF-8 string in a field classify does
    not read is malformed input: exit 2, one error line, no traceback."""
    text = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json()
    path = tmp_path / "germ.json"
    path.write_bytes(text[:-1].encode() + b', "note": "' + raw + b'"}')
    assert main(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed germ input: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_classify_rejects_json_nested_past_the_recursion_limit(tmp_path, capsys):
    """json gives up on arrays nested past the recursion limit with a
    RecursionError; that is malformed input, not a traceback."""
    depth = sys.getrecursionlimit() + 100
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    assert main(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed germ input: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("n_text", ["2.5", "1e400"])
def test_classify_rejects_malformed_dimension(n_text, tmp_path, capsys):
    """A non-integral n is not truncated, and one that overflows int() is
    malformed input, not a traceback."""
    text = catalog_germ(ModelParams(n=2, c=-4.0), 1, r=0.7).to_json()
    path = tmp_path / "germ.json"
    path.write_text(text.replace('"n": 2', f'"n": {n_text}', 1))
    assert main(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed germ input: ")
    assert "n must be an integer >= 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("c_value", [True, "-4"])
def test_classify_rejects_a_non_number_curvature(c_value, tmp_path, capsys):
    """c must be a JSON number: a bool is not read as 1.0, nor a string
    as -4."""
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    data["c"] = c_value
    code, captured = _classify_record(data, tmp_path, capsys)
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: malformed germ input: germ c must be a JSON number, got {c_value!r}\n"
    )


@pytest.mark.parametrize("command, code", [
    # a small-r k = 2 germ whose lambda_1/lambda_3 gap sat near the
    # spectrum-wide grouping tolerance
    (["classify"], 0),
    (["residuals", "--n", "3", "--c", "-4", "--k", "2", "--r", "5.0"], 1),
    (["sweep", "--n", "2", "--c", "-100", "--k", "1", "--r-min", "0.001",
      "--r-max", "2.0", "--count", "8"], 0),
])
def test_near_tolerance_gaps_raise_no_warning(command, code, tmp_path, capsys):
    """A spectral gap close to the grouping tolerance is reported in the
    decomposition, never as a Python warning on stderr."""
    if command == ["classify"]:
        germ = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=1.5e-7)
        path = tmp_path / "germ.json"
        path.write_text(germ.to_json())
        command = ["classify", "--input", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(command) == code
    err = capsys.readouterr().err
    assert all(line.startswith("error: ") for line in err.splitlines())


@pytest.mark.parametrize("field", ["normal", "tangent_basis", "shape", "J"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_classify_rejects_non_finite_entries(field, value, tmp_path, capsys):
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    if field == "J":  # a record in the older layout, which carried J
        data["J"] = model.standard_complex_structure(3).tolist()
    row = data[field][0] if field != "normal" else data[field]
    row[0] = value
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(data))  # written as NaN / Infinity
    assert main(["classify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert captured.out == ""


def test_classify_rejects_an_opposite_infinite_pair(tmp_path, capsys):
    """S_01 = inf and S_10 = -inf pass |S - S^T| <= tol + 1e-5 |S^T|
    (inf <= inf), so the shape is rejected by its finiteness check."""
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    data["shape"][0][1], data["shape"][1][0] = math.inf, -math.inf
    code, captured = _classify_record(data, tmp_path, capsys)
    assert code == 2 and captured.out == ""
    assert captured.err == "error: malformed germ input: germ shape has a non-finite entry\n"


def test_classify_rejects_a_huge_normal_without_a_warning(tmp_path, capsys):
    """A finite normal of length 1e200 overflows frame frame^T: the germ is
    not orthonormal, and stderr has that one error line, no warning."""
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    data["normal"] = [1e200 * x for x in data["normal"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, captured = _classify_record(data, tmp_path, capsys)
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: malformed germ input: normal + tangent basis is not orthonormal\n"
    )


def test_classify_a_huge_finite_shape_prints_no_warning(tmp_path, capsys):
    """The shape scaled by 1e308 stays finite and symmetric, and its
    symmetrization must not overflow: no warning on stderr, and the
    decomposition still sees g = 4 and h = 2."""
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    data["shape"] = [[1e308 * x for x in row] for row in data["shape"]]
    assert np.isfinite(data["shape"]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, captured = _classify_record(data, tmp_path, capsys)
    assert code == 0 and captured.err == ""
    payload = json.loads(captured.out, parse_constant=_reject_constant)
    assert (payload["g"], payload["h"]) == (4, 2)
    # the catalog quadratic overflows to inf - inf on this shape
    assert payload["residuals"]["quadratic"] is None


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _classify_record(data, tmp_path, capsys):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(data))
    code = main(["classify", "--input", str(path)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("shape, want", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "(3, 3)"),
    (1.0, "()"),
])
def test_classify_rejects_misshapen_shape(shape, want, tmp_path, capsys):
    """An n=3 record needs a 5x5 shape; a valid 3x3 matrix or a scalar is
    malformed input, reported with the field and both shapes."""
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    data["shape"] = shape
    code, captured = _classify_record(data, tmp_path, capsys)
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: malformed germ input: germ shape has shape {want}, "
        "expected (5, 5) for n=3\n"
    )


def _conjugated_complex_structure(n, kind):
    """P J P^-1, which squares to -1 but is not the model's J: P a shear
    (the result is not skew) or a random rotation."""
    j = model.standard_complex_structure(n)
    if kind == "non-skew":
        p = np.eye(2 * n)
        p[0, 2] = 0.5
    else:
        p, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(2 * n, 2 * n)))
    return p @ j @ np.linalg.inv(p)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["non-skew", "rotated"])
def test_classify_rejects_a_foreign_complex_structure(kind, n, tmp_path, capsys):
    jmat = _conjugated_complex_structure(n, kind)
    assert np.allclose(jmat @ jmat, -np.eye(2 * n), atol=1e-12)
    data = catalog_germ(ModelParams(n=n, c=-4.0), n - 1, r=0.7).to_json_dict()
    data["J"] = jmat.tolist()
    code, captured = _classify_record(data, tmp_path, capsys)
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: malformed germ input: germ J is not the model's complex "
        f"structure for n={n}\n"
    )


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


@pytest.mark.parametrize("field", ["c", "normal", "shape", "J"])
def test_classify_rejects_an_integer_beyond_the_float_range(field, tmp_path, capsys):
    """A JSON integer literal such as -1 followed by 400 zeros does not
    convert to a float: malformed input, exit 2 and one error line."""
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    if field == "J":
        data["J"] = model.standard_complex_structure(3).tolist()
    huge = -(10**400)
    if field == "c":
        data["c"] = huge
    elif field == "normal":
        data["normal"][0] = huge
    else:
        data[field][0][0] = huge
    code, captured = _classify_record(data, tmp_path, capsys)
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: malformed germ input: malformed germ record: "
        "int too large to convert to float\n"
    )


def _two_defects(kind):
    """A catalog germ record with two defects at once."""
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    if kind == "frame, asymmetric shape":
        data["normal"] = [2.0 * x for x in data["normal"]]
        data["shape"][0][1] += 0.5
    elif kind == "nan shape, tangent_basis shape":
        data["shape"][1][1] = math.nan
        data["tangent_basis"] = data["tangent_basis"][:-1]
    else:  # a foreign J and a non-finite normal
        jmat = model.standard_complex_structure(3)
        jmat[0, 0] = 0.5
        data["J"] = jmat.tolist()
        data["normal"][0] = math.inf
    return data


@pytest.mark.parametrize("kind, message", [
    ("frame, asymmetric shape", "normal + tangent basis is not orthonormal"),
    ("nan shape, tangent_basis shape",
     "germ tangent_basis has shape (4, 6), expected (5, 6) for n=3"),
    ("foreign J, inf normal", "germ normal has a non-finite entry"),
])
def test_classify_names_the_first_defect_of_a_record(kind, message, tmp_path, capsys):
    """The reader tests a record in one pass and words a failure by the
    ordered checks: the frame, then the shape matrix, then J.  The
    messages are the ones the separate checks gave before the one-pass
    test."""
    code, captured = _classify_record(_two_defects(kind), tmp_path, capsys)
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: malformed germ input: {message}\n"


def test_classify_rejects_an_overflowing_asymmetric_shape_without_a_warning(
    tmp_path, capsys
):
    """S_01 = 1e308 and S_10 = -1e308 are finite, but S - S^T overflows:
    the symmetry check words the error under the same errstate as the one
    test, so stderr has that one error line and no warning."""
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    data["shape"][0][1], data["shape"][1][0] = 1e308, -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, captured = _classify_record(data, tmp_path, capsys)
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: malformed germ input: shape operator matrix is not symmetric\n"
    )


def _single_defect(kind):
    """A catalog germ record (n = 3) with one defect, and the message that
    names it."""
    data = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7).to_json_dict()
    field, _, defect = kind.partition(" ")
    if defect == "misshapen":  # one row (or entry) short
        data[field] = data[field][:-1]
        want = {"normal": (6,), "tangent_basis": (5, 6), "shape": (5, 5)}[field]
        return data, f"germ {field} has shape {np.shape(data[field])}, expected {want} for n=3"
    if defect == "non-finite":
        row = data[field] if field == "normal" else data[field][1]
        row[1] = math.nan
        return data, f"germ {field} has a non-finite entry"
    if kind == "non-orthonormal frame":
        data["normal"] = [2.0 * x for x in data["normal"]]
        return data, "normal + tangent basis is not orthonormal"
    data["shape"][0][1] += 0.5  # an asymmetric shape
    return data, "shape operator matrix is not symmetric"


@pytest.mark.parametrize("kind", [
    "normal misshapen", "normal non-finite",
    "tangent_basis misshapen", "tangent_basis non-finite",
    "non-orthonormal frame",
    "shape misshapen", "shape non-finite",
    "asymmetric shape",
])
def test_validate_raises_the_readers_message(kind, tmp_path, capsys):
    """``HypersurfaceGerm.validate`` is the one germ check: on each
    single-defect record it raises the message that classify prints
    after its ``malformed germ input: `` prefix, and no warning."""
    data, message = _single_defect(kind)
    germ = spectral.HypersurfaceGerm(
        params=ModelParams(n=3, c=-4.0),
        normal=data["normal"],
        tangent_basis=data["tangent_basis"],
        shape=data["shape"],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            germ.validate(1e-6)
        code, captured = _classify_record(data, tmp_path, capsys)
    assert str(excinfo.value) == message
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: malformed germ input: {message}\n"


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


def test_residuals_suite(capsys):
    code = main([
        "residuals", "--n", "2", "--c", "-4", "--k", "1", "--r", "0.3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert all(l.endswith("PASS") for l in lines)
    names = {l.split()[0] for l in lines}
    assert {"gauss", "codazzi", "unit_pair_gauss"} <= names


@pytest.mark.parametrize("r, lack, groups", [
    # lambda_1, lambda_3 and lambda_4 merge into one projected group
    ("5.0", "no non-projected lambda_3 eigenspace", "0.999909, 2"),
    # ... which at r = 6 falls below the projection threshold
    ("6.0", "h = 1 projected eigenspaces, not 2", "0.999988, 2"),
])
def test_residuals_without_frame_fields_are_indeterminate(r, lack, groups, capsys):
    """A valid large radius whose frame suites cannot run is indeterminate
    (exit 1), not malformed input: the suites that ran are printed, then
    one INDETERMINATE line per frame suite and the reason."""
    code = main(["residuals", "--n", "3", "--c", "-4", "--k", "2", "--r", r])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == [
        "gauss", "codazzi", "real_eigenspace",
    ]
    assert all(line.split()[-1] in ("PASS", "FAIL") for line in lines[:3])
    assert lines[3:-1] == [
        f"{name:20s} -          INDETERMINATE"
        for name in ("graded_connection", "graded_curvature",
                     "unit_pair_gauss", "frame_connection")
    ]
    assert lines[-1] == (
        "indeterminate: the frame suites cannot run: at grouping tolerance "
        f"0.0001 the center germ has {lack} (2 eigenvalue groups: {groups})"
    )


@pytest.mark.parametrize("extra", [
    ["--c", "-4", "--r", "0.5", "--fd-step", "1e-300"],  # degenerate tangents
    ["--c", "-400", "--r", "2.0"],
    ["--c", "-4", "--r", "1e-300"],
])
def test_residuals_singular_inputs_are_indeterminate(extra, capsys):
    """A valid input whose chart metric is singular runs no suite: one
    INDETERMINATE line per suite, the reason, exit 1 and no numpy
    message."""
    code = main(["residuals", "--n", "3", "--k", "2", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[:-1] == [
        f"{name:20s} -          INDETERMINATE" for name in numlab.RESIDUAL_SUITES
    ]
    assert lines[-1].startswith(
        "indeterminate: no suite can run: the chart's coordinate tangents "
        "are linearly dependent"
    )


def test_residuals_degenerate_stencil_neighbour_is_indeterminate(capsys):
    """At r = 1e-100 the center germ has two projected eigenspaces but a
    stencil neighbour has one: the frame suites are indeterminate."""
    code = main(["residuals", "--n", "3", "--c", "-4", "--k", "2", "--r", "1e-100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == [
        "gauss", "codazzi", "real_eigenspace",
    ]
    assert lines[3:-1] == [
        f"{name:20s} -          INDETERMINATE" for name in numlab.RESIDUAL_SUITES[3:]
    ]
    assert lines[-1].startswith("indeterminate: the frame suites cannot run: ")
    assert "a stencil neighbour of the center germ has h = 1" in lines[-1]


@pytest.mark.parametrize("extra", [
    ["--c", "-4", "--r", "0.7", "--fd-step", "1e200"],
    ["--c", "-4", "--r", "0.7", "--fd-step", "1e300"],
    ["--c", "-4", "--r", "0.7", "--fd-step", "1.7e308"],
    ["--c=-1e300", "--r", "1e-151"],
])
def test_residuals_past_the_double_range_are_indeterminate(extra, capsys):
    """An --fd-step or a scale whose chart values or difference stacks
    leave the double range runs no suite: one INDETERMINATE line per
    suite, the reason, exit 1, and no numpy warning or error line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["residuals", "--n", "3", "--k", "2", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[:-1] == [
        f"{name:20s} -          INDETERMINATE" for name in numlab.RESIDUAL_SUITES
    ]
    assert lines[-1].startswith("indeterminate: no suite can run: ")


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


def test_residuals_stays_in_the_tube_domain(capsys):
    """Over |c| from 1e-10 to 1e10 and r from 1e-8 to 10, residuals exits
    0, 1 or 2 with no warning or traceback, and exits 2, with one error
    line, exactly where s*r exceeds the tube layer's bound."""
    cells = [
        (c, r) for c in ("-1e-10", "-4", "-1e4", "-1e10")
        for r in ("1e-8", "1e-3", "0.7", "10")
    ]
    refused = []
    for c, r in cells:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["residuals", "--n", "3", f"--c={c}", "--k", "2", "--r", r])
        captured = capsys.readouterr()
        assert code in (0, 1, 2) and not caught, (c, r)
        assert "Traceback" not in captured.out + captured.err, (c, r)
        if code == 2:
            refused.append((c, r))
            assert captured.err.startswith("error: s*r = ")
            assert len(captured.err.splitlines()) == 1
    assert refused == [
        (c, r) for c, r in cells
        if model.rate(float(c)) * float(r) > tubes.MAX_RATE_RADIUS
    ]
    assert len(refused) == 5


def test_nonexistence_positive(capsys):
    code = main(["nonexistence", "--c", "4", "--grid", "30", "30", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "feasible points          0" in out
    assert "certificate" in out


def test_nonexistence_positive_writes_empty_curve(tmp_path, capsys):
    out_path = tmp_path / "curve.json"
    code = main([
        "nonexistence", "--c", "4", "--grid", "20", "20", "20",
        "--output", str(out_path),
    ])
    assert code == 0
    assert capsys.readouterr().out.endswith(f"wrote {out_path}\n")
    assert json.loads(out_path.read_text()) == {"c": 4.0, "curve_points": []}


def test_nonexistence_negative_writes_curve(tmp_path, capsys):
    out_path = tmp_path / "curve.json"
    code = main([
        "nonexistence", "--c", "-4", "--grid", "40", "40", "40",
        "--output", str(out_path),
    ])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["c"] == -4.0
    assert len(payload["curve_points"]) > 0
    row = payload["curve_points"][0]
    assert len(row) == 5 and all(math.isfinite(v) for v in row)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--n", "3", "--c", "-4", "--k", "2"],
        ["sweep", "--n", "3", "--c", "-4", "--k", "2",
         "--r-min", "0.2", "--r-max", "0.4", "--count", "2"],
        ["nonexistence", "--c", "-4", "--grid", "40", "40", "40"],
        pytest.param(
            ["nonexistence", "--c", "4", "--grid", "20", "20", "20"],
            id="nonexistence-positive",
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    """An --output path that cannot be written is bad input: one error
    line and exit 2, not a traceback."""
    path = tmp_path / "missing" / "x.json"
    assert main(argv + ["--output", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not path.exists()


def test_no_command_exits_2():
    assert main([]) == 2


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


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


def test_sweep_rejects_zero_jobs(capsys):
    code = main([
        "sweep", "--n", "2", "--c", "-4", "--k", "1",
        "--r-min", "0.5", "--r-max", "0.5", "--count", "1", "--jobs", "0",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_nonexistence_lambda3_sample_at_catalog_edge(tmp_path):
    # with 160 lambda3 samples, sample 106 is sqrt(-c)/2 in exact
    # arithmetic and rounds to a value where lambda1 == lambda3
    out_path = tmp_path / "curve.json"
    code = main([
        "nonexistence", "--c", "-3.4746401821558717",
        "--grid", "160", "160", "160", "--output", str(out_path),
    ])
    assert code == 0
    assert len(json.loads(out_path.read_text())["curve_points"]) > 0


def test_sweep_rejects_bad_ode_step(capsys):
    for step in ("0", "-1e-3", "nan", "inf"):
        code = main([
            "sweep", "--n", "2", "--c", "-4", "--k", "1",
            "--r-min", "0.5", "--r-max", "0.5", "--count", "1",
            "--ode-step", step,
        ])
        assert code == 2
        assert "--ode-step" in capsys.readouterr().err


def test_residuals_rejects_bad_radius(capsys):
    for r in ("nan", "inf", "30"):
        code = main(["residuals", "--n", "2", "--c", "-4", "--k", "1", "--r", r])
        assert code == 2
        err = capsys.readouterr().err
        assert "tube charts need 0 < r <= 10.0" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["--r-min", "--r-max"])
def test_sweep_rejects_bad_radius(option, value, capsys):
    radii = {"--r-min": "0.5", "--r-max": "1.0", option: value}
    # "--r-min=-inf": argparse reads a separate "-inf" as an option
    argv = ["sweep", "--n", "3", "--c", "-4", "--k", "2", "--count", "3"]
    argv += [f"{name}={radius}" for name, radius in radii.items()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 2 and not caught
    assert f"{option} must be a finite radius" in err and "Traceback" not in err


BAD_POSITIVE_VALUES = ("nan", "inf", "0", "-1")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_model_rejects_empty_sample(samples, capsys):
    code = main([
        "verify-model", "--n", "2", "--c", "-4", "--samples", samples,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "samples must be >= 1" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("value", BAD_POSITIVE_VALUES)
@pytest.mark.parametrize("option", ["--tolerance", "--grouping-tol"])
def test_classify_rejects_bad_tolerance(option, value, tmp_path, capsys):
    # a catalog germ off the catalog by 0.11: unclassified at the default
    # tolerance, and a NaN tolerance must not turn it into a tube label
    germ = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7)
    germ.shape[0][0] += 0.05
    path = tmp_path / "germ.json"
    path.write_text(germ.to_json())
    assert main(["classify", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["model"] == "unclassified"
    code = main(["classify", "--input", str(path), f"{option}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "must be positive and finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", BAD_POSITIVE_VALUES)
@pytest.mark.parametrize("command", [
    ["residuals", "--n", "2", "--c", "-4", "--k", "1", "--r", "0.3"],
    ["verify-model", "--n", "2", "--c", "-4", "--samples", "5"],
])
def test_tolerance_must_be_positive(command, value, capsys):
    code = main(command + [f"--tolerance={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--tolerance must be positive and finite" in captured.err
    assert "FAIL" not in captured.out


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_residuals_rejects_bad_fd_step(step, capsys):
    code = main([
        "residuals", "--n", "2", "--c", "-4", "--k", "1", "--r", "0.3",
        "--fd-step", step,
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "fd_step must be positive and finite" in err
    assert "SVD" not in err


@pytest.mark.parametrize("width", ["0.1", "-1", "0", "inf", "nan"])
def test_nonexistence_has_no_sum_band(width, capsys):
    """The scan imposes the trace relation, not a second band on the
    quadratic: --sum-band is an unrecognized option, whatever its width."""
    code = main(["nonexistence", "--c", "-4", "--grid", "5", "5", "5", "--sum-band", width])
    err = capsys.readouterr().err
    assert code == 2
    assert f"unrecognized arguments: --sum-band {width}" in err
    assert "Traceback" not in err


def test_nonexistence_rejects_small_grid(capsys):
    for grid in (["1", "1", "1"], ["0", "5", "5"], ["5", "5", "1"]):
        assert main(["nonexistence", "--c", "-4", "--grid", *grid]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err


def test_nonexistence_without_refined_samples_fails(tmp_path, capsys):
    out_path = tmp_path / "curve.json"
    code = main([
        "nonexistence", "--c", "-4", "--grid", "2", "2", "2",
        "--output", str(out_path),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "curve samples            0" in out
    assert "max refined residual     none" in out
    assert not out_path.exists()


def test_nonexistence_rejects_degenerate_curvature(capsys):
    for c in ("0", "nan", "inf", "-inf"):
        assert main(["nonexistence", f"--c={c}", "--grid", "5", "5", "5"]) == 2
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("c", [
    -1e210, 1e210, -1e250, 1e250, -1e300, 1e300, -2.1e204, 2.1e204,
    -7e-206, 7e-206, -1e-250, 1e-250, -5e-324, 5e-324,
])
def test_nonexistence_rejects_a_curvature_outside_its_range(c, capsys):
    """Outside 7.91e-206 <= |c| <= 2.06e204 the scan's b^2 formulas leave
    the normal doubles on its box (the numerators overflow above, the
    denominators are subnormal below): one error line and exit 2 for both
    signs, with no numpy warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["nonexistence", f"--c={c!r}", "--grid", "30", "30", "30"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: c = {c!r} is out of range")
    assert len(captured.err.splitlines()) == 1
    assert "Warning" not in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("c", [-1e-30, -1e-100, -1e-200])
def test_nonexistence_finds_the_curve_at_small_curvature(c, capsys):
    """The scan's ordering margin is relative to sqrt|c|: at small |c| it
    still leaves the feasible cells."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["nonexistence", f"--c={c!r}", "--grid", "30", "30", "30"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    samples = [ln for ln in captured.out.splitlines() if ln.startswith("curve samples")]
    assert len(samples) == 1 and int(samples[0].split()[-1]) > 0


@pytest.mark.parametrize("c, tail", [
    (-1e200, [
        "feasible points          643",
        "curve samples            20",
        "max refined residual     3.885e-16",
    ]),
    (1e200, ["feasible points          0"]),
])
def test_nonexistence_keeps_its_output_below_the_overflow(c, tail, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["nonexistence", f"--c={c!r}", "--grid", "30", "30", "30"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    lines = captured.out.splitlines()
    assert lines[:3] == [
        f"c                        {c!r}",
        "grid                     (30, 30, 30)",
        "points scanned           27000",
    ]
    assert lines[3:3 + len(tail)] == tail


def test_sweep_builds_the_tube_modes_once_per_command(monkeypatch):
    """A sweep does the radius-independent set-up of its tube germs once
    and classifies each radius once."""
    calls = {"modes": 0, "classify": 0}
    modes, classify = tubes._tube_modes, cli.classify

    def counted_modes(*args, **kwargs):
        calls["modes"] += 1
        return modes(*args, **kwargs)

    def counted_classify(*args, **kwargs):
        calls["classify"] += 1
        return classify(*args, **kwargs)

    monkeypatch.setattr(tubes, "_tube_modes", counted_modes)
    monkeypatch.setattr(cli, "classify", counted_classify)
    for count in (1, 3, 7):
        calls.update(modes=0, classify=0)
        assert main([
            "sweep", "--n", "3", "--c", "-4", "--k", "2",
            "--r-min", "0.2", "--r-max", "1.4", "--count", str(count),
            "--output", os.devnull,
        ]) == 0
        assert calls == {"modes": 1, "classify": count}


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


# Run in a fresh interpreter: print, after importing chgeom.cli and after
# each command, which of the lazily loaded modules are in sys.modules.
_IMPORT_GRAPH_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    import chgeom.cli

    germ, commands = sys.argv[1], json.loads(sys.argv[2])
    lazy = ("chgeom.numlab", "chgeom.tubes")
    seen = {"import": [m for m in lazy if m in sys.modules]}
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = chgeom.cli.main([germ if a == "GERM" else a for a in argv])
        seen[argv[0]] = [code, [m for m in lazy if m in sys.modules]]
    print(json.dumps(seen))
""")


def test_commands_load_numlab_and_tubes_only_when_they_run_them(tmp_path):
    """Importing chgeom.cli loads neither the finite-difference lab nor
    the tube germs; verify-model, construct, classify and nonexistence
    never load them, sweep loads tubes, and residuals loads both."""
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
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_SCRIPT, str(germ), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [],
        "verify-model": [0, []],
        "construct": [0, []],
        "classify": [0, []],
        "nonexistence": [0, []],
        "sweep": [0, ["chgeom.tubes"]],
        "residuals": [0, ["chgeom.numlab", "chgeom.tubes"]],
    }


def test_every_public_name_resolves_and_star_import_binds_it():
    """The package root resolves its numlab and tubes names on first
    access: each name in __all__ is its owner's object, and
    ``from chgeom import *`` binds every one."""
    import chgeom

    for name in chgeom.__all__:
        value = getattr(chgeom, name)
        owner = sys.modules[value.__module__]
        assert getattr(owner, name) is value, name
    namespace = {}
    exec("from chgeom import *", namespace)
    assert set(chgeom.__all__) <= set(namespace)
    assert set(chgeom.__all__) <= set(dir(chgeom))
    assert chgeom.numlab is numlab and chgeom.tubes is tubes
    with pytest.raises(AttributeError):
        chgeom.no_such_name
