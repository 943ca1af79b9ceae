"""Command-line interface tests, run in-process through main(argv)."""

import json
import math
import warnings

import numpy as np
import pytest

from chgeom import ModelParams, SubmanifoldSpec, catalog_germ, cli, model, numlab, spectral
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
    assert args.fd_step == numlab.DEFAULT_FD_STEP


def test_classify_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bad": 1}))
    assert main(["classify", "--input", str(path)]) == 2
    assert "malformed" in capsys.readouterr().err
    assert main(["classify", "--input", str(tmp_path / "missing.json")]) == 2


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
def test_residuals_without_frame_fields_exit_2(r, lack, groups, capsys):
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
])
def test_residuals_singular_inputs_exit_2(extra, capsys):
    code = main(["residuals", "--n", "3", "--k", "2", *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: Singular matrix\n"
    assert captured.out == ""


def test_nonexistence_positive(capsys):
    code = main(["nonexistence", "--c", "4", "--grid", "30", "30", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "feasible points          0" in out
    assert "certificate" in out


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


def test_no_command_exits_2():
    assert main([]) == 2


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


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


@pytest.mark.parametrize("band", BAD_POSITIVE_VALUES)
def test_nonexistence_rejects_bad_sum_band(band, capsys):
    code = main([
        "nonexistence", "--c", "-4", "--grid", "5", "5", "5",
        f"--sum-band={band}",
    ])
    assert code == 2
    assert "sum_band must be positive and finite" in capsys.readouterr().err


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
