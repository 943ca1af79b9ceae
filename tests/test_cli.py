"""Command-line interface tests, run in-process through main(argv)."""

import json
import math

import pytest

from chgeom import ModelParams, SubmanifoldSpec, catalog_germ, cli
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


def test_classify_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bad": 1}))
    assert main(["classify", "--input", str(path)]) == 2
    assert "malformed" in capsys.readouterr().err
    assert main(["classify", "--input", str(tmp_path / "missing.json")]) == 2


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


def test_residuals_rejects_bad_ode_step(capsys):
    for step in ("0", "nan"):
        code = main([
            "residuals", "--n", "2", "--c", "-4", "--k", "1", "--r", "0.3",
            "--ode-step", step,
        ])
        assert code == 2
        assert "--ode-step must be positive" in capsys.readouterr().err


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
