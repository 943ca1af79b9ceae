"""The benchmark instruments chgeom from outside the package, by looking
up attributes in module and class dictionaries and reading call
arguments by name.  A renamed function or parameter would crash the
benchmark; these tests run traced calls to catch that."""

import json
import math
from pathlib import Path

import pytest

from chgeom import cli, spectral, tubes
from chgeom.construction import build_submanifold
from chgeom.model import ModelParams
from chgeom.spectral import catalog_germ

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def traced(monkeypatch):
    """A span recorder with the benchmark's wrappers installed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    recorder = spans.SpanRecorder()
    instr = spans.Instrumentation(recorder)
    instr.install()
    try:
        yield recorder
    finally:
        instr.uninstall()
    assert cli.classify is spectral.classify  # originals restored


def test_instrumentation_traces_a_sweep(tmp_path, traced):
    """A sweep classifies its radii in one ``classify_batch`` call and
    takes their focal determinants in one call: no ``classify`` or
    one-germ decomposition span, one determinant span per sweep."""
    code = cli.main([
        "sweep", "--n", "2", "--c", "-4", "--k", "1",
        "--r-min", "0.3", "--r-max", "0.9", "--count", "3",
        "--output", str(tmp_path / "sweep.csv"),
    ])
    assert code == 0
    totals = traced.totals()
    assert "spectral.classify" not in totals
    assert "spectral.principal_decomposition" not in totals
    assert totals["jacobi.focal_determinant_matrix"]["calls"] == 1
    # sweep rows use the closed-form tube germ: no RK4 integration
    assert "model.integrate_transport" not in totals
    assert "jacobi.jacobi_ode_oracle" not in totals
    assert "tubes.tube_shape_operator" not in totals


@pytest.mark.parametrize("flip", [False, True])
def test_instrumentation_traces_a_classify_command(flip, tmp_path, traced, capsys):
    """The benchmark wraps cli.classify and spectral.principal_decomposition
    by name; a classify command calls through each once, also on a germ
    that classify reads in the opposite co-orientation."""
    germ = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7)
    path = tmp_path / "germ.json"
    path.write_text((germ.flipped() if flip else germ).to_json())
    assert cli.main(["classify", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["model"] == "tube"
    totals = traced.totals()
    assert totals["spectral.classify"]["calls"] == 1
    assert totals["spectral.principal_decomposition"]["calls"] == 1


def test_benchmark_patch_sites_stay_bound():
    """perfbench/spans.py wraps ``cli.classify`` as ``spectral.classify``
    and ``numlab.principal_decomposition`` by name."""
    from chgeom import numlab

    assert cli.classify is spectral.classify
    assert numlab.principal_decomposition is spectral.principal_decomposition


def test_instrumentation_traces_a_residuals_suite(traced, capsys):
    code = cli.main([
        "residuals", "--n", "2", "--c", "-4", "--k", "1", "--r", "0.3",
    ])
    assert code == 0
    totals = traced.totals()
    # the chart evaluates the closed-form geodesic flow: no RK4 steps
    assert "model.integrate_geodesic" not in totals
    mapper = totals["numlab.tube_chart.mapper"]
    assert mapper["calls"] == 1 and mapper["points"] == 63  # L1 <= 3 in 3-D
    assert totals["numlab.GermField.init"]["lattice_points"] == 63
    # the benchmark patches these by name: each must still be one call
    assert totals["numlab.tube_chart"]["calls"] == 1
    # only the center germ is decomposed one germ at a time; the stencil
    # takes one stacked pass
    assert totals["spectral.principal_decomposition"]["calls"] == 1
    for suite in (
        "gauss_codazzi_residuals",
        "real_eigenspace_residual",
        "graded_connection_residuals",
        "graded_curvature_residuals",
        "unit_pair_gauss_residual",
        "frame_connection_residuals",
    ):
        assert totals[f"numlab.{suite}"]["calls"] == 1, suite


def test_instrumentation_traces_the_tube_oracle(traced):
    spec = build_submanifold(ModelParams(n=2, c=-4.0), 1, math.pi / 2)
    tubes.tube_shape_operator(spec, spec.normal_basis[0], 0.5, step=1e-3)
    totals = traced.totals()
    transport = totals["model.integrate_transport"]
    oracle = totals["jacobi.jacobi_ode_oracle"]
    assert transport["calls"] == 1 and transport["steps"] == 500
    assert oracle["calls"] == 1 and oracle["steps"] == 500
    assert totals["tubes.tube_shape_operator"]["calls"] == 1
