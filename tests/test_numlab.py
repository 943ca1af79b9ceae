"""Finite-difference laboratory tests: induced geometry of explicit
charts, Gauss/Codazzi residuals, the graded frame identities, and
convergence under step halving."""

import numpy as np
import pytest

from chgeom import (
    ModelParams,
    SolvableModel,
    build_submanifold,
    classify,
    convergence_order,
    frame_connection_residuals,
    gauss_codazzi_residuals,
    germ_field,
    graded_connection_residuals,
    graded_curvature_residuals,
    horosphere_chart,
    numeric_geometry,
    real_eigenspace_residual,
    tube_chart,
    tube_spectrum_closed,
    unit_pair_gauss_residual,
)

EXACT_CHART_TOLERANCE = 1e-10
SPECTRUM_TOLERANCE = 1e-5
GAUSS_TOLERANCE = 2e-4
CODAZZI_TOLERANCE = 1e-5
LEMMA_TOLERANCE = 1e-6
DETECTOR_FLOOR = 1e-2
NUMERIC_CLASSIFY_TOLERANCE = 1e-4
ORDER_MIN = 1.8

TUBE_X0 = np.array([0.05, -0.08, 0.11, 0.02, -0.04])


@pytest.fixture(scope="module")
def tube_field():
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, k=2, phi=np.pi / 2)
    chart = tube_chart(spec, r=0.7)
    return germ_field(chart, TUBE_X0)


@pytest.fixture(scope="module")
def horo_field():
    chart = horosphere_chart(ModelParams(n=2, c=-4.0))
    return germ_field(chart, np.array([0.02, -0.03, 0.05]))


def test_horosphere_geometry_is_exact(horo_field):
    geo = horo_field.center_geometry()
    evals = np.sort(np.linalg.eigvalsh(geo.germ.shape))
    assert np.allclose(evals, [1.0, 1.0, 2.0], atol=EXACT_CHART_TOLERANCE)
    res = gauss_codazzi_residuals(horo_field)
    assert res["gauss"] < EXACT_CHART_TOLERANCE
    assert res["codazzi"] < EXACT_CHART_TOLERANCE


def test_numeric_geometry_invariants(tube_field):
    geo = tube_field.center_geometry()
    # induced metric equals the frame Gram matrix of the tangents
    assert np.allclose(geo.metric, geo.tangents @ geo.tangents.T, atol=1e-12)
    # unit normal orthogonal to every tangent
    assert abs(np.linalg.norm(geo.normal) - 1.0) < 1e-12
    assert np.max(np.abs(geo.tangents @ geo.normal)) < 1e-10
    # second fundamental form is symmetric, trace-positive orientation
    asym = geo.second_fundamental - geo.second_fundamental.T
    assert np.max(np.abs(asym)) < 1e-9
    assert np.trace(geo.shape_coord) >= 0
    # germ basis is orthonormal in frame components
    tb = geo.germ.tangent_basis
    assert np.allclose(tb @ tb.T, np.eye(tb.shape[0]), atol=1e-12)


def test_tube_spectrum_matches_closed_form(tube_field):
    germ = tube_field.germ()
    evals = np.sort(np.linalg.eigvalsh(germ.shape))
    expected = np.sort(tube_spectrum_closed(0.7, -4.0, 3, 2))
    assert np.max(np.abs(evals - expected)) < SPECTRUM_TOLERANCE


def test_numeric_germ_classifies(tube_field):
    res = classify(tube_field.germ(), tol=1e-4, grouping_tol=1e-5)
    assert res.model == "tube"
    assert res.k == 2
    assert abs(res.r - 0.7) < NUMERIC_CLASSIFY_TOLERANCE


def test_equidistant_chart_classifies():
    params = ModelParams(n=2, c=-4.0)
    spec = build_submanifold(params, k=1, phi=np.pi / 2)
    chart = tube_chart(spec, r=0.3)
    field = germ_field(chart, np.zeros(chart.domain_dim))
    res = classify(field.germ(), tol=1e-4, grouping_tol=1e-5)
    assert res.model == "equidistant"
    assert res.k == 1
    assert abs(res.r - 0.3) < NUMERIC_CLASSIFY_TOLERANCE


def test_tube_gauss_codazzi_residuals(tube_field):
    res = gauss_codazzi_residuals(tube_field)
    assert res["gauss"] < GAUSS_TOLERANCE
    assert res["codazzi"] < CODAZZI_TOLERANCE


def test_perturbed_shape_is_detected(tube_field):
    res1 = gauss_codazzi_residuals(tube_field, shape_scale=1.01)
    assert res1["gauss"] > DETECTOR_FLOOR
    assert res1["codazzi"] > DETECTOR_FLOOR
    res2 = gauss_codazzi_residuals(tube_field, shape_scale=1.02)
    # leading order in the scale offset: doubling it doubles the residual
    for key in ("gauss", "codazzi"):
        ratio = res2[key] / res1[key]
        assert 1.5 < ratio < 2.5


def test_real_eigenspace_residual(tube_field):
    assert real_eigenspace_residual(tube_field) < LEMMA_TOLERANCE


def test_graded_connection_residuals(tube_field):
    assert graded_connection_residuals(tube_field) < LEMMA_TOLERANCE


def test_graded_curvature_residuals(tube_field):
    assert graded_curvature_residuals(tube_field) < LEMMA_TOLERANCE


def test_unit_pair_gauss_residual(tube_field):
    assert unit_pair_gauss_residual(tube_field) < LEMMA_TOLERANCE


def test_frame_connection_residuals(tube_field):
    res = frame_connection_residuals(tube_field)
    assert set(res) == {
        "u1_u1", "u1_u2", "u1_a", "a_u1", "u2_u2", "u2_u1", "u2_a",
        "a_u2", "a_a",
    }
    assert max(res.values()) < LEMMA_TOLERANCE


def test_residuals_converge_under_halving():
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, k=2, phi=np.pi / 2)
    chart = tube_chart(spec, r=0.7)
    fields = {h: germ_field(chart, TUBE_X0, fd_step=h) for h in (1e-3, 5e-4)}
    for key in ("gauss", "codazzi"):
        order = convergence_order(
            lambda h, key=key: gauss_codazzi_residuals(fields[h])[key]
        )
        assert order > ORDER_MIN


def test_convergence_order_helper():
    assert abs(convergence_order(lambda h: 3.0 * h**2) - 2.0) < 1e-12
    assert convergence_order(lambda h: 0.0 * h) == float("inf")


def test_germ_field_caches_offsets(tube_field):
    center = tube_field.germ()
    off = (1,) + (0,) * (tube_field.dom - 1)
    neighbor = tube_field.germ(off)
    # neighbor normals stay aligned with the center orientation
    assert float(neighbor.normal @ center.normal) > 0.9
    # the cached lattice covers the L1 <= 3 ball needed by second derivatives
    far = (2, 1) + (0,) * (tube_field.dom - 2)
    assert tube_field.coords(far).shape == (tube_field.params.dim,)


def test_numeric_geometry_wrapper():
    chart = horosphere_chart(ModelParams(n=2, c=-4.0))
    geo = numeric_geometry(chart, np.zeros(3))
    assert geo.tangents.shape == (3, 4)
    assert geo.second_fundamental.shape == (3, 3)


def test_field_derivative_helpers(tube_field):
    # scalar derivative of a coordinate function recovers the direction
    values = tube_field.field_from_function(
        lambda off: float(np.sum(tube_field.coords(off)))
    )
    direction = tube_field.tangents(())[0]  # first coordinate tangent
    d = tube_field.scalar_derivative(values, direction)
    dcoords = float(
        np.sum(tube_field.coords((1, 0, 0, 0, 0)))
        - np.sum(tube_field.coords((-1, 0, 0, 0, 0)))
    ) / (2 * tube_field.h)
    assert abs(d - dcoords) < 1e-9


def test_tube_chart_rejects_bad_radius():
    params = ModelParams(n=2, c=-4.0)
    spec = build_submanifold(params, k=1, phi=np.pi / 2)
    with pytest.raises(ValueError):
        tube_chart(spec, r=0.0)


def test_distance_to_base_orbit(tube_field):
    """Walking the inward numeric normal for time r returns to the orbit
    (its z-coordinate pattern: the endpoint lies on the subgroup where
    the chart's base points live)."""
    geo = tube_field.center_geometry()
    model = SolvableModel(tube_field.params)
    # trace(S) >= 0 orients the numeric normal inward, toward the orbit
    back, _ = model.integrate_geodesic(geo.coords, geo.normal, 0.7, step=1e-4)
    # the orbit through the identity: v-part confined to the base rows
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, k=2, phi=np.pi / 2)
    w_rows = spec.tangent_basis[2:, 2:]
    v = back[2:]
    proj = w_rows.T @ (w_rows @ v)
    assert np.linalg.norm(v - proj) < 1e-6
