"""Tests for the normal Jacobi profiles, the focal determinant and
collapse matrices, and the tube shape operators built from them."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chgeom.construction import build_submanifold
from chgeom.jacobi import (
    OutOfRangeEigenvalue,
    focal_determinant_matrix,
    focal_radius,
    sech,
    special_radius,
)
from chgeom.model import ModelParams
from chgeom.oracles import (
    f_derivative,
    f_function,
    focal_collapse_matrix_closed,
    focal_collapse_matrix_numeric,
    focal_determinant_matrix_derivative,
    focal_rank,
    focal_shape_check,
    g_derivative,
    g_function,
)
from chgeom.spectral import classify, eigen_structure_from_lambda3
from chgeom.tubes import tube_shape_operator, tube_spectrum_closed

DETERMINANT_TOLERANCE = 1e-10
COLLAPSE_TOLERANCE = 1e-10
TUBE_RELATIVE_TOLERANCE = 1e-9
FOCAL_TOLERANCE = 1e-6


def test_profile_initial_conditions():
    for lam in (-0.7, 0.0, 0.45, 1.2):
        for c in (-1.0, -4.0):
            assert f_function(lam, c, 0.0) == 1.0
            assert abs(f_derivative(lam, c, 0.0) + lam) < 1e-15
            assert g_function(lam, c, 0.0) == 0.0
            assert abs(g_derivative(lam, c, 0.0)) < 1e-15


def test_profile_frozen_values():
    # f(0.45, -4, 0.8) = cosh(0.8) - 0.45 sinh(0.8)
    assert abs(f_function(0.45, -4.0, 0.8) - 0.9377872543204143) < 1e-14
    # the larger projected eigenvalue's profile vanishes at the merge radius
    rstar = special_radius(-4.0)
    assert abs(f_function(math.sqrt(3.0), -4.0, rstar)) < 1e-14
    assert abs(special_radius(-4.0) - math.log(2 + math.sqrt(3)) / 2) < 1e-15


@seed(5)
@settings(deadline=None, max_examples=60)
@given(
    lam=st.floats(-2.0, 2.0),
    c=st.floats(-9.0, -0.25),
    t=st.floats(0.0, 2.0),
)
def test_profile_satisfies_oscillator_equation(lam, c, t):
    # 4 f'' + c f = 0 with f'' evaluated by differentiating f'
    h = 1e-5
    fpp = (f_derivative(lam, c, t + h) - f_derivative(lam, c, t - h)) / (2 * h)
    assert abs(4 * fpp + c * f_function(lam, c, t)) < 1e-6
    # f' matches the difference quotient of f
    fp = (f_function(lam, c, t + h) - f_function(lam, c, t - h)) / (2 * h)
    assert abs(fp - f_derivative(lam, c, t)) < 1e-5


def test_determinant_matrix_identity_at_zero():
    es = eigen_structure_from_lambda3(0.3, -4.0)
    d0 = focal_determinant_matrix(es.lambda1, es.lambda2, es.b1, es.b2, -4.0, 0.0)
    assert np.allclose(d0, np.eye(2), atol=1e-15)


def test_determinant_equals_cubed_profile_everywhere():
    """det D(t) = f(lambda_3, t)^3 for all t, not only at the matched
    radius: the catalog data ties the three profiles together."""
    for c in (-1.0, -4.0):
        s = math.sqrt(-c) / 2
        for lam3 in np.linspace(0.0, 0.9 * s, 25):
            es = eigen_structure_from_lambda3(float(lam3), c)
            for t in np.linspace(0.0, 2.0, 40):
                d = focal_determinant_matrix(
                    es.lambda1, es.lambda2, es.b1, es.b2, c, float(t)
                )
                det = float(np.linalg.det(d))
                f3 = f_function(float(lam3), c, float(t))
                assert abs(det - f3**3) < DETERMINANT_TOLERANCE


def test_determinant_matched_radius_closed_form():
    # at the matched radius lambda_3 = s tanh(s r): det D(r) = sech(sr)^3
    for c in (-1.0, -4.0):
        s = math.sqrt(-c) / 2
        for r in np.linspace(0.05, 2.0, 50):
            lam3 = s * math.tanh(s * float(r))
            es = eigen_structure_from_lambda3(lam3, c)
            d = focal_determinant_matrix(
                es.lambda1, es.lambda2, es.b1, es.b2, c, float(r)
            )
            assert abs(np.linalg.det(d) - sech(s * r) ** 3) < DETERMINANT_TOLERANCE


def test_determinant_derivative_matches_finite_differences():
    es = eigen_structure_from_lambda3(0.45, -4.0)
    h = 1e-6
    for t in (0.2, 0.9, 1.5):
        dp = focal_determinant_matrix(es.lambda1, es.lambda2, es.b1, es.b2, -4.0, t + h)
        dm = focal_determinant_matrix(es.lambda1, es.lambda2, es.b1, es.b2, -4.0, t - h)
        fd = (dp - dm) / (2 * h)
        an = focal_determinant_matrix_derivative(
            es.lambda1, es.lambda2, es.b1, es.b2, -4.0, t
        )
        assert np.max(np.abs(fd - an)) < 1e-7


def test_collapse_matrix_matched_radius():
    for c in (-1.0, -4.0):
        s = math.sqrt(-c) / 2
        for r in np.linspace(0.05, 1.8, 40):
            lam3 = s * math.tanh(s * float(r))
            es = eigen_structure_from_lambda3(lam3, c)
            cn = focal_collapse_matrix_numeric(
                es.lambda1, es.lambda2, es.b1, es.b2, c, float(r)
            )
            cc = focal_collapse_matrix_closed(es.b1, es.b2, c)
            assert np.max(np.abs(cn - cc)) < COLLAPSE_TOLERANCE
            # the collapse matrix squares to a quarter of the curvature
            assert np.max(np.abs(cn @ cn + (c / 4) * np.eye(2))) < COLLAPSE_TOLERANCE


def test_collapse_matrix_balanced_case():
    b = 1 / math.sqrt(2)
    cc = focal_collapse_matrix_closed(b, b, -4.0)
    assert np.allclose(cc, np.diag([-1.0, 1.0]), atol=1e-14)


def test_collapse_matrix_differs_off_matched_radius():
    # the closed form describes only the matched radius
    es = eigen_structure_from_lambda3(math.tanh(0.7), -4.0)
    cc = focal_collapse_matrix_closed(es.b1, es.b2, -4.0)
    off = focal_collapse_matrix_numeric(es.lambda1, es.lambda2, es.b1, es.b2, -4.0, 0.3)
    assert np.max(np.abs(off - cc)) > 0.1


def test_radius_functions():
    for c in (-1.0, -4.0):
        s = math.sqrt(-c) / 2
        for r in (0.1, 0.6, 1.3):
            lam3 = s * math.tanh(s * r)
            assert abs(focal_radius(lam3, c) - r) < 1e-12
        with pytest.raises(OutOfRangeEigenvalue):
            focal_radius(s, c)
        with pytest.raises(OutOfRangeEigenvalue):
            focal_radius(-0.01, c)
        # at the special radius the two merged eigenvalues coincide
        rstar = special_radius(c)
        lam3 = s * math.tanh(s * rstar)
        es = eigen_structure_from_lambda3(lam3, c)
        assert es.branch == "G3_KBIG"
        assert abs(lam3 - s / math.sqrt(3)) < 1e-14


def test_tube_operator_matches_catalog():
    for n, k, r in ((2, 1, 0.5), (3, 2, 0.7), (3, 1, 1.1), (4, 3, 0.4)):
        params = ModelParams(n=n, c=-4.0)
        spec = build_submanifold(params, k, math.pi / 2)
        result = tube_shape_operator(spec, spec.normal_basis[0], r, step=1e-3)
        evals = np.sort(np.linalg.eigvalsh(result.germ.shape))
        expected = tube_spectrum_closed(r, -4.0, n, k)
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(evals - expected)) / scale < TUBE_RELATIVE_TOLERANCE
        assert result.asymmetry < 1e-9
        assert result.velocity_drift < 1e-9
        # transport stays orthogonal
        p = result.transport
        assert np.max(np.abs(p.T @ p - np.eye(2 * n))) < 1e-10


def test_tube_operator_other_curvature():
    params = ModelParams(n=3, c=-1.0)
    spec = build_submanifold(params, 2, math.pi / 2)
    result = tube_shape_operator(spec, spec.normal_basis[0], 0.8, step=1e-3)
    evals = np.sort(np.linalg.eigvalsh(result.germ.shape))
    expected = tube_spectrum_closed(0.8, -1.0, 3, 2)
    assert np.max(np.abs(evals - expected)) < 1e-9


def test_tube_classifies_along_branches():
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, 2, math.pi / 2)
    eta = spec.normal_basis[0]
    rstar = special_radius(-4.0)
    res = classify(tube_shape_operator(spec, eta, rstar, step=1e-3).germ)
    assert res.g == 3 and res.branch == "G3_KBIG" and res.k == 2
    res = classify(tube_shape_operator(spec, eta, rstar + 0.05, step=1e-3).germ)
    assert res.g == 4 and res.branch == "G4"
    spec1 = build_submanifold(params, 1, math.pi / 2)
    res = classify(tube_shape_operator(spec1, spec1.normal_basis[0], 0.6, step=1e-3).germ)
    assert res.g == 3 and res.branch == "G3_K1" and res.k == 1
    assert res.model == "equidistant"


def test_zero_radius_germ():
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, 1, math.pi / 2)
    result = tube_shape_operator(spec, spec.normal_basis[0], 0.0)
    evals = np.sort(np.linalg.eigvalsh(result.germ.shape))
    assert np.allclose(evals, [-1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)
    spec2 = build_submanifold(params, 2, math.pi / 2)
    with pytest.raises(ValueError):
        tube_shape_operator(spec2, spec2.normal_basis[0], 0.0)


def test_focal_rank_accounting():
    c = -4.0
    es = eigen_structure_from_lambda3(math.tanh(0.7), c, n=3, k=2)
    rank, kernel = focal_rank(es, focal_radius(es.lambda3, c))
    assert rank == 2 * 3 - 2  # 2n - k at the focal radius
    assert len(kernel) == 1 and kernel[0][1] == 1
    rank, kernel = focal_rank(es, 0.45)
    assert rank == 2 * 3 - 1 and not kernel
    # merged branch: the extra block vanishes at the special radius
    s = 1.0
    rstar = special_radius(c)
    es3 = eigen_structure_from_lambda3(s * math.tanh(s * rstar), c, n=3, k=2)
    rank, kernel = focal_rank(es3, rstar)
    assert rank == 2 * 3 - 2


def test_focal_shape_identities():
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, 2, math.pi / 2)
    rep = focal_shape_check(spec, spec.normal_basis[0], 0.7)
    assert list(rep) == ["ju_pair", "bja_pair", "complement"]
    assert rep["ju_pair"] < FOCAL_TOLERANCE
    assert rep["bja_pair"] < FOCAL_TOLERANCE
    assert rep["complement"] < FOCAL_TOLERANCE


def test_rate_requires_negative_curvature():
    with pytest.raises(ValueError):
        f_function(0.1, 1.0, 0.5)
