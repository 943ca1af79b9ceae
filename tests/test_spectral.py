"""Tests for the eigenvalue catalog, germ decomposition, the canonical
frame identities, the classifier, and the feasibility scan."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chgeom import (
    HypersurfaceGerm,
    ModelParams,
    NoRealSolution,
    OutOfRangeEigenvalue,
    catalog_germ,
    catalog_quadratic,
    classify,
    constraint_residuals,
    eigen_structure_from_lambda3,
    focal_radius,
    frame_identity_residuals,
    hopf_frame_extract,
    horosphere_germ,
    nonexistence_scan,
    principal_decomposition,
    special_radius,
    standard_complex_structure,
    totally_real_check,
)
from chgeom import spectral

CATALOG_TOLERANCE = 1e-12
FRAME_TOLERANCE = 1e-12
CLASSIFY_RADIUS_TOLERANCE = 1e-9
REFINED_TOLERANCE = 1e-9


def test_catalog_flat_slice():
    es = eigen_structure_from_lambda3(0.0, -4.0)
    assert abs(es.lambda1 + 1.0) < CATALOG_TOLERANCE
    assert abs(es.lambda2 - 1.0) < CATALOG_TOLERANCE
    assert abs(es.b1sq - 0.5) < CATALOG_TOLERANCE
    assert abs(es.b2sq - 0.5) < CATALOG_TOLERANCE
    assert es.branch == "G3_K1" and es.g == 3


def test_catalog_merge_slice():
    es = eigen_structure_from_lambda3(1 / math.sqrt(3), -4.0)
    assert abs(es.lambda1) < CATALOG_TOLERANCE
    assert abs(es.lambda2 - math.sqrt(3)) < CATALOG_TOLERANCE
    assert abs(es.b1sq - 1 / 9) < CATALOG_TOLERANCE
    assert abs(es.b2sq - 8 / 9) < CATALOG_TOLERANCE
    assert es.branch == "G3_KBIG" and es.g == 3


def test_catalog_generic_slice():
    es = eigen_structure_from_lambda3(0.5, -4.0)
    disc = math.sqrt(4.0 - 3 * 0.25)
    assert abs(es.lambda1 - (1.5 - disc) / 2) < CATALOG_TOLERANCE
    assert abs(es.lambda2 - (1.5 + disc) / 2) < CATALOG_TOLERANCE
    assert es.lambda4 is not None and abs(es.lambda4 - 2.0) < CATALOG_TOLERANCE
    assert abs(es.b1sq - 0.15331237735923178) < CATALOG_TOLERANCE
    assert es.branch == "G4" and es.g == 4
    assert max(abs(v) for v in constraint_residuals(es).values()) < 1e-10


def test_catalog_rejects_bad_inputs():
    with pytest.raises(NoRealSolution):
        eigen_structure_from_lambda3(0.5, 4.0)
    with pytest.raises(NoRealSolution):
        eigen_structure_from_lambda3(0.0, 1.0)
    with pytest.raises(OutOfRangeEigenvalue):
        eigen_structure_from_lambda3(1.0, -4.0)  # lambda3 must stay below s
    with pytest.raises(OutOfRangeEigenvalue):
        eigen_structure_from_lambda3(-0.2, -4.0)


@seed(3)
@settings(deadline=None, max_examples=80)
@given(
    lam3_frac=st.floats(0.0, 0.95),
    c=st.floats(-9.0, -0.25),
)
def test_projection_squares_match_cubic_form(lam3_frac, c):
    """Two independent closed forms for the structure-vector projections:
    the rational form in (lambda_i - lambda_3) and the cubic in the
    discriminant root."""
    s = math.sqrt(-c) / 2
    lam3 = lam3_frac * s
    es = eigen_structure_from_lambda3(lam3, c)
    disc = math.sqrt(-c - 3 * lam3 * lam3)
    b1_cubic = -((-lam3 + disc) ** 3) / (2 * c * disc)
    b2_cubic = -((lam3 + disc) ** 3) / (2 * c * disc)
    assert abs(es.b1sq - b1_cubic) < 1e-10
    assert abs(es.b2sq - b2_cubic) < 1e-10
    assert abs(es.b1sq + es.b2sq - 1.0) < 1e-10
    assert abs(catalog_quadratic(es.lambda1, es.lambda2, lam3, c)) < 1e-9
    # strict ordering of the projected eigenvalues around lambda_3
    assert es.lambda1 < lam3 < es.lambda2


def test_trace_and_product_identities():
    es = eigen_structure_from_lambda3(0.37, -2.3)
    assert abs(es.lambda1 + es.lambda2 - 3 * es.lambda3) < 1e-12
    # lambda4 relation: lambda3 * lambda4 = -c/4
    assert abs(es.lambda3 * es.lambda4 + es.c / 4) < 1e-12


def test_multiplicities():
    es = eigen_structure_from_lambda3(0.4, -4.0, n=3, k=2)
    assert es.multiplicities == (1, 1, 2, 1)
    es = eigen_structure_from_lambda3(0.0, -4.0, branch_hint="G3_K1", n=4, k=1)
    assert es.multiplicities == (1, 1, 5, 0)


def test_principal_decomposition_groups():
    germ = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7)
    decomp = principal_decomposition(germ)
    assert decomp.g == 4
    assert sorted(s.shape[0] for s in decomp.spaces) == [1, 1, 1, 2]
    total = sum(s.shape[0] for s in decomp.spaces)
    assert total == 5
    # exactly two eigenspaces carry the structure vector
    carrying = [c for c in decomp.jxi_components if c > 1e-6]
    assert len(carrying) == 2


def test_principal_decomposition_gap_warning():
    params = ModelParams(n=2, c=-4.0)
    basis = np.eye(4)
    shape = np.diag([0.5, 0.5 + 1.5e-7, 1.0])
    germ = HypersurfaceGerm(
        params=params,
        normal=basis[0],
        tangent_basis=basis[1:],
        shape=shape,
        jmat=standard_complex_structure(2),
    )
    with pytest.warns(RuntimeWarning):
        principal_decomposition(germ, tol=1e-7)


def test_hopf_frame_identities_on_catalog_germs():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        r = float(rng.uniform(0.1, 1.5))
        germ = catalog_germ(ModelParams(n=n, c=-4.0), k, r=r)
        decomp = principal_decomposition(germ)
        frame = hopf_frame_extract(germ, decomp)
        res = frame_identity_residuals(germ, frame, decomp)
        assert max(res.values()) < FRAME_TOLERANCE
        real = totally_real_check(germ, decomp)
        assert max(real.values()) < FRAME_TOLERANCE


def test_classify_catalog_roundtrip():
    params = ModelParams(n=3, c=-4.0)
    for k, r in ((1, 0.4), (2, 0.7), (2, 1.3), (1, 0.9)):
        germ = catalog_germ(params, k, r=r)
        res = classify(germ)
        assert res.reason is None
        assert res.k == k
        assert abs(res.r - r) < CLASSIFY_RADIUS_TOLERANCE
        assert res.h == 2
        assert res.model == ("tube" if k >= 2 else "equidistant")


def test_classify_special_radius_merges():
    params = ModelParams(n=4, c=-4.0)
    rstar = special_radius(-4.0)
    germ = catalog_germ(params, 3, r=rstar)
    res = classify(germ)
    assert res.g == 3 and res.branch == "G3_KBIG" and res.k == 3


def test_classify_orientation_flip_invariance():
    params = ModelParams(n=3, c=-4.0)
    germ = catalog_germ(params, 2, r=0.7)
    res = classify(germ)
    flipped = germ.flipped()
    res_f = classify(flipped)
    assert res_f.k == res.k and abs(res_f.r - res.r) < 1e-12
    assert res_f.branch == res.branch


def test_classify_basis_rotation_invariance():
    params = ModelParams(n=3, c=-4.0)
    germ = catalog_germ(params, 2, r=0.7)
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    rotated = HypersurfaceGerm(
        params=params,
        normal=germ.normal,
        tangent_basis=q.T @ germ.tangent_basis,
        shape=q.T @ germ.shape @ q,
        jmat=germ.jmat,
    )
    res = classify(rotated)
    assert res.k == 2 and abs(res.r - 0.7) < CLASSIFY_RADIUS_TOLERANCE


def test_classify_rejects_hopf_germ():
    res = classify(horosphere_germ(ModelParams(n=3, c=-4.0)))
    assert res.model == "unclassified"
    assert res.reason == "hopf"
    assert res.h == 1


def test_classify_rejects_wrong_multiplicity():
    params = ModelParams(n=3, c=-4.0)
    germ = catalog_germ(params, 2, r=0.7)
    # corrupt one eigenvalue of the third group
    shape = np.array(germ.shape)
    evals, evecs = np.linalg.eigh(shape)
    evals[2] += 0.3  # split the lambda_3 block
    bad = HypersurfaceGerm(
        params=params,
        normal=germ.normal,
        tangent_basis=germ.tangent_basis,
        shape=evecs @ np.diag(evals) @ evecs.T,
        jmat=germ.jmat,
    )
    res = classify(bad)
    assert res.model == "unclassified"


def test_classify_residuals_catch_drift():
    params = ModelParams(n=3, c=-4.0)
    germ = catalog_germ(params, 2, r=0.7)
    shape = np.array(germ.shape) * (1 + 5e-4)  # off the catalog curve
    bad = HypersurfaceGerm(
        params=params,
        normal=germ.normal,
        tangent_basis=germ.tangent_basis,
        shape=shape,
        jmat=germ.jmat,
    )
    res = classify(bad)
    assert res.model == "unclassified"
    assert res.reason == "residuals"


def test_germ_json_roundtrip():
    germ = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7)
    back = HypersurfaceGerm.from_json(germ.to_json())
    assert back.params == germ.params
    assert np.allclose(back.shape, germ.shape)
    assert np.allclose(back.tangent_basis, germ.tangent_basis)
    payload = json.loads(germ.to_json())
    del payload["shape"]
    with pytest.raises(ValueError):
        HypersurfaceGerm.from_json_dict(payload)


def test_classification_result_json():
    res = classify(catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7))
    payload = json.loads(res.to_json())
    assert payload["model"] == "tube"
    assert payload["g"] == 4 and payload["h"] == 2 and payload["k"] == 2
    assert "reason" not in payload
    res_u = classify(horosphere_germ(ModelParams(n=3, c=-4.0)))
    payload = json.loads(res_u.to_json())
    assert payload["reason"] == "hopf"


def test_scan_positive_curvature_is_empty():
    rep = nonexistence_scan(1.0, grid_shape=(40, 40, 40))
    assert rep.total_points == 40**3
    assert rep.feasible_count == 0
    assert rep.certificate
    assert rep.max_discriminant < 0


def test_scan_negative_curvature_finds_curve():
    rep = nonexistence_scan(-1.0, grid_shape=(60, 60, 60))
    assert rep.feasible_count > 0
    assert len(rep.curve_points) > 0
    assert rep.max_refined_residual < REFINED_TOLERANCE
    for lam3, lam1, lam2, b1sq, b2sq in rep.curve_points:
        assert lam1 < lam3 < lam2
        assert 0 < b1sq < 1 and 0 < b2sq < 1


def test_horosphere_germ_spectrum():
    for n in (2, 3):
        germ = horosphere_germ(ModelParams(n=n, c=-4.0))
        evals = np.sort(np.linalg.eigvalsh(germ.shape))
        expected = np.sort([2.0] + [1.0] * (2 * n - 2))
        assert np.allclose(evals, expected, atol=1e-12)


def test_catalog_germ_radius_and_lambda3_agree():
    params = ModelParams(n=3, c=-4.0)
    lam3 = math.tanh(0.7)
    g1 = catalog_germ(params, 2, r=0.7)
    g2 = catalog_germ(params, 2, lambda3=lam3)
    assert np.allclose(g1.shape, g2.shape, atol=1e-12)
    with pytest.raises(ValueError):
        catalog_germ(params, 2)
    with pytest.raises(ValueError):
        catalog_germ(params, 2, r=0.7, lambda3=lam3)
    assert abs(focal_radius(lam3, -4.0) - 0.7) < 1e-12


def _whole_grid_scan(c, grid_shape, quad_tol, sum_band=0.1):
    """Reference for nonexistence_scan: the whole grid at once, then one
    refinement per lambda_3 value that has a feasible cell."""
    scale = math.sqrt(abs(c))
    bound = 1.5 * scale
    n1, n2, n3 = grid_shape
    l1 = np.linspace(-bound, bound, n1)[:, None, None]
    l2 = np.linspace(-bound, bound, n2)[None, :, None]
    l3 = np.linspace(0.0, 0.75 * scale, n3)
    lam3 = l3[None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        b1sq, b2sq = spectral.hopf_projection_squares(l1, l2, lam3, c)
        quad = catalog_quadratic(l1, l2, lam3, c)
    feasible = (
        (l1 < l2 - 1e-12 * (1.0 + scale))
        & (b1sq > 0.0) & (b1sq < 1.0) & (b2sq > 0.0) & (b2sq < 1.0)
        & (np.abs(quad) <= quad_tol)
        & (np.abs(b1sq + b2sq - 1.0) <= sum_band)
    )
    count = int(np.count_nonzero(feasible))
    if c > 0:
        return count, None
    refined = []
    for m in np.unique(np.argwhere(feasible)[:, 2]):
        lam3_val = float(l3[m])
        if not 0.0 <= lam3_val < math.sqrt(-c) / 2.0:
            continue
        root = math.sqrt(-c - 3.0 * lam3_val * lam3_val)
        if not 0.5 * (3.0 * lam3_val - root) < lam3_val < 0.5 * (3.0 * lam3_val + root):
            continue
        es = eigen_structure_from_lambda3(lam3_val, c)
        refined.append((es.lambda3, es.lambda1, es.lambda2, es.b1sq, es.b2sq))
    return count, np.asarray(refined) if refined else np.empty((0, 5))


@pytest.mark.parametrize("c", [4.0, -1.0, -4.0, -3.4746401821558717])
@pytest.mark.parametrize(
    "grid", [(2, 2, 2), (7, 300, 11), (61, 40, 40), (60, 60, 60)]
)
def test_slab_scan_matches_whole_grid(c, grid):
    rep = nonexistence_scan(c, grid_shape=grid)
    count, curve = _whole_grid_scan(c, grid, rep.quad_tol)
    assert rep.feasible_count == count
    if c > 0:
        assert rep.curve_points is None
    else:
        assert np.array_equal(rep.curve_points, curve)


def test_slab_scan_memory_does_not_grow_with_lambda1_samples():
    def peak(grid):
        tracemalloc.start()
        try:
            nonexistence_scan(-1.0, grid_shape=grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak((40, 40, 40))
    assert peak((400, 40, 40)) <= 1.5 * small
