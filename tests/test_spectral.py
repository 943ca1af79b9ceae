"""Tests for the eigenvalue catalog, germ decomposition, the canonical
frame identities, the classifier, and the feasibility scan."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
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
    totally_real_check,
)
from chgeom import spectral
from chgeom.construction import build_submanifold
from chgeom.tubes import tube_germ

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
    assert es.blocks == (
        (es.lambda1, 1), (es.lambda2, 1), (es.lambda3, 2), (es.lambda4, 1)
    )
    es = eigen_structure_from_lambda3(0.0, -4.0, branch_hint="G3_K1", n=4, k=1)
    assert es.blocks == ((es.lambda1, 1), (es.lambda2, 1), (es.lambda3, 5))
    # merged branch: the k-1 block joins lambda_2
    es = eigen_structure_from_lambda3(1 / math.sqrt(3), -4.0, n=4, k=3)
    assert es.blocks == ((es.lambda1, 1), (es.lambda2, 3), (es.lambda3, 3))
    with pytest.raises(ValueError, match="n and k"):
        eigen_structure_from_lambda3(0.4, -4.0).blocks


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
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decomp = principal_decomposition(germ, tol=1e-7)
    assert decomp.gap_warning


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


@seed(413)
@settings(deadline=None, max_examples=200)
@given(
    nk=st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    c_exp=st.floats(-2.0, 4.0),
    r_exp=st.floats(-3.0, 1.0),
    flip=st.booleans(),
    rotation_seed=st.integers(0, 2**32 - 1),
)
def test_flipped_decomposition_matches_decomposition_of_flipped_germ(
    nk, c_exp, r_exp, flip, rotation_seed
):
    """Negating the one decomposition gives the decomposition of the
    flipped germ: same groups and Hopf spaces, eigenvalues and eigenspace
    projectors to round-off (the tangent basis is rotated, so the shape
    is not diagonal)."""
    (n, k), c, r = nk, -(10.0**c_exp), 10.0**r_exp
    assume(math.sqrt(-c) / 2 * r <= 5.0)
    germ = catalog_germ(ModelParams(n=n, c=c), k, r=r)
    rng = np.random.default_rng(rotation_seed)
    q, _ = np.linalg.qr(rng.normal(size=(2 * n - 1, 2 * n - 1)))
    germ = HypersurfaceGerm(
        params=germ.params,
        normal=germ.normal,
        tangent_basis=q.T @ germ.tangent_basis,
        shape=q.T @ germ.shape @ q,
    )
    if flip:
        germ = germ.flipped()
    negated = principal_decomposition(germ).flipped()
    direct = principal_decomposition(germ.flipped())
    assert negated.multiplicities == direct.multiplicities
    assert negated.hopf_indices == direct.hopf_indices
    lam = direct.eigenvalues
    assert np.all(np.abs(negated.eigenvalues - lam) <= 1e-12 * (1.0 + np.abs(lam)))
    for a, b in zip(negated.spaces, direct.spaces):
        assert np.max(np.abs(a.T @ a - b.T @ b)) <= 1e-10


def test_classify_decomposes_a_flipped_germ_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return principal_decomposition(*args, **kwargs)

    monkeypatch.setattr(spectral, "principal_decomposition", counted)
    for k in (1, 2):
        germ = catalog_germ(ModelParams(n=3, c=-4.0), k, r=0.7).flipped()
        calls.clear()
        res = classify(germ)
        assert res.k == k and abs(res.r - 0.7) < CLASSIFY_RADIUS_TOLERANCE
        assert len(calls) == 1


def test_hopf_frame_reads_the_decomposition_projections():
    """b_1, b_2 are the decomposition's projection norms, bit for bit,
    also on a germ whose shape is not diagonal."""
    spec = build_submanifold(ModelParams(n=4, c=-4.0), 3, math.pi / 2.0)
    germs = [tube_germ(spec, spec.normal_basis[0], 0.7)]
    germs += [catalog_germ(ModelParams(n=3, c=-4.0), k, r=0.4) for k in (1, 2)]
    for germ in germs + [g.flipped() for g in germs]:
        decomp = principal_decomposition(germ)
        frame = hopf_frame_extract(germ, decomp)
        i1, i2 = decomp.hopf_indices
        assert frame.b1 == decomp.jxi_components[i1]
        assert frame.b2 == decomp.jxi_components[i2]


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
    )
    res = classify(bad)
    assert res.model == "unclassified"
    assert res.reason == "residuals"


def test_germ_json_roundtrip():
    germ = catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7)
    back = HypersurfaceGerm.from_json_dict(json.loads(germ.to_json()))
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


def test_catalog_at_radius_matches_lambda3_route():
    """At moderate s*r both catalog entries agree: the radius route is
    the lambda_3 route at lambda_3 = s tanh(sr), with the same branch."""
    for c in (-1.0, -4.0, -9.0):
        s = math.sqrt(-c) / 2
        for n, k in ((2, 1), (3, 2), (4, 3)):
            for r in (1e-6, 0.1, 0.7, special_radius(c), 2.0, 4.0):
                got = spectral.catalog_at_radius(r, c, n, k)
                hint = "G3_K1" if k == 1 else None
                want = eigen_structure_from_lambda3(
                    s * math.tanh(s * r), c, branch_hint=hint, n=n, k=k
                )
                assert (got.branch, got.g) == (want.branch, want.g)
                for (v, m), (w, mw) in zip(got.blocks, want.blocks):
                    assert m == mw and abs(v - w) <= 1e-12 * (1 + abs(w))
                assert abs(got.b1sq - want.b1sq) <= 1e-12
                assert abs(focal_radius(got.lambda3, c) - r) <= 1e-9


def test_catalog_at_radius_at_strong_curvature():
    """At c = -100 every radius of (0, MAX_RADIUS] has a catalog entry,
    including those where tanh(sr) rounds to 1 (sr >= ~19)."""
    c = -100.0
    s = math.sqrt(-c) / 2
    for n in range(2, 6):
        for k in range(1, n):
            for r in np.geomspace(1e-9, 10.0, 73):
                es = spectral.catalog_at_radius(float(r), c, n, k)
                assert es.lambda1 <= es.lambda3 < es.lambda2
                assert 0.0 <= es.lambda3 <= s
                assert 0.0 < es.b1sq < 1.0 and 0.0 < es.b2sq <= 1.0
                assert sum(m for _, m in es.blocks) == 2 * n - 1


def test_catalog_at_radius_rejects_bad_radii():
    with pytest.raises(ValueError, match="radius"):
        spectral.catalog_at_radius(-0.1, -4.0, 3, 2)
    with pytest.raises(ValueError, match="radius"):
        spectral.catalog_at_radius(math.nan, -4.0, 3, 2)
    # b1^2 ~ 64 e^{-6sr} underflows past s*r ~ 118: the error names s*r
    es = spectral.catalog_at_radius(110.0, -4.0, 3, 2)
    assert es.b1sq >= np.finfo(float).tiny
    for r in (120.0, 400.0, math.inf):
        with pytest.raises(ValueError, match=f"s\\*r = {r!r}"):
            spectral.catalog_at_radius(r, -4.0, 3, 2)
    with pytest.raises(ValueError, match="G3_K1 requires k = 1"):
        spectral.catalog_at_radius(0.0, -4.0, 3, 2)  # focal for k = 2


def _whole_grid_scan(c, grid_shape, quad_tol, sum_band=0.1, bound=None):
    """Reference for nonexistence_scan: the whole grid at once, then one
    refinement per lambda_3 value that has a feasible cell."""
    scale = math.sqrt(abs(c))
    if bound is None:
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
        es = eigen_structure_from_lambda3(lam3_val, c)
        refined.append((es.lambda3, es.lambda1, es.lambda2, es.b1sq, es.b2sq))
    return count, np.asarray(refined) if refined else np.empty((0, 5))


@pytest.mark.parametrize(
    "c", [4.0, 1e4, -0.01, -1.0, -4.0, -3.4746401821558717, -100.0]
)
@pytest.mark.parametrize(
    # n1 == n2 puts grid points on the lambda_1 = lambda_2 diagonal
    "grid", [(2, 2, 2), (7, 300, 11), (61, 40, 40), (60, 60, 60), (33, 33, 17)]
)
def test_slab_scan_matches_whole_grid(c, grid):
    rep = nonexistence_scan(c, grid_shape=grid)
    count, curve = _whole_grid_scan(c, grid, rep.quad_tol)
    assert rep.feasible_count == count
    if c > 0:
        assert rep.curve_points is None
    else:
        assert np.array_equal(rep.curve_points, curve)


@pytest.mark.parametrize("c", [3.1, -3.1])
@pytest.mark.parametrize("bound_frac", [0.2, 4.0])
def test_scan_with_lambda_bound_matches_whole_grid(c, bound_frac):
    bound = bound_frac * math.sqrt(abs(c))
    grid = (41, 37, 23)
    rep = nonexistence_scan(c, grid_shape=grid, lambda_bound=bound)
    count, curve = _whole_grid_scan(c, grid, rep.quad_tol, bound=bound)
    assert rep.feasible_count == count
    if c < 0:
        assert np.array_equal(rep.curve_points, curve)


@pytest.mark.parametrize("c", [3.1, -3.1])
def test_scan_computes_b_squares_only_where_the_quadratic_holds(c, monkeypatch):
    seen = []
    original = spectral.hopf_projection_squares

    def counting(lam1, lam2, lam3, c):
        b1sq, b2sq = original(lam1, lam2, lam3, c)
        seen.append(b1sq.size)
        return b1sq, b2sq

    monkeypatch.setattr(spectral, "hopf_projection_squares", counting)
    grid = (165, 165, 165)
    rep = nonexistence_scan(c, grid_shape=grid)
    assert (rep.feasible_count > 0) == (c < 0)
    assert sum(seen) <= 0.15 * math.prod(grid)


@pytest.mark.parametrize("c", [3.1, -3.1, -100.0])
@pytest.mark.parametrize("sum_band", [1e-6, 10.0])
# the slope 8 lambda_3 - 4 lambda_1 of the quadratic in lambda_2 is zero
# on grid points in each grid: an odd n1 gives lambda_1 = 0 = 2 l3[0],
# and the corner gives lambda_1 = 1.5 sqrt|c| = 2 l3[-1]
@pytest.mark.parametrize("grid", [(61, 40, 40), (33, 33, 17), (60, 60, 60)])
def test_band_scan_matches_whole_grid_across_sum_bands(c, sum_band, grid):
    rep = nonexistence_scan(c, grid_shape=grid, sum_band=sum_band)
    count, curve = _whole_grid_scan(c, grid, rep.quad_tol, sum_band=sum_band)
    assert rep.feasible_count == count
    if c < 0:
        assert np.array_equal(rep.curve_points, curve)


@pytest.mark.parametrize("c", [3.1, -3.1, -100.0])
@pytest.mark.parametrize("grid", [(61, 40, 40), (33, 33, 17), (60, 60, 60)])
def test_band_scan_passes_every_quadratic_cell_to_the_b_squares(c, grid, monkeypatch):
    """The lambda_2 bands lose no cell: b^2 is computed on exactly the
    ordered cells of the whole grid with |quadratic| <= quad_tol."""
    seen = []
    original = spectral.hopf_projection_squares

    def recording(lam1, lam2, lam3, c):
        if np.ndim(lam2):  # the scan's cells, not the refinement's scalars
            seen.append(np.stack(np.broadcast_arrays(lam1, lam2, lam3), axis=-1))
        return original(lam1, lam2, lam3, c)

    monkeypatch.setattr(spectral, "hopf_projection_squares", recording)
    rep = nonexistence_scan(c, grid_shape=grid)
    scale = math.sqrt(abs(c))
    n1, n2, n3 = grid
    l1, l2, l3 = np.meshgrid(
        np.linspace(-1.5 * scale, 1.5 * scale, n1),
        np.linspace(-1.5 * scale, 1.5 * scale, n2),
        np.linspace(0.0, 0.75 * scale, n3),
        indexing="ij",
    )
    passing = (l1 < l2 - 1e-12 * (1.0 + scale)) & (
        np.abs(catalog_quadratic(l1, l2, l3, c)) <= rep.quad_tol
    )
    want = np.stack([l1[passing], l2[passing], l3[passing]], axis=-1)
    got = np.concatenate(seen)
    assert np.array_equal(got[np.lexsort(got.T)], want[np.lexsort(want.T)])


@pytest.mark.parametrize("c", [3.1, -3.1])
def test_scan_evaluates_the_quadratic_only_inside_its_band(c, monkeypatch):
    seen = []
    original = spectral.catalog_quadratic

    def counting(lam1, lam2, lam3, c):
        quad = original(lam1, lam2, lam3, c)
        seen.append(np.size(quad))
        return quad

    monkeypatch.setattr(spectral, "catalog_quadratic", counting)
    grid = (165, 165, 165)
    rep = nonexistence_scan(c, grid_shape=grid)
    assert (rep.feasible_count > 0) == (c < 0)
    assert sum(seen) <= 0.10 * math.prod(grid)


@pytest.mark.parametrize("bound", [0.0, -1.0, math.nan, math.inf])
def test_scan_rejects_bad_lambda_bound(bound):
    with pytest.raises(ValueError, match="lambda_bound"):
        nonexistence_scan(-4.0, grid_shape=(5, 5, 5), lambda_bound=bound)


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@seed(20261018)
@given(
    b=st.lists(_finite, min_size=1, max_size=12),
    atol=st.floats(0.0, 1.0, allow_nan=False),
    data=st.data(),
)
def test_allclose_helper_matches_numpy(b, atol, data):
    b = np.asarray(b)
    bound = atol + 1e-5 * np.abs(b)
    # offsets on, just inside and just outside atol + rtol |b|, or random
    kinds = data.draw(st.lists(
        st.sampled_from(["at", "in", "out", "neg", "free"]),
        min_size=b.size, max_size=b.size,
    ))
    free = np.asarray(data.draw(st.lists(_finite, min_size=b.size, max_size=b.size)))
    delta = np.select(
        [np.asarray(kinds) == k for k in ("at", "in", "out", "neg")],
        [bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf), -bound],
        free,
    )
    for a in (b + delta, b - delta):
        assert spectral._allclose(a, b, atol) == np.allclose(a, b, atol=atol)


@settings(max_examples=200, deadline=None)
@seed(20261019)
@given(
    d=st.integers(2, 12),
    atol=st.floats(0.0, 1e-3, allow_nan=False),
    data=st.data(),
)
def test_orthonormal_helper_matches_allclose_to_identity(d, atol, data):
    """``_orthonormal`` gives the verdict of ``_allclose(G, I, atol)`` on
    the Gram matrix G, with Gram entries placed on, just inside and just
    outside each bound."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    frame, _ = np.linalg.qr(rng.standard_normal((d, d)))
    for _ in range(4):
        row, col = rng.integers(0, d, size=2)
        bound = atol + (1e-5 if row == col else 0.0)
        kind = data.draw(st.sampled_from(["at", "in", "out", "far"]))
        target = {
            "at": bound,
            "in": np.nextafter(bound, 0.0),
            "out": np.nextafter(bound, 1.0),
            "far": 10.0 * bound + 1e-9,
        }[kind]
        # scale one row so that one Gram deviation lands on the target
        trial = frame.copy()
        if row == col:
            trial[row] *= math.sqrt(1.0 + target)
        else:
            trial[row] = trial[row] + target * trial[col]
        gram = trial @ trial.T
        want = spectral._allclose(gram, np.eye(d), atol)
        assert spectral._orthonormal(trial, atol) == want


@st.composite
def _catalog_cases(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    c = -(10.0 ** draw(st.floats(-1.0, 2.0)))
    s = math.sqrt(-c) / 2.0
    # below s*r ~ 1e-3 a rotated germ fails lambda4_catalog: its shape
    # has norm ~ 1/r, and lambda_4 = -c/(4 lambda_3) magnifies eigh's
    # absolute error in lambda_3 past the tolerance
    r = draw(st.floats(1e-2, 5.0)) / s
    return n, k, c, r, draw(st.booleans())


@seed(20261020)
@settings(deadline=None, max_examples=150)
@given(case=_catalog_cases(), data=st.data())
@example(case=(4, 2, -4.0, special_radius(-4.0), False), data=None)
@example(case=(5, 3, -1.0, special_radius(-1.0), True), data=None)
def test_classify_does_not_depend_on_the_tangent_frame(case, data):
    """Replacing the tangent basis T by Q T and the shape S by Q S Q^T,
    for a random orthogonal Q, describes the same hypersurface: classify
    gives the same labels, r to 1e-9 and frame residuals below 1e-9.
    Degenerate eigenspaces make the eigenvectors that eigh returns
    arbitrary, so this checks that the Hopf frame and its identities
    depend only on the eigenspaces."""
    n, k, c, r, flip = case
    germ = catalog_germ(ModelParams(n=n, c=c), k, r=r)
    germ = germ.flipped() if flip else germ
    seed_ = data.draw(st.integers(0, 2**31)) if data is not None else 7
    q, _ = np.linalg.qr(np.random.default_rng(seed_).standard_normal((2 * n - 1,) * 2))
    rotated = HypersurfaceGerm(
        params=germ.params,
        normal=germ.normal,
        tangent_basis=q @ germ.tangent_basis,
        shape=q @ germ.shape @ q.T,
    ).validate()
    want, got = classify(germ), classify(rotated)
    labels = ("model", "g", "h", "k", "branch", "reason")
    assert [getattr(got, a) for a in labels] == [getattr(want, a) for a in labels]
    if want.r is not None:
        assert abs(got.r - want.r) <= 1e-9
    frame_keys = (
        "jxi_decomposition", "ju1_orthogonality", "ju2_identity",
        "ja_identity", "b_sum", "a_in_lambda3_space", "totally_real",
    )
    for key in frame_keys:
        if key in got.residuals:
            assert got.residuals[key] < 1e-9, key


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


@seed(411)
@settings(deadline=None, max_examples=300)
@given(
    nk=st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    c_exp=st.floats(-2.0, 4.0),
    r_exp=st.floats(-9.0, 1.0, exclude_min=True),
    flip=st.booleans(),
)
# a flipped k = 1 germ whose lambda_3 ~ -s^2 r lies inside the grouping
# tolerance: it must not come back at r = 0
@example(nk=(3, 1), c_exp=0.0, r_exp=math.log10(2.3115314835221083e-06), flip=True)
def test_classify_never_mislabels_a_catalog_germ(nk, c_exp, r_exp, flip):
    """A catalog germ over c in [-1e4, -1e-2], r in (1e-9, 10] and either
    co-orientation classifies back to its (model, k) with |dr| < 1e-6, or
    comes out unclassified: never a confident wrong label."""
    (n, k), c, r = nk, -(10.0**c_exp), 10.0**r_exp
    assume(math.sqrt(-c) / 2 * r < 118.0)  # past that b1^2 underflows
    germ = catalog_germ(ModelParams(n=n, c=c), k, r=r)
    res = classify(germ.flipped() if flip else germ)
    if res.model != "unclassified":
        assert res.model == ("tube" if k >= 2 else "equidistant")
        assert res.k == k and abs(res.r - r) < 1e-6


@seed(412)
@settings(deadline=None, max_examples=300)
@given(
    n=st.integers(2, 8),
    k=st.integers(1, 7),
    c=st.floats(-2.0, 4.0).map(lambda e: -(10.0**e)),
    r=st.floats(-9.0, 2.0).map(lambda e: 10.0**e),
    flip=st.booleans(),
)
# lambda_4 ~ 1/r made the spectrum-wide grouping tolerance O(1) here
@example(n=4, c=-1.0, k=2, r=1.2697887689688497e-08, flip=False)
def test_classify_decides_small_radius_germs(n, k, c, r, flip):
    """Below s*r = 5 every catalog germ, down to r = 1e-9 and in either
    co-orientation, classifies back to its (model, k) with |dr| < 1e-6:
    each spectral gap is judged against the eigenvalues it separates."""
    assume(k < n and math.sqrt(-c) / 2 * r <= 5.0)
    germ = catalog_germ(ModelParams(n=n, c=c), k, r=r)
    res = classify(germ.flipped() if flip else germ)
    assert res.model == ("tube" if k >= 2 else "equidistant"), res.reason
    assert res.k == k and abs(res.r - r) < 1e-6


def test_classify_roundtrip_beyond_n4():
    """Every k of n = 5..8 at three curvatures and six radii (r* among
    them), in both co-orientations: 792 germs."""
    count = 0
    for c in (-1.0, -4.0, -9.0):
        for n in range(5, 9):
            for k in range(1, n):
                for r in (0.05, 0.3, 0.7, special_radius(c), 1.5, 2.5):
                    germ = catalog_germ(ModelParams(n=n, c=c), k, r=r)
                    for g in (germ, germ.flipped()):
                        res = classify(g)
                        assert res.reason is None, (n, k, c, r, res.reason)
                        assert res.model == ("tube" if k >= 2 else "equidistant")
                        assert res.k == k
                        assert abs(res.r - r) < CLASSIFY_RADIUS_TOLERANCE
                        count += 1
    assert count == 792


@pytest.mark.parametrize("keep", [2, 3], ids=["A-in-lambda3", "A-in-lambda4"])
@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 4)])
def test_classify_rejects_layout_with_k_at_least_n(n, k, keep):
    """lambda_3 of multiplicity 1 reads as k = 2n - 3 >= n, which no
    tube W^{2n-k} has (k <= n - 1): the layout is not in the catalog,
    whichever tangent row keeps lambda_3."""
    germ = catalog_germ(ModelParams(n=n, c=-4.0), k, r=0.7)
    values = np.diag(germ.shape).copy()
    lam3, lam4 = values[2], values[-1]
    values[2:] = lam4
    values[keep] = lam3
    bad = HypersurfaceGerm(
        params=germ.params,
        normal=germ.normal,
        tangent_basis=germ.tangent_basis,
        shape=np.diag(values),
    )
    res = classify(bad)
    assert (res.model, res.g, res.reason) == ("unclassified", 4, "multiplicities")


def test_catalog_branch_hint_accepts_only_g3_k1():
    for hint in ("G4", "G3_KBIG", "g4"):
        with pytest.raises(ValueError, match="unknown branch hint"):
            eigen_structure_from_lambda3(0.4, -4.0, branch_hint=hint)


def _at_positive_curvature(germ, c):
    """The same frame and shape, read in CP^n(c)."""
    return HypersurfaceGerm(
        params=ModelParams(n=germ.params.n, c=c),
        normal=germ.normal,
        tangent_basis=germ.tangent_basis,
        shape=germ.shape,
    ).validate()


def test_classify_positive_curvature():
    """c > 0: an h = 2 germ is unclassified with the NoRealSolution
    message (no such hypersurface in CP^n); a Hopf germ stays "hopf"."""
    germ = _at_positive_curvature(catalog_germ(ModelParams(n=3, c=-4.0), 2, r=0.7), 4.0)
    res = classify(germ)
    assert (res.model, res.g, res.h, res.k, res.r) == ("unclassified", 4, 2, None, None)
    assert res.reason.endswith("the catalog quadratic has no real roots for c > 0")
    hopf = _at_positive_curvature(horosphere_germ(ModelParams(n=3, c=-4.0)), 4.0)
    assert classify(hopf).reason == "hopf"
