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

from chgeom import spectral
from chgeom.construction import build_submanifold
from chgeom.jacobi import OutOfRangeEigenvalue, focal_radius, special_radius
from chgeom.model import ModelParams
from chgeom.oracles import constraint_residuals, horosphere_germ
from chgeom.spectral import (
    HypersurfaceGerm,
    NoRealSolution,
    catalog_germ,
    catalog_quadratic,
    classify,
    eigen_structure_from_lambda3,
    frame_identity_residuals,
    hopf_frame,
    nonexistence_scan,
    principal_decomposition,
    totally_real_check,
)
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


def test_principal_decomposition_groups_a_gap_at_its_threshold():
    """A gap just under its threshold tol * (1 + 0.50000015) joins the
    two values, with no Python warning."""
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
    assert decomp.multiplicities == (2, 1)


@seed(41)
@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(2, 8),
    distinct=st.integers(1, 4),
    frame_seed=st.integers(0, 2**32 - 1),
)
def test_every_orthonormal_germ_has_a_projected_eigenspace(n, distinct, frame_seed):
    """J xi is a unit tangent vector, so on a germ with an orthonormal
    frame its projections onto the eigenspaces satisfy sum b_i^2 = 1, and
    some b_i >= 1/sqrt(2n - 1) > PROJECTION_TOLERANCE: h >= 1 for every
    symmetric shape, repeated eigenvalues included."""
    rng = np.random.default_rng(frame_seed)
    d = 2 * n
    frame = np.linalg.qr(rng.standard_normal((d, d)))[0].T
    rotation = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))[0]
    # d - 1 eigenvalues drawn from `distinct` values: most of them repeat
    evals = rng.choice(rng.standard_normal(distinct), size=d - 1)
    shape = (rotation * evals) @ rotation.T
    germ = HypersurfaceGerm(
        params=ModelParams(n=n, c=-4.0),
        normal=frame[0],
        tangent_basis=frame[1:],
        shape=0.5 * (shape + shape.T),
    ).validate()
    decomp = principal_decomposition(germ)
    b = decomp.jxi_components
    assert len(decomp.hopf_indices) >= 1
    assert abs(float(b @ b) - 1.0) < 1e-12
    assert b.max() >= 1.0 / math.sqrt(d - 1) - 1e-12 > spectral.PROJECTION_TOLERANCE


def test_hopf_frame_identities_on_catalog_germs():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        r = float(rng.uniform(0.1, 1.5))
        germ = catalog_germ(ModelParams(n=n, c=-4.0), k, r=r)
        decomp = principal_decomposition(germ)
        res = frame_identity_residuals(decomp)
        assert max(res.values()) < FRAME_TOLERANCE
        assert totally_real_check(decomp) < FRAME_TOLERANCE


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


def test_flipped_decomposition_gives_the_flipped_germs_frame_bit_for_bit():
    """Negating the decomposition (xi with it) gives the Hopf frame rows,
    the frame identities and the totally-real check of the flipped germ's
    own decomposition, bit for bit, also on a germ whose shape is not
    diagonal; so ``classify`` flips the decomposition only."""
    spec = build_submanifold(ModelParams(n=4, c=-4.0), 3, math.pi / 2.0)
    germs = [tube_germ(spec, spec.normal_basis[0], 0.7)]
    germs += [catalog_germ(ModelParams(n=3, c=-4.0), k, r=0.4) for k in (1, 2)]
    for germ in germs + [g.flipped() for g in germs]:
        negated = principal_decomposition(germ).flipped()
        direct = principal_decomposition(germ.flipped())
        assert np.array_equal(hopf_frame(negated), hopf_frame(direct))
        assert frame_identity_residuals(negated) == frame_identity_residuals(direct)
        assert totally_real_check(negated) == totally_real_check(direct)


def _public_record_classification(germ, tol=spectral.CLASSIFY_TOLERANCE):
    """(model, k, r, residuals) of a germ with h = 2, built from the public
    record calls: ``principal_decomposition``, ``.flipped()`` when
    lambda_3 < 0, ``frame_identity_residuals``, the catalog residuals and
    ``totally_real_check``, in the order ``classify`` reports them."""
    n, c = germ.params.n, germ.params.c
    decomp = principal_decomposition(germ)
    assert decomp.h == 2
    if decomp.eigenvalues[decomp.non_hopf_indices[0]] < 0.0:
        decomp = decomp.flipped()
    order = decomp.hopf_indices + decomp.non_hopf_indices
    lam = [float(decomp.eigenvalues[i]) for i in order]
    k = 2 * n - 2 - decomp.multiplicities[order[2]]
    special = decomp.g == 3 and k >= 2
    s = spectral.rate(c)
    lam3 = s / math.sqrt(3.0) if special else min(max(lam[2], 0.0), s * (1.0 - 1e-15))
    es = eigen_structure_from_lambda3(
        lam3, c, branch_hint="G3_K1" if k == 1 else None, n=n, k=k
    )
    r = special_radius(c) if special else focal_radius(lam3, c)
    b1, b2 = (float(decomp.jxi_components[i]) for i in decomp.hopf_indices)
    residuals = frame_identity_residuals(decomp)
    residuals["lambda1_catalog"] = abs(lam[0] - es.lambda1)
    residuals["lambda2_catalog"] = abs(lam[1] - es.lambda2)
    residuals["lambda3_catalog"] = abs(lam[2] - es.lambda3)
    residuals["b1_catalog"] = abs(b1**2 - es.b1sq)
    residuals["b2_catalog"] = abs(b2**2 - es.b2sq)
    residuals["quadratic"] = abs(catalog_quadratic(lam[0], lam[1], lam[2], c))
    if es.g == 4:
        residuals["lambda4_catalog"] = abs(lam[3] - es.lambda4)
    residuals["totally_real"] = totally_real_check(decomp)
    ok = all(v <= tol for v in residuals.values())
    return ("tube" if k >= 2 else "equidistant") if ok else "unclassified", k, r, residuals


@seed(35)
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(["catalog", "tube"]),
    nk=st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    c_exp=st.floats(-1.0, 2.0),
    sr=st.floats(0.01, 4.0),
    flip=st.booleans(),
    frame_seed=st.integers(0, 2**32 - 1),
)
@example(kind="catalog", nk=(3, 2), c_exp=math.log10(4.0), sr=math.log(2.0 + math.sqrt(3.0)) / 2.0,
         flip=True, frame_seed=1)
def test_classify_equals_the_public_record_path_bit_for_bit(kind, nk, c_exp, sr, flip, frame_seed):
    """``classify`` reads the decomposition record without rebuilding it:
    its label, k, r and every residual bit equal those of the public
    calls, and it places the germ at its catalog model, k and r.  Catalog
    germs come in a rotated tangent frame; tube germs at a random unit
    normal; both co-orientations.  s*r stays in [0.01, 4], where every
    such germ is placed: the rotated-frame miss at s*r = 5e-5 is pinned
    by ``test_classify_small_radius_germ_in_a_rotated_frame``, and past
    s*r ~ 5.3 a germ reads "hopf"."""
    (n, k), c = nk, -(10.0**c_exp)
    params, r = ModelParams(n=n, c=c), sr / spectral.rate(c)
    rng = np.random.default_rng(frame_seed)
    if kind == "catalog":
        germ = catalog_germ(params, k, r=r)
        q, _ = np.linalg.qr(rng.normal(size=(2 * n - 1, 2 * n - 1)))
        germ = HypersurfaceGerm(
            params=params,
            normal=germ.normal,
            tangent_basis=q.T @ germ.tangent_basis,
            shape=q.T @ germ.shape @ q,
        )
    else:
        spec = build_submanifold(params, k, math.pi / 2.0)
        eta = rng.normal(size=k) @ spec.normal_basis
        germ = tube_germ(spec, eta / np.linalg.norm(eta), r)
    if flip:
        germ = germ.flipped()
    res = classify(germ)
    model, want_k, want_r, residuals = _public_record_classification(germ)
    assert res.model == model == ("tube" if k >= 2 else "equidistant")
    assert res.k == want_k == k
    assert res.r.hex() == want_r.hex()
    assert abs(res.r - r) <= CLASSIFY_RADIUS_TOLERANCE * (1.0 + r)
    assert [(key, v.hex()) for key, v in res.residuals.items()] == [
        (key, v.hex()) for key, v in residuals.items()
    ]


def test_ndarray_dot_rounds_as_matmul_on_the_classify_shapes():
    """``spectral`` multiplies its small arrays with ``ndarray.dot``: on
    every operand layout it uses (a transposed eigenvector matrix, matrix
    by vector, vector by matrix, vector by vector, a frame by its own
    transpose) the bits equal those of ``@``, so the outputs do not
    depend on the spelling."""
    rng = np.random.default_rng(35)
    for n in range(2, 9):
        d = 2 * n
        for _ in range(40):
            t = rng.standard_normal((d - 1, d)) * 10.0 ** rng.uniform(-5, 5)
            evecs = rng.standard_normal((d - 1, d - 1))
            v, rows = rng.standard_normal(d), rng.standard_normal((4, d))
            frame = np.concatenate((v[None], t))
            for a, b in ((evecs.T, t), (t, v), (v[: d - 1], t), (rows[1], rows[2]),
                         (rng.standard_normal((4, 4)), rows), (frame, frame.T)):
                assert a.dot(b).tobytes() == (a @ b).tobytes()


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_classification_result_json_writes_non_finite_residuals_as_null(bad):
    """A residual that overflowed is null in strict JSON; the finite
    residuals and the other fields are written as they are."""
    res = spectral.ClassificationResult(
        model="tube", g=4, h=2, k=2, r=0.7, branch="G4",
        residuals={"quadratic": bad, "trace": 1e-15},
    )
    payload = json.loads(res.to_json(), parse_constant=_reject_constant)
    assert payload["residuals"] == {"quadratic": None, "trace": 1e-15}
    assert {k: v for k, v in payload.items() if k != "residuals"} == {
        "model": "tube", "g": 4, "h": 2, "k": 2, "r": 0.7, "branch": "G4",
    }
    assert res.residuals["quadratic"] is bad  # the result itself is left as it is


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_scan_positive_curvature_is_empty():
    rep = nonexistence_scan(1.0, grid_shape=(40, 40, 40))
    assert rep.total_points == 40**3
    assert rep.feasible_count == 0
    assert rep.curve_points is None and rep.max_refined_residual is None
    # the certificate names the negative discriminant of the quadratic
    assert "-c - 3*lambda3^2 <= -1.0 < 0" in rep.certificate


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


def _whole_grid_scan(c, grid_shape, rep):
    """Reference for nonexistence_scan: the feasible cells of the whole
    grid at once, with the report's two slacks, as (lambda_1, lambda_2,
    lambda_3) rows."""
    scale = math.sqrt(abs(c))
    bound = 1.5 * scale
    n1, n2, n3 = grid_shape
    l1 = np.linspace(-bound, bound, n1)[:, None, None]
    l2 = np.linspace(-bound, bound, n2)[None, :, None]
    l3 = np.linspace(0.0, 0.75 * scale, n3)[None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        b1sq, b2sq = spectral.hopf_projection_squares(l1, l2, l3, c)
        quad = catalog_quadratic(l1, l2, l3, c)
    feasible = (
        (l1 < l2 - 1e-12 * scale)
        & (b1sq > 0.0) & (b1sq < 1.0) & (b2sq > 0.0) & (b2sq < 1.0)
        & (np.abs(quad) <= rep.quad_tol)
        & (np.abs(l1 + l2 - 3.0 * l3) <= rep.trace_tol)
    )
    return np.stack(
        [np.broadcast_to(a, feasible.shape)[feasible] for a in (l1, l2, l3)], axis=-1
    )


CURVE_TOLERANCE = 1e-13  # relative to s = sqrt(-c)/2


def _assert_curve(rep, c, cells):
    """The curve has a point only at lambda_3 samples below s with a
    feasible cell, and one at every sample <= s - 3 spacing; each point is
    the catalog's closed form to 1e-13 s (b^2 to 1e-13), and Newton from
    every feasible cell below s converges there too."""
    s = math.sqrt(-c) / 2.0
    curve = rep.curve_points
    assert np.all(np.diff(curve[:, 0]) > 0.0)
    below = cells[cells[:, 2] < s]
    assert set(curve[:, 0]) <= set(below[:, 2])
    l3 = np.linspace(0.0, 0.75 * math.sqrt(-c), rep.grid_shape[2])
    spacing = rep.trace_tol / 5.0
    assert set(l3[l3 <= s - 3.0 * spacing]) <= set(curve[:, 0])
    want = {}
    for lam3 in set(below[:, 2]):
        try:
            es = eigen_structure_from_lambda3(lam3, c)
        except AssertionError:  # lambda_1 rounds to lambda_3 at the catalog's end
            continue
        want[lam3] = (es.lambda1, es.lambda2, es.b1sq, es.b2sq)
    for lam3, *row in curve:
        lam1, lam2, b1sq, b2sq = want[lam3]
        assert lam1 < lam3 < lam2
        assert abs(row[0] - lam1) <= CURVE_TOLERANCE * s
        assert abs(row[1] - lam2) <= CURVE_TOLERANCE * s
        assert abs(row[2] - b1sq) <= CURVE_TOLERANCE
        assert abs(row[3] - b2sq) <= CURVE_TOLERANCE
    lam1, lam2 = spectral._newton_curve(below[:, 0], below[:, 1], below[:, 2], c)
    for got1, got2, lam3 in zip(lam1, lam2, below[:, 2]):
        if lam3 in want:
            assert abs(got1 - want[lam3][0]) <= CURVE_TOLERANCE * s
            assert abs(got2 - want[lam3][1]) <= CURVE_TOLERANCE * s


def _closed_form_curve(lam3, c):
    """The catalog's (lambda_1, lambda_2) at each lambda_3, as arrays."""
    rows = [eigen_structure_from_lambda3(x, c) for x in lam3]
    return np.array([e.lambda1 for e in rows]), np.array([e.lambda2 for e in rows])


def _assert_newton_reaches_closed_form(start1, start2, lam3, c):
    s = math.sqrt(-c) / 2.0
    want1, want2 = _closed_form_curve(lam3, c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got1, got2 = spectral._newton_curve(start1, start2, lam3, c)
    assert np.all(np.abs(got1 - want1) <= CURVE_TOLERANCE * s)
    assert np.all(np.abs(got2 - want2) <= CURVE_TOLERANCE * s)
    assert np.all(np.abs(catalog_quadratic(got1, got2, lam3, c)) <= SCAN_RESIDUAL_TOLERANCE * -c)
    assert np.all(np.abs(got1 + got2 - 3.0 * lam3) <= SCAN_RESIDUAL_TOLERANCE * s)


@pytest.mark.parametrize(
    "c",
    [
        -spectral._SCAN_MIN_ABS_C, -1e-100, -1e-3, -4.0, -1e3, -1e100,
        -spectral._SCAN_MAX_ABS_C,
    ],
)
def test_newton_curve_is_scale_free(c):
    """From starts 2% of s off the closed form, in both directions, the
    Newton solve lands on the catalog curve to 1e-13 s at every scale of
    the scan's range of c, with no numpy warning."""
    s = math.sqrt(-c) / 2.0
    lam3 = np.linspace(0.0, 0.9, 10) * s
    want1, want2 = _closed_form_curve(lam3, c)
    for sign in (1.0, -1.0):
        _assert_newton_reaches_closed_form(
            want1 + sign * 0.02 * s, want2 - sign * 0.02 * s, lam3, c
        )


@pytest.mark.parametrize("c", [-1.0, -3.1, -4.0, -100.0])
def test_newton_curve_sorts_a_swapped_root(c):
    """On 300 x 7 x 11 some feasible cells converge to the swapped root
    (lambda_2, lambda_1); so does every start with its pair reversed.
    Both come back sorted, on the closed form."""
    grid = (300, 7, 11)
    rep = nonexistence_scan(c, grid_shape=grid)
    cells = _whole_grid_scan(c, grid, rep)
    cells = cells[cells[:, 2] < math.sqrt(-c) / 2.0]
    assert len(cells) > 0
    _assert_newton_reaches_closed_form(cells[:, 0], cells[:, 1], cells[:, 2], c)
    _assert_newton_reaches_closed_form(cells[:, 1], cells[:, 0], cells[:, 2], c)


@pytest.mark.parametrize("c", [-1.0, -4.0, -100.0])
@pytest.mark.parametrize("grid", [(60, 60, 60), (33, 33, 17)])
def test_newton_curve_converges_from_the_trace_vertex(c, grid):
    """On these grids a feasible cell lies on lambda_1 = 1.5 lambda_3,
    the vertex of the quadratic along l1 + l2 = 3 l3, where a 1-D Newton
    step in lambda_1 divides by zero; the 2-D solve's Jacobian
    determinant 4 (l1 - l2) is nonzero there and it converges."""
    rep = nonexistence_scan(c, grid_shape=grid)
    cells = _whole_grid_scan(c, grid, rep)
    vertex = cells[(cells[:, 0] == 1.5 * cells[:, 2]) & (cells[:, 2] < math.sqrt(-c) / 2.0)]
    assert len(vertex) > 0
    assert np.all(vertex[:, 0] < vertex[:, 1])
    _assert_newton_reaches_closed_form(vertex[:, 0], vertex[:, 1], vertex[:, 2], c)


def _assert_scan_matches_whole_grid(c, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = nonexistence_scan(c, grid_shape=grid)
    cells = _whole_grid_scan(c, grid, rep)
    assert rep.feasible_count == len(cells)
    if c > 0:
        assert rep.curve_points is None
    else:
        _assert_curve(rep, c, cells)


@pytest.mark.parametrize(
    "c", [4.0, 1e4, -0.01, -1.0, -4.0, -3.4746401821558717, -100.0]
)
@pytest.mark.parametrize(
    # n1 == n2 puts grid points on the lambda_1 = lambda_2 diagonal
    "grid", [(2, 2, 2), (7, 300, 11), (61, 40, 40), (60, 60, 60), (33, 33, 17)]
)
def test_slab_scan_matches_whole_grid(c, grid):
    _assert_scan_matches_whole_grid(c, grid)


def test_scan_rejects_a_point_of_the_quadratic_off_the_trace(monkeypatch):
    """(0.2, 1.9375, 0.5) at c = -4 is a grid point of 61 x 97 x 61 that
    solves the quadratic (and so b1^2 + b2^2 = 1) with both b^2 in (0, 1),
    but l1 + l2 - 3 l3 = 0.6375 > trace_tol: no b^2 is computed there."""
    c, grid = -4.0, (61, 97, 61)
    l1 = np.linspace(-3.0, 3.0, grid[0])[32]
    l2 = np.linspace(-3.0, 3.0, grid[1])[79]
    l3 = np.linspace(0.0, 1.5, grid[2])[20]
    assert np.allclose([l1, l2, l3], [0.2, 1.9375, 0.5], rtol=0.0, atol=1e-15)
    b1sq, b2sq = spectral.hopf_projection_squares(l1, l2, l3, c)
    assert 0.0 < b1sq < 1.0 and 0.0 < b2sq < 1.0
    assert abs(catalog_quadratic(l1, l2, l3, c)) <= 1e-14
    assert abs(b1sq + b2sq - 1.0) <= 1e-14
    seen = []
    original = spectral.hopf_projection_square

    def recording(lam_i, lam_j, lam3, c):
        seen.append(np.stack(np.broadcast_arrays(lam_i, lam_j, lam3), axis=-1))
        return original(lam_i, lam_j, lam3, c)

    monkeypatch.setattr(spectral, "hopf_projection_square", recording)
    rep = nonexistence_scan(c, grid_shape=grid)
    assert abs(l1 + l2 - 3.0 * l3 - 0.6375) <= 1e-14
    assert rep.trace_tol < 0.6375 and rep.feasible_count > 0
    cells = np.concatenate(seen)
    for cell in ([l1, l2, l3], [l2, l1, l3]):
        assert not np.any(np.all(cells == cell, axis=-1))


@pytest.mark.parametrize("c", [3.1, -3.1])
def test_scan_computes_b_squares_only_where_the_quadratic_holds(c, monkeypatch):
    seen = {"b1": [], "b2": []}
    original = spectral.hopf_projection_square

    def counting(lam_i, lam_j, lam3, c):
        bsq = original(lam_i, lam_j, lam3, c)
        # b_2^2 is f(lambda_2, lambda_1), and every cell has lambda_1 < lambda_2
        seen["b1" if np.all(lam_i < lam_j) else "b2"].append(bsq.size)
        return bsq

    monkeypatch.setattr(spectral, "hopf_projection_square", counting)
    grid = (165, 165, 165)
    rep = nonexistence_scan(c, grid_shape=grid)
    assert (rep.feasible_count > 0) == (c < 0)
    total = sum(seen["b1"]) + sum(seen["b2"])
    # at c > 0 no cell of this grid passes both equations
    assert (total > 0) == (c < 0)
    assert total <= 0.15 * math.prod(grid)


@pytest.mark.parametrize("c", [3.1, -3.1, -100.0])
# the slope 8 lambda_3 - 4 lambda_1 of the quadratic in lambda_2 is zero
# on grid points in each grid: an odd n1 gives lambda_1 = 0 = 2 l3[0],
# and the corner gives lambda_1 = 1.5 sqrt|c| = 2 l3[-1]
@pytest.mark.parametrize("grid", [(61, 40, 40), (33, 33, 17), (60, 60, 60)])
def test_band_scan_passes_every_quadratic_cell_to_the_b_squares(c, grid, monkeypatch):
    """The lambda_2 bands lose no cell that can be feasible: b_2^2 is
    computed on exactly the ordered cells of the whole grid with
    |quadratic| <= quad_tol and |l1 + l2 - 3 l3| <= trace_tol, and b_1^2
    on exactly those where b_2^2 lies in (0, 1).  The calls that follow
    the Newton solve are on the curve points, not on grid cells."""
    _assert_scan_matches_whole_grid(c, grid)
    seen = {"b1": [], "b2": []}
    refining = []
    original = spectral.hopf_projection_square
    newton = spectral._newton_curve

    def recording(lam_i, lam_j, lam3, c):
        if not refining:
            # b_1^2 is f(lambda_1, lambda_2), b_2^2 is f(lambda_2, lambda_1),
            # and every scanned cell has lambda_1 < lambda_2
            first = bool(np.all(lam_i < lam_j))
            cells = (lam_i, lam_j) if first else (lam_j, lam_i)
            seen["b1" if first else "b2"].append(np.stack([*cells, lam3], axis=-1))
        return original(lam_i, lam_j, lam3, c)

    def recording_newton(*args):
        refining.append(True)
        return newton(*args)

    monkeypatch.setattr(spectral, "hopf_projection_square", recording)
    monkeypatch.setattr(spectral, "_newton_curve", recording_newton)
    rep = nonexistence_scan(c, grid_shape=grid)
    assert bool(refining) == (c < 0)
    scale = math.sqrt(abs(c))
    n1, n2, n3 = grid
    l1, l2, l3 = np.meshgrid(
        np.linspace(-1.5 * scale, 1.5 * scale, n1),
        np.linspace(-1.5 * scale, 1.5 * scale, n2),
        np.linspace(0.0, 0.75 * scale, n3),
        indexing="ij",
    )
    passing = (
        (l1 < l2 - 1e-12 * scale)
        & (np.abs(catalog_quadratic(l1, l2, l3, c)) <= rep.quad_tol)
        & (np.abs(l1 + l2 - 3.0 * l3) <= rep.trace_tol)
    )
    cells = np.stack([l1[passing], l2[passing], l3[passing]], axis=-1)
    b2sq = original(l2[passing], l1[passing], l3[passing], c)
    want = {"b2": cells, "b1": cells[(b2sq > 0.0) & (b2sq < 1.0)]}
    assert len(want["b1"]) > 0 or c > 0
    for key, cells in want.items():
        got = np.concatenate(seen[key]) if seen[key] else np.empty((0, 3))
        assert np.array_equal(got[np.lexsort(got.T)], cells[np.lexsort(cells.T)]), key


@pytest.mark.parametrize("c", [3.1, -3.1, -100.0])
@pytest.mark.parametrize("grid", [(61, 40, 40), (33, 33, 17), (60, 60, 60)])
def test_scan_evaluates_the_quadratic_only_inside_the_trace_window(c, grid, monkeypatch):
    """Every cell that reaches the quadratic lies in its pair's trace
    window |l1 + l2 - 3 l3| <= trace_tol, widened by the 1e-9 rounding
    margin, so a pair gathers at most 2 reach / (l2 spacing) + 1 cells."""
    seen = []
    refining = []
    original = spectral.catalog_quadratic
    newton = spectral._newton_curve

    def recording(lam1, lam2, lam3, c):
        if not refining:  # the Newton solve's iterates are not grid cells
            seen.append(np.stack(np.broadcast_arrays(lam1, lam2, lam3), axis=-1))
        return original(lam1, lam2, lam3, c)

    def recording_newton(*args):
        refining.append(True)
        return newton(*args)

    monkeypatch.setattr(spectral, "catalog_quadratic", recording)
    monkeypatch.setattr(spectral, "_newton_curve", recording_newton)
    rep = nonexistence_scan(c, grid_shape=grid)
    monkeypatch.undo()
    scale = math.sqrt(abs(c))
    reach = rep.trace_tol + 1e-9 * (3.0 * scale + 2.25 * scale)
    cells = np.concatenate(seen)
    n1, n2, n3 = grid
    trace = cells[:, 0] + cells[:, 1] - 3.0 * cells[:, 2]
    assert np.all(np.abs(trace) <= reach)
    per_pair = math.floor(2.0 * reach / (3.0 * scale / (n2 - 1))) + 1
    assert len(cells) <= n1 * n3 * per_pair
    assert rep.feasible_count == len(_whole_grid_scan(c, grid, rep))


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


@pytest.mark.parametrize("c", [4.0, -4.0])
def test_scan_batches_skinny_grids_in_cells(c, monkeypatch):
    """Batches are sized in cells, not lambda_1 rows: a grid with 4 cells
    per row does not call the quadratic once per row."""
    calls = []
    original = spectral.catalog_quadratic

    def counting(lam1, lam2, lam3, c):
        calls.append(np.size(lam1))
        return original(lam1, lam2, lam3, c)

    monkeypatch.setattr(spectral, "catalog_quadratic", counting)
    nonexistence_scan(c, grid_shape=(20000, 2, 2))
    assert 0 < len(calls) < 100


def test_band_start_is_the_scans_ordering_test():
    """Each band starts at the first lambda_2 with lambda_1 < lambda_2 - gap,
    the scan's ordering test, also where lambda_1 equals lambda_2 - gap."""
    l2 = np.array([0.0, 1.0, 2.0, 3.0])
    gap = 0.5
    lam1 = l2 - gap
    first, counts = spectral._lambda2_bands(lam1, l2, np.array([0.0]), 1.0, math.inf, gap, math.inf)
    assert first.tolist() == [1, 2, 3, 4]
    assert counts.tolist() == [3, 2, 1, 0]


_scan_shapes = st.one_of(
    st.tuples(st.integers(2, 40), st.integers(2, 40), st.integers(2, 40)),
    st.tuples(st.integers(2, 3000), st.integers(2, 6), st.integers(2, 6)),
)


@seed(20261021)
@settings(deadline=None, max_examples=80)
@given(
    sign=st.sampled_from([1.0, -1.0]),
    c_exp=st.floats(-2.0, 4.0),
    grid=_scan_shapes,
)
def test_scan_matches_whole_grid_on_random_boxes(sign, c_exp, grid):
    _assert_scan_matches_whole_grid(sign * 10.0**c_exp, grid)


SCAN_RESIDUAL_TOLERANCE = 2e-14  # the refined residual is relative


def _assert_scan_decides(c):
    """c < 0 finds the catalog curve, refined onto it to a scale-free
    residual, and c > 0 has no feasible cell, with no numpy warning on
    the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = nonexistence_scan(c, grid_shape=(30, 30, 30))
    if c > 0:
        assert rep.feasible_count == 0 and rep.certificate
    else:
        assert rep.feasible_count > 0 and len(rep.curve_points) > 0
        assert rep.max_refined_residual <= SCAN_RESIDUAL_TOLERANCE


@seed(20261027)
@settings(deadline=None, max_examples=120)
@given(
    sign=st.sampled_from([1.0, -1.0]),
    # log-uniform inside the range [7.92e-206, 2.06e204]
    c_exp=st.floats(math.log10(7.92e-206), math.log10(2.06e204)),
)
@example(sign=-1.0, c_exp=-30.0)
def test_scan_decides_across_the_range_of_c(sign, c_exp):
    _assert_scan_decides(sign * 10.0**c_exp)


@pytest.mark.parametrize("edge", ["_SCAN_MIN_ABS_C", "_SCAN_MAX_ABS_C"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_scan_decides_at_the_ends_of_its_range(edge, sign):
    _assert_scan_decides(sign * getattr(spectral, edge))


@pytest.mark.parametrize(
    # where c (lambda_2 - lambda_1) can underflow or the b^2 numerators
    # come near the largest double
    "c_abs", [spectral._SCAN_MIN_ABS_C, 1e-100, 1e100, spectral._SCAN_MAX_ABS_C]
)
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("grid", [(30, 30, 30), (41, 37, 23), (7, 300, 11)])
def test_scan_matches_whole_grid_at_the_ends_of_its_range(c_abs, sign, grid):
    _assert_scan_matches_whole_grid(sign * c_abs, grid)


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


@pytest.mark.parametrize(
    "r",
    [
        1e-3,
        pytest.param(1e-4, marks=pytest.mark.xfail(
            strict=True,
            reason="lambda_4 = -c/(4 lambda_3) magnifies eigh's absolute "
            "error in lambda_3 (~eps/r) to ~eps/r^3, past the absolute "
            "classify tolerance: every frame reads 'residuals'",
        )),
    ],
)
def test_classify_small_radius_germ_in_a_rotated_frame(r):
    """A catalog germ given in a rotated tangent frame (T -> QT,
    S -> QSQ^T) at small radius is still the tube around W^4 of radius r,
    for each of 20 seeded orthogonal Q."""
    germ = catalog_germ(ModelParams(n=3, c=-1.0), 2, r=r)
    for seed_ in range(20):
        q, _ = np.linalg.qr(np.random.default_rng(seed_).standard_normal((5, 5)))
        rotated = HypersurfaceGerm(
            params=germ.params,
            normal=germ.normal,
            tangent_basis=q @ germ.tangent_basis,
            shape=q @ germ.shape @ q.T,
        ).validate()
        res = classify(rotated)
        assert (res.model, res.k, res.reason) == ("tube", 2, None), seed_
        assert abs(res.r - r) <= CLASSIFY_RADIUS_TOLERANCE, seed_


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


def test_skinny_scan_memory_does_not_grow_with_lambda1_samples():
    """Past the first row windows, the peak grows by the lambda_1 array
    alone: 8 B per added sample, with a 10 % allowance."""
    def peak(grid, c):
        tracemalloc.start()
        try:
            nonexistence_scan(c, grid_shape=grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for c in (-1.0, 3.1):
        growth = peak((200000, 2, 2), c) - peak((20000, 2, 2), c)
        assert growth <= 1.1 * 8 * 180000, c


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
