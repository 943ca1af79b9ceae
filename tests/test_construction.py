"""Tests for constant-angle subspaces, the ruled minimal orbit
construction and the closed-form second fundamental form."""

import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chgeom import construction
from chgeom.construction import (
    RIGHT_ANGLE_TOLERANCE,
    RIGIDITY_TOLERANCE,
    build_submanifold,
    constant_kahler_angle_subspace,
    is_totally_real,
    orbit_second_fundamental_form,
    rigidity_form_check,
)
from chgeom.model import GALPHA_START, ModelParams, j_action
from chgeom.oracles import SPAN_TOLERANCE, focal_shape_check, kahler_angle, w_orbit

ANGLE_TOLERANCE = 1e-12
FORM_TOLERANCE = 1e-12

PHI_GRID = (math.pi / 2, math.pi / 3, 1.0, 0.3)


def test_one_totally_real_predicate():
    """The angle checks of the subspace, the orbit and the focal identities
    all read pi/2 through is_totally_real."""
    params = ModelParams(n=3, c=-4.0)
    near = math.pi / 2 + 0.5 * RIGHT_ANGLE_TOLERANCE
    below = math.pi / 2 - 2.0 * RIGHT_ANGLE_TOLERANCE
    above = math.pi / 2 + 2.0 * RIGHT_ANGLE_TOLERANCE
    assert is_totally_real(near) and not is_totally_real(below)
    assert not is_totally_real(above)
    right = build_submanifold(params, 1, math.pi / 2)
    assert np.array_equal(build_submanifold(params, 1, near).normal_basis, right.normal_basis)
    with pytest.raises(ValueError, match="odd requires phi = pi/2"):
        build_submanifold(params, 1, below)
    with pytest.raises(ValueError, match="phi must lie"):
        build_submanifold(params, 1, above)
    spec = build_submanifold(params, 2, below)
    with pytest.raises(ValueError, match="totally real normal space"):
        focal_shape_check(spec, spec.normal_basis[0], 0.5)
    spec = build_submanifold(params, 2, near)
    report = focal_shape_check(spec, spec.normal_basis[0], 0.5)
    assert report["ju_pair"] < 1e-6


def test_mixed_angle_orbit_is_minimal():
    """The W_w fixture of ROADMAP item 26, w^perp = span{e1, Je1, e2} at
    n = 4: its frame is orthonormal and its Koszul form is trace-free,
    though the Kaehler angle of w^perp is not constant."""
    params = ModelParams(n=4, c=-4.0)
    spec = w_orbit(params, np.eye(8)[[2, 3, 4]])
    frame = np.vstack([spec.normal_basis, spec.tangent_basis])
    assert np.max(np.abs(frame @ frame.T - np.eye(8))) <= 1e-15
    assert np.linalg.norm(np.einsum("mii->m", spec.second_fundamental_form)) <= 1e-12
    assert spec.second_fundamental_form.any()


def test_w_orbit_of_a_totally_real_subspace_is_the_built_orbit():
    """On a constant-angle w^perp the fixture's Koszul form is the closed
    form of ``build_submanifold``, read as ambient matrices (the two take
    different tangent bases)."""
    for n in range(3, 6):
        for k in range(1, n):
            params = ModelParams(n=n, c=-4.0)
            built = build_submanifold(params, k, math.pi / 2)
            spec = w_orbit(params, built.normal_basis)
            forms = [s.tangent_basis.T @ s.second_fundamental_form @ s.tangent_basis
                     for s in (built, spec)]
            assert np.max(np.abs(forms[0] - forms[1])) <= 1e-14


def test_subspace_validation_errors():
    params = ModelParams(n=3, c=-4.0)
    with pytest.raises(ValueError, match="k=3 exceeds n-1=2"):
        constant_kahler_angle_subspace(params, 3, math.pi / 2)
    with pytest.raises(ValueError, match="k=1 odd requires phi = pi/2"):
        constant_kahler_angle_subspace(params, 1, math.pi / 3)
    with pytest.raises(ValueError, match=r"phi must lie in \[0, pi/2\]"):
        constant_kahler_angle_subspace(params, 2, -5e-324)
    with pytest.raises(ValueError):
        constant_kahler_angle_subspace(params, 2, math.pi / 2 + 0.1)
    with pytest.raises(ValueError):
        constant_kahler_angle_subspace(params, 0, math.pi / 2)


def test_right_angle_subspace_is_totally_real():
    params = ModelParams(n=4, c=-4.0)
    for k in (1, 2, 3):
        rows = constant_kahler_angle_subspace(params, k, math.pi / 2)
        assert rows.shape == (k, 8)
        # J maps the subspace into its orthogonal complement
        for row in rows:
            jv = params_j(params) @ row
            assert np.max(np.abs(rows @ jv)) < ANGLE_TOLERANCE


def params_j(params):
    from chgeom.model import standard_complex_structure

    return standard_complex_structure(params.n)


def test_kahler_angle_is_constant_on_subspace():
    rng = np.random.default_rng(6)
    for n, k, phi in ((3, 2, math.pi / 3), (4, 2, 1.0), (4, 2, math.pi / 2),
                      (3, 1, math.pi / 2), (4, 4 - 1, math.pi / 2)):
        if k % 2 == 1 and phi < math.pi / 2:
            continue
        params = ModelParams(n=n, c=-4.0)
        rows = constant_kahler_angle_subspace(params, k, phi)
        for _ in range(10):
            coeff = rng.normal(size=k)
            v = coeff @ rows
            assert abs(kahler_angle(v, rows) - phi) < 1e-10


@st.composite
def _n_k_phi(draw, phi_min=0.0):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    if k % 2 == 1:
        return n, k, math.pi / 2
    return n, k, draw(st.floats(phi_min, math.pi / 2, exclude_min=phi_min == 0.0))


@seed(19)
@settings(deadline=None, max_examples=150)
@given(case=_n_k_phi(), coeff_seed=st.integers(0, 2**32 - 1))
def test_subspace_rows_have_the_constant_angle(case, coeff_seed):
    """The rows are orthonormal, vanish on B and Z, and every unit
    combination of them has Kaehler angle phi."""
    n, k, phi = case
    rows = constant_kahler_angle_subspace(ModelParams(n=n, c=-4.0), k, phi)
    assert rows.shape == (k, 2 * n)
    assert np.max(np.abs(rows @ rows.T - np.eye(k))) <= 1e-12
    assert not np.any(rows[:, :GALPHA_START])
    coeffs = np.random.default_rng(coeff_seed).normal(size=(8, k))
    for v in coeffs @ rows:
        assert abs(kahler_angle(v / np.linalg.norm(v), rows) - phi) <= 1e-10


def test_kahler_angle_rejects_vectors_outside_span():
    params = ModelParams(n=3, c=-4.0)
    rows = constant_kahler_angle_subspace(params, 2, math.pi / 2)
    stray = np.zeros(6)
    stray[0] = 1.0  # abelian direction, not in the root space
    with pytest.raises(ValueError):
        kahler_angle(stray, rows)


def test_kahler_angle_does_not_depend_on_scale():
    params = ModelParams(n=3, c=-4.0)
    rows = constant_kahler_angle_subspace(params, 2, 1.0)
    v = rows[0] + 2.0 * rows[1]
    for scale in (1e-13, 1e13, 1e-300, 1e300):
        assert abs(kahler_angle(scale * v, rows) - 1.0) <= 1e-12
    for entry in (0.0, math.inf, math.nan):
        bad = np.where(v != 0.0, entry, 0.0)
        with pytest.raises(ValueError, match="zero vector or a non-finite one"):
            kahler_angle(bad, rows)


def _projected_j_rows(wperp):
    """u_m as normalised tangential parts of J xi_m: J xi_m minus its
    component in the span of the normal rows, divided by its norm."""
    jrows = j_action(wperp)
    tang = jrows - (jrows @ wperp.T) @ wperp
    return tang / np.linalg.norm(tang, axis=1)[:, None]


@seed(23)
@settings(deadline=None, max_examples=150)
@given(case=_n_k_phi(phi_min=1e-3))
def test_closed_form_rows_match_the_projected_j_rows(case):
    """Each closed-form u_m equals the normalised tangential part of
    J xi_m, the derivation that the closed form replaced.  That
    derivation forms sin(phi) by cancellation, so its own error is below
    eps / sin(phi): the bound is 1e-13 down to phi ~ 4.4e-3 and
    2 eps / sin(phi) below."""
    n, k, phi = case
    spec = build_submanifold(ModelParams(n=n, c=-4.0), k, phi)
    bound = max(1e-13, 2.0 * np.finfo(float).eps / math.sin(phi))
    assert np.max(np.abs(spec.pxi_unit - _projected_j_rows(spec.normal_basis))) <= bound


def test_build_submanifold_shapes():
    for n in (2, 3, 4):
        params = ModelParams(n=n, c=-4.0)
        for k in range(1, n):
            for phi in PHI_GRID:
                if k % 2 == 1 and phi < math.pi / 2:
                    continue
                spec = build_submanifold(params, k, phi)
                assert spec.tangent_basis.shape == (2 * n - k, 2 * n)
                assert spec.normal_basis.shape == (k, 2 * n)
                tn = np.vstack([spec.tangent_basis, spec.normal_basis])
                assert np.max(np.abs(tn @ tn.T - np.eye(2 * n))) < 1e-12


def test_build_submanifold_reads_k_as_model_params_reads_n():
    """An integral float k is that integer; a bool is not a dimension."""
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, 2.0, math.pi / 2)
    assert type(spec.k) is int and spec.k == 2
    assert np.array_equal(
        spec.tangent_basis, build_submanifold(params, 2, math.pi / 2).tangent_basis
    )
    with pytest.raises(ValueError, match="k must be a positive integer"):
        build_submanifold(params, True, math.pi / 2)


def test_second_fundamental_form_closed_form():
    """II(Z, u_m) = sin(phi) (sqrt(-c)/2) xi_m on unit directions, all
    other entries vanish, and the trace is zero (minimal)."""
    for n in range(2, 9):
        params = ModelParams(n=n, c=-4.0)
        for k in range(1, n):
            for phi in PHI_GRID:
                if k % 2 == 1 and phi < math.pi / 2:
                    continue
                spec = build_submanifold(params, k, phi)
                if is_totally_real(phi):
                    # the Koszul route gives the closed form bit for bit here
                    assert np.array_equal(
                        orbit_second_fundamental_form(spec), spec.second_fundamental_form
                    )
                report = rigidity_form_check(spec)
                assert list(report) == ["shape_form", "trace"]
                assert report["shape_form"] <= RIGIDITY_TOLERANCE
                assert report["shape_form"] < FORM_TOLERANCE
                assert report["trace"] < FORM_TOLERANCE


def test_build_rejects_a_frame_that_is_not_orthonormal(monkeypatch):
    """A frame with the sign of cos(phi) in u flipped is 0.866 off
    orthonormal at phi = pi/3, yet its tangent rows still close under the
    bracket, and the closed-form II is built from whatever rows the spec
    holds: the build-time frame check is what rejects it."""
    params = ModelParams(n=3, c=-4.0)
    phi = math.pi / 3
    # the normal rows stay right; only build_submanifold's cos(phi) flips
    rows = constant_kahler_angle_subspace(params, 2, phi)
    monkeypatch.setattr(construction, "constant_kahler_angle_subspace", lambda *args: rows)
    flipped = types.SimpleNamespace(pi=math.pi, sin=math.sin, cos=lambda x: -math.cos(x))
    monkeypatch.setattr(construction, "math", flipped)
    with pytest.raises(AssertionError, match="not orthonormal"):
        build_submanifold(params, 2, phi)


def test_second_fundamental_form_k1_entries():
    # n=3, c=-4, k=1: the only nonzero entries pair Z with the unit
    # projected direction, with value a sin(pi/2) = 1
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, 1, math.pi / 2)
    form = orbit_second_fundamental_form(spec)
    t = spec.tangent_basis
    zc = t @ spec.zvec
    uc = t @ spec.pxi_unit[0]
    expected = np.outer(zc, uc) + np.outer(uc, zc)
    assert np.max(np.abs(form[0] - expected)) < FORM_TOLERANCE


def test_second_fundamental_form_angle_amplitude():
    # at phi = pi/3 the amplitude is a sin(pi/3) = sqrt(3)/2 for c=-4
    params = ModelParams(n=3, c=-4.0)
    spec = build_submanifold(params, 2, math.pi / 3)
    form = orbit_second_fundamental_form(spec)
    peak = np.max(np.abs(form))
    assert abs(peak - math.sqrt(3) / 2) < FORM_TOLERANCE


def test_form_scales_with_curvature():
    params = ModelParams(n=3, c=-1.0)  # a = 1/2
    spec = build_submanifold(params, 2, math.pi / 2)
    form = orbit_second_fundamental_form(spec)
    peak = np.max(np.abs(form))
    assert abs(peak - 0.5) < FORM_TOLERANCE


def _svd_holomorphic_span(t):
    """Rows spanning T intersect JT as the null space of (1 - P) J
    restricted to the tangent rows t."""
    m = (np.eye(t.shape[1]) - t.T @ t) @ j_action(t).T
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    return vt[int(np.sum(s > 1e-10)) :] @ t


def test_ruled_by_holomorphic_subspace():
    """The maximal complex subspace of the tangent space has dimension
    2(n-k), spans the SVD null space of (1 - P) J on T, and II vanishes
    on it."""
    for n in range(2, 9):
        params = ModelParams(n=n, c=-4.0)
        jmat = params_j(params)
        for k in range(1, n):
            for phi in PHI_GRID:
                if k % 2 == 1 and phi < math.pi / 2:
                    continue
                spec = build_submanifold(params, k, phi)
                t = spec.tangent_basis
                # the ruling rows: B, Z and the rest of the root space
                holo = np.vstack([t[:2], t[2 + k :]])
                assert holo.shape[0] == 2 * n - 2 * k
                assert np.max(np.abs(holo @ holo.T - np.eye(holo.shape[0]))) < 1e-15
                ref = _svd_holomorphic_span(t)
                assert np.max(np.abs(holo.T @ holo - ref.T @ ref)) < 1e-12
                # closed under J within the tangent span
                for row in holo:
                    jrow = jmat @ row
                    recon = (jrow @ t.T) @ t
                    assert np.max(np.abs(recon - jrow)) < SPAN_TOLERANCE
                # ruled: the second fundamental form vanishes on the complex part
                form = orbit_second_fundamental_form(spec)
                coeff = holo @ t.T  # holo rows in the tangent basis
                for mat in form:
                    assert np.max(np.abs(coeff @ mat @ coeff.T)) < FORM_TOLERANCE


def test_submanifold_spec_json_roundtrip():
    """The spec record's scalars rebuild the orbit: the same record, array
    for array, after a pass through JSON text."""
    spec = build_submanifold(ModelParams(n=3, c=-4.0), 2, math.pi / 3)
    data = json.loads(json.dumps(spec.to_json_dict()))
    back = build_submanifold(ModelParams(n=data["n"], c=data["c"]), data["k"], data["phi"])
    assert back.params == spec.params
    assert back.k == spec.k and back.phi == spec.phi
    for name in ("normal_basis", "tangent_basis", "pxi_unit"):
        assert np.array_equal(getattr(back, name), getattr(spec, name))
    assert back.to_json_dict() == data
