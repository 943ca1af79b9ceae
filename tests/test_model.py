"""Tests for the ambient solvable-group model: algebra tables, dual-route
curvature, group law, frame fields, geodesics and parallel transport."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chgeom import (
    ModelParams,
    SolvableModel,
    ambient_curvature,
    j_action,
    standard_complex_structure,
)
from chgeom.model import GALPHA_START

CURVATURE_TOLERANCE = 1e-10
ALGEBRA_TOLERANCE = 1e-13
GROUP_TOLERANCE = 1e-12
FRAME_FD_TOLERANCE = 1e-8
ODE_ORDER_MIN = 3.5


def model(n=3, c=-4.0):
    return SolvableModel(ModelParams(n=n, c=c))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=1, c=-4.0)
    with pytest.raises(ValueError):
        ModelParams(n=3, c=0.0)
    with pytest.raises(ValueError):
        ModelParams(n=2.5, c=-4.0)
    with pytest.raises(ValueError):
        SolvableModel(ModelParams(n=3, c=4.0))  # closed forms only for c > 0


def test_complex_structure_squares_to_minus_identity():
    for n in (2, 3, 4):
        j = standard_complex_structure(n)
        assert np.array_equal(j @ j, -np.eye(2 * n))
        assert np.array_equal(j.T, -j)
        # JB = Z in the frame ordering
        b = np.zeros(2 * n)
        b[0] = 1.0
        assert j[1, 0] == 1.0 and (j @ b)[1] == 1.0


@seed(14)
@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(2, 8),
    lead=st.lists(st.integers(1, 3), max_size=2),
    data=st.data(),
)
def test_j_action_is_the_standard_complex_structure(n, lead, data):
    """j_action on batched frame components is the matrix J exactly, squares
    to -1, and on root slices agrees with J's root block."""
    x = data.draw(arrays(
        np.float64, (*lead, 2 * n),
        elements=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0]),
    ))
    j = standard_complex_structure(n)
    jx = j_action(x)
    assert jx.shape == x.shape
    assert np.array_equal(jx, x @ j.T)
    assert np.array_equal(j_action(jx), -x)
    v = x[..., GALPHA_START:]
    jg = j[GALPHA_START:, GALPHA_START:]
    assert np.array_equal(j_action(v), np.einsum("ab,...b->...a", jg, v))


def test_bracket_table():
    m = model(n=3, c=-4.0)  # a = 1
    a = m.a
    B, Z = m.basis_vector(0), m.basis_vector(1)
    e1, je1 = m.basis_vector(2), m.basis_vector(3)
    e2, je2 = m.basis_vector(4), m.basis_vector(5)
    assert np.allclose(m.bracket(B, Z), 2 * a * Z, atol=ALGEBRA_TOLERANCE)
    assert np.allclose(m.bracket(B, e1), a * e1, atol=ALGEBRA_TOLERANCE)
    assert np.allclose(m.bracket(B, je2), a * je2, atol=ALGEBRA_TOLERANCE)
    assert np.allclose(m.bracket(e1, je1), 2 * a * Z, atol=ALGEBRA_TOLERANCE)
    assert np.allclose(m.bracket(e2, je2), 2 * a * Z, atol=ALGEBRA_TOLERANCE)
    # Z is central; unpaired root vectors commute
    assert np.allclose(m.bracket(Z, e1), 0.0, atol=ALGEBRA_TOLERANCE)
    assert np.allclose(m.bracket(e1, e2), 0.0, atol=ALGEBRA_TOLERANCE)
    assert np.allclose(m.bracket(e1, je2), 0.0, atol=ALGEBRA_TOLERANCE)
    # antisymmetry
    assert np.allclose(
        m.bracket(e1, je1), -m.bracket(je1, e1), atol=ALGEBRA_TOLERANCE
    )


@seed(7)
@settings(deadline=None, max_examples=40)
@given(
    x=arrays(np.float64, (6,), elements=st.floats(-3, 3)),
    y=arrays(np.float64, (6,), elements=st.floats(-3, 3)),
    z=arrays(np.float64, (6,), elements=st.floats(-3, 3)),
)
def test_bracket_jacobi_identity(x, y, z):
    m = model(n=3, c=-2.5)
    total = (
        m.bracket(x, m.bracket(y, z))
        + m.bracket(y, m.bracket(z, x))
        + m.bracket(z, m.bracket(x, y))
    )
    assert np.max(np.abs(total)) < 1e-10


def test_koszul_table():
    m = model(n=3, c=-4.0)  # a = 1
    a = m.a
    B, Z = m.basis_vector(0), m.basis_vector(1)
    e1, je1 = m.basis_vector(2), m.basis_vector(3)
    assert np.allclose(m.koszul_connection(B, B), 0.0, atol=ALGEBRA_TOLERANCE)
    assert np.allclose(m.koszul_connection(B, Z), 0.0, atol=ALGEBRA_TOLERANCE)
    assert np.allclose(m.koszul_connection(B, e1), 0.0, atol=ALGEBRA_TOLERANCE)
    assert np.allclose(
        m.koszul_connection(Z, Z), 2 * a * B, atol=ALGEBRA_TOLERANCE
    )
    assert np.allclose(
        m.koszul_connection(Z, B), -2 * a * Z, atol=ALGEBRA_TOLERANCE
    )
    assert np.allclose(
        m.koszul_connection(e1, B), -a * e1, atol=ALGEBRA_TOLERANCE
    )
    assert np.allclose(
        m.koszul_connection(e1, e1), a * B, atol=ALGEBRA_TOLERANCE
    )
    assert np.allclose(
        m.koszul_connection(e1, je1), a * Z, atol=ALGEBRA_TOLERANCE
    )
    # nabla_Z U = -a J U on the root block
    assert np.allclose(
        m.koszul_connection(Z, e1), -a * j_action(e1), atol=ALGEBRA_TOLERANCE
    )


def test_koszul_is_metric_and_torsion_free():
    m = model(n=3, c=-1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y, z = rng.normal(size=(3, 6))
        # torsion: nabla_x y - nabla_y x = [x, y]
        torsion = (
            m.koszul_connection(x, y)
            - m.koszul_connection(y, x)
            - m.bracket(x, y)
        )
        assert np.max(np.abs(torsion)) < 1e-12
        # metric: <nabla_x y, z> + <y, nabla_x z> = 0 for invariant fields
        lhs = m.inner(m.koszul_connection(x, y), z) + m.inner(
            y, m.koszul_connection(x, z)
        )
        assert abs(lhs) < 1e-12


def test_curvature_special_values():
    for c in (-1.0, -4.0):
        m = model(n=3, c=c)
        B, Z = m.basis_vector(0), m.basis_vector(1)
        e1 = m.basis_vector(2)
        # holomorphic plane (B, JB=Z) has sectional curvature c
        assert abs(m.sectional_curvature(B, Z) - c) < CURVATURE_TOLERANCE
        r = m.curvature_from_koszul(B, Z, Z)
        assert np.allclose(r, c * B, atol=CURVATURE_TOLERANCE)
        # totally real plane (B, e1) has sectional curvature c/4
        assert abs(m.sectional_curvature(B, e1) - c / 4) < CURVATURE_TOLERANCE


def test_curvature_dual_route_agreement():
    for n in (2, 3, 4):
        for c in (-1.0, -4.0):
            m = model(n=n, c=c)
            rng = np.random.default_rng(42)
            worst = 0.0
            for _ in range(50):
                x, y, z = rng.normal(size=(3, 2 * n))
                diff = m.curvature_from_koszul(x, y, z) - ambient_curvature(
                    x, y, z, c
               )
                worst = max(worst, float(np.max(np.abs(diff))))
            assert worst < CURVATURE_TOLERANCE


def test_verify_curvature_report():
    rep = model(n=3, c=-4.0).verify_curvature(samples=100, seed=3)
    assert rep.passed(CURVATURE_TOLERANCE)
    assert rep.max_residual < CURVATURE_TOLERANCE
    assert rep.holomorphic_error < CURVATURE_TOLERANCE
    assert rep.totally_real_error < CURVATURE_TOLERANCE
    assert rep.pinching_violation == 0.0


def _verify_curvature_per_sample(m, samples, seed):
    """Reference for verify_curvature: one sample at a time through the
    single-vector calls."""
    rng = np.random.default_rng(seed)
    d = m.dim
    max_residual = 0.0
    for _ in range(samples):
        x, y, z = rng.standard_normal((3, d))
        diff = m.curvature_from_koszul(x, y, z) - ambient_curvature(x, y, z, m.c)
        max_residual = max(max_residual, float(np.max(np.abs(diff))))
    holo = real = pinch = 0.0
    for _ in range(samples):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        jx = j_action(x)
        holo = max(holo, abs(m.sectional_curvature(x, jx) - m.c))
        y = rng.standard_normal(d)
        y -= np.dot(y, x) * x + np.dot(y, jx) * jx
        y /= np.linalg.norm(y)
        real = max(real, abs(m.sectional_curvature(x, y) - m.c / 4.0))
        w = rng.standard_normal(d)
        w -= np.dot(w, x) * x
        w /= np.linalg.norm(w)
        k = m.sectional_curvature(x, w)
        pinch = max(pinch, m.c - k, k - m.c / 4.0, 0.0)
    return max_residual, holo, real, pinch


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_curvature_row_stacks_match_single_vectors(n):
    # strong curvature puts the verify figures at ~1e-14..1e-13, so the
    # 1e-15 bound below tells one draw of samples from another
    m = model(n=n, c=-100.0)
    rng = np.random.default_rng(100 + n)
    x, y, z = rng.standard_normal((3, 40, 2 * n))

    def closed_form(x, y, z):
        return ambient_curvature(x, y, z, m.c)

    for curvature in (m.curvature_from_koszul, closed_form):
        rows = curvature(x, y, z)
        assert rows.shape == x.shape
        for i in range(x.shape[0]):
            want = curvature(x[i], y[i], z[i])
            assert np.all(np.abs(rows[i] - want) <= 1e-15 * (1.0 + np.abs(want)))
    for s in (0, 1, 2):
        rep = m.verify_curvature(samples=50, seed=s)
        got = (
            rep.max_residual,
            rep.holomorphic_error,
            rep.totally_real_error,
            rep.pinching_violation,
        )
        want = _verify_curvature_per_sample(m, 50, s)
        assert np.all(np.abs(np.subtract(got, want)) <= 1e-15)


def test_sectional_pinching():
    # all sectional curvatures lie in [c, c/4]
    m = model(n=3, c=-4.0)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y = rng.normal(size=(2, 6))
        k = m.sectional_curvature(x, y)
        assert m.c - 1e-9 <= k <= m.c / 4 + 1e-9


@seed(11)
@settings(deadline=None, max_examples=30)
@given(
    p=arrays(np.float64, (6,), elements=st.floats(-2, 2)),
    q=arrays(np.float64, (6,), elements=st.floats(-2, 2)),
    r=arrays(np.float64, (6,), elements=st.floats(-2, 2)),
)
def test_group_law(p, q, r):
    m = model(n=3, c=-4.0)
    assoc = m.group_product(m.group_product(p, q), r) - m.group_product(
        p, m.group_product(q, r)
    )
    scale = 1.0 + np.max(np.abs(p)) * np.max(np.abs(q)) * np.max(np.abs(r))
    assert np.max(np.abs(assoc)) < GROUP_TOLERANCE * 100 * scale
    inv = m.group_inverse(p)
    assert np.allclose(m.group_product(p, inv), 0.0, atol=GROUP_TOLERANCE * 10)
    assert np.allclose(m.group_product(inv, p), 0.0, atol=GROUP_TOLERANCE * 10)
    ident = np.zeros(6)
    assert np.allclose(m.group_product(p, ident), p)
    assert np.allclose(m.group_product(ident, p), p)


def test_frame_matrix_matches_translated_curves():
    """Columns of the frame matrix are derivatives of left-translated
    one-parameter coordinate lines (finite-difference oracle)."""
    m = model(n=3, c=-4.0)
    rng = np.random.default_rng(9)
    p = rng.normal(size=6) * 0.8
    F = m.frame_matrix(p)
    h = 1e-5
    for i in range(6):
        step = np.zeros(6)
        step[i] = h
        fwd = m.group_product(p, step)
        bwd = m.group_product(p, -step)
        col = (fwd - bwd) / (2 * h)
        assert np.max(np.abs(col - F[:, i])) < FRAME_FD_TOLERANCE


def test_frame_velocity_roundtrip():
    m = model(n=3, c=-2.0)
    rng = np.random.default_rng(12)
    for _ in range(10):
        coords = rng.normal(size=6)
        v = rng.normal(size=6)
        cdot = m.frame_to_coordinate_velocity(coords, v)
        back = m.coordinate_to_frame_velocity(coords, cdot)
        assert np.max(np.abs(back - v)) < GROUP_TOLERANCE
    # batched
    coords = rng.normal(size=(5, 6))
    v = rng.normal(size=(5, 6))
    cdot = m.frame_to_coordinate_velocity(coords, v)
    back = m.coordinate_to_frame_velocity(coords, cdot)
    assert np.max(np.abs(back - v)) < GROUP_TOLERANCE


def test_metric_left_invariance():
    """Inner products of frame components are coordinate-independent:
    the coordinate metric is the frame Gram pushed through the frame
    matrix at every base point."""
    m = model(n=2, c=-4.0)
    rng = np.random.default_rng(31)
    v, w = rng.normal(size=(2, 4))
    base_value = float(v @ w)
    for _ in range(5):
        coords = rng.normal(size=4)
        G = m.metric_matrix(coords)
        cv = m.frame_to_coordinate_velocity(coords, v)
        cw = m.frame_to_coordinate_velocity(coords, w)
        assert abs(cv @ G @ cw - base_value) < GROUP_TOLERANCE * 10


def test_geodesic_along_abelian_axis():
    # the one-parameter subgroup of the abelian factor is a unit geodesic
    m = model(n=3, c=-4.0)
    pt, vel = m.integrate_geodesic(
        np.zeros(6), m.basis_vector(0), 1.3, step=1e-3
    )
    expected = np.zeros(6)
    expected[0] = 1.3
    assert np.allclose(pt, expected, atol=1e-10)
    assert np.allclose(vel, m.basis_vector(0), atol=1e-10)


def test_geodesic_speed_preserved():
    m = model(n=3, c=-4.0)
    rng = np.random.default_rng(18)
    p = rng.normal(size=6) * 0.5
    v = rng.normal(size=6)
    v /= np.linalg.norm(v)
    _, vel = m.integrate_geodesic(p, v, 2.0, step=1e-3)
    assert abs(np.linalg.norm(vel) - 1.0) < 1e-10


def test_geodesic_reversal():
    m = model(n=2, c=-1.0)
    rng = np.random.default_rng(4)
    p = rng.normal(size=4) * 0.5
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    q, vq = m.integrate_geodesic(p, v, 1.1, step=1e-3)
    back, _ = m.integrate_geodesic(q, -vq, 1.1, step=1e-3)
    assert np.max(np.abs(back - p)) < 1e-9


def test_geodesic_convergence_order():
    m = model(n=3, c=-4.0)
    rng = np.random.default_rng(77)
    p = rng.normal(size=6) * 0.3
    v = rng.normal(size=6)
    v /= np.linalg.norm(v)
    ref, _ = m.integrate_geodesic(p, v, 1.0, step=1e-4)
    e = []
    for h in (8e-3, 4e-3):
        end, _ = m.integrate_geodesic(p, v, 1.0, step=h)
        e.append(np.max(np.abs(end - ref)))
    order = math.log2(e[0] / e[1])
    assert order > ODE_ORDER_MIN


def test_transport_isometry_and_j_invariance():
    m = model(n=3, c=-4.0)
    rng = np.random.default_rng(21)
    p = rng.normal(size=6) * 0.4
    v = rng.normal(size=6)
    v /= np.linalg.norm(v)
    w1, w2 = rng.normal(size=(2, 6))
    rows = np.stack([w1, w2, j_action(w1)])
    _, _, (m1, m2, mj) = m.integrate_transport(p, v, rows, 1.5, step=1e-3)
    assert abs(m1 @ m2 - w1 @ w2) < 1e-10
    # the connection is complex-linear: transport commutes with J
    assert np.max(np.abs(mj - j_action(m1))) < 1e-10


def test_transport_of_velocity_is_velocity():
    m = model(n=3, c=-4.0)
    rng = np.random.default_rng(23)
    p = rng.normal(size=6) * 0.4
    v = rng.normal(size=6)
    v /= np.linalg.norm(v)
    _, vel, moved = m.integrate_transport(p, v, v[None, :], 0.9, step=1e-3)
    assert np.max(np.abs(moved[0] - vel)) < 1e-10


@seed(16)
@settings(deadline=None, max_examples=120)
@given(
    n=st.integers(2, 8),
    c=st.floats(0.01, 100.0),
    layout=st.sampled_from(["vector", "rows", "pairs", "stacked-pairs", "one-to-many"]),
    scale=st.integers(-6, 6),
    zeros=st.booleans(),
    data=st.data(),
)
def test_bilinear_tables_match_the_einsum_bit_for_bit(n, c, layout, scale, zeros, data):
    """``bracket`` and ``koszul_connection`` add only the table's nonzero
    terms, and in the order of the three-operand einsum they replace: on
    finite input every bit of the result and its shape are the einsum's,
    for the broadcast layouts the package uses."""
    m = model(n=n, c=-c)
    d = 2 * n
    shapes = {
        "vector": ((d,), (d,)),
        "rows": ((9, d), (9, d)),
        "pairs": ((5, 1, d), (1, 5, d)),
        "stacked-pairs": ((3, 4, 1, d), (3, 1, 4, d)),
        "one-to-many": ((6, 4, d), (6, 1, d)),
    }[layout]
    seed_ = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed_)
    x = rng.standard_normal(shapes[0]) * 10.0**scale
    y = rng.standard_normal(shapes[1])
    if zeros:  # exact zeros and negative zeros among the products
        x[..., ::2] = -0.0
        y = -np.abs(y)
    for table, contract in ((m.structure, m.bracket), (m.koszul, m.koszul_connection)):
        want = np.einsum("...i,...j,ijk->...k", x, y, table)
        got = contract(x, y)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
