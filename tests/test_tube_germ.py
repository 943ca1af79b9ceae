"""Dual-route tests of the closed-form tube germ: the exact Jacobi
propagator against the RK4 oracle, the germ's spectrum against the
catalog, and its classification against the integrated germ's."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from chgeom import tubes
from chgeom.construction import build_submanifold
from chgeom.jacobi import (
    _mode_matrix,
    focal_determinant_matrix,
    jacobi_closed_propagator,
    jacobi_ode_oracle,
    special_radius,
)
from chgeom.model import ModelParams, j_action, rate
from chgeom.numlab import tube_chart
from chgeom.oracles import (
    f_derivative,
    f_function,
    focal_determinant_matrix_derivative,
    focal_shape_check,
    g_derivative,
    g_function,
)
from chgeom.spectral import classify, hopf_frame, principal_decomposition
from chgeom.tubes import (
    MAX_RADIUS,
    MAX_RATE_RADIUS,
    tube_germ,
    tube_germs,
    tube_shape_operator,
    tube_spectrum_closed,
)

CLOSED_VS_ODE_TOLERANCE = 1e-8
SPECTRUM_RELATIVE_TOLERANCE = 1e-12
ROUNDTRIP_RADIUS_TOLERANCE = 1e-6
RK4_SPECTRUM_RELATIVE_TOLERANCE = 1e-10
# focal residuals over s = sqrt(-c)/2: about 15x the worst of 6000 random
# cases (1.3e-10 at s*r near 5, where b_1 ~ 8 e^(-3sr) magnifies the
# rounding of the Hopf vector A)
FOCAL_RESIDUAL_TOLERANCE = 2e-9
HOPF_VECTOR_TOLERANCE = 1e-9


def _random_modes(n, seed):
    rng = np.random.default_rng(seed)
    d = 2 * n
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    return w, rng.normal(size=(2, d - 1, d)), rng.normal(size=(2, d - 1, d))


@pytest.mark.parametrize("n, c", [(2, -1.0), (3, -4.0), (4, -9.0)])
def test_propagator_matches_ode_oracle(n, c):
    w, zeta0, zp0 = _random_modes(n, seed=n)
    # one oracle run at step 1e-4, continued from radius to radius
    t, zeta, zp = 0.0, zeta0, zp0
    for r in (0.05, special_radius(c), 1.5, 5.0):
        zeta, zp = jacobi_ode_oracle(zeta, zp, w, c, r - t, step=1e-4)
        t = r
        want, want_p = jacobi_closed_propagator(zeta0, zp0, w, c, r)
        assert want.shape == zeta0.shape and want_p.shape == zp0.shape
        for got, ref in ((zeta, want), (zp, want_p)):
            err = np.max(np.abs(got - ref))
            assert err < CLOSED_VS_ODE_TOLERANCE * np.max(np.abs(ref)), (r, err)


def test_propagator_reproduces_catalog_profiles():
    """On eigen-mode data (v, -lam v) the propagator gives
    f(t) v + <v, Jw> g(t) Jw and its derivative f'(t) v + <v, Jw> g'(t) Jw,
    the closed profiles of the catalog; with
    ``test_propagator_matches_ode_oracle`` this ties the profiles to the
    RK4 oracle."""
    n, c = 3, -4.0
    w, modes, _ = _random_modes(n, seed=7)
    v = modes[0, 0] / np.linalg.norm(modes[0, 0])
    jw = j_action(w)
    for lam in (-0.3, 0.2, 0.9):
        for t in (-0.4, 0.35, 1.4):
            zeta, zeta_p = jacobi_closed_propagator(v, -lam * v, w, c, t)
            f, ag = f_function(lam, c, t), float(v @ jw) * g_function(lam, c, t)
            assert np.max(np.abs(zeta - (f * v + ag * jw))) < 1e-13
            fp, agp = f_derivative(lam, c, t), float(v @ jw) * g_derivative(lam, c, t)
            assert np.max(np.abs(zeta_p - (fp * v + agp * jw))) < 1e-13


def test_propagator_rejects_bad_input():
    w, zeta0, zp0 = _random_modes(2, seed=1)
    with pytest.raises(ValueError):
        jacobi_closed_propagator(zeta0, zp0, 2.0 * w, -4.0, 0.5)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            jacobi_closed_propagator(zeta0, zp0, w, -4.0, t)
    with pytest.raises(ValueError):
        jacobi_closed_propagator(zeta0, zp0, w, 0.0, 0.5)


@pytest.mark.parametrize("c", [-1.0, -4.0, -9.0])
def test_tube_germ_spectrum_matches_catalog(c):
    rstar = special_radius(c)
    radii = (1e-3, 0.05, 0.3, rstar - 1e-3, rstar, rstar + 1e-3, 1.5, 3.0, 8.0)
    for n in range(2, 6):
        for k in range(1, n):
            spec = build_submanifold(ModelParams(n=n, c=c), k, math.pi / 2)
            for r in radii:
                germ = tube_germ(spec, spec.normal_basis[0], r)
                got = np.sort(np.linalg.eigvalsh(germ.shape))
                want = tube_spectrum_closed(r, c, n, k)
                rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert rel <= SPECTRUM_RELATIVE_TOLERANCE, (n, k, r, rel)


def _unit_normal(spec, coeffs):
    """The unit vector of the orbit's normal space with the given
    coefficients in its normal basis (for k = 1 that is +-xi)."""
    coeffs = np.asarray(coeffs, dtype=float)
    return (coeffs / np.linalg.norm(coeffs)) @ spec.normal_basis


@seed(17)
@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 6),
    c=st.floats(-9.0, -0.25),
    sr=st.floats(0.05, 4.0),
    data=st.data(),
)
def test_spectrum_is_constant_over_the_unit_normal_sphere(n, c, sr, data):
    """The tube has the catalog's constant principal curvatures at every
    unit normal eta of the orbit, not only at normal_basis[0]."""
    k = data.draw(st.integers(1, n - 1), label="k")
    coeffs = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        label="eta coefficients",
    )
    r = sr / rate(c)
    assume(r <= MAX_RADIUS)
    spec = build_submanifold(ModelParams(n=n, c=c), k, math.pi / 2)
    germ = tube_germ(spec, _unit_normal(spec, coeffs), r)
    got = np.sort(np.linalg.eigvalsh(germ.shape))
    want = tube_spectrum_closed(r, c, n, k)
    rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert rel <= SPECTRUM_RELATIVE_TOLERANCE, (n, k, r, rel)
    res = classify(germ)
    assert (res.model, res.k) == ("tube" if k >= 2 else "equidistant", k)
    assert abs(res.r - r) < ROUNDTRIP_RADIUS_TOLERANCE


@seed(28)
@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 6),
    c=st.sampled_from([-1.0, -4.0, -100.0]),
    sr=st.floats(1e-3, 5.0),
    data=st.data(),
)
def test_focal_identities_hold_over_the_unit_normal_sphere(n, c, sr, data):
    """The closed focal check holds at every unit normal, every k and
    s*r up to 5, each residual within a fixed multiple of s."""
    k = data.draw(st.integers(1, n - 1), label="k")
    coeffs = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        label="eta coefficients",
    )
    s = rate(c)
    spec = build_submanifold(ModelParams(n=n, c=c), k, math.pi / 2)
    rep = focal_shape_check(spec, _unit_normal(spec, coeffs), sr / s)
    assert list(rep) == ["ju_pair", "bja_pair", "complement"]
    for name, value in rep.items():
        assert value <= FOCAL_RESIDUAL_TOLERANCE * s, (n, k, sr, name, value)


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="ROADMAP item 1: past s*r ~ 5.3 principal_decomposition merges the "
    "Hopf eigenvalue, and hopf_frame raises 'Hopf frame needs h = 2, got h = 1'",
)
@pytest.mark.parametrize("n, k, c", [(3, 2, -4.0), (5, 2, -100.0)])
def test_focal_identities_hold_at_large_rate_radius(n, k, c):
    """The focal check at s*r = 5.5, past the range of the property test
    above, with the same bound on each residual."""
    s = rate(c)
    spec = build_submanifold(ModelParams(n=n, c=c), k, math.pi / 2)
    rep = focal_shape_check(spec, spec.normal_basis[0], 5.5 / s)
    for name, value in rep.items():
        assert value <= FOCAL_RESIDUAL_TOLERANCE * s, (name, value)


def test_focal_check_rejects_non_positive_radius():
    spec = build_submanifold(ModelParams(n=3, c=-4.0), 2, math.pi / 2)
    for r in (0.0, -0.5):
        with pytest.raises(ValueError, match="needs r > 0"):
            focal_shape_check(spec, spec.normal_basis[0], r)


def _hopf_vector(germ):
    return hopf_frame(principal_decomposition(germ))[3]


@pytest.mark.parametrize(
    "n, k, c, r", [(3, 2, -4.0, 0.7), (3, 2, -100.0, 0.07), (4, 3, -1.0, 1.2)]
)
def test_integrated_hopf_vector_matches_the_closed_germ(n, k, c, r):
    """The second route of the focal identities: the Hopf vector A of the
    RK4 tube germ, transported back to the base point, is the closed
    germ's A, so S^r J A = -s J eta^r holds on either."""
    spec = build_submanifold(ModelParams(n=n, c=c), k, math.pi / 2)
    eta = _unit_normal(spec, np.random.default_rng(n + k).normal(size=k))
    tube = tube_shape_operator(spec, eta, r, step=1e-3)
    pulled = tube.transport.T @ _hopf_vector(tube.germ)
    closed = _hopf_vector(tube_germ(spec, eta, r))
    assert np.linalg.norm(pulled - closed) <= HOPF_VECTOR_TOLERANCE


def test_integrated_spectrum_at_a_random_normal():
    """The RK4 route agrees with the catalog away from normal_basis[0]."""
    n, k, c, r = 4, 3, -4.0, 0.7
    spec = build_submanifold(ModelParams(n=n, c=c), k, math.pi / 2)
    eta = _unit_normal(spec, np.random.default_rng(3).normal(size=k))
    germ = tube_shape_operator(spec, eta, r, step=1e-3).germ
    got = np.sort(np.linalg.eigvalsh(germ.shape))
    want = tube_spectrum_closed(r, c, n, k)
    rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert rel <= RK4_SPECTRUM_RELATIVE_TOLERANCE, rel


def test_tube_germ_classifies_like_integrated_germ():
    # the radii of the criterion-10 sweep
    spec = build_submanifold(ModelParams(n=3, c=-4.0), 2, math.pi / 2)
    eta = spec.normal_basis[0]
    for r in np.linspace(0.2, 1.4, 7):
        closed = classify(tube_germ(spec, eta, float(r)))
        ode = classify(tube_shape_operator(spec, eta, float(r), step=1e-3).germ)
        fields = ("model", "k", "branch", "g", "h")
        assert [getattr(closed, f) for f in fields] == [
            getattr(ode, f) for f in fields
        ]
        assert closed.model == "tube"


def _chart_route(spec, eta, r):
    """The finite-difference tube chart as a tube route: its radius is
    checked by the tube layer too (it has no eta)."""
    return tube_chart(spec, r)


TUBE_ROUTES = (tube_germ, tube_shape_operator, _chart_route)


def test_tube_germ_argument_checks():
    spec = build_submanifold(ModelParams(n=3, c=-4.0), 2, math.pi / 2)
    eta = spec.normal_basis[0]
    for bad in (
        lambda: tube_germ(spec, 2.0 * eta, 0.5),
        lambda: tube_germ(spec, spec.tangent_basis[0], 0.5),
    ):
        with pytest.raises(ValueError):
            bad()
    # each route raises the tube layer's error: r = 0 is focal for k = 2
    for r, message in ((0.0, "is below 1e-300"), (10.5, r"^radius must lie in \[0, 10.0\]"),
                       (-1.0, r"^radius must lie in \[0, 10.0\]"),
                       (math.nan, r"^radius must lie in \[0, 10.0\], got nan$")):
        for route in TUBE_ROUTES:
            with pytest.raises(ValueError, match=message):
                route(spec, eta, r)
    # below the small-radius bound for k >= 2, every route raises one error
    for route in TUBE_ROUTES:
        with pytest.raises(ValueError, match="is below 1e-300, the smallest tube radius"):
            route(spec, eta, 1e-308)
    # where that bound exceeds MAX_RADIUS, no radius passes, and the error
    # names c instead
    tiny = build_submanifold(ModelParams(n=3, c=-1e-310), 2, math.pi / 2)
    for route in TUBE_ROUTES:
        with pytest.raises(ValueError, match=r"^c = -1e-310 leaves no tube radius for k >= 2"):
            route(tiny, tiny.normal_basis[0], 0.5)
    # r = 0 is allowed for k = 1: the orbit itself, on every route
    for n in (2, 3):
        spec1 = build_submanifold(ModelParams(n=n, c=-4.0), 1, math.pi / 2)
        germ = tube_germ(spec1, spec1.normal_basis[0], 0.0)
        evals = np.sort(np.linalg.eigvalsh(germ.shape))
        assert np.allclose(evals, [-1.0] + [0.0] * (2 * n - 3) + [1.0], atol=1e-12)
        tube_shape_operator(spec1, spec1.normal_basis[0], 0.0)
        assert _chart_route(spec1, None, 0.0).domain_dim == 2 * n - 1


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_closed_forms_reject_non_finite_curvature(c):
    w = np.eye(4)[2]
    for call in (
        lambda: rate(c),
        lambda: jacobi_closed_propagator(
            np.eye(4)[:3], np.zeros((3, 4)), w, c, 0.5
        ),
        lambda: tube_spectrum_closed(0.5, c, 3, 2),
    ):
        with pytest.raises(ValueError, match="needs a finite c < 0"):
            call()


def test_tube_routes_reject_large_rate_radius():
    """Past s*r = MAX_RATE_RADIUS the modes lose their conditioning
    (at c = -100 the spectrum error grows from 2e-16 at s*r = 20 to 11
    at 40), so both routes, and the finite-difference tube chart, refuse
    instead of returning a wrong germ."""
    c = -100.0
    s = rate(c)
    spec = build_submanifold(ModelParams(n=3, c=c), 2, math.pi / 2)
    eta = spec.normal_basis[0]
    r_ok = MAX_RATE_RADIUS / s
    want = tube_spectrum_closed(r_ok, c, 3, 2)
    got = np.sort(np.linalg.eigvalsh(tube_germ(spec, eta, r_ok).shape))
    assert np.max(np.abs(got - want)) <= SPECTRUM_RELATIVE_TOLERANCE * np.max(np.abs(want))
    r_bad = 1.01 * r_ok
    assert r_bad <= MAX_RADIUS
    tube_chart(spec, r_ok)  # the bound itself is accepted
    for route in TUBE_ROUTES:
        with pytest.raises(ValueError, match=f"exceeds {MAX_RATE_RADIUS}"):
            route(spec, eta, r_bad)


@pytest.mark.parametrize(
    "n, k, phi", [(4, 2, math.pi / 3), (4, 2, 1.0), (5, 4, math.pi / 4)]
)
def test_non_totally_real_tubes_stay_unclassified(n, k, phi):
    """Tubes around W^{2n-k}_phi with phi < pi/2 have h = 3: they are the
    neighbours of the catalog, not members, and must not get a label."""
    spec = build_submanifold(ModelParams(n=n, c=-4.0), k, phi)
    for r in (0.3, 0.7, 1.5):
        res = classify(tube_germ(spec, spec.normal_basis[0], r))
        assert (res.model, res.reason, res.h) == ("unclassified", "h=3", 3)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@seed(26)
@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 6),
    c=st.floats(-100.0, -0.01),
    data=st.data(),
)
def test_tube_germs_equal_the_one_radius_calls(n, c, data):
    """The grid route gives every radius the bits of ``tube_germ`` at that
    radius, at random unit normals, with r = 0 in the grid for k = 1."""
    k = data.draw(st.integers(1, n - 1), label="k")
    coeffs = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        label="eta coefficients",
    )
    top = min(MAX_RADIUS, MAX_RATE_RADIUS / rate(c))
    radii = data.draw(
        st.lists(st.floats(1e-6, top), min_size=1, max_size=5), label="radii"
    )
    if k == 1:
        radii.insert(data.draw(st.integers(0, len(radii)), label="r = 0 at"), 0.0)
    spec = build_submanifold(ModelParams(n=n, c=c), k, math.pi / 2)
    eta = _unit_normal(spec, coeffs)
    germs = tube_germs(spec, eta, radii)
    assert len(germs) == len(radii)
    for r, germ in zip(radii, germs):
        one = tube_germ(spec, eta, r)
        for field in ("normal", "tangent_basis", "shape"):
            assert _same_bits(getattr(germ, field), getattr(one, field)), (r, field)


@seed(27)
@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(2, 6),
    modes=st.integers(1, 4),
    c=st.floats(-100.0, -0.01),
    times=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
    data=st.data(),
)
def test_propagator_over_times_equals_the_scalar_calls(n, modes, c, times, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    d = 2 * n
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    zeta0, zp0 = rng.normal(size=(2, modes, d))
    zeta, zp = jacobi_closed_propagator(zeta0, zp0, w, c, times)
    assert zeta.shape == zp.shape == (len(times), modes, d)
    for i, t in enumerate(times):
        one, one_p = jacobi_closed_propagator(zeta0, zp0, w, c, t)
        assert _same_bits(zeta[i], one) and _same_bits(zp[i], one_p), t


def _error_of(call):
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("k, bad", [
    (2, 10.5),  # past MAX_RADIUS
    (2, 1.01 * MAX_RATE_RADIUS / rate(-100.0)),  # s*r past MAX_RATE_RADIUS
    (2, 0.0),  # focal for k > 1
    (3, 0.0),
])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_tube_germs_raise_the_error_of_their_first_bad_radius(k, bad, at):
    spec = build_submanifold(ModelParams(n=4, c=-100.0), k, math.pi / 2)
    eta = spec.normal_basis[0]
    radii = [0.05, 0.1, 0.15]
    radii.insert(at, bad)
    want = _error_of(lambda: tube_germ(spec, eta, bad))
    assert _error_of(lambda: tube_germs(spec, eta, radii)) == want
    # a second bad radius after it does not change the error
    assert _error_of(lambda: tube_germs(spec, eta, radii + [11.0])) == want


def test_tube_germs_check_the_germ_of_every_radius(monkeypatch):
    """With the small-radius bound lifted, the shape at r = 5e-324 is not
    finite: the germ check runs on each radius's germ, not only the first
    one's."""
    monkeypatch.setattr(tubes, "min_radius", lambda c, k: 0.0)
    spec = build_submanifold(ModelParams(n=3, c=-4.0), 2, math.pi / 2.0)
    with pytest.raises(ValueError, match="^germ shape has a non-finite entry$"):
        tube_germs(spec, spec.normal_basis[0], [0.5, 5e-324])


def test_tube_germs_of_no_radius():
    spec = build_submanifold(ModelParams(n=3, c=-4.0), 2, math.pi / 2)
    assert tube_germs(spec, spec.normal_basis[0], []) == []


@pytest.mark.parametrize("lam", [-3.0, -0.4, 0.0, 0.3, 0.999, 5.0])
@pytest.mark.parametrize("c", [-100.0, -4.0, -1.0, -0.01])
def test_focal_determinant_matrix_equals_its_profiles(lam, c):
    """D(t) and D'(t) share cosh and sinh between the profiles and keep
    the bits of f, g and their derivatives taken one by one."""
    t = np.array([0.0, 1e-3, 0.3, 0.7, 1.5, 4.0, 9.0])
    lam2, b1, b2 = 2.0 * lam + 0.5, 0.6, 0.8
    want = _mode_matrix(
        f_function(lam, c, t), f_function(lam2, c, t),
        g_function(lam, c, t), g_function(lam2, c, t), b1, b2,
    )
    want_p = _mode_matrix(
        f_derivative(lam, c, t), f_derivative(lam2, c, t),
        g_derivative(lam, c, t), g_derivative(lam2, c, t), b1, b2,
    )
    assert _same_bits(focal_determinant_matrix(lam, lam2, b1, b2, c, t), want)
    assert _same_bits(focal_determinant_matrix_derivative(lam, lam2, b1, b2, c, t), want_p)
