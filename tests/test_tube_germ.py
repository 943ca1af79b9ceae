"""Dual-route tests of the closed-form tube germ: the exact Jacobi
propagator against the RK4 oracle, the germ's spectrum against the
catalog, and its classification against the integrated germ's."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from chgeom import (
    ModelParams,
    build_submanifold,
    classify,
    j_action,
    jacobi_closed,
    jacobi_ode_oracle,
    special_radius,
    tube_shape_operator,
    tube_spectrum_closed,
)
from chgeom.jacobi import jacobi_closed_propagator
from chgeom.model import rate
from chgeom.tubes import MAX_RADIUS, MAX_RATE_RADIUS, tube_germ

CLOSED_VS_ODE_TOLERANCE = 1e-8
SPECTRUM_RELATIVE_TOLERANCE = 1e-12
ROUNDTRIP_RADIUS_TOLERANCE = 1e-6
RK4_SPECTRUM_RELATIVE_TOLERANCE = 1e-10


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
    f(t) v + <v, Jw> g(t) Jw, the closed profiles of the catalog."""
    n, c = 3, -4.0
    w, modes, _ = _random_modes(n, seed=7)
    v = modes[0, 0] / np.linalg.norm(modes[0, 0])
    jw = j_action(w)
    for lam in (-0.3, 0.2, 0.9):
        for t in (-0.4, 0.35, 1.4):
            zeta, _ = jacobi_closed_propagator(v, -lam * v, w, c, t)
            f, ag = jacobi_closed(lam, float(v @ jw), c, t)
            assert np.max(np.abs(zeta - (f * v + ag * jw))) < 1e-13


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


def test_tube_germ_argument_checks():
    spec = build_submanifold(ModelParams(n=3, c=-4.0), 2, math.pi / 2)
    eta = spec.normal_basis[0]
    for bad in (
        lambda: tube_germ(spec, 2.0 * eta, 0.5),
        lambda: tube_germ(spec, spec.tangent_basis[0], 0.5),
        lambda: tube_germ(spec, eta, 0.0),  # focal for k = 2
        lambda: tube_germ(spec, eta, 10.5),
    ):
        with pytest.raises(ValueError):
            bad()
    # r = 0 is allowed for k = 1: the orbit itself
    spec1 = build_submanifold(ModelParams(n=3, c=-4.0), 1, math.pi / 2)
    germ = tube_germ(spec1, spec1.normal_basis[0], 0.0)
    evals = np.sort(np.linalg.eigvalsh(germ.shape))
    assert np.allclose(evals, [-1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)


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
    at 40), so both routes refuse instead of returning a wrong germ."""
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
    for route in (tube_germ, tube_shape_operator):
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
