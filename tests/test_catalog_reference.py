"""References for the radius-keyed catalog: an mpmath evaluation at 120
digits over s*r in (0, 50], and a sympy proof in (s, q), q = e^{-2sr},
of the identities ``catalog_at_radius`` relies on, of the
``hopf_projection_squares`` formulas on the catalog curve, of
C^2 = (-c/4) I for the closed focal collapse matrix, of
det D(r) = sech^3(sr) for the focal mode matrix (in u = e^{sr}), and of
the sign claim behind the c > 0 scan's certificate."""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from chgeom import jacobi
from chgeom.jacobi import focal_collapse_matrix_closed
from chgeom.spectral import catalog_at_radius, hopf_projection_squares, nonexistence_scan

RELATIVE_TOLERANCE = 1e-13
# lambda_1 vanishes at the special radius; near it, bound it absolutely
LAMBDA1_NEAR_ZERO = 1e-3
LAMBDA1_ABSOLUTE = 1e-15

# at s*r = 50, s - lambda_3 ~ 2s e^{-100}: 50 digits are too few
REFERENCE_DIGITS = 120


def _reference(r, c):
    """(lambda1, lambda2, lambda3, lambda4, b1^2, b2^2, s) of the tube of
    radius r, at REFERENCE_DIGITS digits (r and c taken as exact)."""
    with mpmath.workdps(REFERENCE_DIGITS):
        c = mpmath.mpf(c)
        s = mpmath.sqrt(-c) / 2
        lam3 = s * mpmath.tanh(s * mpmath.mpf(r))
        root = mpmath.sqrt(-c - 3 * lam3**2)
        return (
            (3 * lam3 - root) / 2,
            (3 * lam3 + root) / 2,
            lam3,
            -c / (4 * lam3),
            -((root - lam3) ** 3) / (2 * c * root),
            -((root + lam3) ** 3) / (2 * c * root),
            s,
        )


@pytest.mark.parametrize("c", [-1.0, -4.0, -100.0, -1e4])
def test_catalog_at_radius_matches_mpmath(c):
    s = math.sqrt(-c) / 2
    # plus s*r next to the special radius, where lambda_1 crosses zero
    sr_star = math.log(2.0 + math.sqrt(3.0)) / 2.0
    near = sr_star * (1.0 + np.array([-1e-4, -1e-7, 1e-7, 1e-4]))
    rates = np.concatenate([np.geomspace(1e-9, 50.0, 60), np.linspace(0.5, 50.0, 40), near])
    for sr in rates:
        r = float(sr) / s
        es = catalog_at_radius(r, c, 3, 2)
        assert es.branch == "G4"
        *want, s_ref = _reference(r, c)
        got = (es.lambda1, es.lambda2, es.lambda3, es.lambda4, es.b1sq, es.b2sq)
        names = ("lambda1", "lambda2", "lambda3", "lambda4", "b1sq", "b2sq")
        for name, value, ref in zip(names, got, want):
            err = abs(mpmath.mpf(value) - ref)
            if name == "lambda1" and abs(ref) < LAMBDA1_NEAR_ZERO * s_ref:
                assert err <= LAMBDA1_ABSOLUTE * s, (name, sr, float(err))
            else:
                assert err <= RELATIVE_TOLERANCE * abs(ref), (name, sr, float(err / abs(ref)))


def _exact(expr):
    """expr with its float constants (small integers in the formulas)
    replaced by the rationals they represent exactly."""
    return expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)})


def test_focal_collapse_matrix_squares_symbolically(monkeypatch):
    """C = s [[-2 b1 b2, b1^2 - b2^2], [b1^2 - b2^2, 2 b1 b2]] squares to
    (-c/4) I whenever b1^2 + b2^2 = 1, for every c = -4 s^2 < 0."""
    s, b1, b2 = sp.symbols("s b1 b2", positive=True)
    c = -4 * s**2
    monkeypatch.setattr(jacobi, "rate", lambda c: sp.sqrt(-c) / 2)
    cmat = focal_collapse_matrix_closed(b1, b2, c)
    square = cmat @ cmat - (-c / 4) * np.eye(2, dtype=object)
    for entry in square.ravel():
        num = sp.expand(_exact(sp.sympify(entry)))
        assert sp.rem(num, b1**2 + b2**2 - 1, b1) == 0


def test_catalog_at_radius_identities_symbolically():
    """The route's rewrites hold as identities in s > 0, 0 < q < 1 (c =
    -4s^2), with the root R = sqrt(-c - 3 lambda_3^2) reduced modulo its
    defining equation, so no sample point is involved."""
    s, q, r, R = sp.symbols("s q r R", positive=True)
    c = -4 * s**2
    lam3 = s * (1 - q) / (1 + q)
    gap = 2 * s * q / (1 + q)
    root_relation = R**2 - (-c - 3 * lam3**2)

    relation = sp.expand(sp.numer(sp.together(root_relation)))

    def vanishes(expr):
        """expr == 0 on R^2 = -c - 3 lambda_3^2: its numerator's
        remainder modulo that relation, as a polynomial in R, is zero."""
        num = sp.expand(sp.numer(sp.together(expr)))
        return sp.simplify(sp.rem(num, relation, R)) == 0

    # lambda_3 = s tanh(sr) and s - lambda_3 = 2sq/(1+q) at q = e^{-2sr}
    tanh_form = (s * sp.tanh(s * r)).rewrite(sp.exp)
    assert sp.simplify(lam3.subs(q, sp.exp(-2 * s * r)) - tanh_form) == 0
    assert sp.simplify(s - lam3 - gap) == 0
    # root - lambda_3 = 4 (s - lambda_3)(s + lambda_3)/(root + lambda_3)
    low = 4 * gap * (s + lam3) / (R + lam3)
    assert vanishes(low - (R - lam3))
    # the catalog in the route's form: b1^2 + b2^2 = 1 and the quadratic
    b1sq = -(low**3) / (2 * c * R)
    b2sq = -((lam3 + R) ** 3) / (2 * c * R)
    assert vanishes(b1sq + b2sq - 1)
    lam1, lam2 = lam3 - low / 2, (3 * lam3 + R) / 2
    assert vanishes(c - 4 * lam1 * lam2 + 8 * (lam1 + lam2) * lam3 - 12 * lam3**2)
    # hopf_projection_squares, whose one formula hopf_projection_square
    # the scans evaluate off the curve, gives these same b_i^2 on it
    for got, want in zip(hopf_projection_squares(lam1, lam2, lam3, c), (b1sq, b2sq)):
        assert vanishes(_exact(got) - want)
    # lambda_4 = -c/(4 lambda_3) is the normal modes' s coth(sr)
    lam4 = -c / (4 * lam3)
    assert sp.simplify(lam4 - s * (1 + q) / (1 - q)) == 0
    coth_form = (s * sp.coth(s * r)).rewrite(sp.exp)
    assert sp.simplify(lam4.subs(q, sp.exp(-2 * s * r)) - coth_form) == 0


def test_focal_determinant_is_sech_cubed_symbolically():
    """det D(r) = sech^3(sr) on the catalog curve, as an identity in
    s > 0, u = e^{sr} > 1 (c = -4s^2), with the root R = sqrt(-c - 3
    lambda_3^2) reduced modulo its defining equation.  D is the mode
    matrix [[f1 + b1^2 g1, b1 b2 g2], [b1 b2 g1, f2 + b2^2 g2]] of
    ``focal_determinant_matrix``, with the f and g profiles of the
    ``jacobi`` docstrings at lambda_1, lambda_2 and the catalog's b_i^2."""
    s, u, R = sp.symbols("s u R", positive=True)
    f1, f2, g1, g2, b1, b2 = sp.symbols("f1 f2 g1 g2 b1 b2")
    c = -4 * s**2
    # b1 and b2 enter the determinant only through b1^2 and b2^2
    mode = sp.Matrix([[f1 + b1**2 * g1, b1 * b2 * g2], [b1 * b2 * g1, f2 + b2**2 * g2]])
    det = sp.expand(mode.det())
    assert det == f1 * f2 + b2**2 * f1 * g2 + b1**2 * f2 * g1
    ch, sh = (u + 1 / u) / 2, (u - 1 / u) / 2

    def f(lam):
        return ch - (lam / s) * sh

    def g(lam):
        return (ch - 1) * (1 + 2 * ch - (lam / s) * sh)

    lam3 = s * (u**2 - 1) / (u**2 + 1)  # s tanh(sr)
    lam1, lam2 = (3 * lam3 - R) / 2, (3 * lam3 + R) / 2
    b1sq = -((R - lam3) ** 3) / (2 * c * R)
    b2sq = -((R + lam3) ** 3) / (2 * c * R)
    det_d = det.subs({f1: f(lam1), f2: f(lam2), g1: g(lam1), g2: g(lam2)})
    det_d = det_d.subs({b1**2: b1sq, b2**2: b2sq})
    sech_cubed = (2 * u / (u**2 + 1)) ** 3
    relation = sp.expand(sp.numer(sp.together(R**2 - (-c - 3 * lam3**2))))
    num = sp.expand(sp.numer(sp.together(det_d - sech_cubed)))
    assert sp.rem(num, relation, R) == 0
    # the transcribed profiles are the code's: one numeric radius
    cf, r = -4.0, 0.7
    es = catalog_at_radius(r, cf, 3, 2)
    at = {s: 1, u: math.exp(r), R: math.sqrt(-cf - 3 * es.lambda3**2)}
    dmat = jacobi.focal_determinant_matrix(es.lambda1, es.lambda2, es.b1, es.b2, cf, r)
    assert abs(float(det_d.subs(at)) - np.linalg.det(dmat)) < 1e-12


def test_positive_curvature_certificate_symbolically():
    """The claim of the c > 0 scan's certificate holds for every real
    lambda_1 < lambda_2, every real lambda_3 and every c > 0, not only on
    the scanned box: b_1^2 > 0 forces lambda_2 < 2 lambda_3 and b_2^2 > 0
    forces lambda_1 > 2 lambda_3, which together contradict
    lambda_1 < lambda_2.  Each b_i^2 of ``hopf_projection_squares`` is
    lambda_j - 2 lambda_3 times a factor of fixed sign: b_1^2 > 0 needs
    the factor of b_1^2, which is <= 0, to be nonzero, and then
    lambda_2 - 2 lambda_3 < 0; likewise b_2^2 > 0 needs
    lambda_1 - 2 lambda_3 > 0."""
    lam1, lam3 = sp.symbols("lambda1 lambda3", real=True)
    c, d = sp.symbols("c d", positive=True)
    lam2 = lam1 + d  # every lambda_1 < lambda_2
    b1sq, b2sq = (_exact(b) for b in hopf_projection_squares(lam1, lam2, lam3, c))
    f1 = -4 * (lam1 - lam3) ** 2 / (c * d)
    f2 = 4 * (lam2 - lam3) ** 2 / (c * d)
    assert sp.simplify(b1sq - (lam2 - 2 * lam3) * f1) == 0
    assert sp.simplify(b2sq - (lam1 - 2 * lam3) * f2) == 0
    assert f1.is_nonpositive and f2.is_nonnegative
    # lambda_1 - 2 lambda_3 > 0 > lambda_2 - 2 lambda_3 needs lambda_1 > lambda_2
    assert sp.simplify((lam1 - 2 * lam3) - (lam2 - 2 * lam3) + d) == 0
    # the certificate the scan reports states this claim
    certificate = nonexistence_scan(4.0, grid_shape=(2, 2, 2)).certificate
    assert certificate.startswith(
        "b1^2 > 0 needs lambda2 < 2*lambda3 and b2^2 > 0 needs "
        "lambda1 > 2*lambda3, contradicting lambda1 < lambda2"
    )
