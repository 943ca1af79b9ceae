"""Closed-form normal Jacobi fields of a complex space form (c < 0).

Along a unit-speed geodesic with velocity w, a normal Jacobi field zeta
written in a parallel orthonormal frame satisfies the constant
coefficient equation

    4 zeta'' + c zeta + 3 c <zeta, Jw> Jw = 0,

so components orthogonal to Jw evolve at rate sqrt(-c)/2 and the Jw
component at rate sqrt(-c).  For the catalog initial conditions coming
from a shape-operator eigenvector v with eigenvalue lam (zeta(0)=v,
zeta'(0)=-lam v) the solution is

    zeta(t) = f(lam,c,t) B_v(t) + <v, J xi> g(lam,c,t) J gamma'(t),

with B_v parallel transport of v, and f, g the scalar profiles below.
The closed forms are plain numpy on scalar/array inputs.  For arbitrary
initial data, ``jacobi_closed_propagator`` solves the equation exactly
and ``jacobi_ode_oracle`` integrates it with the shared ``model.rk4``
stepper.
"""

from __future__ import annotations

import math

import numpy as np

from .model import DEFAULT_ODE_STEP, j_action, rate, rk4


class OutOfRangeEigenvalue(ValueError):
    """lambda_3 outside [0, sqrt(-c)/2) has no focal radius."""


def _f(lam, s, ch, sh):
    """f from s and the cosh(st), sinh(st) of its time."""
    return ch - (lam / s) * sh


def _g(lam, s, ch, sh):
    """g from s and the cosh(st), sinh(st) of its time."""
    return (ch - 1.0) * (1.0 + 2.0 * ch - (lam / s) * sh)


def _hyperbolic(c: float, t):
    """s = sqrt(-c)/2 and cosh(st), sinh(st), on a scalar or array t."""
    s = rate(c)
    st = s * np.asarray(t, dtype=float)
    return s, np.cosh(st), np.sinh(st)


def jacobi_ode_oracle(
    zeta0,
    zeta_prime0,
    velocity,
    c: float,
    t: float,
    step: float = DEFAULT_ODE_STEP,
):
    """Integrate 4 zeta'' + c zeta + 3c <zeta,Jw> Jw = 0 by fixed-step RK4.

    All vectors are components in a parallel orthonormal frame along the
    geodesic (where the equation has constant coefficients).  ``velocity``
    is the geodesic's unit velocity w; modes may be batched on the first
    axis.  Returns (zeta(t), zeta'(t)).
    """
    jw = j_action(velocity)
    c = float(c)

    def rhs(z, zp):
        comp = z @ jw
        return zp, -(c / 4.0) * (z + 3.0 * np.multiply.outer(comp, jw))

    return rk4(rhs, (zeta0, zeta_prime0), t, step)


def jacobi_closed_propagator(
    zeta0,
    zeta_prime0,
    velocity,
    c: float,
    t,
):
    """Exact solution of the equation ``jacobi_ode_oracle`` integrates.

    Off Jw the components grow at rate s = sqrt(-c)/2 and the Jw
    component at rate 2s, each by

        zeta(t) = cosh(rt) zeta(0) + (sinh(rt)/r) zeta'(0),
        zeta'(t) = r sinh(rt) zeta(0) + cosh(rt) zeta'(0).

    Same arguments and return value as the oracle, without the step;
    ``velocity`` must be a unit vector.  ``t`` may also be a sequence of
    times: the initial data are split along Jw once, and the returned
    arrays gain a leading time axis, each slice the bits of the call at
    that one time.  The hyperbolic functions stay ``math.cosh`` and
    ``math.sinh`` per time, since ``np.cosh`` over an array can differ
    from them in the last bit.
    """
    w = np.asarray(velocity, dtype=float)
    if abs(np.linalg.norm(w) - 1.0) > 1e-10:
        raise ValueError("velocity must be a unit vector")
    scalar = np.ndim(t) == 0
    times = (t,) if scalar else t
    for time in times:
        if not math.isfinite(time):
            raise ValueError(f"time must be finite, got {time!r}")
    jw = j_action(w)
    s = rate(c)
    z0 = np.asarray(zeta0, dtype=float)
    zp0 = np.asarray(zeta_prime0, dtype=float)
    a0, ap0 = z0 @ jw, zp0 @ jw  # Jw components
    perp0 = z0 - np.multiply.outer(a0, jw)
    perp_p0 = zp0 - np.multiply.outer(ap0, jw)
    zeta, zeta_prime = [], []
    for time in times:
        ch1, sh1 = math.cosh(s * time), math.sinh(s * time)
        ch2, sh2 = math.cosh(2.0 * s * time), math.sinh(2.0 * s * time)
        a = ch2 * a0 + (sh2 / (2.0 * s)) * ap0
        ap = (2.0 * s * sh2) * a0 + ch2 * ap0
        zeta.append(ch1 * perp0 + (sh1 / s) * perp_p0 + np.multiply.outer(a, jw))
        zeta_prime.append((s * sh1) * perp0 + ch1 * perp_p0 + np.multiply.outer(ap, jw))
    if scalar:
        return zeta[0], zeta_prime[0]
    shape = (len(times), *z0.shape)
    return np.reshape(zeta, shape), np.reshape(zeta_prime, shape)


def _mode_matrix(f1, f2, g1, g2, b1, b2):
    """2x2 blocks [[f1 + b1^2 g1, b1 b2 g2], [b1 b2 g1, f2 + b2^2 g2]]."""
    out = np.empty(np.shape(f1) + (2, 2))
    out[..., 0, 0] = f1 + b1 * b1 * g1
    out[..., 0, 1] = b1 * b2 * g2
    out[..., 1, 0] = b1 * b2 * g1
    out[..., 1, 1] = f2 + b2 * b2 * g2
    return out


def focal_determinant_matrix(lam1, lam2, b1, b2, c: float, t):
    """2x2 matrix D(t) of the Jacobi modes spanned by the Hopf-projected
    eigenvectors u1, u2; columns are modes, rows the (u1, u2) components.
    cosh(st) and sinh(st) are taken once for the four profiles."""
    hyp = _hyperbolic(c, t)
    lam1, lam2 = np.asarray(lam1, dtype=float), np.asarray(lam2, dtype=float)
    f1, f2 = _f(lam1, *hyp), _f(lam2, *hyp)
    g1, g2 = _g(lam1, *hyp), _g(lam2, *hyp)
    return _mode_matrix(f1, f2, g1, g2, b1, b2)


def sech(x):
    return 1.0 / np.cosh(np.asarray(x, dtype=float))


def focal_radius(lambda3: float, c: float) -> float:
    """Radius r with lambda_3 = (sqrt(-c)/2) tanh(r sqrt(-c)/2).

    lambda_3 = 0 maps to r = 0; values outside [0, sqrt(-c)/2) raise
    OutOfRangeEigenvalue.
    """
    s = rate(c)
    if not (0.0 <= lambda3 < s):
        raise OutOfRangeEigenvalue(
            f"lambda3={lambda3!r} outside [0, {s!r}) for c={c!r}"
        )
    return math.atanh(lambda3 / s) / s


def special_radius(c: float) -> float:
    """The radius log(2+sqrt(3))/sqrt(-c) where the spectrum degenerates
    to three values (lambda_1 = 0 and lambda_2 = lambda_4)."""
    s = rate(c)
    return math.log(2.0 + math.sqrt(3.0)) / (2.0 * s)
