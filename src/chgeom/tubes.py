"""Tube and equidistant hypersurface germs around the ruled minimal
submanifolds, obtained by propagating shape data along normal geodesics.

For a base point o of the orbit W and a unit normal eta, the tube of
radius r is the image of the unit normal bundle under the normal
exponential map.  Its shape operator at exp_o(r eta) is recovered from
matrix Jacobi data: modes start at (v, -S^W_eta v) for tangent v and at
(0, w) for normals w orthogonal to eta, and

    S = zeta'(r) zeta(r)^{-1}

with respect to the inward normal -gamma'(r) (pointing back toward W),
expressed in a parallel orthonormal frame.  The catalog eigenvalues
emerge with multiplicities (1, 1, 2n-2-k, k-1).

Two routes compute it.  ``tube_germs`` is the production route: the
Jacobi equation has constant coefficients in a parallel frame, so the
modes come from the closed-form ``jacobi.jacobi_closed_propagator`` and
the germ is stated at the base point, with no ODE.  It takes a grid of
radii and does the radius-independent work once; ``tube_germ`` is its
one-radius call.  ``tube_shape_operator`` is the oracle: it integrates
the modes and the parallel transport by RK4 and returns the germ at the
endpoint with the propagation data.

Both, and the finite-difference tube chart, take a radius exactly when
``check_radii`` does (r = 0 only for k = 1: the orbit itself).

Both start from the orbit's shape operator S^W_eta, which they read off
``SubmanifoldSpec.second_fundamental_form``, the closed rigidity normal
form II(Z, u_m) = sin(phi) (sqrt(-c)/2) xi_m: no Lie-algebra table is
built on the way to a tube germ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import construction, jacobi
from .construction import SubmanifoldSpec
from .model import DEFAULT_ODE_STEP, SolvableModel, rate
from .spectral import HypersurfaceGerm, catalog_at_radius

MAX_RADIUS = 10.0
# bound on s*r (s = sqrt(-c)/2) for the Jacobi modes: past it the modes,
# which grow like e^{2sr}, lose the conditioning of zeta'(r) zeta(r)^{-1}
MAX_RATE_RADIUS = 20.0
# for k >= 2, where r = 0 is the focal set: below this bound on r and on
# s^2 r, lambda4 ~ 1/r or lambda3 ~ s^2 r leaves the normal doubles
MIN_SCALE = 1e-300

# Tube germs read the orbit's form from ``SubmanifoldSpec.second_
# fundamental_form``; the name stays bound here because the benchmark's
# span recorder (perfbench/spans.py) wraps it in this module by name.
orbit_second_fundamental_form = construction.orbit_second_fundamental_form


def submanifold_shape_operator(spec: SubmanifoldSpec, eta: np.ndarray) -> np.ndarray:
    """Ambient matrix of the orbit's shape operator S^W_eta (zero off the
    tangent space), assembled from the spec's closed-form second
    fundamental form."""
    coeffs = spec.normal_basis @ np.asarray(eta, dtype=float)
    mat = np.einsum("m,mij->ij", coeffs, spec.second_fundamental_form)
    t = spec.tangent_basis
    return t.T @ mat @ t


@dataclass
class TubeResult:
    """Tube germ plus the propagation data that produced it."""

    germ: HypersurfaceGerm
    transport: np.ndarray  # columns = transported frame vectors o -> exp_o(r eta)
    asymmetry: float  # symmetry defect of zeta' zeta^{-1}
    velocity_drift: float  # |transported eta - gamma'(r)|


def min_radius(c: float, k: int) -> float:
    """The smallest radius of a tube germ at c: 0 for k = 1 (the orbit is
    a hypersurface), otherwise the smallest r with r and s^2 r at least
    MIN_SCALE (s = sqrt(-c)/2; inf where s^2 underflows)."""
    if k == 1:
        return 0.0
    s2 = rate(c) ** 2
    return max(MIN_SCALE, MIN_SCALE / s2) if s2 else math.inf


def check_radii(c: float, k: int, radii) -> None:
    """The one radius domain of the tube layer: raise ValueError unless c
    leaves a radius and each of radii, in order, is one: 0 <= r <=
    MAX_RADIUS, s*r <= MAX_RATE_RADIUS and r >= ``min_radius(c, k)``."""
    low = min_radius(c, k)
    if low > MAX_RADIUS:
        raise ValueError(
            f"c = {c!r} leaves no tube radius for k >= 2: the smallest, {low!r}, "
            f"exceeds {MAX_RADIUS}, as r and s^2*r stay at least {MIN_SCALE} (s = sqrt(-c)/2)"
        )
    s = rate(c)
    for r in radii:
        if not (0.0 <= r <= MAX_RADIUS):
            raise ValueError(f"radius must lie in [0, {MAX_RADIUS}], got {r!r}")
        if s * r > MAX_RATE_RADIUS:
            raise ValueError(
                f"s*r = {s * r!r} exceeds {MAX_RATE_RADIUS} (s = sqrt(-c)/2): "
                "the tube's Jacobi modes are too ill-conditioned there"
            )
        if r < low:
            raise ValueError(
                f"r = {r!r} is below {low!r}, the smallest tube radius for k >= 2 at c = {c!r}: "
                f"r and s^2*r stay at least {MIN_SCALE} (s = sqrt(-c)/2)"
            )


def _tube_modes(spec: SubmanifoldSpec, eta: np.ndarray, radii):
    """Checked arguments and the initial Jacobi data of the tube germs of
    a grid of radii.

    Checks eta, then the radii (``check_radii``).  Returns (eta, m0,
    zeta0, zeta_prime0): m0 is an orthonormal basis of eta-perp (orbit tangent
    rows, then the normal complement of eta); the modes start at
    (v, -S^W_eta v) for its tangent rows and at (0, w) for its normal rows.
    """
    d = spec.params.dim
    eta = np.asarray(eta, dtype=float)
    # sqrt(v . v) is np.linalg.norm's own formula, without its overhead
    if abs(math.sqrt(eta @ eta) - 1.0) > 1e-10:
        raise ValueError("eta must be a unit vector")
    coeffs = spec.normal_basis @ eta
    off = eta - coeffs @ spec.normal_basis
    if math.sqrt(off @ off) > 1e-10:
        raise ValueError("eta must lie in the normal space of the orbit")
    check_radii(spec.params.c, spec.k, radii)

    if spec.k > 1:
        _, sv, vt = np.linalg.svd(coeffs[None, :])
        comp = vt[1:] @ spec.normal_basis
    else:
        comp = np.empty((0, d))
    m0 = np.concatenate((spec.tangent_basis, comp))  # (2n-1, d)

    s_w = submanifold_shape_operator(spec, eta)
    zeta0 = np.concatenate((spec.tangent_basis, np.zeros_like(comp)))
    zprime0 = np.concatenate((-(s_w @ spec.tangent_basis.T).T, comp))
    return eta, m0, zeta0, zprime0


def _mode_shape(m0, zeta_r, zprime_r):
    """Symmetry defect and symmetric part (the shape operator) of
    zeta' zeta^{-1}, the modes taken in the frame m0."""
    cm = m0 @ zeta_r.T  # (basis, modes) in the parallel frame
    cpm = m0 @ zprime_r.T
    s_par = cpm @ np.linalg.inv(cm)
    asym = float(np.max(np.abs(s_par - s_par.T)))
    return asym, 0.5 * (s_par + s_par.T)


def tube_germs(spec: SubmanifoldSpec, eta: np.ndarray, radii) -> list[HypersurfaceGerm]:
    """Germs of the tubes of the given radii around the orbit, from the
    closed-form Jacobi propagator, in the order of ``radii``.

    The work that does not depend on the radius is done once for the
    grid: the argument checks and initial modes of ``_tube_modes`` (S^W_eta
    from the spec's closed-form second fundamental form) and the Jw split
    of the propagation.  Per radius come the propagated modes, the
    symmetrised zeta' zeta^{-1}, and the germ check ``validate``
    (orthonormal frame, finite symmetric shape).  Parallel transport
    along the normal geodesic is orthogonal and commutes with J, so each
    germ is given at the base point (normal -eta, tangent basis m0)
    instead of at exp_o(r eta): the two are congruent and have the same
    classification.
    The germs share one normal and one tangent-basis array.  A bad radius
    raises the error ``tube_germ`` raises at it.
    """
    eta, m0, zeta0, zprime0 = _tube_modes(spec, eta, radii)
    zetas, zprimes = jacobi.jacobi_closed_propagator(
        zeta0, zprime0, eta, spec.params.c, radii
    )
    params, normal = spec.params, -eta
    return [
        HypersurfaceGerm(params, normal, m0, _mode_shape(m0, zeta, zprime)[1]).validate()
        for zeta, zprime in zip(zetas, zprimes)
    ]


def tube_germ(spec: SubmanifoldSpec, eta: np.ndarray, r: float) -> HypersurfaceGerm:
    """Germ of the tube of radius r around the orbit: ``tube_germs`` at
    one radius.  Same arguments and checks as ``tube_shape_operator``,
    whose germ this matches up to the congruence that moves it to the
    base point."""
    return tube_germs(spec, eta, (r,))[0]


def tube_shape_operator(
    spec: SubmanifoldSpec,
    eta: np.ndarray,
    r: float,
    step: float = DEFAULT_ODE_STEP,
) -> TubeResult:
    """Germ of the tube of radius r around the orbit, at exp_o(r eta),
    integrated by RK4 (the oracle of ``tube_germ``).

    Uses the Jacobi-mode ODE (oracle form) for the shape operator and
    parallel transport for the frame; the germ's normal is the inward
    one, so the catalog eigenvalues come out positive.
    """
    eta, m0, zeta0, zprime0 = _tube_modes(spec, eta, (r,))
    model = SolvableModel(spec.params)
    d = spec.params.dim
    zeta_r, zprime_r = jacobi.jacobi_ode_oracle(
        zeta0, zprime0, eta, spec.params.c, r, step
    )

    stack = np.vstack([m0, np.eye(d)])
    _, vel_r, moved = model.integrate_transport(
        np.zeros(d), eta, stack, r, step
    )
    moved_m0 = moved[: m0.shape[0]]
    transport = moved[m0.shape[0] :].T  # columns = transported basis vectors

    asym, shape = _mode_shape(m0, zeta_r, zprime_r)

    drift = float(np.linalg.norm(transport @ eta - vel_r))
    germ = HypersurfaceGerm(
        params=spec.params,
        normal=-vel_r,
        tangent_basis=moved_m0,
        shape=shape,
    ).validate()
    return TubeResult(
        germ=germ,
        transport=transport,
        asymmetry=asym,
        velocity_drift=drift,
    )


def tube_spectrum_closed(r: float, c: float, n: int, k: int) -> np.ndarray:
    """Catalog spectrum of the radius-r tube (ascending, with multiplicity):
    the blocks of ``catalog_at_radius`` expanded."""
    values, mults = zip(*catalog_at_radius(r, c, n, k).blocks)
    return np.sort(np.repeat(values, mults))
