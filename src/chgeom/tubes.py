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

Two routes compute it.  ``tube_germ`` is the production route: the
Jacobi equation has constant coefficients in a parallel frame, so the
modes come from the closed-form ``jacobi.jacobi_closed_propagator`` and
the germ is stated at the base point, with no ODE.  ``tube_shape_operator``
is its oracle: it integrates the modes and the parallel transport by
RK4 and returns the germ at the endpoint with the propagation data.

Both start from the orbit's shape operator S^W_eta, which they read off
``SubmanifoldSpec.second_fundamental_form``: the Koszul-table form is
computed once per spec, on first use, so a radius sweep over one orbit
computes it once, and a path that never builds a tube germ (the
finite-difference charts of ``numlab``) never computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import construction, jacobi
from .construction import SubmanifoldSpec, is_totally_real
from .model import DEFAULT_ODE_STEP, SolvableModel, j_action, rate
from .spectral import (
    EigenStructure,
    HypersurfaceGerm,
    catalog_at_radius,
    hopf_frame_extract,
    principal_decomposition,
)

FOCAL_ZERO_TOLERANCE = 1e-9
MAX_RADIUS = 10.0
# bound on s*r (s = sqrt(-c)/2) for the Jacobi modes: past it the modes,
# which grow like e^{2sr}, lose the conditioning of zeta'(r) zeta(r)^{-1}
MAX_RATE_RADIUS = 20.0

# Tube germs read the orbit's form from ``SubmanifoldSpec.second_
# fundamental_form``; the name stays bound here because the benchmark's
# span recorder (perfbench/spans.py) wraps it in this module by name.
orbit_second_fundamental_form = construction.orbit_second_fundamental_form


def submanifold_shape_operator(spec: SubmanifoldSpec, eta: np.ndarray) -> np.ndarray:
    """Ambient matrix of the orbit's shape operator S^W_eta (zero off the
    tangent space), assembled from the spec's second fundamental form
    (computed once per spec)."""
    coeffs = spec.normal_basis @ np.asarray(eta, dtype=float)
    mat = np.einsum("m,mij->ij", coeffs, spec.second_fundamental_form.matrices)
    t = spec.tangent_basis
    return t.T @ mat @ t


@dataclass
class TubeResult:
    """Tube germ plus the propagation data that produced it."""

    germ: HypersurfaceGerm
    endpoint: np.ndarray  # coordinates of exp_o(r eta), o the identity
    transport: np.ndarray  # columns = transported frame vectors o -> endpoint
    asymmetry: float  # symmetry defect of zeta' zeta^{-1}
    velocity_drift: float  # |transported eta - gamma'(r)|


def _tube_modes(spec: SubmanifoldSpec, eta: np.ndarray, r: float):
    """Checked arguments and the initial Jacobi data of a tube germ.

    Returns (eta, m0, zeta0, zeta_prime0): m0 is an orthonormal
    basis of eta-perp (orbit tangent rows, then the normal complement of
    eta); the modes start at (v, -S^W_eta v) for its tangent rows and at
    (0, w) for its normal rows.
    """
    s = rate(spec.params.c)
    d = spec.params.dim
    eta = np.asarray(eta, dtype=float)
    # sqrt(v . v) is np.linalg.norm's own formula, without its overhead
    if abs(math.sqrt(eta @ eta) - 1.0) > 1e-10:
        raise ValueError("eta must be a unit vector")
    coeffs = spec.normal_basis @ eta
    off = eta - coeffs @ spec.normal_basis
    if math.sqrt(off @ off) > 1e-10:
        raise ValueError("eta must lie in the normal space of the orbit")
    if not (0.0 <= r <= MAX_RADIUS):
        raise ValueError(f"radius must lie in [0, {MAX_RADIUS}], got {r!r}")
    if s * r > MAX_RATE_RADIUS:
        raise ValueError(
            f"s*r = {s * r!r} exceeds {MAX_RATE_RADIUS} (s = sqrt(-c)/2): "
            "the tube's Jacobi modes are too ill-conditioned there"
        )
    if r == 0.0 and spec.k != 1:
        raise ValueError("r = 0 is a focal singularity unless k = 1")

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


def tube_germ(spec: SubmanifoldSpec, eta: np.ndarray, r: float) -> HypersurfaceGerm:
    """Germ of the tube of radius r around the orbit, from the closed-form
    Jacobi propagator.

    In order: the argument checks and initial modes of ``_tube_modes``
    (S^W_eta from the spec's second fundamental form, which the first
    germ of a spec computes and later ones reuse), the closed-form
    propagation to r, and the symmetrised zeta' zeta^{-1}.  Parallel
    transport along the normal geodesic is orthogonal and commutes with
    J, so the germ is given at the base point (normal -eta, tangent
    basis m0) instead of at exp_o(r eta): the two are congruent and have
    the same classification.  Same arguments and checks as
    ``tube_shape_operator``, whose germ this matches up to that congruence.
    """
    eta, m0, zeta0, zprime0 = _tube_modes(spec, eta, r)
    zeta_r, zprime_r = jacobi.jacobi_closed_propagator(
        zeta0, zprime0, eta, spec.params.c, r
    )
    shape = _mode_shape(m0, zeta_r, zprime_r)[1]
    return HypersurfaceGerm(
        params=spec.params,
        normal=-eta,
        tangent_basis=m0,
        shape=shape,
    ).validate(tol=1e-6)


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
    one, so the catalog eigenvalues come out positive.  r = 0 is allowed
    only for k = 1 (the hypersurface itself); r must stay below
    MAX_RADIUS to keep the exponential growth in double range.
    """
    eta, m0, zeta0, zprime0 = _tube_modes(spec, eta, r)
    model = SolvableModel(spec.params)
    d = spec.params.dim
    zeta_r, zprime_r = jacobi.jacobi_ode_oracle(
        zeta0, zprime0, eta, spec.params.c, r, step
    )

    stack = np.vstack([m0, np.eye(d)])
    coords_r, vel_r, moved = model.integrate_transport(
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
    ).validate(tol=1e-6)
    return TubeResult(
        germ=germ,
        endpoint=coords_r,
        transport=transport,
        asymmetry=asym,
        velocity_drift=drift,
    )


def tube_spectrum_closed(r: float, c: float, n: int, k: int) -> np.ndarray:
    """Catalog spectrum of the radius-r tube (ascending, with multiplicity):
    the blocks of ``catalog_at_radius`` expanded."""
    values, mults = zip(*catalog_at_radius(r, c, n, k).blocks)
    return np.sort(np.repeat(values, mults))


def focal_rank(es: EigenStructure, r: float):
    """Rank of the focal map at radius r for a catalog germ.

    The Hopf-projected 2x2 block never degenerates (its determinant is
    f_3(r)^3 > 0); the remaining modes collapse exactly where their
    profile f vanishes, which happens at the focal radius of lambda_3
    and gives rank 2n - k there (2n - 1 elsewhere); f counts as zero
    within FOCAL_ZERO_TOLERANCE."""
    rank = 2  # the Hopf 2x2 block: one lambda_1 and one lambda_2 mode
    kernel = []
    for i, (lam, mult) in enumerate(es.blocks):
        mult -= 1 if i < 2 else 0
        if mult == 0:
            continue
        fval = float(jacobi.f_function(lam, es.c, r))
        if abs(fval) <= FOCAL_ZERO_TOLERANCE:
            kernel.append((lam, mult))
        else:
            rank += mult
    return rank, kernel


@dataclass
class FocalShapeReport:
    """Residuals of the focal shape-operator identities at the base point."""

    eta_return_residual: float
    ju_pair_residual: float
    bja_pair_residual: float
    complement_residual: float
    distance_residual: float


def focal_shape_check(
    spec: SubmanifoldSpec,
    eta: np.ndarray,
    r: float,
    step: float = DEFAULT_ODE_STEP,
) -> FocalShapeReport:
    """Propagate the tube germ back to the orbit and verify the collapsed
    shape-operator identities:

        S^r J eta^r = -(sqrt(-c)/2) B_JA,
        S^r B_JA    = -(sqrt(-c)/2) J eta^r,

    and zero on the orthogonal complement, where eta^r is the arrival
    velocity at the orbit, B_JA the parallel transport of J A (A from
    the tube germ's Hopf frame), and S^r the orbit's shape operator in
    the eta^r direction.  Only totally real normal spaces qualify.

    The forward leg is ``tube_shape_operator`` (RK4 at ``step``); the
    return leg is the closed-form geodesic flow, so the distance residual
    compares the two routes."""
    if not is_totally_real(spec.phi):
        raise ValueError("focal identities need a totally real normal space")
    if r <= 0.0:
        raise ValueError("the focal check needs r > 0")
    model = SolvableModel(spec.params)
    a = model.a
    tube = tube_shape_operator(spec, eta, r, step)
    germ = tube.germ
    frame = hopf_frame_extract(germ, principal_decomposition(germ))
    p_mat = tube.transport  # columns: transported frame vectors o -> q

    # transport back q -> o is the transpose (transport is orthogonal)
    eta_r = p_mat.T @ germ.normal  # arrival velocity of the return geodesic
    b_ja = p_mat.T @ j_action(frame.a_vec)
    j_eta_r = j_action(eta_r)

    s_r = submanifold_shape_operator(spec, eta_r)
    res1 = float(np.linalg.norm(s_r @ j_eta_r + a * b_ja))
    res2 = float(np.linalg.norm(s_r @ b_ja + a * j_eta_r))

    # complement inside the orbit tangent space
    t = spec.tangent_basis
    pair = np.vstack([j_eta_r, b_ja])
    pair_coeff = t @ pair.T  # tangent-space coefficients of the pair
    q, _ = np.linalg.qr(pair_coeff)
    proj = np.eye(t.shape[0]) - q @ q.T
    s_tan = t @ s_r @ t.T
    res3 = float(np.max(np.abs(s_tan @ proj)))

    # the exact return geodesic from the RK4 tube point must land on the
    # base point, the identity
    coords_back, _ = model.geodesic_closed(tube.endpoint, germ.normal, r)
    res4 = float(np.linalg.norm(coords_back))

    res0 = float(np.linalg.norm(eta_r + eta))
    return FocalShapeReport(
        eta_return_residual=res0,
        ju_pair_residual=res1,
        bja_pair_residual=res2,
        complement_residual=res3,
        distance_residual=res4,
    )
