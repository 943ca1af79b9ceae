"""Second routes and fixtures that only tests call, each cut from the
module that held it with its arithmetic unchanged.  No production
module imports this one, so no command loads it.

What ``perfbench/`` reads or wraps by name stays put until the benchmark
drops it (ROADMAP item 24): ``spectral.catalog_germ``,
``tubes.tube_shape_operator``, its ``TubeResult``, ``tube_spectrum_closed``
and the ``orbit_second_fundamental_form`` alias, with ``jacobi_ode_oracle``,
``model.rk4`` and ``SolvableModel.integrate_*``, which they read.
"""

from __future__ import annotations

import math

import numpy as np

from .construction import SubmanifoldSpec, is_totally_real, orbit_second_fundamental_form
from .jacobi import _f, _g, _hyperbolic, _mode_matrix, focal_determinant_matrix
from .model import B_INDEX, GALPHA_START, Z_INDEX, ModelParams, SolvableModel, j_action, rate
from .numlab import NUMERIC_GROUPING_TOLERANCE, ChartImmersion, FrameFields, GermField, Indeterminate
from .spectral import (
    EigenStructure, HypersurfaceGerm, catalog_quadratic, hopf_frame,
    hopf_projection_squares, principal_decomposition,
)
from .tubes import submanifold_shape_operator, tube_germs

SPAN_TOLERANCE = 1e-9
FOCAL_ZERO_TOLERANCE = 1e-9


def _f_prime(lam, s, ch, sh):
    return s * sh - lam * ch


def _g_prime(lam, s, ch, sh):
    return s * sh * (1.0 + 2.0 * ch - (lam / s) * sh) + (ch - 1.0) * (
        2.0 * s * sh - lam * ch
    )


def f_function(lam, c: float, t):
    """Parallel-component profile: f(t) = cosh(st) - (lam/s) sinh(st)."""
    return _f(np.asarray(lam, dtype=float), *_hyperbolic(c, t))


def f_derivative(lam, c: float, t):
    return _f_prime(np.asarray(lam, dtype=float), *_hyperbolic(c, t))


def g_function(lam, c: float, t):
    """J gamma'-component profile:
    g(t) = (cosh(st) - 1)(1 + 2 cosh(st) - (lam/s) sinh(st))."""
    return _g(np.asarray(lam, dtype=float), *_hyperbolic(c, t))


def g_derivative(lam, c: float, t):
    return _g_prime(np.asarray(lam, dtype=float), *_hyperbolic(c, t))


def focal_determinant_matrix_derivative(lam1, lam2, b1, b2, c: float, t):
    """Exact t-derivative of focal_determinant_matrix (no differencing)."""
    hyp = _hyperbolic(c, t)
    lam1, lam2 = np.asarray(lam1, dtype=float), np.asarray(lam2, dtype=float)
    f1, f2 = _f_prime(lam1, *hyp), _f_prime(lam2, *hyp)
    g1, g2 = _g_prime(lam1, *hyp), _g_prime(lam2, *hyp)
    return _mode_matrix(f1, f2, g1, g2, b1, b2)


def focal_collapse_matrix_numeric(lam1, lam2, b1, b2, c: float, r):
    """C(r) = -D'(r) D(r)^{-1} with D' differentiated in closed form."""
    d = focal_determinant_matrix(lam1, lam2, b1, b2, c, r)
    dp = focal_determinant_matrix_derivative(lam1, lam2, b1, b2, c, r)
    return -dp @ np.linalg.inv(d)


def focal_collapse_matrix_closed(b1, b2, c: float):
    """Closed form of C at the focal radius:
    (sqrt(-c)/2) [[-2 b1 b2, b1^2-b2^2], [b1^2-b2^2, 2 b1 b2]]."""
    s = rate(c)
    off = b1 * b1 - b2 * b2
    return s * np.array([[-2.0 * b1 * b2, off], [off, 2.0 * b1 * b2]])


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
        fval = float(f_function(lam, es.c, r))
        if abs(fval) <= FOCAL_ZERO_TOLERANCE:
            kernel.append((lam, mult))
        else:
            rank += mult
    return rank, kernel


def tube_germ(spec: SubmanifoldSpec, eta: np.ndarray, r: float) -> HypersurfaceGerm:
    """Germ of the tube of radius r around the orbit: ``tubes.tube_germs``
    at one radius.  Same arguments and checks as ``tube_shape_operator``,
    whose germ this matches up to the congruence that moves it to the
    base point."""
    return tube_germs(spec, eta, (r,))[0]


def focal_shape_check(spec: SubmanifoldSpec, eta: np.ndarray, r: float) -> dict:
    """Verify the collapsed shape-operator identities of the tube of
    radius r around the orbit:

        S^r J eta^r = -(sqrt(-c)/2) J A,
        S^r J A     = -(sqrt(-c)/2) J eta^r,

    and zero on the orthogonal complement in the orbit tangent space,
    where eta^r = -eta is the normal of ``tube_germ`` at the base point
    (the arrival velocity of the geodesic back to the orbit), A the germ's
    Hopf vector, and S^r the orbit's shape operator in the eta^r
    direction.  Only totally real normal spaces qualify.  Returns the
    residuals keyed ``ju_pair`` and ``bja_pair`` (the two identities) and
    ``complement``."""
    if not is_totally_real(spec.phi):
        raise ValueError("focal identities need a totally real normal space")
    if r <= 0.0:
        raise ValueError("the focal check needs r > 0")
    germ = tube_germ(spec, eta, r)
    a_vec = hopf_frame(principal_decomposition(germ))[3]
    eta_r = germ.normal
    j_a, j_eta_r = j_action(a_vec), j_action(eta_r)
    s = rate(spec.params.c)

    s_r = submanifold_shape_operator(spec, eta_r)
    # the complement of the pair inside the orbit tangent space
    t = spec.tangent_basis
    q, _ = np.linalg.qr(t @ np.vstack([j_eta_r, j_a]).T)
    proj = np.eye(t.shape[0]) - q @ q.T
    return {
        "ju_pair": float(np.linalg.norm(s_r @ j_eta_r + s * j_a)),
        "bja_pair": float(np.linalg.norm(s_r @ j_a + s * j_eta_r)),
        "complement": float(np.max(np.abs(t @ s_r @ t.T @ proj))),
    }


def constraint_residuals(es: EigenStructure) -> dict:
    """Residuals of every defining relation of a catalog entry."""
    b1_alt, b2_alt = hopf_projection_squares(es.lambda1, es.lambda2, es.lambda3, es.c)
    out = {
        "quadratic": abs(catalog_quadratic(es.lambda1, es.lambda2, es.lambda3, es.c)),
        "b1_formula": abs(es.b1sq - float(b1_alt)),
        "b2_formula": abs(es.b2sq - float(b2_alt)),
        "b_sum": abs(es.b1sq + es.b2sq - 1.0),
        "trace_identity": abs(es.lambda1 + es.lambda2 - 3.0 * es.lambda3),
    }
    if es.lambda4 is not None:
        out["lambda4_relation"] = abs(4.0 * es.lambda3 * es.lambda4 + es.c)
    return out


def w_orbit(params: ModelParams, wperp) -> SubmanifoldSpec:
    """The orbit W_w for orthonormal root-space rows wperp (ROADMAP items
    4 and 26): normal rows wperp, tangent rows B, Z and the root space's
    complement of wperp.  Its Kaehler angle need not be constant (phi is
    NaN), so the spec carries the Koszul second fundamental form."""
    wperp = np.asarray(wperp, dtype=float)
    k, d = wperp.shape
    if np.any(wperp[:, :GALPHA_START]):
        raise ValueError("wperp must lie in the root space")
    tangent = np.zeros((d - k, d))
    tangent[[0, 1], [B_INDEX, Z_INDEX]] = 1.0
    tangent[2:, GALPHA_START:] = np.linalg.svd(wperp[:, GALPHA_START:])[2][k:]
    spec = SubmanifoldSpec(params, k, math.nan, wperp, tangent)
    # seeds the cached_property, whose closed form assumes a constant angle
    spec.__dict__["second_fundamental_form"] = orbit_second_fundamental_form(spec)
    return spec


def horosphere_germ(params: ModelParams) -> HypersurfaceGerm:
    """Germ of the nilpotent-factor orbit: a Hopf hypersurface with
    principal curvatures sqrt(-c)/2 (multiplicity 2n-2) and sqrt(-c),
    normal along the abelian direction."""
    a, frame = rate(params.c), np.eye(params.dim)
    return HypersurfaceGerm(
        params=params,
        normal=frame[0],
        tangent_basis=frame[1:],
        shape=np.diag([2.0 * a] + [a] * (params.dim - 2)),
    ).validate()


def horosphere_chart(params: ModelParams) -> ChartImmersion:
    """The nilpotent-factor orbit {abelian coordinate = 0}: parameters
    are (center coordinate, root coordinates)."""
    d = params.dim

    def mapper(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros((x.shape[0], d))
        out[:, 1] = x[:, 0]
        out[:, 2:] = x[:, 1:]
        return out

    return ChartImmersion(model=SolvableModel(params), domain_dim=d - 1, mapper=mapper)


def kahler_angle(v, rows) -> float:
    """Kaehler angle of a finite nonzero v, of any scale, inside the span
    of the orthonormal rows: the angle between J v and that span, read as
    atan2 of the parts of J v off and on the span (acos of the second
    alone loses half the digits near 0).  Raises if v is not in the span."""
    rows = np.asarray(rows, dtype=float)
    v = np.asarray(v, dtype=float)
    scale = np.max(np.abs(v))
    if not 0.0 < scale < math.inf:
        raise ValueError("cannot take the Kaehler angle of the zero vector or a non-finite one")
    # the angle does not depend on scale; a largest entry of 1 keeps every norm finite
    v = v / scale
    norm = np.linalg.norm(v)
    coeffs = rows @ v
    if np.linalg.norm(v - rows.T @ coeffs) > SPAN_TOLERANCE * norm:
        raise ValueError("vector does not lie in the given subspace")
    jv = j_action(v)
    proj = rows @ jv
    return float(math.atan2(np.linalg.norm(jv - rows.T @ proj), np.linalg.norm(proj)))


def convergence_order(make_residual, steps=(1e-3, 5e-4)) -> float:
    """log2 residual ratio under halving; make_residual(h) -> float."""
    r1 = make_residual(steps[0])
    r2 = make_residual(steps[1])
    if r2 == 0:
        return float("inf")
    return math.log2(r1 / r2) / math.log2(steps[0] / steps[1])


def stencil_decompositions(field: GermField) -> list:
    """The per-row reference of a GermField's stacked stencil pass: one
    germ and one ``principal_decomposition`` per L1 <= 1 stencil row, at
    the lab's grouping tolerance."""
    basis, shape = field._germ_stack
    normals = field._shape["normals"][field._stencil]
    return [
        principal_decomposition(
            HypersurfaceGerm(params=field.params, normal=nrm, tangent_basis=tb, shape=sh),
            tol=NUMERIC_GROUPING_TOLERANCE,
        )
        for nrm, tb, sh in zip(normals, basis, shape)
    ]


def _aligned_space_field_per_row(decomps, center_rows, eigenvalue) -> np.ndarray:
    """Orthonormal bases tracking center_rows, stacked over the stencil:
    at each row, the projection onto the eigenspace nearest the given
    eigenvalue, re-orthonormalized (Loewdin)."""
    proj = []
    for decomp in decomps:
        i = int(np.argmin(np.abs(decomp.eigenvalues - eigenvalue)))
        space = decomp.spaces[i]
        proj.append(center_rows @ space.T @ space)
    u, _, vt = np.linalg.svd(np.stack(proj), full_matrices=False)
    return u @ vt


def frame_fields_per_row(field: GermField) -> FrameFields:
    """``GermField.frame_fields`` one stencil row at a time: a
    decomposition, a ``hopf_frame`` and one projection per aligned space
    for each row, raising the same ``Indeterminate``."""
    decomps = stencil_decompositions(field)
    decomp = decomps[0]
    lam = [float(v) for v in decomp.eigenvalues]
    rest = decomp.non_hopf_indices
    if decomp.h != 2 or not rest:
        lack = (
            "no non-projected lambda_3 eigenspace" if decomp.h == 2
            else f"h = {decomp.h} projected eigenspaces, not 2"
        )
        groups = ", ".join(f"{v:.6g}" for v in lam)
        raise Indeterminate(
            "the frame suites cannot run: at grouping tolerance "
            f"{NUMERIC_GROUPING_TOLERANCE:g} the center germ has {lack} "
            f"({decomp.g} eigenvalue groups: {groups})"
        )
    off = [d.h for d in decomps if d.h != 2]
    if off:
        raise Indeterminate(
            "the frame suites cannot run: at grouping tolerance "
            f"{NUMERIC_GROUPING_TOLERANCE:g} a stencil neighbour of the "
            f"center germ has h = {off[0]} projected eigenspaces, not 2"
        )
    # U_1, U_2 and A, each stacked over the stencil
    fields = list(np.stack([hopf_frame(d)[1:] for d in decomps], axis=1))
    a_vec = fields[2][0]
    i3 = rest[0]
    groups = [*decomp.hopf_indices, i3]
    # the lambda_3-space minus A, then the other non-projected spaces
    amb3 = decomp.spaces[i3]
    raw3 = amb3 - np.outer(amb3 @ a_vec, a_vec)
    _, sv, vt = np.linalg.svd(raw3, full_matrices=False)
    spaces = [(i3, vt[sv > 0.5])]
    spaces += [(i, decomp.spaces[i]) for i in rest if i != i3]
    for i, rows in spaces:
        if rows.shape[0]:
            aligned = _aligned_space_field_per_row(decomps, rows, lam[i])
            fields.extend(np.swapaxes(aligned, 0, 1))
            groups += [i] * rows.shape[0]
    fields = np.stack(fields)
    return FrameFields(
        fields=fields,
        eigenvalues=tuple(lam[i] for i in groups),
        groups=tuple(groups),
        nabla=field._nabla_table(fields),
    )
