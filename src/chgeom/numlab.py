"""Finite-difference laboratory for induced hypersurface geometry.

A chart immersion maps a parameter box into the ambient group; central
differences of the chart recover tangent frames, the unit normal, the
shape operator, Christoffel symbols and the intrinsic curvature, with
no symbolic differentiation anywhere.  The residual routines check

  * the Gauss and Codazzi hypersurface equations against the exact
    ambient curvature,
  * the graded-connection and graded-curvature identities satisfied by
    principal-curvature frames on hypersurfaces with two projected
    eigenvalues,
  * the closed-form derivatives of the Hopf frame (U_1, U_2, A),

all of which converge at second order in the differencing step.

Tube chart values are closed-form normal geodesics
(``SolvableModel.geodesic_closed``), evaluated on the whole offset
lattice in one batched call.  A GermField orients its normal by one
rule and builds one frame-field table (``FrameFields``): U_1, U_2, A,
the aligned eigenspace complements and every nabla_{X_a} X_b at the
center, which the four frame-identity suites read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .construction import SubmanifoldSpec
from .model import ModelParams, SolvableModel, ambient_curvature, check_positive
from .spectral import (
    HypersurfaceGerm,
    hopf_frame_extract,
    principal_decomposition,
    totally_real_check,
)
from .tubes import MAX_RADIUS

DEFAULT_FD_STEP = 1e-3
NUMERIC_GROUPING_TOLERANCE = 1e-4


@dataclass
class ChartImmersion:
    """Batched immersion of a parameter box into group coordinates."""

    params: ModelParams
    domain_dim: int
    mapper: Callable[[np.ndarray], np.ndarray]  # (N, dom) -> (N, 2n)
    label: str = ""


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

    return ChartImmersion(
        params=params, domain_dim=d - 1, mapper=mapper, label="horosphere"
    )


def _sphere_direction(spec: SubmanifoldSpec, theta: np.ndarray) -> np.ndarray:
    """Exponential chart of the unit normal sphere around the first
    normal direction; smooth through theta = 0."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    nrm = np.linalg.norm(theta, axis=1)
    # sin(|t|)/|t| is an entire function of |t|^2
    sinc = np.sinc(nrm / np.pi)
    out = np.cos(nrm)[:, None] * spec.normal_basis[0][None, :]
    out += (sinc[:, None] * theta) @ spec.normal_basis[1:]
    return out


def tube_chart(spec: SubmanifoldSpec, r: float) -> ChartImmersion:
    """Radius-r tube around the orbit, 0 < r <= MAX_RADIUS: parameters
    are (base subgroup coordinates (t, z, w_1..w_{2n-2-k}), normal sphere
    angles (k-1)).

    Base points are exact group elements of the orbit subgroup; each
    chart value is the endpoint of one normal geodesic of length r, in
    closed form (``SolvableModel.geodesic_closed``), batched over requests.
    """
    if not (0.0 < r <= MAX_RADIUS):
        raise ValueError(f"tube charts need 0 < r <= {MAX_RADIUS}, got {r!r}")
    params = spec.params
    model = SolvableModel(params)
    d = params.dim
    k = spec.k
    n_w = d - 2 - k  # dim of the root part of the tangent space
    dom = (2 + n_w) + (k - 1)
    w_rows = spec.tangent_basis[2:]  # root-space tangent directions

    def mapper(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        base = np.zeros((x.shape[0], d))
        base[:, 0] = x[:, 0]
        base[:, 1] = x[:, 1]
        base[:, 2:] = x[:, 2 : 2 + n_w] @ w_rows[:, 2:]
        eta = _sphere_direction(spec, x[:, 2 + n_w :]) if k > 1 else np.tile(
            spec.normal_basis[0], (x.shape[0], 1)
        )
        coords, _ = model.geodesic_closed(base, eta, r)
        return coords

    return ChartImmersion(
        params=params, domain_dim=dom, mapper=mapper, label=f"tube(r={r})"
    )


@dataclass
class NumericGeometry:
    """Induced data at one parameter point."""

    coords: np.ndarray  # (2n,) global coordinates of the image point
    tangents: np.ndarray  # (dom, 2n) frame components of coordinate tangents
    normal: np.ndarray  # (2n,) unit, oriented so that trace S >= 0 at center
    metric: np.ndarray  # (dom, dom)
    shape_coord: np.ndarray  # S in the coordinate basis, S(d_i) = S^j_i d_j
    second_fundamental: np.ndarray  # <S d_i, d_j>
    germ: HypersurfaceGerm


def _lattice(dim: int, radius: int = 3):
    """All integer offsets of L1 norm <= radius (grown by unit steps)."""
    current = {(0,) * dim}
    for _ in range(radius):
        grown = set(current)
        for off in current:
            for i in range(dim):
                for s in (1, -1):
                    o = list(off)
                    o[i] += s
                    grown.add(tuple(o))
        current = grown
    return sorted(current)


@dataclass(frozen=True)
class FrameFields:
    """Principal-curvature frame fields around the center of a GermField.

    fields[a] maps each L1 <= 1 stencil offset to the ambient frame
    components of X_a.  X_0, X_1, X_2 are U_1, U_2, A; the rest complete
    the lambda_3-eigenspace (orthogonally to A) and span the other
    non-projected eigenspaces.  At the center X_a equals centers[a] and
    has principal curvature eigenvalues[a], so eigenvalues[:3] are
    (lambda_1, lambda_2, lambda_3); nabla[a, b] = nabla_{X_a} X_b there.
    """

    fields: tuple  # dicts offset -> (2n,)
    centers: tuple  # (2n,) each
    eigenvalues: tuple
    b1: float
    b2: float
    nabla: np.ndarray  # (F, F, 2n)


class GermField:
    """All finite-difference data of a chart around a center point.

    Evaluates the chart once on the full offset lattice, then assembles
    tangent frames, normals, shape operators, Christoffel symbols,
    intrinsic curvature and (when the center germ has two projected
    eigenvalues) the principal-curvature frame fields with their
    connection table, each once and on first use.
    """

    def __init__(
        self,
        chart: ChartImmersion,
        x0,
        fd_step: float = DEFAULT_FD_STEP,
        grouping_tol: float = NUMERIC_GROUPING_TOLERANCE,
    ):
        check_positive("fd_step", fd_step)
        self.chart = chart
        self.params = chart.params
        self.model = SolvableModel(chart.params)
        self.x0 = np.asarray(x0, dtype=float)
        if self.x0.shape != (chart.domain_dim,):
            raise ValueError("center point has wrong dimension")
        self.h = float(fd_step)
        self.grouping_tol = grouping_tol
        self.dom = chart.domain_dim

        offsets = _lattice(self.dom, 3)
        pts = self.x0[None, :] + self.h * np.asarray(offsets, dtype=float)
        coords = chart.mapper(pts)
        self._coords = {off: coords[i] for i, off in enumerate(offsets)}
        self._tangents = {}
        self._aligned_normals = {}
        self._sdata = {}
        self._germs = {}
        self._christoffels = {}
        self._decomps = {}
        self._frames = {}

    # -- raw fields ------------------------------------------------------

    def coords(self, off=()) -> np.ndarray:
        off = self._key(off)
        return self._coords[off]

    def _key(self, off):
        off = tuple(off) if off else (0,) * self.dom
        if len(off) != self.dom:
            raise ValueError("offset has wrong dimension")
        return off

    @staticmethod
    def _shift(off, i, s):
        o = list(off)
        o[i] += s
        return tuple(o)

    def tangents(self, off=()) -> np.ndarray:
        """Frame components of the coordinate tangent vectors at off."""
        off = self._key(off)
        if off not in self._tangents:
            c0 = self._coords[off]
            rows = np.empty((self.dom, c0.shape[0]))
            for i in range(self.dom):
                cp = self._coords[self._shift(off, i, 1)]
                cm = self._coords[self._shift(off, i, -1)]
                rows[i] = (cp - cm) / (2.0 * self.h)
            self._tangents[off] = self.model.coordinate_to_frame_velocity(
                c0, rows
            )
        return self._tangents[off]

    def normal(self, off=()) -> np.ndarray:
        """Unit normal: the SVD normal at off, aligned with the one at the
        center, times the one sign that makes trace S >= 0 at the center."""
        return self._orientation * self._aligned_normal(off)

    def _aligned_normal(self, off) -> np.ndarray:
        off = self._key(off)
        if off not in self._aligned_normals:
            _, _, vt = np.linalg.svd(self.tangents(off), full_matrices=True)
            nrm = vt[-1]
            if any(off) and float(nrm @ self._aligned_normal(())) < 0:
                nrm = -nrm
            self._aligned_normals[off] = nrm
        return self._aligned_normals[off]

    @cached_property
    def _orientation(self) -> float:
        center = self._key(())
        s_amb = self._s_ambient(center, self._aligned_normal)
        ii = s_amb @ self.tangents(center).T
        return -1.0 if np.trace(ii) < 0 else 1.0

    def _s_ambient(self, off, normal) -> np.ndarray:
        """Rows S(d_i) = -(nabla-bar_{d_i} normal) at off, for a normal
        field given as a function of the offset."""
        t = self.tangents(off)
        nrm = normal(off)
        s_amb = np.empty_like(t)
        for i in range(self.dom):
            npl = normal(self._shift(off, i, 1))
            nmi = normal(self._shift(off, i, -1))
            dn = (npl - nmi) / (2.0 * self.h)
            s_amb[i] = -(dn + self.model.koszul_connection(t[i], nrm))
        return s_amb

    def shape_data(self, off=()) -> dict:
        """Ambient images S(d_i), the scalar form <S d_i, d_j>, the metric
        and the coordinate matrix of S at an offset."""
        off = self._key(off)
        if off not in self._sdata:
            t = self.tangents(off)
            s_amb = self._s_ambient(off, self.normal)
            ii = s_amb @ t.T
            g = t @ t.T
            ginv = np.linalg.inv(g)
            self._sdata[off] = {
                "s_ambient": s_amb,
                "second_fundamental": ii,  # <S d_i, d_j>
                "metric": g,
                "inv_metric": ginv,
                "coeff": ii @ ginv,  # C[i, j]: S(d_i) = C[i,j] d_j
            }
        return self._sdata[off]

    def germ(self, off=()) -> HypersurfaceGerm:
        """Orthonormalized germ at an offset (QR of the tangents)."""
        off = self._key(off)
        if off not in self._germs:
            t = self.tangents(off)
            sd = self.shape_data(off)
            q, rmat = np.linalg.qr(t.T)
            signs = np.sign(np.diag(rmat))
            signs[signs == 0] = 1.0
            q = q * signs[None, :]
            rmat = rmat * signs[:, None]
            rinv = np.linalg.inv(rmat)
            s_orth = rinv.T @ (sd["s_ambient"] @ q)
            s_orth = 0.5 * (s_orth + s_orth.T)
            self._germs[off] = HypersurfaceGerm(
                params=self.params,
                normal=self.normal(off),
                tangent_basis=q.T,
                shape=s_orth,
                jmat=self.model.jmat,
            )
        return self._germs[off]

    # -- connection and curvature ----------------------------------------

    def christoffels(self, off=()) -> np.ndarray:
        """Gamma[i, j, k]: nabla_{d_i} d_j = Gamma[i,j,k] d_k, from the
        tangential part of the ambient derivative."""
        off = self._key(off)
        if off not in self._christoffels:
            self._christoffels[off] = self._christoffel_symbols(off)
        return self._christoffels[off]

    def _christoffel_symbols(self, off) -> np.ndarray:
        sd = self.shape_data(off)
        t = self.tangents(off)
        ginv = sd["inv_metric"]
        gam = np.empty((self.dom, self.dom, self.dom))
        for i in range(self.dom):
            tp = self.tangents(self._shift(off, i, 1))
            tm = self.tangents(self._shift(off, i, -1))
            dt = (tp - tm) / (2.0 * self.h)
            for j in range(self.dom):
                nab = dt[j] + self.model.koszul_connection(t[i], t[j])
                gam[i, j] = ginv @ (t @ nab)
        return 0.5 * (gam + np.swapaxes(gam, 0, 1))

    def center_geometry(self) -> NumericGeometry:
        off = self._key(())
        sd = self.shape_data(off)
        return NumericGeometry(
            coords=self.coords(off),
            tangents=self.tangents(off),
            normal=self.normal(off),
            metric=sd["metric"],
            shape_coord=sd["coeff"],
            second_fundamental=sd["second_fundamental"],
            germ=self.germ(off),
        )

    def intrinsic_curvature(self) -> np.ndarray:
        """R[i, j, k, m] = <R(d_i, d_j) d_k, d_m> at the center, from the
        Christoffel field of the induced metric."""
        center = self._key(())
        gam0 = self.christoffels(center)
        dgam = np.empty((self.dom,) + gam0.shape)
        for i in range(self.dom):
            gp = self.christoffels(self._shift(center, i, 1))
            gm = self.christoffels(self._shift(center, i, -1))
            dgam[i] = (gp - gm) / (2.0 * self.h)
        # R(d_i,d_j)d_k = d_i(G_jk) - d_j(G_ik) + G_i(G_jk) - G_j(G_ik)
        rup = (
            dgam
            - dgam.transpose(1, 0, 2, 3)
            + np.einsum("jkm,iml->ijkl", gam0, gam0)
            - np.einsum("ikm,jml->ijkl", gam0, gam0)
        )
        g = self.shape_data(center)["metric"]
        return np.einsum("ijkl,lm->ijkm", rup, g)

    def ambient_curvature_tangent(self) -> np.ndarray:
        """Rbar[i, j, k, m] = <Rbar(d_i, d_j) d_k, d_m> (exact closed form)."""
        t = self.tangents(self._key(()))
        g = t @ t.T
        p = t @ self.model.jmat.T @ t.T  # p[i,j] = <J d_i, d_j>
        c = self.params.c
        return (c / 4.0) * (
            np.einsum("jk,im->ijkm", g, g)
            - np.einsum("ik,jm->ijkm", g, g)
            + np.einsum("jk,im->ijkm", p, p)
            - np.einsum("ik,jm->ijkm", p, p)
            - 2.0 * np.einsum("ij,km->ijkm", p, p)
        )

    def ambient_curvature_normal(self) -> np.ndarray:
        """Rbar[i, j, k] = <Rbar(d_i, d_j) d_k, normal> (exact)."""
        off = self._key(())
        t = self.tangents(off)
        nrm = self.normal(off)
        p = t @ self.model.jmat.T @ t.T
        q = t @ (self.model.jmat @ nrm)  # q[i] = <d_i, J xi> = -<J d_i, xi>
        c = self.params.c
        # <Rbar(X,Y)Z, xi> = c/4 (<JY,Z>< JX,xi> - <JX,Z><JY,xi> - 2<JX,Y><JZ,xi>)
        # and <J d_i, xi> = -q[i]
        return (c / 4.0) * (
            -np.einsum("jk,i->ijk", p, q)
            + np.einsum("ik,j->ijk", p, q)
            + 2.0 * np.einsum("ij,k->ijk", p, q)
        )

    # -- eigenframe fields -------------------------------------------------

    def decomposition(self, off=()):
        """Principal decomposition of the germ at an offset."""
        off = self._key(off)
        if off not in self._decomps:
            self._decomps[off] = principal_decomposition(
                self.germ(off), tol=self.grouping_tol
            )
        return self._decomps[off]

    def hopf_frame(self, off=()):
        """(principal decomposition, Hopf frame) of the germ at an offset;
        needs h = 2 there."""
        off = self._key(off)
        if off not in self._frames:
            decomp = self.decomposition(off)
            self._frames[off] = decomp, hopf_frame_extract(self.germ(off), decomp)
        return self._frames[off]

    def _ambient_space(self, off, group_index) -> np.ndarray:
        space = self.decomposition(off).spaces[group_index]
        return space @ self.germ(off).tangent_basis

    @staticmethod
    def _loewdin(rows: np.ndarray) -> np.ndarray:
        u, _, vt = np.linalg.svd(rows, full_matrices=False)
        return u @ vt

    def aligned_space_field(self, center_rows: np.ndarray, eigenvalue: float):
        """Field of orthonormal bases tracking center_rows: at each stencil
        offset, project onto the eigenspace nearest the given eigenvalue
        and re-orthonormalize.  Returns a dict offset -> rows."""
        out = {}
        for off in self._stencil_l1():
            decomp = self.decomposition(off)
            i = int(np.argmin(np.abs(decomp.eigenvalues - eigenvalue)))
            amb = self._ambient_space(off, i)
            proj = center_rows @ amb.T @ amb
            out[off] = self._loewdin(proj)
        return out

    def _stencil_l1(self):
        zero = (0,) * self.dom
        outs = [zero]
        for i in range(self.dom):
            for s in (1, -1):
                outs.append(self._shift(zero, i, s))
        return outs

    @cached_property
    def frame_fields(self) -> FrameFields:
        """U_1, U_2, A and the aligned eigenspace complements, with the
        table of their tangential derivatives at the center."""
        decomp, frame = self.hopf_frame(())
        stencil = self._stencil_l1()
        frames = [self.hopf_frame(off)[1] for off in stencil]
        fields = [
            {off: getattr(fr, name) for off, fr in zip(stencil, frames)}
            for name in ("u1", "u2", "a_vec")
        ]
        lam = [float(v) for v in decomp.eigenvalues]
        rest = decomp.non_hopf_indices
        i3 = min(rest, key=lambda i: lam[i])
        eigenvalues = [lam[i] for i in decomp.hopf_indices[:2]] + [lam[i3]]
        # the lambda_3-space minus A, then the other non-projected spaces
        amb3 = self._ambient_space((), i3)
        raw3 = amb3 - np.outer(amb3 @ frame.a_vec, frame.a_vec)
        _, sv, vt = np.linalg.svd(raw3, full_matrices=False)
        spaces = [(i3, vt[sv > 0.5])]
        spaces += [(i, self._ambient_space((), i)) for i in rest if i != i3]
        for i, rows in spaces:
            if not rows.shape[0]:
                continue
            aligned = self.aligned_space_field(rows, lam[i])
            for m in range(rows.shape[0]):
                fields.append({off: basis[m] for off, basis in aligned.items()})
                eigenvalues.append(lam[i])
        centers = tuple(f[stencil[0]] for f in fields)
        nabla = np.array(
            [[self.tangential_derivative(y, x) for y in fields] for x in centers]
        )
        return FrameFields(
            fields=tuple(fields),
            centers=centers,
            eigenvalues=tuple(eigenvalues),
            b1=frame.b1,
            b2=frame.b2,
            nabla=nabla,
        )

    # -- derivative helpers ------------------------------------------------

    def scalar_derivative(self, values: dict, direction: np.ndarray) -> float:
        """Directional derivative of a scalar field given on the L1<=1
        stencil along an ambient tangent vector."""
        comp = self._coord_components(direction)
        zero = (0,) * self.dom
        total = 0.0
        for i in range(self.dom):
            vp = values[self._shift(zero, i, 1)]
            vm = values[self._shift(zero, i, -1)]
            total += comp[i] * (vp - vm) / (2.0 * self.h)
        return float(total)

    def _coord_components(self, ambient_vec: np.ndarray) -> np.ndarray:
        sd = self.shape_data(())
        t = self.tangents(())
        return sd["inv_metric"] @ (t @ np.asarray(ambient_vec, dtype=float))

    def ambient_derivative(self, field: dict, direction: np.ndarray) -> np.ndarray:
        """nabla-bar of a vector field (ambient frame components given on
        the L1<=1 stencil) along a tangent direction at the center."""
        comp = self._coord_components(direction)
        zero = (0,) * self.dom
        d = self.params.dim
        dval = np.zeros(d)
        for i in range(self.dom):
            vp = field[self._shift(zero, i, 1)]
            vm = field[self._shift(zero, i, -1)]
            dval += comp[i] * (vp - vm) / (2.0 * self.h)
        return dval + self.model.koszul_connection(direction, field[zero])

    def tangential_derivative(self, field: dict, direction: np.ndarray):
        """Intrinsic nabla: tangential part of the ambient derivative."""
        nab = self.ambient_derivative(field, direction)
        nrm = self.normal(())
        return nab - (nab @ nrm) * nrm

    def field_from_function(self, fn) -> dict:
        """Evaluate fn(offset) on the L1<=1 stencil."""
        return {off: fn(off) for off in self._stencil_l1()}


# ---------------------------------------------------------------------------
# residual suites


def gauss_codazzi_residuals(field: GermField, shape_scale: float = 1.0) -> dict:
    """Max-norm residuals of the Gauss and Codazzi equations on the
    coordinate frame; shape_scale != 1 fakes a miscalibrated shape
    operator (the residuals must then jump, linearly in the offset)."""
    center = (0,) * field.dom
    rbar_t = field.ambient_curvature_tangent()
    rbar_n = field.ambient_curvature_normal()
    r_int = field.intrinsic_curvature()
    sd = field.shape_data(center)
    ii = shape_scale * sd["second_fundamental"]

    gauss = rbar_t - (
        r_int
        - np.einsum("jk,im->ijkm", ii, ii)
        + np.einsum("ik,jm->ijkm", ii, ii)
    )

    gam = field.christoffels(center)
    coeff = {center: shape_scale * sd["coeff"]}
    for i in range(field.dom):
        for s in (1, -1):
            off = field._shift(center, i, s)
            coeff[off] = shape_scale * field.shape_data(off)["coeff"]
    dco = np.empty((field.dom, field.dom, field.dom))
    for i in range(field.dom):
        cp = coeff[field._shift(center, i, 1)]
        cm = coeff[field._shift(center, i, -1)]
        dco[i] = (cp - cm) / (2.0 * field.h)
    # (nabla_i S)(d_j) = d_i(C[j,:]) + C[j,m] G[i,m,:] - G[i,j,m] C[m,:]
    nab_s = (
        dco
        + np.einsum("jm,iml->ijl", coeff[center], gam)
        - np.einsum("ijm,ml->ijl", gam, coeff[center])
    )
    g = sd["metric"]
    nab_s_low = np.einsum("ijl,lk->ijk", nab_s, g)
    codazzi = rbar_n - (nab_s_low - nab_s_low.transpose(1, 0, 2))
    return {
        "gauss": float(np.max(np.abs(gauss))),
        "codazzi": float(np.max(np.abs(codazzi))),
    }


def real_eigenspace_residual(field: GermField) -> float:
    """Projected eigenspaces must be totally real: max |<J v, w>| over
    pairs inside each eigenspace carrying structure-vector projection."""
    return max(
        totally_real_check(field.germ(), field.decomposition()).values(),
        default=0.0,
    )


def graded_connection_residuals(field: GermField) -> float:
    """For X, Y in the alpha-eigenspace and Z in a different one:
    <nabla_X Y, Z> = c/(4(alpha-beta)) (<JY,Z><X,Jxi> + <JX,Y><Z,Jxi>
    + 2<JX,Z><Y,Jxi>)."""
    ff = field.frame_fields
    c = field.params.c
    jmat = field.model.jmat
    jxi0 = jmat @ field.normal()
    worst = 0.0
    frame = list(enumerate(zip(ff.eigenvalues, ff.centers)))
    for a, (alpha, x0) in frame:
        for b, (alpha2, y0) in frame:
            if abs(alpha2 - alpha) > 1e-6:
                continue
            for _, (beta, z0) in frame:
                if abs(beta - alpha) <= 1e-6:
                    continue
                lhs = ff.nabla[a, b] @ z0
                rhs = (c / (4.0 * (alpha - beta))) * (
                    (jmat @ y0) @ z0 * (x0 @ jxi0)
                    + (jmat @ x0) @ y0 * (z0 @ jxi0)
                    + 2.0 * (jmat @ x0) @ z0 * (y0 @ jxi0)
                )
                worst = max(worst, abs(float(lhs - rhs)))
    return worst


def graded_curvature_residuals(field: GermField) -> float:
    """<Rbar(X,Y)Z, xi> = (beta-gamma)<nabla_X Y, Z>
    - (alpha-gamma)<nabla_Y X, Z> over eigen-field triples, alpha != beta."""
    ff = field.frame_fields
    jmat = field.model.jmat
    xi0 = field.normal()
    c = field.params.c
    worst = 0.0
    frame = list(enumerate(zip(ff.eigenvalues, ff.centers)))
    for a, (alpha, x0) in frame:
        for b, (beta, y0) in frame:
            if abs(beta - alpha) <= 1e-6:
                continue
            for _, (gamma, z0) in frame:
                lhs = ambient_curvature(x0, y0, z0, c, jmat) @ xi0
                rhs = (beta - gamma) * (ff.nabla[a, b] @ z0) - (alpha - gamma) * (
                    ff.nabla[b, a] @ z0
                )
                worst = max(worst, abs(float(lhs - rhs)))
    return worst


def unit_pair_gauss_residual(field: GermField) -> float:
    """Scalar Gauss identity for unit eigen-fields X in T_alpha, Y in
    T_beta (alpha != beta); all derivative terms by central differences."""
    ff = field.frame_fields
    jmat = field.model.jmat
    c = field.params.c
    stencil = field._stencil_l1()
    jxi = {off: jmat @ field.normal(off) for off in stencil}
    worst = 0.0
    frame = list(enumerate(zip(ff.eigenvalues, ff.fields)))
    for a, (alpha, xf) in frame:
        for b, (beta, yf) in frame:
            if abs(beta - alpha) <= 1e-6:
                continue
            x0, y0 = ff.centers[a], ff.centers[b]
            jxy = {off: float((jmat @ xf[off]) @ yf[off]) for off in stencil}
            yjxi = {off: float(yf[off] @ jxi[off]) for off in stencil}
            xjxi = {off: float(xf[off] @ jxi[off]) for off in stencil}
            nab_xy, nab_yx = ff.nabla[a, b], ff.nabla[b, a]
            nab_xx, nab_yy = ff.nabla[a, a], ff.nabla[b, b]

            jxy0 = jxy[stencil[0]]
            xjxi0 = xjxi[stencil[0]]
            yjxi0 = yjxi[stencil[0]]
            term1 = (beta - alpha) * (
                -c
                - 4.0 * alpha * beta
                - 2.0 * c * jxy0 * jxy0
                + 8.0 * float(nab_xy @ nab_yx)
                - 4.0 * float(nab_xx @ nab_yy)
            )
            term2 = -4.0 * c * jxy0 * (
                field.scalar_derivative(yjxi, x0)
                + field.scalar_derivative(xjxi, y0)
            )
            jy0 = jmat @ y0
            jx0 = jmat @ x0
            term3 = -c * xjxi0 * (
                3.0 * field.scalar_derivative(jxy, y0)
                + float(nab_yx @ jy0)
                - 2.0 * float(nab_xy @ jy0)
            )
            term4 = -c * yjxi0 * (
                3.0 * field.scalar_derivative(jxy, x0)
                - float(nab_xy @ jx0)
                + 2.0 * float(nab_yx @ jx0)
            )
            worst = max(worst, abs(term1 + term2 + term3 + term4))
    return worst


def frame_connection_residuals(field: GermField) -> dict:
    """Closed-form derivatives of the Hopf frame fields:

      nabla_{U_i} U_i = (-1)^j  3 c b1 b2 / (4(l3 - l_i)) A
      nabla_{U_i} U_j = (-1)^j (l_i - 3 c b_i^2 / (4(l3 - l_i))) A
      nabla_{U_i} A   = (-1)^i [ 3 c b1 b2/(4(l3-l_i)) U_i
                                + (l_i - 3 c b_i^2/(4(l3-l_i))) U_j ]
      nabla_A U_i     = (-1)^j / (l_i - l_j) [ c(2 b_j^2 - b_i^2)/4
                        + (l_j - l3)(l_i - 3 c b_i^2/(4(l3-l_i))) ] U_j
      nabla_A A       = 0
    """
    ff = field.frame_fields
    lam, l3 = ff.eigenvalues[:2], ff.eigenvalues[2]
    b1, b2 = ff.b1, ff.b2
    bsq = (b1 * b1, b2 * b2)
    c = field.params.c
    u0, a0 = ff.centers[:2], ff.centers[2]
    nab = ff.nabla  # fields 0, 1, 2 are U_1, U_2, A
    sign = (-1.0, 1.0)  # (-1)^i for i = 1, 2

    res = {}
    for i, j in ((0, 1), (1, 0)):
        ui, uj = f"u{i + 1}", f"u{j + 1}"
        gamma_i = 3.0 * c * b1 * b2 / (4.0 * (l3 - lam[i]))
        delta_i = lam[i] - 3.0 * c * bsq[i] / (4.0 * (l3 - lam[i]))
        res[f"{ui}_{ui}"] = float(np.linalg.norm(nab[i, i] - sign[j] * gamma_i * a0))
        res[f"{ui}_{uj}"] = float(np.linalg.norm(nab[i, j] - sign[j] * delta_i * a0))
        rhs = sign[i] * (gamma_i * u0[i] + delta_i * u0[j])
        res[f"{ui}_a"] = float(np.linalg.norm(nab[i, 2] - rhs))
        coeff = (sign[j] / (lam[i] - lam[j])) * (
            c * (2.0 * bsq[j] - bsq[i]) / 4.0 + (lam[j] - l3) * delta_i
        )
        res[f"a_{ui}"] = float(np.linalg.norm(nab[2, i] - coeff * u0[j]))
    res["a_a"] = float(np.linalg.norm(nab[2, 2]))
    return res


def convergence_order(make_residual, steps=(1e-3, 5e-4)) -> float:
    """log2 residual ratio under halving; make_residual(h) -> float."""
    r1 = make_residual(steps[0])
    r2 = make_residual(steps[1])
    if r2 == 0:
        return float("inf")
    return math.log2(r1 / r2) / math.log2(steps[0] / steps[1])
