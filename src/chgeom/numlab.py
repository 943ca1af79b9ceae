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
(``SolvableModel.geodesic_closed``); a GermField still pre-evaluates
the whole offset lattice it will ever need in one batched call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class GermField:
    """All finite-difference data of a chart around a center point.

    Evaluates the chart once on the full offset lattice, then assembles
    tangent frames, normals, shape operators, Christoffel symbols,
    intrinsic curvature and (when the center germ has two projected
    eigenvalues) the canonical principal-curvature frame fields.
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
        self._normals = {}
        self._sdata = {}
        self._germs = {}
        self._frames = {}
        self._center_normal_ref = None

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
        """Unit normal; center oriented so trace S >= 0, neighbors
        aligned with the center."""
        off = self._key(off)
        center = (0,) * self.dom
        if off != center:
            self.normal(center)
            return self._normal_for(off)
        if center not in self._normals:
            t = self.tangents(center)
            _, _, vt = np.linalg.svd(t, full_matrices=True)
            nrm = vt[-1]
            self._center_normal_ref = nrm
            raw = self._shape_raw(center, nrm)
            if np.trace(raw["second_fundamental"]) < 0:
                nrm = -nrm
                # neighbor normals cached during the trace probe carry
                # the old sign; drop them so they re-align
                self._normals.clear()
            self._center_normal_ref = nrm
            self._normals[center] = nrm
        return self._normals[center]

    def _shape_raw(self, off, nrm) -> dict:
        """Shape data with an explicitly given normal (no caching)."""
        t = self.tangents(off)
        dn = np.empty_like(t)
        for i in range(self.dom):
            npl = self._normal_for(self._shift(off, i, 1))
            nmi = self._normal_for(self._shift(off, i, -1))
            dn[i] = (npl - nmi) / (2.0 * self.h)
        s_amb = np.empty_like(t)
        for i in range(self.dom):
            s_amb[i] = -(dn[i] + self.model.koszul_connection(t[i], nrm))
        ii = s_amb @ t.T  # <S d_i, d_j>
        return {"s_ambient": s_amb, "second_fundamental": ii}

    def _normal_for(self, off):
        """Normal at an offset, aligned to the center reference."""
        off = self._key(off)
        if off in self._normals:
            return self._normals[off]
        t = self.tangents(off)
        _, _, vt = np.linalg.svd(t, full_matrices=True)
        nrm = vt[-1]
        ref = self._center_normal_ref
        if ref is None:
            ref = self.normal(())  # force center orientation first
        if float(nrm @ ref) < 0:
            nrm = -nrm
        self._normals[off] = nrm
        return nrm

    def shape_data(self, off=()) -> dict:
        """Ambient images S(d_i), the scalar form <S d_i, d_j>, and the
        coordinate matrix of S at an offset."""
        off = self._key(off)
        if off not in self._sdata:
            nrm = self.normal(off) if off == (0,) * self.dom else self._normal_for(off)
            raw = self._shape_raw(off, nrm)
            t = self.tangents(off)
            g = t @ t.T
            ginv = np.linalg.inv(g)
            s_coord = ginv @ raw["second_fundamental"]  # S^j_i as [j, i]? see below
            # rows of s_amb are S(d_i); coefficients: S(d_i) = sum_j C[i,j] d_j
            coeff = raw["s_ambient"] @ t.T @ ginv
            raw.update(
                {
                    "metric": g,
                    "inv_metric": ginv,
                    "coeff": coeff,  # C[i, j]: S(d_i) = C[i,j] d_j
                }
            )
            self._sdata[off] = raw
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
            nrm = self.normal(off) if off == (0,) * self.dom else self._normal_for(off)
            self._germs[off] = HypersurfaceGerm(
                params=self.params,
                normal=nrm,
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

    def hopf_fields(self, off=()) -> dict:
        """Canonical frame (xi, U1, U2, A) plus aligned eigenspace bases
        at an offset (ambient frame components)."""
        off = self._key(off)
        if off not in self._frames:
            germ = self.germ(off)
            decomp = principal_decomposition(germ, tol=self.grouping_tol)
            frame = hopf_frame_extract(germ, decomp)
            fields = {
                "xi": germ.normal,
                "u1": frame.u1,
                "u2": frame.u2,
                "a": frame.a_vec,
                "b1": frame.b1,
                "b2": frame.b2,
                "decomp": decomp,
                "germ": germ,
            }
            self._frames[off] = fields
        return self._frames[off]

    def eigenvalue_fields(self) -> dict:
        """Center eigenvalues keyed by role: lam1, lam2, lam3 (the
        smallest non-projected), lam4 when present."""
        fl = self.hopf_fields(())
        decomp = fl["decomp"]
        hopf_idx, rest = decomp.hopf_indices, decomp.non_hopf_indices
        out = {
            "lam1": float(decomp.eigenvalues[hopf_idx[0]]),
            "lam2": float(decomp.eigenvalues[hopf_idx[1]]),
            "hopf_idx": hopf_idx,
            "rest_idx": rest,
        }
        if rest:
            out["lam3"] = float(min(decomp.eigenvalues[i] for i in rest))
        return out

    def _ambient_space(self, off, group_index) -> np.ndarray:
        fl = self.hopf_fields(off)
        decomp = fl["decomp"]
        return decomp.spaces[group_index] @ fl["germ"].tangent_basis

    @staticmethod
    def _loewdin(rows: np.ndarray) -> np.ndarray:
        u, _, vt = np.linalg.svd(rows, full_matrices=False)
        return u @ vt

    def aligned_space_field(self, center_rows: np.ndarray, eigenvalue: float):
        """Field of orthonormal bases tracking center_rows: at each stencil
        offset, project onto the eigenspace nearest the given eigenvalue
        and re-orthonormalize.  Returns a dict offset -> rows."""
        out = {}
        for off in self._stencil_l1(1):
            fl = self.hopf_fields(off)
            decomp = fl["decomp"]
            i = int(np.argmin(np.abs(decomp.eigenvalues - eigenvalue)))
            amb = self._ambient_space(off, i)
            proj = center_rows @ amb.T @ amb
            out[off] = self._loewdin(proj)
        return out

    def _stencil_l1(self, radius=1):
        zero = (0,) * self.dom
        outs = [zero]
        for i in range(self.dom):
            for s in (1, -1):
                outs.append(self._shift(zero, i, s))
        return outs

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
        return {off: fn(off) for off in self._stencil_l1(1)}


# ---------------------------------------------------------------------------
# residual suites


def germ_field(
    chart: ChartImmersion, x0, fd_step: float = DEFAULT_FD_STEP, **kw
) -> GermField:
    return GermField(chart, x0, fd_step, **kw)


def numeric_geometry(
    chart: ChartImmersion, x0, fd_step: float = DEFAULT_FD_STEP
) -> NumericGeometry:
    return GermField(chart, x0, fd_step).center_geometry()


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


def _field_set(field: GermField) -> dict:
    """Canonical fields U1, U2, A plus aligned complements, with their
    eigenvalue labels at the center."""
    ev = field.eigenvalue_fields()
    fl = field.hopf_fields(())
    decomp = fl["decomp"]

    def canonical(name):
        return {off: field.hopf_fields(off)[name] for off in field._stencil_l1(1)}

    out = {
        "fields": {
            "u1": (ev["lam1"], canonical("u1")),
            "u2": (ev["lam2"], canonical("u2")),
            "a": (ev["lam3"], canonical("a")),
        },
        "ev": ev,
        "b1": fl["b1"],
        "b2": fl["b2"],
        "fl": fl,
    }
    # aligned complement fields: lambda_3-space minus A, lambda_4-space
    rest = ev["rest_idx"]
    lam_of = {i: float(decomp.eigenvalues[i]) for i in rest}
    i3 = min(rest, key=lambda i: lam_of[i])
    amb3 = field._ambient_space((0,) * field.dom, i3)
    a0 = fl["a"]
    raw3 = amb3 - np.outer(amb3 @ a0, a0)
    _, sv, vt = np.linalg.svd(raw3, full_matrices=False)
    comp3 = vt[sv > 0.5]
    if comp3.shape[0]:
        aligned = field.aligned_space_field(comp3, lam_of[i3])
        for m in range(comp3.shape[0]):
            out["fields"][f"w3_{m}"] = (
                lam_of[i3],
                {off: rows[m] for off, rows in aligned.items()},
            )
    for i in rest:
        if i == i3:
            continue
        amb = field._ambient_space((0,) * field.dom, i)
        aligned = field.aligned_space_field(amb, lam_of[i])
        for m in range(amb.shape[0]):
            out["fields"][f"w4_{m}"] = (
                lam_of[i],
                {off: rows[m] for off, rows in aligned.items()},
            )
    return out


def real_eigenspace_residual(field: GermField) -> float:
    """Projected eigenspaces must be totally real: max |<J v, w>| over
    pairs inside each eigenspace carrying structure-vector projection."""
    fl = field.hopf_fields(())
    return max(totally_real_check(fl["germ"], fl["decomp"]).values(), default=0.0)


def graded_connection_residuals(field: GermField) -> float:
    """For X, Y in the alpha-eigenspace and Z in a different one:
    <nabla_X Y, Z> = c/(4(alpha-beta)) (<JY,Z><X,Jxi> + <JX,Y><Z,Jxi>
    + 2<JX,Z><Y,Jxi>)."""
    data = _field_set(field)
    c = field.params.c
    jmat = field.model.jmat
    fl = data["fl"]
    jxi0 = jmat @ fl["xi"]
    worst = 0.0
    items = list(data["fields"].items())
    for _, (alpha, xf) in items:
        for _, (alpha2, yf) in items:
            if abs(alpha2 - alpha) > 1e-6:
                continue
            for _, (beta, zf) in items:
                if abs(beta - alpha) <= 1e-6:
                    continue
                zero = (0,) * field.dom
                x0, y0, z0 = xf[zero], yf[zero], zf[zero]
                lhs = field.tangential_derivative(yf, x0) @ z0
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
    data = _field_set(field)
    jmat = field.model.jmat
    fl = data["fl"]
    xi0 = fl["xi"]
    c = field.params.c
    worst = 0.0
    items = list(data["fields"].items())
    zero = (0,) * field.dom
    for _, (alpha, xf) in items:
        for _, (beta, yf) in items:
            if abs(beta - alpha) <= 1e-6:
                continue
            for _, (gamma, zf) in items:
                x0, y0, z0 = xf[zero], yf[zero], zf[zero]
                lhs = ambient_curvature(x0, y0, z0, c, jmat) @ xi0
                rhs = (beta - gamma) * (
                    field.tangential_derivative(yf, x0) @ z0
                ) - (alpha - gamma) * (field.tangential_derivative(xf, y0) @ z0)
                worst = max(worst, abs(float(lhs - rhs)))
    return worst


def unit_pair_gauss_residual(field: GermField) -> float:
    """Scalar Gauss identity for unit eigen-fields X in T_alpha, Y in
    T_beta (alpha != beta); all derivative terms by central differences."""
    data = _field_set(field)
    jmat = field.model.jmat
    c = field.params.c
    zero = (0,) * field.dom
    xi_field = {off: field.hopf_fields(off)["xi"] for off in field._stencil_l1(1)}
    worst = 0.0
    items = list(data["fields"].items())
    for xi_name, (alpha, xf) in items:
        for yi_name, (beta, yf) in items:
            if abs(beta - alpha) <= 1e-6:
                continue
            x0, y0 = xf[zero], yf[zero]

            def sc_jxy(off):
                return float((jmat @ xf[off]) @ yf[off])

            def sc_yjxi(off):
                return float(yf[off] @ (jmat @ xi_field[off]))

            def sc_xjxi(off):
                return float(xf[off] @ (jmat @ xi_field[off]))

            jxy = {off: sc_jxy(off) for off in field._stencil_l1(1)}
            yjxi = {off: sc_yjxi(off) for off in field._stencil_l1(1)}
            xjxi = {off: sc_xjxi(off) for off in field._stencil_l1(1)}

            nab_xy = field.tangential_derivative(yf, x0)
            nab_yx = field.tangential_derivative(xf, y0)
            nab_xx = field.tangential_derivative(xf, x0)
            nab_yy = field.tangential_derivative(yf, y0)

            jxy0 = jxy[zero]
            xjxi0 = xjxi[zero]
            yjxi0 = yjxi[zero]
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
    data = _field_set(field)
    ev = data["ev"]
    l1, l2, l3 = ev["lam1"], ev["lam2"], ev["lam3"]
    b1, b2 = data["b1"], data["b2"]
    c = field.params.c
    zero = (0,) * field.dom
    u1f = data["fields"]["u1"][1]
    u2f = data["fields"]["u2"][1]
    af = data["fields"]["a"][1]
    u10, u20, a0 = u1f[zero], u2f[zero], af[zero]

    lam = {1: l1, 2: l2}
    bsq = {1: b1 * b1, 2: b2 * b2}
    uf = {1: u1f, 2: u2f}
    u0 = {1: u10, 2: u20}
    sign = {1: -1.0, 2: 1.0}  # (-1)^i

    res = {}
    for i, j in ((1, 2), (2, 1)):
        gamma_i = 3.0 * c * b1 * b2 / (4.0 * (l3 - lam[i]))
        delta_i = lam[i] - 3.0 * c * bsq[i] / (4.0 * (l3 - lam[i]))
        lhs = field.tangential_derivative(uf[i], u0[i])
        res[f"u{i}_u{i}"] = float(np.linalg.norm(lhs - sign[j] * gamma_i * a0))
        lhs = field.tangential_derivative(uf[j], u0[i])
        res[f"u{i}_u{j}"] = float(np.linalg.norm(lhs - sign[j] * delta_i * a0))
        lhs = field.tangential_derivative(af, u0[i])
        rhs = sign[i] * (gamma_i * u0[i] + delta_i * u0[j])
        res[f"u{i}_a"] = float(np.linalg.norm(lhs - rhs))
        coeff = (sign[j] / (lam[i] - lam[j])) * (
            c * (2.0 * bsq[j] - bsq[i]) / 4.0 + (lam[j] - l3) * delta_i
        )
        lhs = field.tangential_derivative(uf[i], a0)
        res[f"a_u{i}"] = float(np.linalg.norm(lhs - coeff * u0[j]))
    lhs = field.tangential_derivative(af, a0)
    res["a_a"] = float(np.linalg.norm(lhs))
    return res


def convergence_order(make_residual, steps=(1e-3, 5e-4)) -> float:
    """log2 residual ratio under halving; make_residual(h) -> float."""
    r1 = make_residual(steps[0])
    r2 = make_residual(steps[1])
    if r2 == 0:
        return float("inf")
    return math.log2(r1 / r2) / math.log2(steps[0] / steps[1])
