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
lattice in one batched call; a chart takes the radii of the tube layer
(``tubes.check_radii``).  A GermField keeps that lattice as one
coordinate array in sorted offset order and reads it through one fixed
layout per domain dimension (``_layout``: the L1 <= 2 rows, their +-e_i
neighbours and the stencil).  Every central difference goes through one
rule, and every derived quantity is a stacked array built in one numpy
pass: tangents and normals on the L1 <= 2 ball, shape data and
Christoffel symbols on the L1 <= 1 stencil, the stencil germs' eigen-data
(one stacked pass over the stencil by ``spectral``'s own rules: its
symmetrised ``eigh``, grouping, Hopf selection and Hopf-frame formulas;
only the center germ gets a ``principal_decomposition``), and one
frame-field table (``FrameFields``: U_1, U_2, A, the aligned eigenspace
complements and every nabla_{X_a} X_b at the center), which the four
frame-identity suites read as vector expressions.  The accessors return
center values.
The chart values and stacks are computed with numpy's floating-point
warnings off; a stack left non-finite by a step or scale past the
double range raises ``Indeterminate`` (no suite runs).

Only ``chgeom residuals`` runs this module, so neither the package root
nor the CLI imports it until it is used.  Its default differencing step
is ``model.DEFAULT_FD_STEP``, which the CLI's ``--fd-step`` reads
without loading the lab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .construction import SubmanifoldSpec
from .model import (
    DEFAULT_FD_STEP, SolvableModel, _row_dot, ambient_curvature,
    check_positive, j_action,
)
from .spectral import (
    HypersurfaceGerm, _eigh, _group_starts, _hopf_vectors, _projected,
    principal_decomposition, totally_real_check,
)
from .tubes import check_radii

NUMERIC_GROUPING_TOLERANCE = 1e-4
# second derivatives of the chart (the normal's derivative, Christoffel
# symbols' derivative) reach three steps from the center
LATTICE_RADIUS = 3


# the residual suites in the order ``residual_suites`` runs them; the
# last four read the frame-field table
RESIDUAL_SUITES = (
    "gauss", "codazzi", "real_eigenspace",
    "graded_connection", "graded_curvature", "unit_pair_gauss", "frame_connection",
)


class Indeterminate(ValueError):
    """A valid input on which suites cannot run: a singular chart metric
    (no suite runs) or a germ with no canonical frame (no frame suite)."""


@dataclass
class ChartImmersion:
    """Batched immersion of a parameter box into its model's coordinates."""

    model: SolvableModel
    domain_dim: int
    mapper: Callable[[np.ndarray], np.ndarray]  # (N, dom) -> (N, 2n)


def _sphere_direction(spec: SubmanifoldSpec, theta: np.ndarray) -> np.ndarray:
    """Exponential chart of the unit normal sphere around the first
    normal direction; smooth through theta = 0, and the first normal
    itself when there are no angles (k = 1)."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    nrm = np.linalg.norm(theta, axis=1)
    # sin(|t|)/|t| is an entire function of |t|^2
    sinc = np.sinc(nrm / np.pi)
    out = np.cos(nrm)[:, None] * spec.normal_basis[0][None, :]
    out += (sinc[:, None] * theta) @ spec.normal_basis[1:]
    return out


def tube_chart(spec: SubmanifoldSpec, r: float) -> ChartImmersion:
    """Radius-r tube around the orbit, r in the tube layer's domain
    (``tubes.check_radii``): parameters are (base subgroup coordinates (t,
    z, w_1..w_{2n-2-k}), normal sphere angles (k-1)).

    Base points are exact group elements of the orbit subgroup; each
    chart value is the endpoint of one normal geodesic of length r, in
    closed form (``SolvableModel.geodesic_closed``), batched over requests.
    """
    check_radii(spec.params.c, spec.k, (r,))
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
        eta = _sphere_direction(spec, x[:, 2 + n_w :])
        coords, _ = model.geodesic_closed(base, eta, r)
        return coords

    return ChartImmersion(model=model, domain_dim=dom, mapper=mapper)


@lru_cache(maxsize=None)
def _lattice(dim: int, radius: int = LATTICE_RADIUS) -> np.ndarray:
    """All integer offsets of L1 norm <= radius: read-only (M, dim) rows
    in lexicographic order."""
    if dim == 0:
        return np.zeros((1, 0), dtype=np.int64)
    blocks = []
    for v in range(-radius, radius + 1):
        rest = _lattice(dim - 1, radius - abs(v))
        blocks.append(np.column_stack([np.full(len(rest), v), rest]))
    out = np.concatenate(blocks)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _layout(dim: int) -> tuple:
    """Index tables of the ``_lattice(dim)`` rows:

      ball2        (B2,) lattice rows of the L1 <= 2 ball, in lattice order
      nbr          (B2, dim, 2) lattice rows of ball2[p] + e_i and - e_i
      stencil      (2 dim + 1,) ball positions of the center, +e_0, -e_0,
                   +e_1, ...
      stencil_nbr  (2 dim + 1, dim, 2) ball positions of stencil[s] +- e_i
      center_nbr   (dim, 2) stencil positions of the center +- e_i
    """
    offsets = _lattice(dim)
    row = {off: i for i, off in enumerate(map(tuple, offsets.tolist()))}
    ball2 = np.flatnonzero(np.abs(offsets).sum(axis=1) <= 2)
    unit = np.eye(dim, dtype=np.int64)
    shifted = offsets[ball2][:, None, None] + np.stack([unit, -unit], axis=1)
    nbr = np.array(
        [row[tuple(off)] for off in shifted.reshape(-1, dim).tolist()]
    ).reshape(shifted.shape[:-1])
    ball_pos = np.full(len(offsets), -1)
    ball_pos[ball2] = np.arange(len(ball2))
    center = ball_pos[row[(0,) * dim]]
    stencil = np.r_[center, ball_pos[nbr[center]].ravel()]
    center_nbr = np.arange(1, 2 * dim + 1).reshape(dim, 2)
    tables = (ball2, nbr, stencil, ball_pos[nbr[stencil]], center_nbr)
    for table in tables:
        table.setflags(write=False)
    return tables


def _by_size(start: np.ndarray, size: np.ndarray):
    """For each distinct group size m (ascending): the positions of the
    groups of that size and the (count, m) flat indices of their
    members, for groups given by first flat index and size."""
    for m in sorted(set(size.tolist())):
        sel = np.flatnonzero(size == m)
        yield sel, start[sel, None] + np.arange(m)


@dataclass(frozen=True)
class FrameFields:
    """Principal-curvature frame fields around the center of a GermField.

    fields[a, s] holds the ambient frame components of X_a at stencil
    row s (the GermField's L1 <= 1 stencil order).  X_0, X_1, X_2 are
    U_1, U_2, A; the rest complete the lambda_3-eigenspace (orthogonally
    to A) and span the other non-projected eigenspaces.  At the center
    (stencil row 0) X_a has principal curvature eigenvalues[a], so
    eigenvalues[:3] are (lambda_1, lambda_2, lambda_3); groups[a] is the
    index of X_a's eigenspace in the center decomposition; nabla[a, b] =
    nabla_{X_a} X_b there.
    """

    fields: np.ndarray  # (F, 2 dom + 1, 2n)
    eigenvalues: tuple
    groups: tuple
    nabla: np.ndarray  # (F, F, 2n)


class GermField:
    """All finite-difference data of a chart around a center point.

    Evaluates the chart once on the L1 <= 3 offset lattice, kept as one
    (M, 2n) coordinate array in sorted offset order and read through the
    index tables of ``_layout``.  Tangents and normals are stacked over
    the L1 <= 2 ball; shape data, Christoffel symbols and germs over the
    stencil (rows: center, +e_0, -e_0, +e_1, ...).  Each stack, and (when
    the center germ has two projected eigenvalues) the principal-curvature
    frame fields with their connection table, is built in one batched
    pass on first use.  The stencil germs are decomposed in one stacked
    pass: one ``spectral._eigh`` over their shapes, then each row's
    eigenvalue groups (``spectral._group_starts``), the J xi projections,
    the Hopf check at the neighbours (``spectral._projected``), U_1, U_2,
    A (``spectral._hopf_vectors``) and the aligned eigenspace fields, each
    row with the bits of a one-germ ``principal_decomposition``.  Only the
    center keeps a ``HypersurfaceGerm`` and a ``PrincipalDecomposition``.
    The accessors return the center values.
    """

    def __init__(
        self,
        chart: ChartImmersion,
        x0,
        fd_step: float = DEFAULT_FD_STEP,
    ):
        check_positive("fd_step", fd_step)
        self.chart = chart
        self.model = chart.model
        self.params = chart.model.params
        self.x0 = np.asarray(x0, dtype=float)
        if self.x0.shape != (chart.domain_dim,):
            raise ValueError("center point has wrong dimension")
        self.h = float(fd_step)
        self.dom = chart.domain_dim
        (
            self._ball2, self._nbr, self._stencil, self._stencil_nbr,
            self._center_nbr,
        ) = _layout(self.dom)
        self._center = self._stencil[0]  # ball position of the center
        with np.errstate(all="ignore"):  # ``_tangents`` refuses a non-finite chart
            self._coords = chart.mapper(self.x0[None, :] + self.h * _lattice(self.dom))

    def _difference(self, values: np.ndarray, nbr: np.ndarray) -> np.ndarray:
        """Central differences of a stack (its axis 0) at the rows whose
        +e_i and -e_i neighbours are nbr[..., i, 0] and nbr[..., i, 1]."""
        return (values[nbr[..., 0]] - values[nbr[..., 1]]) / (2.0 * self.h)

    def _finite(self, what: str, *stacks) -> None:
        """Raise ``Indeterminate`` (no suite runs) unless every stack is
        finite, as at a step or scale past the double range."""
        if not all(np.isfinite(stack).all() for stack in stacks):
            raise Indeterminate(
                f"no suite can run: the chart's {what} are not finite at "
                f"fd-step {self.h:g}"
            )

    # -- center values ---------------------------------------------------

    def coords(self) -> np.ndarray:
        return self._coords[self._ball2[self._center]]

    def tangents(self) -> np.ndarray:
        """Frame components of the coordinate tangent vectors."""
        return self._tangents[self._center]

    def normal(self) -> np.ndarray:
        """Unit normal: the SVD normal, times the one sign that makes
        trace S >= 0 (see ``_shape``)."""
        return self._shape["normals"][self._center]

    def germ(self) -> HypersurfaceGerm:
        """Orthonormalized germ (QR of the tangents)."""
        return self._spectra[0]

    def christoffels(self) -> np.ndarray:
        """Gamma[i, j, k]: nabla_{d_i} d_j = Gamma[i,j,k] d_k."""
        return self._christoffels[0]

    def decomposition(self):
        """Principal decomposition of the germ."""
        return self._spectra[1]

    # -- stacks ----------------------------------------------------------

    @cached_property
    def _tangents(self) -> np.ndarray:
        """(B2, dom, 2n) coordinate tangents on the L1 <= 2 ball."""
        c = self._coords
        with np.errstate(all="ignore"):
            rows = self._difference(c, self._nbr)
            tangents = self.model.coordinate_to_frame_velocity(
                c[self._ball2][:, None, :], rows
            )
        self._finite("coordinate tangents", tangents)
        return tangents

    @cached_property
    def _shape(self) -> dict:
        """Unit normals on the L1 <= 2 ball, and stencil stacks of the
        ambient images S(d_i) = -(nabla-bar_{d_i} normal), the scalar form
        <S d_i, d_j>, the metric, its inverse and the coordinate matrix of
        S (C[i, j]: S(d_i) = C[i,j] d_j).  The normals are the SVD normals
        aligned with the center one; they and the S stacks (linear in the
        normal) are negated together when trace S, the trace of C at the
        center, is negative: the co-orientation ``classify`` reads.  A
        singular metric, then a non-finite stack, raises
        ``Indeterminate``."""
        nrm = np.linalg.svd(self._tangents, full_matrices=True)[2][:, -1]
        nrm = np.where((nrm @ nrm[self._center] < 0)[:, None], -nrm, nrm)
        t = self._tangents[self._stencil]
        tt = np.swapaxes(t, 1, 2)
        with np.errstate(all="ignore"):
            dn = self._difference(nrm, self._stencil_nbr)
            s_amb = -(dn + self.model.koszul_connection(t, nrm[self._stencil][:, None, :]))
            ii = s_amb @ tt
            g = t @ tt
            try:
                ginv = np.linalg.inv(g)
            except np.linalg.LinAlgError as exc:
                raise Indeterminate(
                    "no suite can run: the chart's coordinate tangents are "
                    f"linearly dependent at fd-step {self.h:g} (singular metric)"
                ) from exc
            coeff = ii @ ginv
            if np.trace(coeff[0]) < 0:  # trace S: the mean curvature
                nrm, s_amb, ii, coeff = -nrm, -s_amb, -ii, -coeff
        self._finite("shape data", s_amb, ii, g, ginv, coeff)
        return {
            "normals": nrm,
            "s_ambient": s_amb,
            "second_fundamental": ii,
            "metric": g,
            "inv_metric": ginv,
            "coeff": coeff,
        }

    @cached_property
    def _germ_stack(self) -> tuple:
        """Orthonormalized germs on the stencil (QR of the tangents): the
        (S, dom, 2n) tangent bases and the (S, dom, dom) symmetric shapes."""
        t = self._tangents[self._stencil]
        q, rmat = np.linalg.qr(np.swapaxes(t, 1, 2))
        signs = np.sign(np.diagonal(rmat, axis1=1, axis2=2)).copy()
        signs[signs == 0] = 1.0
        q = q * signs[:, None, :]
        rmat = rmat * signs[:, :, None]
        rinv = np.linalg.inv(rmat)
        s_orth = np.swapaxes(rinv, 1, 2) @ (self._shape["s_ambient"] @ q)
        s_orth = 0.5 * (s_orth + np.swapaxes(s_orth, 1, 2))
        return np.swapaxes(q, 1, 2), s_orth

    @cached_property
    def _spectra(self) -> tuple:
        """The center germ, its decomposition (``principal_decomposition``)
        and the stencil's eigen-data from one stacked ``eigh``, each row
        with the bits of its one-germ call: the ascending eigenvalues
        (S, dom), the ambient eigenvector rows (S, dom, 2n) and the
        coefficients of J xi on them (S, dom).  Built together, so an
        ``eigh`` that fails at any row stops the run at the first suite
        that reads the decomposition."""
        basis, shape = self._germ_stack
        normals = self._shape["normals"][self._stencil]
        germ = HypersurfaceGerm(
            params=self.params, normal=normals[0], tangent_basis=basis[0], shape=shape[0]
        )
        decomp = principal_decomposition(germ, tol=NUMERIC_GROUPING_TOLERANCE)
        evals, evecs = _eigh(shape)
        ambient = np.swapaxes(evecs, 1, 2) @ basis
        coeffs = (ambient @ j_action(normals)[..., None])[..., 0]
        return germ, decomp, evals, ambient, coeffs

    # -- connection and curvature ----------------------------------------

    @cached_property
    def _christoffels(self) -> np.ndarray:
        """Gamma[s, i, j, k] at stencil row s, from the tangential part of
        the ambient derivative of the coordinate tangents."""
        t = self._tangents[self._stencil]
        ginv = self._shape["inv_metric"][:, None, None]
        with np.errstate(all="ignore"):
            dt = self._difference(self._tangents, self._stencil_nbr)
            nab = dt + self.model.koszul_connection(t[:, :, None], t[:, None, :])
            gam = (ginv @ (t[:, None, None] @ nab[..., None]))[..., 0]
            gam = 0.5 * (gam + np.swapaxes(gam, 1, 2))
        self._finite("Christoffel symbols", gam)
        return gam

    def intrinsic_curvature(self) -> np.ndarray:
        """R[i, j, k, m] = <R(d_i, d_j) d_k, d_m> at the center, from the
        Christoffel field of the induced metric."""
        gam0 = self._christoffels[0]
        dgam = self._difference(self._christoffels, self._center_nbr)
        # R(d_i,d_j)d_k = d_i(G_jk) - d_j(G_ik) + G_i(G_jk) - G_j(G_ik)
        rup = (
            dgam
            - dgam.transpose(1, 0, 2, 3)
            + np.einsum("jkm,iml->ijkl", gam0, gam0)
            - np.einsum("ikm,jml->ijkl", gam0, gam0)
        )
        return np.einsum("ijkl,lm->ijkm", rup, self._shape["metric"][0])

    # -- eigenframe fields -------------------------------------------------

    @cached_property
    def _groups(self) -> dict:
        """Every stencil row's eigenvalue groups, by
        ``spectral._group_starts`` at the lab's grouping tolerance, listed
        row after row in ascending order (G groups):

          start  (G,) flat index of the group's first eigenvalue
          size   (G,) its multiplicity
          row    (G,) its stencil row
          rank   (G,) its index within its row
          mean   (G,) its eigenvalue
          b      (G,) the norm of J xi's projection onto it
          jxi    (G, 2n) that projection
          first  (S,) each stencil row's first group

        Groups of one size are stacked together, which gives each sum and
        product the bits of its one-group call."""
        _, _, evals, ambient, coeffs = self._spectra
        rows, dom = evals.shape
        start = np.array([
            row * dom + i for row, values in enumerate(evals.tolist())
            for i in _group_starts(values, NUMERIC_GROUPING_TOLERANCE)
        ])
        with np.errstate(all="ignore"):
            size = np.append(start[1:], evals.size) - start
            row = start // dom
            first = np.searchsorted(row, np.arange(rows))
            mean = np.empty(len(start))
            sq = np.empty(len(start))
            jxi = np.empty((len(start), ambient.shape[-1]))
            for sel, idx in _by_size(start, size):
                mean[sel] = evals.reshape(-1)[idx].sum(axis=1) / idx.shape[1]
                v = coeffs.reshape(-1)[idx][:, None]
                sq[sel] = (v @ np.swapaxes(v, 1, 2))[:, 0, 0]
                jxi[sel] = (v @ ambient.reshape(evals.size, -1)[idx])[:, 0]
        return {
            "start": start, "size": size, "row": row,
            "rank": np.arange(len(start)) - first[row], "first": first,
            "mean": mean, "b": np.sqrt(sq), "jxi": jxi,
        }

    def _aligned_space_field(self, center_rows, eigenvalue) -> np.ndarray:
        """Orthonormal bases tracking center_rows, stacked over the
        stencil: at each row, the projection onto the eigenspace nearest
        the given eigenvalue, re-orthonormalized (Loewdin)."""
        grp = self._groups
        ambient = self._spectra[3]
        # distances to each row's groups, padded with inf past its last
        dist = np.full((len(grp["first"]), grp["rank"].max() + 1), np.inf)
        dist[grp["row"], grp["rank"]] = np.abs(grp["mean"] - eigenvalue)
        pick = grp["first"] + np.argmin(dist, axis=1)
        proj = np.empty((len(pick), *center_rows.shape))
        for sel, idx in _by_size(grp["start"][pick], grp["size"][pick]):
            space = ambient.reshape(-1, ambient.shape[-1])[idx]
            proj[sel] = center_rows @ np.swapaxes(space, 1, 2) @ space
        u, _, vt = np.linalg.svd(proj, full_matrices=False)
        return u @ vt

    @cached_property
    def frame_fields(self) -> FrameFields:
        """U_1, U_2, A and the aligned eigenspace complements, with the
        table of their tangential derivatives at the center."""
        decomp = self.decomposition()
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
        grp = self._groups
        hopf = _projected(grp["b"])
        h = np.bincount(grp["row"][hopf], minlength=len(self._stencil))
        off = h[h != 2]
        if len(off):
            raise Indeterminate(
                "the frame suites cannot run: at grouping tolerance "
                f"{NUMERIC_GROUPING_TOLERANCE:g} a stencil neighbour of the "
                f"center germ has h = {off[0]} projected eigenspaces, not 2"
            )
        # U_1, U_2 and A, each stacked over the stencil; pair[i] holds
        # every row's i-th Hopf group
        pair = np.flatnonzero(hopf).reshape(-1, 2).T
        b1, b2 = grp["b"][pair, None]
        xi = self._shape["normals"][self._stencil]
        fields = list(_hopf_vectors(*grp["jxi"][pair], b1, b2, xi))
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
                aligned = self._aligned_space_field(rows, lam[i])
                fields.extend(np.swapaxes(aligned, 0, 1))
                groups += [i] * rows.shape[0]
        fields = np.stack(fields)
        return FrameFields(
            fields=fields,
            eigenvalues=tuple(lam[i] for i in groups),
            groups=tuple(groups),
            nabla=self._nabla_table(fields),
        )

    def _nabla_table(self, fields: np.ndarray) -> np.ndarray:
        """nabla[a, b] = nabla_{X_a} X_b at the center for stencil fields
        (F, S, 2n): the tangential part of the ambient derivative."""
        x0 = fields[:, 0]
        dval = self.scalar_derivative(
            np.moveaxis(fields, 1, -1)[None], x0[:, None, None]
        )
        nab = dval + self.model.koszul_connection(x0[:, None], x0[None, :])
        nrm = self.normal()
        return nab - _row_dot(nab, nrm)[..., None] * nrm

    # -- derivative helpers ------------------------------------------------

    def _coord_components(self, ambient_vecs) -> np.ndarray:
        """Coordinate components (last axis) of ambient tangent vectors."""
        vecs = np.asarray(ambient_vecs, dtype=float)[..., None]
        return (self._shape["inv_metric"][0] @ (self.tangents() @ vecs))[..., 0]

    def scalar_derivative(self, values, direction):
        """Directional derivative of scalar fields given on the stencil
        (last axis of values) along ambient tangent vectors at the center
        (last axis of direction), broadcast over leading axes."""
        stack = np.moveaxis(np.asarray(values, dtype=float), -1, 0)
        diff = self._difference(stack, self._center_nbr)  # (dom, ...)
        comp = np.moveaxis(self._coord_components(direction), -1, 0)
        return (comp * diff).sum(axis=0)


# ---------------------------------------------------------------------------
# residual suites


def gauss_codazzi_residuals(field: GermField) -> dict:
    """Max-norm residuals of the Gauss and Codazzi equations on the
    coordinate frame, against ``model.ambient_curvature``: the tangential
    components <Rbar(d_i, d_j) d_k, d_m> and the normal ones
    <Rbar(d_i, d_j) d_k, xi>, read off one stack of Rbar(d_i, d_j) d_k."""
    t = field.tangents()
    rbar = ambient_curvature(t[:, None, None], t[None, :, None], t[None, None, :], field.params.c)
    rbar_t = rbar @ t.T
    rbar_n = rbar @ field.normal()
    r_int = field.intrinsic_curvature()
    sd = field._shape
    ii = sd["second_fundamental"][0]

    gauss = rbar_t - (
        r_int
        - np.einsum("jk,im->ijkm", ii, ii)
        + np.einsum("ik,jm->ijkm", ii, ii)
    )

    gam = field.christoffels()
    coeff = sd["coeff"]
    dco = field._difference(coeff, field._center_nbr)
    # (nabla_i S)(d_j) = d_i(C[j,:]) + C[j,m] G[i,m,:] - G[i,j,m] C[m,:]
    nab_s = (
        dco
        + np.einsum("jm,iml->ijl", coeff[0], gam)
        - np.einsum("ijm,ml->ijl", gam, coeff[0])
    )
    nab_s_low = np.einsum("ijl,lk->ijk", nab_s, sd["metric"][0])
    codazzi = rbar_n - (nab_s_low - nab_s_low.transpose(1, 0, 2))
    return {
        "gauss": float(np.max(np.abs(gauss))),
        "codazzi": float(np.max(np.abs(codazzi))),
    }


def real_eigenspace_residual(field: GermField) -> float:
    """Projected eigenspaces must be totally real: max |<J v, w>| over
    pairs inside each eigenspace carrying structure-vector projection."""
    return totally_real_check(field.decomposition())


def _worst(values) -> float:
    """max |values|, or 0 for none."""
    return float(np.max(np.abs(values), initial=0.0))


def _eigen_pairs(ff: FrameFields):
    """Eigenvalues as an array and the table close[a, b]: X_a and X_b
    lie in the same eigenspace of the center decomposition."""
    groups = np.asarray(ff.groups)
    return np.asarray(ff.eigenvalues), groups[None, :] == groups[:, None]


def graded_connection_residuals(field: GermField) -> float:
    """For X, Y in the alpha-eigenspace and Z in a different one:
    <nabla_X Y, Z> = c/(4(alpha-beta)) (<JY,Z><X,Jxi> + <JX,Y><Z,Jxi>
    + 2<JX,Z><Y,Jxi>)."""
    ff = field.frame_fields
    c = field.params.c
    x = ff.fields[:, 0]
    jx = j_action(x)
    xjxi = _row_dot(x, j_action(field.normal()))
    lam, close = _eigen_pairs(ff)
    a, b, z = np.nonzero(close[:, :, None] & ~close[:, None, :])
    lhs = _row_dot(ff.nabla[a, b], x[z])
    rhs = (c / (4.0 * (lam[a] - lam[z]))) * (
        _row_dot(jx[b], x[z]) * xjxi[a]
        + _row_dot(jx[a], x[b]) * xjxi[z]
        + _row_dot(2.0 * jx[a], x[z]) * xjxi[b]
    )
    return _worst(lhs - rhs)


def graded_curvature_residuals(field: GermField) -> float:
    """<Rbar(X,Y)Z, xi> = (beta-gamma)<nabla_X Y, Z>
    - (alpha-gamma)<nabla_Y X, Z> over eigen-field triples, alpha != beta."""
    ff = field.frame_fields
    x = ff.fields[:, 0]
    lam, close = _eigen_pairs(ff)
    a, b, z = np.nonzero(np.repeat(~close[:, :, None], len(x), axis=2))
    rbar = ambient_curvature(x[a], x[b], x[z], field.params.c)
    lhs = _row_dot(rbar, field.normal())
    nab_xy_z = _row_dot(ff.nabla[a, b], x[z])
    nab_yx_z = _row_dot(ff.nabla[b, a], x[z])
    rhs = (lam[b] - lam[z]) * nab_xy_z - (lam[a] - lam[z]) * nab_yx_z
    return _worst(lhs - rhs)


def unit_pair_gauss_residual(field: GermField) -> float:
    """Scalar Gauss identity for unit eigen-fields X in T_alpha, Y in
    T_beta (alpha != beta); all derivative terms by central differences."""
    ff = field.frame_fields
    c = field.params.c
    lam, close = _eigen_pairs(ff)
    a, b = np.nonzero(~close)
    alpha, beta = lam[a], lam[b]
    jfields = j_action(ff.fields)
    jxi = j_action(field._shape["normals"][field._stencil])
    # stencil values of <JX, Y>, <X, J xi> and <Y, J xi>
    jxy = _row_dot(jfields[a], ff.fields[b])
    fjxi = _row_dot(ff.fields, jxi)
    xjxi, yjxi = fjxi[a], fjxi[b]
    x0, y0 = ff.fields[a, 0], ff.fields[b, 0]
    jx0, jy0 = jfields[a, 0], jfields[b, 0]
    nab = ff.nabla
    nab_xy, nab_yx = nab[a, b], nab[b, a]
    nab_xx, nab_yy = nab[a, a], nab[b, b]

    jxy0, xjxi0, yjxi0 = jxy[:, 0], xjxi[:, 0], yjxi[:, 0]
    term1 = (beta - alpha) * (
        -c
        - 4.0 * alpha * beta
        - 2.0 * c * jxy0 * jxy0
        + 8.0 * _row_dot(nab_xy, nab_yx)
        - 4.0 * _row_dot(nab_xx, nab_yy)
    )
    term2 = -4.0 * c * jxy0 * (
        field.scalar_derivative(yjxi, x0) + field.scalar_derivative(xjxi, y0)
    )
    term3 = -c * xjxi0 * (
        3.0 * field.scalar_derivative(jxy, y0)
        + _row_dot(nab_yx, jy0)
        - 2.0 * _row_dot(nab_xy, jy0)
    )
    term4 = -c * yjxi0 * (
        3.0 * field.scalar_derivative(jxy, x0)
        - _row_dot(nab_xy, jx0)
        + 2.0 * _row_dot(nab_yx, jx0)
    )
    return _worst(term1 + term2 + term3 + term4)


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
    decomp = field.decomposition()
    b1, b2 = decomp.jxi_components[decomp.hopf_indices].tolist()
    bsq = (b1 * b1, b2 * b2)
    c = field.params.c
    u0, a0 = ff.fields[:2, 0], ff.fields[2, 0]
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


def residual_suites(field: GermField) -> tuple:
    """Run the suites in ``RESIDUAL_SUITES`` order: (values of those that
    ran, frame_connection's under frame_* names; names of those that did
    not; the reason they did not, or None).  A suite raising
    ``Indeterminate`` or ``LinAlgError`` stops the run; one whose value is
    not finite (a scale or step past the double range) is dropped as not
    run."""
    values, reasons = {}, []
    with np.errstate(all="ignore"):
        try:
            values.update(gauss_codazzi_residuals(field))
            values["real_eigenspace"] = real_eigenspace_residual(field)
            values["graded_connection"] = graded_connection_residuals(field)
            values["graded_curvature"] = graded_curvature_residuals(field)
            values["unit_pair_gauss"] = unit_pair_gauss_residual(field)
            for name, val in frame_connection_residuals(field).items():
                values[f"frame_{name}"] = val
        except Indeterminate as exc:
            reasons.append(str(exc))
        except np.linalg.LinAlgError as exc:  # a decomposition of finite but extreme data
            reasons.append(f"a suite's linear algebra failed: {exc}")
    suite = {key: "frame_connection" if key.startswith("frame_") else key for key in values}
    overflowed = {suite[key] for key, val in values.items() if not math.isfinite(val)}
    if overflowed:
        names = ", ".join(name for name in RESIDUAL_SUITES if name in overflowed)
        reasons.insert(0, f"the values of {names} are not finite")
        values = {key: val for key, val in values.items() if suite[key] not in overflowed}
    ran = {suite[key] for key in values}
    skipped = tuple(name for name in RESIDUAL_SUITES if name not in ran)
    return values, skipped, "; ".join(reasons) or None
