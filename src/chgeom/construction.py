"""Homogeneous ruled minimal submanifolds W^{2n-k}_phi of CH^n(c).

A subspace of the J-paired root space with constant Kaehler angle phi
serves as the normal space at the base point; the orthogonal complement
together with the abelian and center directions spans a subalgebra, and
its orbit through the identity is a (2n-k)-dimensional minimal
submanifold ruled by totally geodesic complex hyperbolic subspaces.
The module writes the subspace rows and the orbit frame down in closed
form, with sin(phi) and cos(phi) as entries, checks at build time that
the frame is orthonormal, and keeps the second fundamental form on the
immutable ``SubmanifoldSpec`` in the closed rigidity normal form
    II(Z, u) = sin(phi) (sqrt(-c)/2) xi
for xi a unit normal and u the unit tangential projection of J xi, all
other entries zero.  The exact Koszul table is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    B_INDEX,
    Z_INDEX,
    ModelParams,
    SolvableModel,
    j_action,
    rate,
)

RIGIDITY_TOLERANCE = 1e-10
FRAME_TOLERANCE = 1e-12
RIGHT_ANGLE_TOLERANCE = 1e-12


class OddDimensionNonReal(ValueError):
    """Constant Kaehler angle < pi/2 is impossible on an odd-dimensional
    subspace (the restricted form <J.,.> would be skew of full rank)."""


class DimensionTooLarge(ValueError):
    """The normal space must fit into the paired root space: k <= n-1."""


def is_totally_real(phi: float) -> bool:
    """phi is pi/2 (a totally real subspace) to RIGHT_ANGLE_TOLERANCE."""
    return abs(phi - math.pi / 2.0) <= RIGHT_ANGLE_TOLERANCE


def _validate_k_phi(n: int, k, phi: float) -> int:
    """k as an int (an integral float counts, as n does in ``ModelParams``;
    a bool does not), after the checks on k and phi."""
    if isinstance(k, bool) or int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    k = int(k)
    if k > n - 1:
        raise DimensionTooLarge(f"k={k} exceeds n-1={n - 1}")
    if not (0.0 < phi <= math.pi / 2.0 or is_totally_real(phi)):
        raise ValueError(f"phi must lie in (0, pi/2], got {phi!r}")
    if not is_totally_real(phi) and k % 2 == 1:
        raise OddDimensionNonReal(
            f"k={k} odd requires phi = pi/2 (totally real normal space)"
        )
    return k


def constant_kahler_angle_subspace(params: ModelParams, k: int, phi: float) -> np.ndarray:
    """Orthonormal (k, 2n) rows spanning the canonical k-dimensional
    subspace of the root space with constant Kaehler angle phi.  With the
    root directions e_m at index 2m and J e_m at 2m + 1 (m = 1..n-1),
    phi = pi/2 gives the totally real e_1..e_k; smaller angles pair the
    directions two at a time (k must be even): e_{2p+1} and
    cos(phi) J e_{2p+1} + sin(phi) e_{2p+2}."""
    k = _validate_k_phi(params.n, k, phi)
    rows = np.zeros((k, params.dim))
    if is_totally_real(phi):
        rows[np.arange(k), 2 * np.arange(1, k + 1)] = 1.0
    else:
        pair = np.arange(k // 2)
        rows[2 * pair, 4 * pair + 2] = 1.0
        rows[2 * pair + 1, 4 * pair + 3] = math.cos(phi)
        rows[2 * pair + 1, 4 * pair + 4] = math.sin(phi)
    return rows


@dataclass(frozen=True)
class SubmanifoldSpec:
    """Base-point data of the orbit submanifold W^{2n-k}_phi.

    tangent rows are ordered (B, Z, u_1..u_k, rest...) where u_m is the
    unit tangential projection of J xi_m for the normal rows xi_m.
    """

    params: ModelParams
    k: int
    phi: float
    normal_basis: np.ndarray  # (k, 2n) rows = wperp
    tangent_basis: np.ndarray  # (2n-k, 2n) rows

    @property
    def zvec(self) -> np.ndarray:
        return self.tangent_basis[1]

    @property
    def pxi_unit(self) -> np.ndarray:
        """The (k, 2n) rows u_1..u_k of the tangent basis."""
        return self.tangent_basis[2 : 2 + self.k]

    @cached_property
    def second_fundamental_form(self) -> np.ndarray:
        """<II(t_i, t_j), xi_m> as a (k, 2n-k, 2n-k) array [m, i, j] in
        closed form: II(Z, u_m) = sin(phi) (sqrt(-c)/2) xi_m, symmetric,
        zero elsewhere; built on first use and kept with the spec."""
        t = self.tangent_basis
        amp = math.sin(self.phi) * rate(self.params.c)
        zc = t @ self.zvec  # <t_i, Z>
        uc = self.pxi_unit @ t.T  # uc[m, i] = <t_i, u_m>
        return amp * (zc[:, None] * uc[:, None, :] + uc[:, :, None] * zc)

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "c": self.params.c,
            "k": self.k,
            "phi": self.phi,
            "normal_basis": self.normal_basis.tolist(),
            "tangent_basis": self.tangent_basis.tolist(),
            "pxi_unit": self.pxi_unit.tolist(),
        }


def build_submanifold(params: ModelParams, k: int, phi: float) -> SubmanifoldSpec:
    """Assemble the orbit data: the normal rows xi_m, then the tangent
    subalgebra rows B, Z, the unit tangential projections u_m of J xi_m,
    and the rest of the root space, each row in closed form (root
    directions named as in ``constant_kahler_angle_subspace``).  phi = pi/2
    gives u_m = J xi_m = J e_m; a pair xi = e_{2p+1}, xi' = cos(phi)
    J e_{2p+1} + sin(phi) e_{2p+2} gives u = sin(phi) J e_{2p+1} -
    cos(phi) e_{2p+2} and u' = J e_{2p+2}; the rest is e_m, J e_m for
    m = k+1..n-1.  The stacked (normal; tangent) rows must be orthonormal
    to FRAME_TOLERANCE, or AssertionError."""
    wperp = constant_kahler_angle_subspace(params, k, phi)
    k, d = wperp.shape
    eye = np.eye(d)
    if is_totally_real(phi):
        pxi = j_action(wperp)
    else:
        pxi = np.zeros((k, d))
        pair = np.arange(k // 2)
        pxi[2 * pair, 4 * pair + 3] = math.sin(phi)
        pxi[2 * pair, 4 * pair + 4] = -math.cos(phi)
        pxi[2 * pair + 1, 4 * pair + 5] = 1.0
    tangent = np.vstack([eye[[B_INDEX, Z_INDEX]], pxi, eye[2 * k + 2 :]])
    frame = np.vstack([wperp, tangent])
    if np.max(np.abs(frame @ frame.T - eye)) > FRAME_TOLERANCE:
        raise AssertionError("normal and tangent rows are not orthonormal")
    return SubmanifoldSpec(
        params=params, k=k, phi=float(phi), normal_basis=wperp, tangent_basis=tangent
    )


def orbit_second_fundamental_form(spec: SubmanifoldSpec) -> np.ndarray:
    """The orbit's second fundamental form at the base point from the
    exact Koszul table (normal part of nabla on tangent fields), the
    oracle of ``SubmanifoldSpec.second_fundamental_form``: the same
    (k, 2n-k, 2n-k) array, computed without the closed form."""
    t = spec.tangent_basis
    # nab[i, j] = nabla_{t_i} t_j over every ordered pair of tangent rows
    nab = SolvableModel(spec.params).koszul_connection(t[:, None], t[None, :])
    mats = np.einsum("ijd,md->mij", nab, spec.normal_basis)
    if np.max(np.abs(mats - np.swapaxes(mats, 1, 2))) > 1e-12 * form_scale(mats):
        raise AssertionError("second fundamental form is not symmetric")
    return mats


def form_scale(form: np.ndarray) -> float:
    """The scale of a second fundamental form's rounding, which its
    checks are relative to past 1: the largest |entry|, and at least 1
    (the entries grow like sin(phi) s, s = sqrt(-c)/2)."""
    return max(1.0, float(np.max(np.abs(form))))


def rigidity_form_check(spec: SubmanifoldSpec) -> dict:
    """Compare the Koszul-table form ``orbit_second_fundamental_form``
    with the closed form ``spec.second_fundamental_form``.  Returns the
    largest entry deviation as ``shape_form`` and the norm of the trace
    of the Koszul form (zero for a minimal orbit) as ``trace``."""
    form = orbit_second_fundamental_form(spec)
    return {
        "shape_form": float(np.max(np.abs(form - spec.second_fundamental_form))),
        "trace": float(np.linalg.norm(np.einsum("mii->m", form))),
    }

