"""Homogeneous ruled minimal submanifolds W^{2n-k}_phi of CH^n(c).

A subspace of the J-paired root space with constant Kaehler angle phi
serves as the normal space at the base point; the orthogonal complement
together with the abelian and center directions spans a subalgebra, and
its orbit through the identity is a (2n-k)-dimensional minimal
submanifold ruled by totally geodesic complex hyperbolic subspaces.
The module builds the subspaces, the orbit data, its second fundamental
form from the exact Koszul table, and checks the rigidity normal form
    II(Z, u) = sin(phi) (sqrt(-c)/2) xi
for xi a unit normal and u the unit tangential projection of J xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    B_INDEX,
    GALPHA_START,
    Z_INDEX,
    ModelParams,
    SolvableModel,
    j_action,
    rate,
)

RIGIDITY_TOLERANCE = 1e-10
SPAN_TOLERANCE = 1e-9
CLOSURE_TOLERANCE = 1e-12
RIGHT_ANGLE_TOLERANCE = 1e-12


class OddDimensionNonReal(ValueError):
    """Constant Kaehler angle < pi/2 is impossible on an odd-dimensional
    subspace (the restricted form <J.,.> would be skew of full rank)."""


class DimensionTooLarge(ValueError):
    """The normal space must fit into the paired root space: k <= n-1."""


def is_totally_real(phi: float) -> bool:
    """phi is pi/2 (a totally real subspace) to RIGHT_ANGLE_TOLERANCE."""
    return abs(phi - math.pi / 2.0) <= RIGHT_ANGLE_TOLERANCE


def _validate_k_phi(n: int, k: int, phi: float):
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > n - 1:
        raise DimensionTooLarge(f"k={k} exceeds n-1={n - 1}")
    if not (0.0 < phi <= math.pi / 2.0 or is_totally_real(phi)):
        raise ValueError(f"phi must lie in (0, pi/2], got {phi!r}")
    if not is_totally_real(phi) and k % 2 == 1:
        raise OddDimensionNonReal(
            f"k={k} odd requires phi = pi/2 (totally real normal space)"
        )


@dataclass(frozen=True)
class KahlerAngleSubspace:
    """Orthonormal rows spanning a constant-angle subspace of the paired
    root space (all rows supported on the root-space indices)."""

    n: int
    k: int
    phi: float
    basis: np.ndarray  # (k, 2n)

    def __post_init__(self):
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=float))
        gram = self.basis @ self.basis.T
        if not np.allclose(gram, np.eye(self.k), atol=1e-10):
            raise ValueError("subspace basis rows must be orthonormal")
        if np.max(np.abs(self.basis[:, :GALPHA_START])) > 1e-12:
            raise ValueError("subspace must lie in the paired root space")


def constant_kahler_angle_subspace(
    params: ModelParams, k: int, phi: float
) -> KahlerAngleSubspace:
    """Canonical k-dimensional subspace of the root space with constant
    Kaehler angle phi; phi = pi/2 gives a totally real subspace, smaller
    angles pair the root directions two at a time (k must be even)."""
    n = params.n
    _validate_k_phi(n, k, phi)
    d = 2 * n
    basis = np.zeros((k, d))

    def e(m):  # m = 1..n-1
        return 2 * m

    def je(m):
        return 2 * m + 1

    if is_totally_real(phi):
        for row in range(k):
            basis[row, e(row + 1)] = 1.0
    else:
        cphi, sphi = math.cos(phi), math.sin(phi)
        for pair in range(k // 2):
            m1, m2 = 2 * pair + 1, 2 * pair + 2
            basis[2 * pair, e(m1)] = 1.0
            basis[2 * pair + 1, je(m1)] = cphi
            basis[2 * pair + 1, e(m2)] = sphi
    return KahlerAngleSubspace(n=n, k=k, phi=float(phi), basis=basis)


def kahler_angle(v, subspace) -> float:
    """Kaehler angle of a nonzero v inside the subspace: the angle between
    J v and the subspace itself.  Raises if v is not in the span."""
    rows = subspace.basis if isinstance(subspace, KahlerAngleSubspace) else np.asarray(
        subspace, dtype=float
    )
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValueError("cannot take the Kaehler angle of the zero vector")
    coeffs = rows @ v
    if np.linalg.norm(v - rows.T @ coeffs) > SPAN_TOLERANCE * norm:
        raise ValueError("vector does not lie in the given subspace")
    proj = rows @ j_action(v)
    cosine = np.linalg.norm(proj) / norm
    return float(math.acos(min(1.0, max(0.0, cosine))))


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
    pxi_unit: np.ndarray  # (k, 2n) rows

    @property
    def zvec(self) -> np.ndarray:
        return self.tangent_basis[1]

    @cached_property
    def second_fundamental_form(self) -> "SecondFundamentalForm":
        """The orbit's ``orbit_second_fundamental_form``, computed on first
        use and then kept with the spec, which is immutable: every tube
        germ of one spec reads the same form."""
        return orbit_second_fundamental_form(self)

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

    @staticmethod
    def from_json_dict(data: dict) -> "SubmanifoldSpec":
        """Inverse of ``to_json_dict``.  n, c, k and phi must pass the
        ``ModelParams`` and ``build_submanifold`` checks, and each array
        must be the one ``build_submanifold`` rebuilds from them: the
        same shape, and the same entries to SPAN_TOLERANCE.  Otherwise
        ValueError, naming the field."""
        try:
            params = ModelParams(n=data["n"], c=float(data["c"]))
            k, phi = data["k"], float(data["phi"])
            _validate_k_phi(params.n, k, phi)
            arrays = {
                name: np.asarray(data[name], dtype=float)
                for name in ("normal_basis", "tangent_basis", "pxi_unit")
            }
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed submanifold spec: {exc!r}") from exc
        spec = build_submanifold(params, int(k), phi)
        for name, given in arrays.items():
            want = getattr(spec, name)
            if given.shape != want.shape:
                raise ValueError(
                    f"{name} has shape {given.shape}, expected {want.shape} "
                    f"for n={params.n}, k={spec.k}"
                )
            if not np.all(np.abs(given - want) <= SPAN_TOLERANCE):
                raise ValueError(
                    f"{name} is not the {name} of the orbit with "
                    f"n={params.n}, k={spec.k}, phi={phi!r}"
                )
        return spec


def _orthonormal_complement(rows: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Orthonormal basis of (span within) minus (span rows), deterministic."""
    # project the candidate directions off the known rows, then SVD
    if rows.size:
        resid = within - (within @ rows.T) @ rows
    else:
        resid = within.copy()
    u, s, vt = np.linalg.svd(resid, full_matrices=False)
    keep = s > 1e-9
    return vt[keep]


def build_submanifold(params: ModelParams, k: int, phi: float) -> SubmanifoldSpec:
    """Assemble the orbit data: normal space, tangent subalgebra basis and
    the paired unit projections of J on the normals."""
    sub = constant_kahler_angle_subspace(params, k, phi)
    d = params.dim
    wperp = sub.basis
    sphi = math.sin(phi)

    # tangential parts of J xi_m, one row per normal; their norm is sin(phi)
    jrows = j_action(wperp)
    tang = jrows - (jrows @ wperp.T) @ wperp
    norms = np.linalg.norm(tang, axis=1)
    if np.max(np.abs(norms - sphi)) > 1e-10:
        raise AssertionError(
            f"tangential projection norms {norms} != sin(phi) {sphi}"
        )
    pxi = tang / norms[:, None]

    galpha = np.zeros((d - 2, d))
    galpha[:, GALPHA_START:] = np.eye(d - 2)
    rest = _orthonormal_complement(np.vstack([wperp, pxi]), galpha)
    if rest.shape[0] != d - 2 - 2 * k:
        raise AssertionError("root-space complement has unexpected dimension")

    tangent = np.zeros((d - k, d))
    tangent[0, B_INDEX] = 1.0
    tangent[1, Z_INDEX] = 1.0
    tangent[2 : 2 + k] = pxi
    tangent[2 + k :] = rest

    spec = SubmanifoldSpec(
        params=params,
        k=k,
        phi=float(phi),
        normal_basis=wperp,
        tangent_basis=tangent,
        pxi_unit=pxi,
    )
    _check_subalgebra(spec)
    return spec


def _check_subalgebra(spec: SubmanifoldSpec):
    """The tangent space at the base point must close under the bracket."""
    t = spec.tangent_basis
    br = SolvableModel(spec.params).bracket(t[:, None], t[None, :])
    if np.max(np.linalg.norm(br - br @ (t.T @ t), axis=-1)) > CLOSURE_TOLERANCE:
        raise AssertionError("tangent space does not close under bracket")


@dataclass(frozen=True)
class SecondFundamentalForm:
    """Matrices[m][i, j] = <II(t_i, t_j), xi_m> in the bases carried by
    the submanifold object."""

    matrices: np.ndarray  # (k, 2n-k, 2n-k)

    @property
    def trace_vector(self) -> np.ndarray:
        """Normal components of trace II (zero for a minimal orbit)."""
        return np.einsum("mii->m", self.matrices)


def orbit_second_fundamental_form(spec: SubmanifoldSpec) -> SecondFundamentalForm:
    """Second fundamental form of the orbit at the base point, computed
    from the exact Koszul table (normal part of nabla on tangent fields)."""
    t = spec.tangent_basis
    # nab[i, j] = nabla_{t_i} t_j over every ordered pair of tangent rows
    nab = SolvableModel(spec.params).koszul_connection(t[:, None], t[None, :])
    mats = np.einsum("ijd,md->mij", nab, spec.normal_basis)
    if np.max(np.abs(mats - np.swapaxes(mats, 1, 2))) > 1e-12:
        raise AssertionError("second fundamental form is not symmetric")
    return SecondFundamentalForm(matrices=mats)


@dataclass(frozen=True)
class RigidityReport:
    passed: bool
    max_residual: float
    trace_norm: float


def rigidity_form_check(
    iiform: SecondFundamentalForm,
    spec: SubmanifoldSpec,
    tol: float = RIGIDITY_TOLERANCE,
) -> RigidityReport:
    """Compare II against the trivial symmetric extension of
    II(Z, u_m) = sin(phi) (sqrt(-c)/2) xi_m (all other entries zero)."""
    t = spec.tangent_basis
    amp = math.sin(spec.phi) * rate(spec.params.c)
    zc = t @ spec.zvec  # <t_i, Z>
    uc = spec.pxi_unit @ t.T  # uc[m, i] = <t_i, u_m>
    expected = amp * (zc[:, None] * uc[:, None, :] + uc[:, :, None] * zc)
    residual = float(np.max(np.abs(iiform.matrices - expected)))
    trace = float(np.linalg.norm(iiform.trace_vector))
    return RigidityReport(
        passed=residual <= tol, max_residual=residual, trace_norm=trace
    )


def maximal_holomorphic_subspace(spec: SubmanifoldSpec) -> np.ndarray:
    """Orthonormal rows spanning T intersect JT at the base point (the
    ruling directions: II vanishes on this subspace)."""
    t = spec.tangent_basis
    proj = t.T @ t
    m = (np.eye(t.shape[1]) - proj) @ j_action(t).T  # column j: (1 - P) J t_j
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    null = vt[int(np.sum(s > 1e-10)) :]
    return null @ t
