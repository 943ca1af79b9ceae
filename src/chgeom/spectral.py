"""Principal-curvature spectra of real hypersurfaces and the g<=4 catalog.

For a hypersurface germ (point, unit normal xi, shape operator S) in
CH^n(c), the structure vector J xi projects onto h distinct principal
curvature spaces.  The non-Hopf catalog (h = 2, constant principal
curvatures) is a one-parameter family indexed by the eigenvalue
lambda_3 in [0, sqrt(-c)/2):

    lambda_{1,2} = (3 lambda_3 -/+ sqrt(-c - 3 lambda_3^2)) / 2
    lambda_4     = -c / (4 lambda_3)            (g = 4 only)
    b_i^2        = -((-1)^i lambda_3 + sqrt(-c-3 lambda_3^2))^3
                   / (2 c sqrt(-c - 3 lambda_3^2))

with J xi = b_1 U_1 + b_2 U_2 the Hopf-frame decomposition.  The module
provides the catalog, eigen-decomposition and grouping of measured shape
operators, the Hopf frame with its structural identities, the germ
classifier, and the curvature-sign nonexistence scan.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import jacobi
from .model import (
    ModelParams,
    SolvableModel,
    check_positive,
    rate,
    standard_complex_structure,
)
from .construction import build_submanifold

GROUPING_TOLERANCE = 1e-7
PROJECTION_TOLERANCE = 1e-6
CLASSIFY_TOLERANCE = 1e-6
CATALOG_SUM_TOLERANCE = 1e-12
CATALOG_QUADRATIC_TOLERANCE = 1e-10


class NoRealSolution(ValueError):
    """The catalog equations have no real solution (happens iff c > 0,
    where -c - 3 lambda_3^2 <= -c < 0)."""


# ---------------------------------------------------------------------------
# catalog


def catalog_quadratic(lam1, lam2, lam3, c):
    """Residual of c - 4 l1 l2 + 8 (l1 + l2) l3 - 12 l3^2 = 0."""
    return c - 4.0 * np.asarray(lam1) * lam2 + 8.0 * (np.asarray(lam1) + lam2) * lam3 - 12.0 * np.asarray(lam3) ** 2


def hopf_projection_squares(lam1, lam2, lam3, c):
    """b_i^2 = 4 (lam_j - 2 lam_3)(lam_i - lam_3)^2 / (c (lam_i - lam_j))."""
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)
    lam3 = np.asarray(lam3, dtype=float)
    b1 = 4.0 * (lam2 - 2.0 * lam3) * (lam1 - lam3) ** 2 / (c * (lam1 - lam2))
    b2 = 4.0 * (lam1 - 2.0 * lam3) * (lam2 - lam3) ** 2 / (c * (lam2 - lam1))
    return b1, b2


@dataclass(frozen=True)
class EigenStructure:
    """Catalog spectrum at a fixed lambda_3 (exact closed forms)."""

    c: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float | None
    b1: float
    b2: float
    g: int
    branch: str
    n: int | None = None
    k: int | None = None

    @property
    def multiplicities(self):
        """(1, 1, 2n-2-k, k-1); needs n and k."""
        if self.n is None or self.k is None:
            return None
        return (1, 1, 2 * self.n - 2 - self.k, self.k - 1)

    @property
    def b1sq(self) -> float:
        return self.b1 * self.b1

    @property
    def b2sq(self) -> float:
        return self.b2 * self.b2


def eigen_structure_from_lambda3(
    lambda3: float,
    c: float,
    branch_hint: str | None = None,
    n: int | None = None,
    k: int | None = None,
) -> EigenStructure:
    """Closed-form catalog entry at lambda_3.

    Branches: lambda_3 = 0 -> G3_K1 (the ruled hypersurface itself);
    lambda_3 = sqrt(-c)/(2 sqrt(3)) -> G3_KBIG (lambda_4 merges into
    lambda_2); otherwise G4 unless branch_hint forces G3_K1 (equidistant
    hypersurfaces, k = 1, share their spectrum shape with tubes).
    """
    if c > 0:
        raise NoRealSolution(
            f"-c - 3*lambda3^2 = {-c - 3 * lambda3 ** 2} <= {-c} < 0: "
            "the catalog quadratic has no real roots for c > 0"
        )
    s = rate(c)
    if not (0.0 <= lambda3 < s):
        raise jacobi.OutOfRangeEigenvalue(
            f"lambda3={lambda3!r} outside the catalog range [0, {s!r})"
        )
    root, lam1, lam2 = _catalog_roots(lambda3, c)
    b1sq = -((-lambda3 + root) ** 3) / (2.0 * c * root)
    b2sq = -((lambda3 + root) ** 3) / (2.0 * c * root)

    special = s / math.sqrt(3.0)
    if branch_hint is not None and branch_hint not in ("G3_K1", "G3_KBIG", "G4"):
        raise ValueError(f"unknown branch hint {branch_hint!r}")
    if branch_hint == "G3_K1" or (branch_hint is None and lambda3 == 0.0):
        branch, g, lam4 = "G3_K1", 3, None
        k = 1 if k is None else k
        if k != 1:
            raise ValueError("branch G3_K1 requires k = 1")
    elif abs(lambda3 - special) <= 1e-12 * (1.0 + s):
        branch, g, lam4 = "G3_KBIG", 3, None
        if branch_hint == "G4":
            raise ValueError("g = 4 is impossible at the special eigenvalue")
    elif lambda3 == 0.0:  # hint G3_KBIG/G4 at zero is inconsistent
        raise ValueError("lambda3 = 0 only occurs on branch G3_K1")
    else:
        branch, g = "G4", 4
        lam4 = -c / (4.0 * lambda3)

    es = EigenStructure(
        c=float(c),
        lambda1=lam1,
        lambda2=lam2,
        lambda3=float(lambda3),
        lambda4=lam4,
        b1=math.sqrt(b1sq),
        b2=math.sqrt(b2sq),
        g=g,
        branch=branch,
        n=n,
        k=k,
    )
    _validate_structure(es)
    return es


def _catalog_roots(lambda3: float, c: float):
    """(sqrt(-c - 3 lambda3^2), lambda1, lambda2) of the catalog quadratic."""
    root = math.sqrt(-c - 3.0 * lambda3 * lambda3)
    return root, 0.5 * (3.0 * lambda3 - root), 0.5 * (3.0 * lambda3 + root)


def _validate_structure(es: EigenStructure):
    if not (es.lambda1 < es.lambda3 < es.lambda2):
        raise AssertionError("catalog ordering lambda1 < lambda3 < lambda2 failed")
    if abs(es.b1sq + es.b2sq - 1.0) > CATALOG_SUM_TOLERANCE:
        raise AssertionError("catalog normalization b1^2 + b2^2 = 1 failed")
    quad = catalog_quadratic(es.lambda1, es.lambda2, es.lambda3, es.c)
    if abs(float(quad)) > CATALOG_QUADRATIC_TOLERANCE * (1.0 + abs(es.c)):
        raise AssertionError("catalog quadratic relation failed")


def constraint_residuals(es: EigenStructure) -> dict:
    """Residuals of every defining relation of a catalog entry."""
    b1_alt, b2_alt = hopf_projection_squares(
        es.lambda1, es.lambda2, es.lambda3, es.c
    )
    out = {
        "quadratic": abs(float(catalog_quadratic(es.lambda1, es.lambda2, es.lambda3, es.c))),
        "b1_formula": abs(es.b1sq - float(b1_alt)),
        "b2_formula": abs(es.b2sq - float(b2_alt)),
        "b_sum": abs(es.b1sq + es.b2sq - 1.0),
        "trace_identity": abs(es.lambda1 + es.lambda2 - 3.0 * es.lambda3),
    }
    if es.lambda4 is not None:
        out["lambda4_relation"] = abs(4.0 * es.lambda3 * es.lambda4 + es.c)
    return out


# ---------------------------------------------------------------------------
# germs


@dataclass(frozen=True)
class HypersurfaceGerm:
    """Pointwise hypersurface data in frame components.

    tangent_basis rows are orthonormal, orthogonal to the unit normal;
    shape holds <S t_i, t_j>; jmat is the ambient complex structure in
    the same frame.
    """

    params: ModelParams
    normal: np.ndarray
    tangent_basis: np.ndarray
    shape: np.ndarray
    jmat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        object.__setattr__(
            self, "tangent_basis", np.asarray(self.tangent_basis, dtype=float)
        )
        object.__setattr__(self, "shape", np.asarray(self.shape, dtype=float))
        object.__setattr__(self, "jmat", np.asarray(self.jmat, dtype=float))

    def validate(self, tol: float = 1e-8):
        d = self.params.dim
        frame = np.vstack([self.normal, self.tangent_basis])
        if frame.shape != (d, d):
            raise ValueError("germ frame has wrong dimensions")
        if not np.allclose(frame @ frame.T, np.eye(d), atol=tol):
            raise ValueError("normal + tangent basis is not orthonormal")
        if not np.allclose(self.shape, self.shape.T, atol=tol):
            raise ValueError("shape operator matrix is not symmetric")
        if not np.allclose(self.jmat @ self.jmat, -np.eye(d), atol=tol):
            raise ValueError("complex structure does not square to -id")
        return self

    def flipped(self) -> "HypersurfaceGerm":
        """Opposite co-orientation: negates the normal and the shape."""
        return HypersurfaceGerm(
            params=self.params,
            normal=-self.normal,
            tangent_basis=self.tangent_basis,
            shape=-self.shape,
            jmat=self.jmat,
        )

    def structure_vector(self) -> np.ndarray:
        """J xi in frame components (always tangent)."""
        return self.jmat @ self.normal

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "c": self.params.c,
            "normal": self.normal.tolist(),
            "tangent_basis": self.tangent_basis.tolist(),
            "shape": self.shape.tolist(),
            "J": self.jmat.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "HypersurfaceGerm":
        try:
            params = ModelParams(n=int(data["n"]), c=float(data["c"]))
            germ = HypersurfaceGerm(
                params=params,
                normal=np.asarray(data["normal"], dtype=float),
                tangent_basis=np.asarray(data["tangent_basis"], dtype=float),
                shape=np.asarray(data["shape"], dtype=float),
                jmat=np.asarray(data["J"], dtype=float),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed germ record: {exc}") from exc
        return germ.validate(tol=1e-6)

    @staticmethod
    def from_json(text: str) -> "HypersurfaceGerm":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed germ JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("malformed germ JSON: expected an object")
        return HypersurfaceGerm.from_json_dict(data)


@dataclass
class PrincipalDecomposition:
    """Grouped spectrum of a germ's shape operator.

    eigenvalues: distinct values ascending; spaces[i]: (mult_i, 2n-1)
    coefficient rows in the germ's tangent basis; jxi_components[i]:
    norm of the structure vector's projection onto the i-th space.
    """

    eigenvalues: np.ndarray
    multiplicities: tuple
    spaces: list
    jxi_components: np.ndarray
    tol_used: float
    gap_warning: bool

    @property
    def g(self) -> int:
        return len(self.eigenvalues)

    @property
    def hopf_indices(self) -> list:
        """Ascending indices of the spaces the structure vector projects
        onto (projection norm above PROJECTION_TOLERANCE)."""
        return [
            i for i, b in enumerate(self.jxi_components) if b > PROJECTION_TOLERANCE
        ]

    @property
    def non_hopf_indices(self) -> list:
        """Ascending indices of the spaces orthogonal to the structure vector."""
        hopf = self.hopf_indices
        return [i for i in range(self.g) if i not in hopf]

    @property
    def h(self) -> int:
        return len(self.hopf_indices)


def principal_decomposition(
    germ: HypersurfaceGerm,
    tol: float = GROUPING_TOLERANCE,
) -> PrincipalDecomposition:
    """Eigen-decompose the shape operator and group nearby eigenvalues.

    Grouping tolerance is tol * (1 + max |eigenvalue|); a warning fires
    when some spectral gap is within a factor of two of the tolerance
    (the grouping is then ambiguous)."""
    check_positive("tol", tol)
    sym = 0.5 * (germ.shape + germ.shape.T)
    evals, evecs = np.linalg.eigh(sym)
    scale = 1.0 + float(np.max(np.abs(evals))) if evals.size else 1.0
    tol_eff = tol * scale

    gaps = np.diff(evals)
    warn = bool(np.any((gaps > 0.5 * tol_eff) & (gaps < 2.0 * tol_eff)))
    if warn:
        warnings.warn(
            "spectral gap within a factor of 2 of the grouping tolerance; "
            "eigenvalue grouping may be unstable",
            RuntimeWarning,
            stacklevel=2,
        )

    groups = []
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > tol_eff:
            groups.append((start, i))
            start = i

    jxi = germ.structure_vector()
    jxi_coeff = germ.tangent_basis @ jxi
    values, mults, spaces, projections = [], [], [], []
    for lo, hi in groups:
        values.append(float(np.mean(evals[lo:hi])))
        mults.append(hi - lo)
        block = evecs[:, lo:hi].T  # rows = coefficient vectors
        spaces.append(block)
        projections.append(float(np.linalg.norm(block @ jxi_coeff)))
    return PrincipalDecomposition(
        eigenvalues=np.asarray(values),
        multiplicities=tuple(mults),
        spaces=spaces,
        jxi_components=np.asarray(projections),
        tol_used=tol_eff,
        gap_warning=warn,
    )


@dataclass
class HopfFrame:
    """Unit vectors U_1, U_2 (normalized structure-vector projections),
    the derived vector A = -(J U_1 + b_1 xi)/b_2, and b_1, b_2 > 0."""

    u1: np.ndarray
    u2: np.ndarray
    a_vec: np.ndarray
    b1: float
    b2: float
    lambda1: float
    lambda2: float


def hopf_frame_extract(
    germ: HypersurfaceGerm, decomp: PrincipalDecomposition | None = None
) -> HopfFrame:
    """Extract the two-projection frame; requires h = 2."""
    if decomp is None:
        decomp = principal_decomposition(germ)
    if decomp.h != 2:
        raise ValueError(f"Hopf frame needs h = 2, got h = {decomp.h}")
    i1, i2 = decomp.hopf_indices  # ascending eigenvalues: lambda1 < lambda2
    jxi = germ.structure_vector()
    jxi_coeff = germ.tangent_basis @ jxi

    def unit_projection(i):
        block = decomp.spaces[i]
        coeff = block.T @ (block @ jxi_coeff)
        amb = germ.tangent_basis.T @ coeff
        norm = np.linalg.norm(amb)
        return amb / norm, float(norm)

    u1, b1 = unit_projection(i1)
    u2, b2 = unit_projection(i2)
    a_vec = -(germ.jmat @ u1 + b1 * germ.normal) / b2
    return HopfFrame(
        u1=u1,
        u2=u2,
        a_vec=a_vec,
        b1=b1,
        b2=b2,
        lambda1=float(decomp.eigenvalues[i1]),
        lambda2=float(decomp.eigenvalues[i2]),
    )


def frame_identity_residuals(
    germ: HypersurfaceGerm,
    frame: HopfFrame,
    decomp: PrincipalDecomposition | None = None,
) -> dict:
    """Residuals of the structural frame identities:
    J xi = b1 U1 + b2 U2, <J U1, U2> = 0, J U2 = b1 A - b2 xi,
    J A = b2 U1 - b1 U2, A in the lambda_3 eigenspace."""
    if decomp is None:
        decomp = principal_decomposition(germ)
    jmat, xi = germ.jmat, germ.normal
    res = {
        "jxi_decomposition": float(
            np.linalg.norm(jmat @ xi - frame.b1 * frame.u1 - frame.b2 * frame.u2)
        ),
        "ju1_orthogonality": abs(float((jmat @ frame.u1) @ frame.u2)),
        "ju2_identity": float(
            np.linalg.norm(
                jmat @ frame.u2 - (frame.b1 * frame.a_vec - frame.b2 * xi)
            )
        ),
        "ja_identity": float(
            np.linalg.norm(
                jmat @ frame.a_vec - (frame.b2 * frame.u1 - frame.b1 * frame.u2)
            )
        ),
        "b_sum": abs(frame.b1**2 + frame.b2**2 - 1.0),
    }
    # distance from A to each non-Hopf eigenspace; the catalog puts A in
    # the lambda_3 space (the smallest non-Hopf eigenvalue)
    non_hopf = decomp.non_hopf_indices
    if non_hopf:
        i3 = non_hopf[0]
        block = decomp.spaces[i3]
        coeff_a = germ.tangent_basis @ frame.a_vec
        res["a_in_lambda3_space"] = float(
            np.linalg.norm(coeff_a - block.T @ (block @ coeff_a))
        )
    return res


def totally_real_check(
    germ: HypersurfaceGerm, decomp: PrincipalDecomposition | None = None
) -> dict:
    """max |<J v, w>| over pairs inside each eigenspace that carries a
    structure-vector projection (those spaces must be totally real)."""
    if decomp is None:
        decomp = principal_decomposition(germ)
    out = {}
    for i in decomp.hopf_indices:
        amb = decomp.spaces[i] @ germ.tangent_basis  # rows ambient
        cross = amb @ germ.jmat.T @ amb.T
        out[float(decomp.eigenvalues[i])] = float(np.max(np.abs(cross)))
    return out


# ---------------------------------------------------------------------------
# classifier


@dataclass
class ClassificationResult:
    """Outcome of matching a germ against the non-Hopf catalog."""

    model: str  # "tube" | "equidistant" | "unclassified"
    g: int | None
    h: int | None
    k: int | None
    r: float | None
    branch: str | None
    residuals: dict
    reason: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "model": self.model,
            "g": self.g,
            "h": self.h,
            "k": self.k,
            "r": self.r,
            "branch": self.branch,
            "residuals": self.residuals,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _unclassified(g, h, residuals, reason) -> ClassificationResult:
    return ClassificationResult(
        model="unclassified",
        g=g,
        h=h,
        k=None,
        r=None,
        branch=None,
        residuals=residuals,
        reason=reason,
    )


def classify(
    germ: HypersurfaceGerm,
    tol: float = CLASSIFY_TOLERANCE,
    grouping_tol: float = GROUPING_TOLERANCE,
) -> ClassificationResult:
    """Match a germ against the constant-principal-curvature catalog.

    Orientation-normalizes the germ (non-Hopf eigenvalues >= 0), splits
    on (g, multiplicity of lambda_2) to find the branch, recovers k and
    the radius, and reports the residuals of every catalog identity.
    The result never depends on the input co-orientation.
    """
    check_positive("tol", tol)
    check_positive("grouping_tol", grouping_tol)
    n, c = germ.params.n, germ.params.c
    s = rate(c)

    decomp = principal_decomposition(germ, tol=grouping_tol)
    if decomp.h != 2:
        reason = "hopf" if decomp.h <= 1 else f"h={decomp.h}"
        return _unclassified(decomp.g, decomp.h, {}, reason)

    non_hopf_vals = [decomp.eigenvalues[i] for i in decomp.non_hopf_indices]
    if non_hopf_vals and min(non_hopf_vals) < -10.0 * decomp.tol_used:
        germ = germ.flipped()
        decomp = principal_decomposition(germ, tol=grouping_tol)
        if decomp.h != 2:
            return _unclassified(decomp.g, decomp.h, {}, "orientation")

    g, h = decomp.g, decomp.h
    if g not in (3, 4):
        return _unclassified(g, h, {}, f"g={g}")

    i1, i2 = decomp.hopf_indices
    rest_idx = decomp.non_hopf_indices
    mult2 = decomp.multiplicities[i2]
    if decomp.multiplicities[i1] != 1:
        return _unclassified(g, h, {}, "multiplicities")

    lam3_measured = float(min(decomp.eigenvalues[i] for i in rest_idx))
    lam3_hat = min(max(lam3_measured, 0.0), s * (1.0 - 1e-15))

    if g == 4:
        if mult2 != 1:
            return _unclassified(g, h, {}, "multiplicities")
        i3, i4 = (
            (rest_idx[0], rest_idx[1])
            if decomp.eigenvalues[rest_idx[0]] < decomp.eigenvalues[rest_idx[1]]
            else (rest_idx[1], rest_idx[0])
        )
        k = decomp.multiplicities[i4] + 1
        branch = "G4"
        if decomp.multiplicities[i3] != 2 * n - 2 - k:
            return _unclassified(g, h, {}, "multiplicities")
        try:
            r = jacobi.focal_radius(lam3_hat, c)
        except jacobi.OutOfRangeEigenvalue:
            return _unclassified(g, h, {}, "lambda3 out of range")
    else:
        if mult2 >= 2:
            branch = "G3_KBIG"
            k = mult2
            r = jacobi.special_radius(c)
        else:
            branch = "G3_K1"
            k = 1
            try:
                r = jacobi.focal_radius(lam3_hat, c)
            except jacobi.OutOfRangeEigenvalue:
                return _unclassified(g, h, {}, "lambda3 out of range")
        if decomp.multiplicities[rest_idx[0]] != 2 * n - 2 - k:
            return _unclassified(g, h, {}, "multiplicities")

    try:
        es = eigen_structure_from_lambda3(
            lam3_hat if branch != "G3_KBIG" else s / math.sqrt(3.0),
            c,
            branch_hint=branch,
            n=n,
            k=k,
        )
    except (NoRealSolution, jacobi.OutOfRangeEigenvalue, ValueError) as exc:
        return _unclassified(g, h, {}, str(exc))

    frame = hopf_frame_extract(germ, decomp)
    residuals = frame_identity_residuals(germ, frame, decomp)
    residuals.update(
        {
            "lambda1_catalog": abs(frame.lambda1 - es.lambda1),
            "lambda2_catalog": abs(frame.lambda2 - es.lambda2),
            "lambda3_catalog": abs(lam3_measured - es.lambda3),
            "b1_catalog": abs(frame.b1**2 - es.b1sq),
            "b2_catalog": abs(frame.b2**2 - es.b2sq),
            "quadratic": abs(
                float(
                    catalog_quadratic(
                        frame.lambda1, frame.lambda2, lam3_measured, c
                    )
                )
            ),
        }
    )
    if branch == "G4":
        lam4_measured = float(decomp.eigenvalues[i4])
        residuals["lambda4_catalog"] = abs(lam4_measured - es.lambda4)
    tr = totally_real_check(germ, decomp)
    if tr:
        residuals["totally_real"] = max(tr.values())

    worst = max(residuals.values())
    if worst > tol:
        out = _unclassified(g, h, residuals, "residuals")
        return out
    model = "tube" if k >= 2 else "equidistant"
    return ClassificationResult(
        model=model,
        g=g,
        h=h,
        k=k,
        r=float(r),
        branch=branch,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# reference germs


def catalog_germ(
    params: ModelParams,
    k: int,
    r: float | None = None,
    lambda3: float | None = None,
) -> HypersurfaceGerm:
    """Synthetic catalog germ built directly from the closed forms.

    The normal is the first normal direction of the standard orbit
    construction; the frame realizes the structural identities with
    A = B.  Exactly one of r, lambda3 must be given.
    """
    if (r is None) == (lambda3 is None):
        raise ValueError("give exactly one of r, lambda3")
    c = params.c
    s = rate(c)
    if lambda3 is None:
        lambda3 = s * math.tanh(s * r)
    hint = "G3_K1" if k == 1 else None
    es = eigen_structure_from_lambda3(lambda3, c, branch_hint=hint, n=params.n, k=k)

    sub = build_submanifold(params, k, math.pi / 2.0)
    d = params.dim
    jmat = standard_complex_structure(params.n)
    xi = sub.normal_basis[0]
    jxi = jmat @ xi
    zvec = sub.zvec
    bvec = sub.tangent_basis[0]
    u1 = es.b2 * zvec + es.b1 * jxi
    u2 = -es.b1 * zvec + es.b2 * jxi

    lam3_rows = [bvec] + [sub.pxi_unit[m] for m in range(1, k)] + list(
        sub.tangent_basis[2 + k :]
    )
    lam4_rows = [sub.normal_basis[m] for m in range(1, k)]
    rows = [u1, u2] + lam3_rows + lam4_rows
    tangent = np.vstack(rows)
    lam4 = es.lambda4 if es.lambda4 is not None else es.lambda2
    diag = (
        [es.lambda1, es.lambda2]
        + [es.lambda3] * len(lam3_rows)
        + [lam4] * len(lam4_rows)
    )
    germ = HypersurfaceGerm(
        params=params,
        normal=xi,
        tangent_basis=tangent,
        shape=np.diag(np.asarray(diag)),
        jmat=jmat,
    )
    return germ.validate()


def horosphere_germ(params: ModelParams) -> HypersurfaceGerm:
    """Germ of the nilpotent-factor orbit: a Hopf hypersurface with
    principal curvatures sqrt(-c)/2 (multiplicity 2n-2) and sqrt(-c),
    normal along the abelian direction."""
    model = SolvableModel(params)
    d = params.dim
    xi = model.basis_vector(0)
    tangent = np.eye(d)[1:]
    diag = np.array([2.0 * model.a] + [model.a] * (d - 2))
    return HypersurfaceGerm(
        params=params,
        normal=xi,
        tangent_basis=tangent,
        shape=np.diag(diag),
        jmat=model.jmat,
    ).validate()


# ---------------------------------------------------------------------------
# nonexistence scan


@dataclass
class ScanReport:
    """Result of the feasibility scan of the catalog equations."""

    c: float
    grid_shape: tuple
    total_points: int
    feasible_count: int
    quad_tol: float
    sum_band: float
    certificate: str | None
    max_discriminant: float | None
    curve_points: np.ndarray | None
    max_refined_residual: float | None


def nonexistence_scan(
    c: float,
    grid_shape: tuple = (100, 100, 100),
    lambda_bound: float | None = None,
    quad_tol: float | None = None,
    sum_band: float = 0.1,
) -> ScanReport:
    """Grid scan of (lambda_1, lambda_2, lambda_3), lambda_1 < lambda_2,
    for solutions of the catalog equations with b_1^2, b_2^2 in (0, 1).

    A cell is feasible when the sign conditions hold exactly (both b^2
    formulas in the open interval (0,1)) and the equalities hold up to
    one-cell slack: |quadratic| <= quad_tol (default: grid spacing times
    a gradient bound) and |b1^2+b2^2-1| <= sum_band.  For c > 0 the
    count is zero for *any* slack: positivity of the b^2 formulas forces
    lambda_2 < 2 lambda_3 < lambda_1, contradicting the ordering; the
    certificate -c - 3 lambda_3^2 <= -c < 0 (no real catalog roots) is
    reported alongside.  For c < 0, feasible cells are refined onto the
    exact catalog curve and the refined residuals (quadratic,
    b-formulas, normalization) are reported.  c must be finite and
    nonzero, and every grid axis needs at least 2 samples.
    """
    if c == 0 or not math.isfinite(c):
        raise ValueError(f"the scan needs a finite nonzero c, got c={c!r}")
    check_positive("sum_band", sum_band)
    if min(grid_shape) < 2:
        raise ValueError(
            f"every grid axis needs >= 2 samples, got {tuple(grid_shape)}"
        )
    scale = math.sqrt(abs(c))
    if lambda_bound is None:
        lambda_bound = 1.5 * scale
    n1, n2, n3 = grid_shape
    l1 = np.linspace(-lambda_bound, lambda_bound, n1)
    l2 = np.linspace(-lambda_bound, lambda_bound, n2)
    l3 = np.linspace(0.0, 0.75 * scale, n3)
    spacing = max(l1[1] - l1[0], l2[1] - l2[0], l3[1] - l3[0])
    if quad_tol is None:
        # one cell of slack: |grad quadratic| <= 12(L + L3) on the box
        quad_tol = 12.0 * (lambda_bound + 0.75 * scale) * spacing

    # the grid is evaluated one lambda_1 row (n2 * n3 cells) at a time,
    # so the temporaries do not grow with n1
    lam2 = l2[None, :, None]
    lam3 = l3[None, None, :]
    count = 0
    lam3_feasible = np.zeros(n3, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n1):
            lam1 = l1[i:i + 1, None, None]
            b1sq, b2sq = hopf_projection_squares(lam1, lam2, lam3, c)
            quad = catalog_quadratic(lam1, lam2, lam3, c)
            feasible = (
                (lam1 < lam2 - 1e-12 * (1.0 + scale))
                & (b1sq > 0.0)
                & (b1sq < 1.0)
                & (b2sq > 0.0)
                & (b2sq < 1.0)
                & (np.abs(quad) <= quad_tol)
                & (np.abs(b1sq + b2sq - 1.0) <= sum_band)
            )
            count += int(np.count_nonzero(feasible))
            lam3_feasible |= feasible.any(axis=(0, 1))
    total = int(n1) * int(n2) * int(n3)

    if c > 0:
        disc = -c - 3.0 * l3**2
        certificate = (
            "b1^2 > 0 needs lambda2 < 2*lambda3 and b2^2 > 0 needs "
            "lambda1 > 2*lambda3, contradicting lambda1 < lambda2; "
            f"also -c - 3*lambda3^2 <= {-c} < 0 leaves the catalog "
            "quadratic without real roots"
        )
        return ScanReport(
            c=c,
            grid_shape=tuple(grid_shape),
            total_points=total,
            feasible_count=count,
            quad_tol=quad_tol,
            sum_band=sum_band,
            certificate=certificate,
            max_discriminant=float(np.max(disc)),
            curve_points=None,
            max_refined_residual=None,
        )

    # c < 0: refine feasible cells onto the exact catalog curve (one
    # refinement per distinct lambda_3 grid value)
    refined = []
    max_res = 0.0
    s = rate(c)
    for m in np.flatnonzero(lam3_feasible):
        lam3_val = float(l3[m])
        if not (0.0 <= lam3_val < s):
            continue
        # next to sqrt(-c)/2 rounding can leave lambda1 == lambda3
        _, lam1_val, lam2_val = _catalog_roots(lam3_val, c)
        if not (lam1_val < lam3_val < lam2_val):
            continue
        es = eigen_structure_from_lambda3(lam3_val, c)
        res = constraint_residuals(es)
        max_res = max(max_res, max(res.values()))
        refined.append((es.lambda3, es.lambda1, es.lambda2, es.b1sq, es.b2sq))
    curve = np.asarray(refined) if refined else np.empty((0, 5))
    return ScanReport(
        c=c,
        grid_shape=tuple(grid_shape),
        total_points=total,
        feasible_count=count,
        quad_tol=quad_tol,
        sum_band=sum_band,
        certificate=None,
        max_discriminant=None,
        curve_points=curve,
        max_refined_residual=max_res if refined else None,
    )
