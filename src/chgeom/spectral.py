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

with J xi = b_1 U_1 + b_2 U_2 the Hopf-frame decomposition.  The tube
of radius r has lambda_3 = (sqrt(-c)/2) tanh(r sqrt(-c)/2): the catalog
is keyed by lambda_3 (``eigen_structure_from_lambda3``, for measured
eigenvalues) or by r (``catalog_at_radius``), and
``EigenStructure.blocks`` is its one block layout.  The module provides
the catalog, eigen-decomposition and grouping of measured shape
operators, the Hopf frame (``hopf_frame``) with its structural
identities, the germ classifier, and the curvature-sign nonexistence
scan.  Each germ rule is stated once, and ``numlab``'s stacked stencil
pass calls the same statement: the symmetrised ``eigh`` (``_eigh``),
the grouping rule (``_group_starts``), the Hopf selection
(``_projected``) and the Hopf-frame formulas (``_hopf_vectors``).
``classify`` takes one tolerance, tol, and groups eigenvalues at tol /
GROUPING_RATIO.  A germ has one check, ``HypersurfaceGerm.validate``,
and one co-orientation rule: the classifier reads every germ with trace
S >= 0, turning it with ``HypersurfaceGerm.flipped`` (the one flip)
before its one decomposition.  Germs of one n decompose as a batch:
``principal_decompositions`` runs one stacked ``eigh`` over them, and
``classify_batch`` gives each germ ``classify``'s result, bit for bit,
from one such call, so a sweep classifies its radii in one kernel call.
The germ path multiplies its small arrays with ``ndarray.dot``, which
makes the BLAS call that ``@`` makes at about half of its per-call cost.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import jacobi
from .model import (
    ModelParams,
    check_positive,
    j_action,
    rate,
    standard_complex_structure,
)
from .construction import build_submanifold

PROJECTION_TOLERANCE = 1e-6
CLASSIFY_TOLERANCE = 1e-6
# ``classify`` groups eigenvalues at its tolerance over this ratio
GROUPING_RATIO = 10.0
GROUPING_TOLERANCE = CLASSIFY_TOLERANCE / GROUPING_RATIO
CATALOG_SUM_TOLERANCE = 1e-12
CATALOG_QUADRATIC_TOLERANCE = 1e-10
# the frame and symmetry tolerance of ``HypersurfaceGerm.validate``
GERM_TOLERANCE = 1e-6
# the normal double range, read once
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)
# the |c| range of the feasibility scan.  On its box the b^2 numerators
# 4 (l_j - 2 l_3)(l_i - l_3)^2 reach 4 * 3 * 2.25^2 |c|^(3/2) =
# 60.75 |c|^(3/2), and the denominators c (l_i - l_j) and the catalog's
# 2 c root scale like |c|^(3/2): both stay normal doubles in between.
_SCAN_MIN_ABS_C = _TINY ** (2.0 / 3.0)  # 7.911e-206
_SCAN_MAX_ABS_C = (_HUGE / 60.75) ** (2.0 / 3.0)  # 2.06e204
# the encoder of ``ClassificationResult.to_json``, built once:
# json.dumps(..., allow_nan=False) builds a new one per call
_STRICT_JSON = json.JSONEncoder(allow_nan=False)


# ---------------------------------------------------------------------------
# catalog


def catalog_quadratic(lam1, lam2, lam3, c):
    """Residual of c - 4 l1 l2 + 8 (l1 + l2) l3 - 12 l3^2 = 0, on floats
    or numpy arrays (a float for float arguments)."""
    return c - 4.0 * lam1 * lam2 + 8.0 * (lam1 + lam2) * lam3 - 12.0 * (lam3 * lam3)


def hopf_projection_square(lam_i, lam_j, lam3, c):
    """b_i^2 = 4 (lam_j - 2 lam_3)(lam_i - lam_3)^2 / (c (lam_i - lam_j)),
    elementwise on numpy arrays."""
    return 4.0 * (lam_j - 2.0 * lam3) * (lam_i - lam3) ** 2 / (c * (lam_i - lam_j))


def hopf_projection_squares(lam1, lam2, lam3, c):
    """(b_1^2, b_2^2), each from ``hopf_projection_square``."""
    lam1, lam2, lam3 = np.asarray(lam1), np.asarray(lam2), np.asarray(lam3)
    return (
        hopf_projection_square(lam1, lam2, lam3, c),
        hopf_projection_square(lam2, lam1, lam3, c),
    )


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
    def blocks(self) -> tuple:
        """(value, multiplicity) of each distinct principal curvature, in
        the order lambda_1, lambda_2, lambda_3[, lambda_4]; needs n and k.

        The multiplicities are (1, 1, 2n-2-k, k-1) on G4.  On a g = 3
        branch the k-1 block joins lambda_2 (G3_KBIG, where lambda_4 =
        lambda_2; G3_K1 has k = 1), which then has multiplicity k."""
        if self.n is None or self.k is None:
            raise ValueError("blocks need an EigenStructure built with n and k")
        n, k = self.n, self.k
        blocks = ((self.lambda1, 1), (self.lambda2, 1 if self.g == 4 else k))
        blocks += ((self.lambda3, 2 * n - 2 - k),)
        return blocks + ((self.lambda4, k - 1),) if self.g == 4 else blocks

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
    """Closed-form catalog entry at lambda_3 (n and k, if given, fix
    ``blocks``); c > 0, where the catalog quadratic has no real roots,
    raises ValueError.

    The branch follows from lambda_3: 0 -> G3_K1 (the ruled hypersurface
    itself); sqrt(-c)/(2 sqrt(3)) -> G3_KBIG (lambda_4 merges into
    lambda_2, at the radius r*); otherwise G4.  branch_hint="G3_K1"
    forces G3_K1 at any lambda_3: the equidistant hypersurfaces (k = 1)
    have no lambda_4.  No other hint is accepted.
    """
    if c > 0:
        raise ValueError(
            f"-c - 3*lambda3^2 = {-c - 3 * lambda3 ** 2} <= {-c} < 0: "
            "the catalog quadratic has no real roots for c > 0"
        )
    return _catalog_entry(lambda3, rate(c) - lambda3, c, branch_hint, n, k)


def catalog_at_radius(r: float, c: float, n: int, k: int) -> EigenStructure:
    """Catalog entry of the tube of radius r around W^{2n-k} (for k = 1,
    the equidistant hypersurface at distance r), keyed by the radius.

    lambda_3 = s tanh(sr) rounds to s from sr ~ 18.7 on, so the gap
    s - lambda_3 = 2sq/(1+q) is taken from q = e^{-2sr}: the differences
    that vanish as sr grows keep their relative precision up to
    sr ~ 118, past which b_1^2 ~ 64 q^3 leaves the double range.
    """
    if not r >= 0.0:
        raise ValueError(f"radius must be >= 0, got {r!r}")
    s = rate(c)
    sr = s * r
    q = math.exp(-2.0 * sr)
    if q**3 < _TINY:
        raise ValueError(f"s*r = {sr!r}: b1^2 ~ 64 e^(-6sr) underflows past s*r ~ 118")
    lambda3 = s * math.tanh(sr)
    hint = "G3_K1" if k == 1 else None
    return _catalog_entry(lambda3, 2.0 * s * q / (1.0 + q), c, hint, n, k)


def _catalog_entry(lambda3, gap, c, branch_hint, n, k) -> EigenStructure:
    """The catalog formulas at lambda_3, given with its gap s - lambda_3.

    root - lambda_3 cancels as lambda_3 -> s, so once it falls below
    root/2 it is formed from the gap as 4 gap (s + lambda_3)/(root +
    lambda_3), since root^2 - lambda_3^2 = 4 (s - lambda_3)(s + lambda_3).
    The ordering lambda_1 < lambda_3 < lambda_2 is checked on these
    gaps: past sr ~ 18.7, lambda_1 and lambda_3 both round to s.  A c
    with 2 c root outside the normal double range (|c| below ~5e-206 or
    above ~2e205) raises ValueError, since the b_i^2 are quotients by it.
    """
    s = rate(c)
    if not (0.0 <= lambda3 and gap > 0.0):
        raise ValueError(f"lambda3={lambda3!r} outside the catalog range [0, {s!r})")
    root = math.sqrt(-c - 3.0 * lambda3 * lambda3)
    denom = 2.0 * c * root
    if not _TINY <= abs(denom) <= _HUGE:
        raise ValueError(
            f"c = {c!r} is out of range: 2 c root = {denom!r} is not a normal double"
        )
    low = (  # root - lambda3
        root - lambda3 if root >= 2.0 * lambda3
        else 4.0 * gap * (s + lambda3) / (root + lambda3)
    )
    if not low > 0.0:
        raise AssertionError("catalog ordering lambda1 < lambda3 < lambda2 failed")
    b1sq = -(low**3) / denom
    b2sq = -((lambda3 + root) ** 3) / denom

    if branch_hint not in (None, "G3_K1"):
        raise ValueError(f"unknown branch hint {branch_hint!r}")
    if branch_hint == "G3_K1" or lambda3 == 0.0:
        branch, g, lam4 = "G3_K1", 3, None
        k = 1 if k is None else k
        if k != 1:
            raise ValueError("branch G3_K1 requires k = 1")
    elif abs(lambda3 - s / math.sqrt(3.0)) <= 1e-12 * s:
        branch, g, lam4 = "G3_KBIG", 3, None
    else:
        branch, g = "G4", 4
        lam4 = -c / (4.0 * lambda3)

    es = EigenStructure(
        c=float(c),
        lambda1=0.5 * (3.0 * lambda3 - root),
        lambda2=0.5 * (3.0 * lambda3 + root),
        lambda3=float(lambda3),
        lambda4=lam4,
        b1=math.sqrt(b1sq),
        b2=math.sqrt(b2sq),
        g=g,
        branch=branch,
        n=n,
        k=k,
    )
    if abs(es.b1sq + es.b2sq - 1.0) > CATALOG_SUM_TOLERANCE:
        raise AssertionError("catalog normalization b1^2 + b2^2 = 1 failed")
    quad = catalog_quadratic(es.lambda1, es.lambda2, es.lambda3, es.c)
    if abs(quad) > CATALOG_QUADRATIC_TOLERANCE * (1.0 + abs(es.c)):
        raise AssertionError("catalog quadratic relation failed")
    return es


# ---------------------------------------------------------------------------
# germs


def _group_starts(values: list, tol: float) -> list:
    """The grouping rule: the indices where a group of the ascending
    floats opens, 0 and every i where the neighbours a, b = values[i-1],
    values[i] are more than tol * (1 + max(|a|, |b|)) apart, a threshold
    taken from the two values; a tol of 0 merges equal values only."""
    starts = [0]
    for i in range(1, len(values)):
        a, b = values[i - 1], values[i]
        if abs(b - a) > tol * (1.0 + max(abs(a), abs(b))):
            starts.append(i)
    return starts


def _projected(b):
    """The Hopf selection, on floats or arrays: a space carries J xi when
    the norm b of J xi's projection onto it exceeds PROJECTION_TOLERANCE."""
    return b > PROJECTION_TOLERANCE


def _eigh(shapes: np.ndarray) -> tuple:
    """``eigh`` of the symmetrised shapes, stacked on the leading axes;
    halved first: S + S^T could overflow."""
    half = 0.5 * shapes
    return np.linalg.eigh(half + half.swapaxes(-1, -2))


def _hopf_vectors(p1, p2, b1, b2, xi) -> tuple:
    """(U_1, U_2, A) from the projections P_i(J xi), their norms b_i and
    xi, on rows or stacks of rows: U_i = P_i(J xi) / b_i and A = -(J U_1
    + b_1 xi) / b_2."""
    u1 = p1 / b1
    return u1, p2 / b2, (j_action(u1) + b1 * xi) / -b2  # -(x / b2) bit for bit


def _allclose(a, b, atol: float) -> bool:
    """np.allclose(a, b, atol=atol) on finite input (its default rtol is
    1e-5), without its per-call overhead (the ``.all()`` method also
    skips ``np.all``'s dispatch, about a fifth of the call)."""
    return bool((np.abs(a - b) <= atol + 1e-5 * np.abs(b)).all())


@functools.lru_cache(maxsize=16)
def _identity_bound(d: int) -> tuple:
    """np.eye(d) and the bound GERM_TOLERANCE + 1e-5 |eye| that
    ``_allclose(x, eye, GERM_TOLERANCE)`` puts on |x - eye|, built once
    per d and read-only."""
    eye = np.eye(d)
    bound = GERM_TOLERANCE + 1e-5 * np.abs(eye)
    eye.flags.writeable = bound.flags.writeable = False
    return eye, bound


def _check_array(name: str, arr: np.ndarray, shape: tuple, n: int) -> None:
    if arr.shape != shape:
        raise ValueError(
            f"germ {name} has shape {arr.shape}, expected {shape} for n={n}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"germ {name} has a non-finite entry")


def _frame_fits(d: int, normal, tangent_basis) -> bool:
    """Shapes (d,) and (d-1, d) and frame frame^T = I to GERM_TOLERANCE,
    which any non-finite entry fails; run under np.errstate(all="ignore")."""
    if normal.shape != (d,) or tangent_basis.shape != (d - 1, d):
        return False
    frame = np.concatenate((normal[None], tangent_basis))
    eye, bound = _identity_bound(d)
    return bool((np.abs(frame.dot(frame.T) - eye) <= bound).all())


def _symmetric(shape: np.ndarray) -> bool:
    """A finite square shape matrix, symmetric to GERM_TOLERANCE; run
    under np.errstate(all="ignore").  S - S^T has no nonzero entry
    exactly where S is finite and symmetric (inf - inf is NaN, which
    counts as nonzero), so one subtraction passes such an S; any other
    takes isfinite (opposite infinities pass the tolerance test) and the
    tolerance test."""
    return not (shape - shape.T).any() or (
        bool(np.isfinite(shape).all()) and _allclose(shape, shape.T, GERM_TOLERANCE)
    )


@dataclass(frozen=True)
class HypersurfaceGerm:
    """Pointwise hypersurface data in frame components.

    The unit normal (2n,) and tangent_basis rows (2n-1, 2n) are
    orthonormal; shape (2n-1, 2n-1) holds <S t_i, t_j>.  J is the
    model's ``j_action``: a germ does not carry one.
    """

    params: ModelParams
    normal: np.ndarray
    tangent_basis: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))
        object.__setattr__(
            self, "tangent_basis", np.asarray(self.tangent_basis, dtype=float)
        )
        object.__setattr__(self, "shape", np.asarray(self.shape, dtype=float))

    def validate(self):
        """The one germ check, to GERM_TOLERANCE; returns the germ.  One
        test takes the array shapes, the orthonormal frame and a finite,
        symmetric shape matrix; only a germ that fails it runs the
        ordered checks that word the error: the normal, the tangent basis
        (shape, then finiteness, of each), their orthonormality, then the
        shape matrix's shape, finiteness and symmetry."""
        d, n, shape = self.params.dim, self.params.n, self.shape
        with np.errstate(all="ignore"):  # inf, nan and overflow fail silently
            frame_ok = _frame_fits(d, self.normal, self.tangent_basis)
            if frame_ok and shape.shape == (d - 1, d - 1) and _symmetric(shape):
                return self
            _check_array("normal", self.normal, (d,), n)
            _check_array("tangent_basis", self.tangent_basis, (d - 1, d), n)
            if not frame_ok:
                raise ValueError("normal + tangent basis is not orthonormal")
            _check_array("shape", shape, (d - 1, d - 1), n)
            raise ValueError("shape operator matrix is not symmetric")

    def flipped(self) -> "HypersurfaceGerm":
        """Opposite co-orientation: negates the normal and the shape."""
        return HypersurfaceGerm(
            params=self.params,
            normal=-self.normal,
            tangent_basis=self.tangent_basis,
            shape=-self.shape,
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "c": self.params.c,
            "normal": self.normal.tolist(),
            "tangent_basis": self.tangent_basis.tolist(),
            "shape": self.shape.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "HypersurfaceGerm":
        """Inverse of ``to_json_dict``, checked by ``validate``.  A record
        may still carry the complex structure as a matrix "J", as files
        written by earlier versions do; it must be the model's to
        GERM_TOLERANCE, and is checked after the frame and shape."""
        if not isinstance(data, dict):
            raise ValueError(f"germ record must be a JSON object, got {type(data).__name__}")
        for field in ("c", "n", "normal", "tangent_basis", "shape"):
            if field not in data:
                raise ValueError(f"germ record has no field {field!r}")
        try:
            c = data["c"]
            if isinstance(c, bool) or not isinstance(c, (int, float)):
                raise ValueError(f"germ c must be a JSON number, got {c!r}")
            params = ModelParams(n=data["n"], c=float(c))
            germ = HypersurfaceGerm(
                params=params,
                normal=data["normal"],
                tangent_basis=data["tangent_basis"],
                shape=data["shape"],
            )
            given_j = np.asarray(data["J"], dtype=float) if "J" in data else None
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed germ record: {exc}") from exc
        germ.validate()  # a frame or shape defect comes first
        if given_j is not None:
            if not np.isfinite(given_j).all():
                raise ValueError("germ J has a non-finite entry")
            want_j = standard_complex_structure(params.n)
            if given_j.shape != want_j.shape or not _allclose(given_j, want_j, GERM_TOLERANCE):
                raise ValueError(f"germ J is not the model's complex structure for n={params.n}")
        return germ


@dataclass
class PrincipalDecomposition:
    """Grouped spectrum of a germ's shape operator.

    normal: the germ's unit normal xi; eigenvalues: distinct values
    ascending; spaces[i]: (mult_i, 2n) orthonormal ambient rows spanning
    the i-th eigenspace (frame components, like the germ's tangent
    basis); jxi_coefficients[i]: (mult_i,) coefficients of the structure
    vector J xi on the rows of spaces[i]; jxi_components[i]: their norm
    (the length of J xi's projection onto the i-th space); hopf_indices:
    the ascending indices of the spaces that ``_projected`` selects (the
    Hopf selection), and non_hopf_indices those of the others.
    """

    normal: np.ndarray
    eigenvalues: np.ndarray
    multiplicities: tuple
    spaces: list
    jxi_coefficients: list
    jxi_components: np.ndarray
    hopf_indices: list
    non_hopf_indices: list

    @property
    def g(self) -> int:
        return len(self.eigenvalues)

    @property
    def h(self) -> int:
        return len(self.hopf_indices)


def principal_decompositions(
    germs,
    tol: float = GROUPING_TOLERANCE,
) -> list[PrincipalDecomposition]:
    """Eigen-decompose the shape operators of germs of one n and group
    nearby eigenvalues, in one pass per germ after one stacked ``eigh``.

    The stacked ``_eigh`` gives every germ's eigenvalues and the
    tangent-basis coefficients of its eigenvectors, each germ's with the
    bits of its own one-matrix call; per germ, one product takes all
    eigenvectors to ambient rows, and one more gives the coefficients of
    J xi on them, which the Hopf frame reads.  Adjacent eigenvalues share
    a group by ``_group_starts``, so a large eigenvalue elsewhere in the
    spectrum does not merge the small ones; tol must be finite and >= 0.
    The grouping runs over the eigenvalues as Python floats; a group's
    value is numpy's sum of its eigenvalues over their count, as
    ``np.mean`` rounds it.  Germs of two different n raise ValueError."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")
    if not germs:
        return []
    n = germs[0].params.n
    for germ in germs:
        if germ.params.n != n:
            raise ValueError(
                f"a batch takes germs of one n, got n = {n} and n = {germ.params.n}"
            )
    evals, evecs = _eigh(np.array([germ.shape for germ in germs]))
    return [_grouped(germ, e, v, tol) for germ, e, v in zip(germs, evals, evecs)]


def principal_decomposition(
    germ: HypersurfaceGerm,
    tol: float = GROUPING_TOLERANCE,
) -> PrincipalDecomposition:
    """The decomposition of one germ: ``principal_decompositions`` of
    the batch of one."""
    return principal_decompositions([germ], tol)[0]


def _group_mean(evals: np.ndarray, lo: int, hi: int):
    """The value of the group [lo, hi) of the ascending eigenvalues on the
    last axis of evals (one row or a stack of rows): a single value is
    its own mean, and a group's sum (ndarray.sum's reduction) over its
    count is np.mean's own formula, without its per-call overhead."""
    if hi - lo == 1:
        return evals[..., lo]
    return np.add.reduce(evals[..., lo:hi], axis=-1) / (hi - lo)


def _grouped(germ: HypersurfaceGerm, evals, evecs, tol: float) -> PrincipalDecomposition:
    """The germ's decomposition from the ascending eigenvalues and the
    eigenvector columns of its symmetrised shape.  The eigenvalues and
    the coefficients of J xi are read into Python once; a one-row group
    takes its mean and its norm from those lists."""
    ambient = evecs.T.dot(germ.tangent_basis)  # rows: ambient eigenvectors
    coeffs = ambient.dot(j_action(germ.normal))
    values, coef = evals.tolist(), coeffs.tolist()
    cuts = _group_starts(values, tol)
    spaces, jxi, mults, means, norms, hopf, rest = [], [], [], [], [], [], []
    for group, (lo, hi) in enumerate(zip(cuts, cuts[1:] + [len(values)])):
        v = coeffs[lo:hi]
        # np.linalg.norm's own formula; a one-term dot is the one product x * x
        b = math.sqrt(coef[lo] * coef[lo] if hi - lo == 1 else v.dot(v))
        spaces.append(ambient[lo:hi])
        jxi.append(v)
        mults.append(hi - lo)
        norms.append(b)
        means.append(values[lo] if hi - lo == 1 else float(_group_mean(evals, lo, hi)))
        (hopf if _projected(b) else rest).append(group)
    return PrincipalDecomposition(
        normal=germ.normal,
        eigenvalues=np.array(means),
        multiplicities=tuple(mults),
        spaces=spaces,
        jxi_coefficients=jxi,
        jxi_components=np.array(norms),
        hopf_indices=hopf,
        non_hopf_indices=rest,
    )


def hopf_frame(decomp: PrincipalDecomposition) -> np.ndarray:
    """The (4, 2n) rows (xi, U_1, U_2, A) of the decomposition's
    two-projection frame (``_hopf_vectors``); requires h = 2.  The
    projections P_i(J xi) are built from the coefficients of J xi that
    the decomposition stores on the rows of each space (J xi is not
    projected again), and b_i are its projection norms."""
    hopf = decomp.hopf_indices
    if len(hopf) != 2:
        raise ValueError(f"Hopf frame needs h = 2, got h = {len(hopf)}")
    i1, i2 = hopf  # ascending eigenvalues: lambda1 < lambda2
    b = decomp.jxi_components.tolist()
    coeffs, spaces, xi = decomp.jxi_coefficients, decomp.spaces, decomp.normal
    p1, p2 = coeffs[i1].dot(spaces[i1]), coeffs[i2].dot(spaces[i2])
    return np.array((xi, *_hopf_vectors(p1, p2, b[i1], b[i2], xi)))


def frame_identity_residuals(decomp: PrincipalDecomposition) -> dict:
    """Residuals of the structural frame identities:
    J xi = b1 U1 + b2 U2, <J U1, U2> = 0, J U2 = b1 A - b2 xi,
    J A = b2 U1 - b1 U2, A in the lambda_3 eigenspace.

    J is applied once, to the stacked ``hopf_frame`` rows, and the vector
    defects are normed in one row-wise reduction."""
    rows = hopf_frame(decomp)
    i1, i2 = decomp.hopf_indices
    b = decomp.jxi_components.tolist()
    b1, b2 = b[i1], b[i2]
    j_rows = j_action(rows)
    # rows 0, 2, 3: J xi - (b1 U1 + b2 U2), J U2 - (b1 A - b2 xi) and
    # J A - (b2 U1 - b1 U2); row 1 is J U1, which is tested on its own
    mix = np.array((
        (0.0, b1, b2, 0.0), (0.0, 0.0, 0.0, 0.0), (-b2, 0.0, 0.0, b1), (0.0, b2, -b1, 0.0)
    ))
    defects = j_rows - mix.dot(rows)
    # distance from A to each non-Hopf eigenspace; the catalog puts A in
    # the lambda_3 space (the smallest non-Hopf eigenvalue); it takes
    # row 1, so one reduction norms every defect
    non_hopf = decomp.non_hopf_indices
    if non_hopf:
        space, a_vec = decomp.spaces[non_hopf[0]], rows[3]
        defects[1] = a_vec - space.dot(a_vec).dot(space)
    norms = np.sqrt(np.add.reduce(defects * defects, 1)).tolist()  # ndarray.sum's reduction
    res = {
        "jxi_decomposition": norms[0],
        "ju1_orthogonality": abs(float(j_rows[1].dot(rows[2]))),
        "ju2_identity": norms[2],
        "ja_identity": norms[3],
        "b_sum": abs(b1**2 + b2**2 - 1.0),
    }
    if non_hopf:
        res["a_in_lambda3_space"] = norms[1]
    return res


def totally_real_check(decomp: PrincipalDecomposition) -> float:
    """max |<J v, w>| over pairs inside each eigenspace that carries a
    structure-vector projection (those spaces must be totally real); J
    is applied once, to the stacked rows of those spaces.  Every germ with
    an orthonormal frame has such a space (h >= 1): J xi is a unit tangent
    vector, so its projections satisfy sum b_i^2 = 1.  Where every such
    space has one row, their blocks are the cross product's diagonal."""
    hopf = decomp.hopf_indices
    rows = np.concatenate([decomp.spaces[i] for i in hopf])
    cross = j_action(rows).dot(rows.T)  # the spaces' blocks on its diagonal
    if len(rows) == len(hopf):
        return max(abs(x) for x in cross.diagonal().tolist())
    cross, worst, start = np.abs(cross), [], 0
    for i in hopf:
        stop = start + decomp.multiplicities[i]
        worst.append(float(cross[start:stop, start:stop].max()))
        start = stop
    return max(worst)


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
        """Strict JSON: a residual that overflowed (inf or NaN) is null."""
        data = self.to_json_dict()
        try:
            return _STRICT_JSON.encode(data)
        except ValueError:
            res = self.residuals
            data["residuals"] = {k: v if math.isfinite(v) else None for k, v in res.items()}
            return json.dumps(data)


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


def classify(germ: HypersurfaceGerm, tol: float = CLASSIFY_TOLERANCE) -> ClassificationResult:
    """Match a germ against the constant-principal-curvature catalog.

    A germ with trace S < 0 is read in the opposite co-orientation
    (``HypersurfaceGerm.flipped``), so a germ and its flip classify to
    the same bits; a trace of exactly 0 flips nothing.  The one
    decomposition needs h = 2 projected eigenspaces (else "hopf" or
    "h=N") and g = 3 or 4 groups (else "g=N").  At c > 0 the catalog
    has no real solution, and the catalog entry's message says so as
    the reason.
    The decomposition groups eigenvalues at tol / GROUPING_RATIO (0 for
    tol below 2.5e-323, which groups equal values only), and the
    groups are read in catalog order lambda_1 < lambda_2 (the Hopf
    spaces), lambda_3 < lambda_4, and k = 2n - 2 - mult(lambda_3).  The
    catalog entry at (lambda_3 clamped to [0, s), k) alone names the
    branch, and r* with G3_KBIG; a catalog error gives its message.  The
    germ's multiplicities must equal the entry's ``blocks`` and k <= n-1
    (else "multiplicities", or "indeterminate: ..." where the grouping
    merged the entry's lambda_4 into lambda_2), and every catalog and
    frame identity must hold to tol, which a NaN residual fails (else
    "residuals", with the residuals reported).
    """
    check_positive("tol", tol)
    germ = _co_oriented(germ)
    decomp = principal_decomposition(germ, tol=tol / GROUPING_RATIO)
    return _decided(germ.params, decomp, tol)


def classify_batch(germs, tol: float = CLASSIFY_TOLERANCE) -> list[ClassificationResult]:
    """``classify`` of each of germs of one n, in order, with the bits of
    its one-germ call: every germ is read with trace S >= 0, one
    ``principal_decompositions`` call decomposes them all, and each
    decomposition takes ``classify``'s decision.  Germs of two different
    n raise ValueError."""
    check_positive("tol", tol)
    germs = [_co_oriented(germ) for germ in germs]
    decomps = principal_decompositions(germs, tol=tol / GROUPING_RATIO)
    return [_decided(germ.params, decomp, tol) for germ, decomp in zip(germs, decomps)]


def _co_oriented(germ: HypersurfaceGerm) -> HypersurfaceGerm:
    """The germ in the co-orientation with trace S >= 0 (a Python sum:
    no overflow warning); a trace of exactly 0 flips nothing."""
    return germ.flipped() if sum(germ.shape.diagonal().tolist()) < 0.0 else germ


def _decided(params: ModelParams, decomp: PrincipalDecomposition, tol: float):
    """``classify``'s decision on the decomposition of a germ read with
    trace S >= 0."""
    n, c = params.n, params.c
    g, h = decomp.g, decomp.h
    if h != 2:
        return _unclassified(g, h, {}, "hopf" if h <= 1 else f"h={h}")
    if g not in (3, 4):
        return _unclassified(g, h, {}, f"g={g}")

    # the measured groups in catalog order: the Hopf spaces lambda_1 <
    # lambda_2, then lambda_3 < lambda_4; k is read off lambda_3's block
    order = decomp.hopf_indices + decomp.non_hopf_indices
    values, b = decomp.eigenvalues.tolist(), decomp.jxi_components.tolist()
    lam = [values[i] for i in order]
    b1, b2 = b[order[0]], b[order[1]]
    mults = tuple(decomp.multiplicities[i] for i in order)
    k = 2 * n - 2 - mults[2]
    lam3 = lam[2]
    if c < 0:  # for c > 0 the catalog entry raises its no-real-roots error
        lam3 = min(max(lam3, 0.0), rate(c) * (1.0 - 1e-15))
    try:
        es = eigen_structure_from_lambda3(
            lam3, c, branch_hint="G3_K1" if k == 1 else None, n=n, k=k
        )
    except ValueError as exc:
        return _unclassified(g, h, {}, str(exc))
    if k >= n or mults != tuple(m for _, m in es.blocks):
        # the G4 blocks with lambda_4 inside lambda_2: no double tells r* apart
        if k < n and es.g == 4 and mults == (1, k, mults[2]) and _group_starts(
            [es.lambda2, es.lambda4], tol / GROUPING_RATIO
        ) == [0]:
            return _unclassified(
                g, h, {}, "indeterminate: lambda_2 and lambda_4 closer than the grouping tolerance"
            )
        return _unclassified(g, h, {}, "multiplicities")
    r = jacobi.special_radius(c) if es.branch == "G3_KBIG" else jacobi.focal_radius(lam3, c)

    residuals = frame_identity_residuals(decomp)
    residuals["lambda1_catalog"] = abs(lam[0] - es.lambda1)
    residuals["lambda2_catalog"] = abs(lam[1] - es.lambda2)
    residuals["lambda3_catalog"] = abs(lam[2] - es.lambda3)
    residuals["b1_catalog"] = abs(b1**2 - es.b1sq)
    residuals["b2_catalog"] = abs(b2**2 - es.b2sq)
    residuals["quadratic"] = abs(catalog_quadratic(lam[0], lam[1], lam[2], c))
    if es.g == 4:
        residuals["lambda4_catalog"] = abs(lam[3] - es.lambda4)
    residuals["totally_real"] = totally_real_check(decomp)

    # all(v <= tol), not max(...) > tol: a NaN residual must fail
    if not all(v <= tol for v in residuals.values()):
        return _unclassified(g, h, residuals, "residuals")
    return ClassificationResult(
        model="tube" if k >= 2 else "equidistant",
        g=g,
        h=h,
        k=k,
        r=float(r),
        branch=es.branch,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# reference germs


def catalog_germ(params: ModelParams, k: int, r: float) -> HypersurfaceGerm:
    """Synthetic germ of the radius-r catalog tube (k = 1: equidistant
    hypersurface), built directly from ``catalog_at_radius``.

    The normal is the first normal direction of the standard orbit
    construction; the frame realizes the structural identities with
    A = B.
    """
    es = catalog_at_radius(r, params.c, params.n, k)
    sub = build_submanifold(params, k, math.pi / 2.0)
    xi = sub.normal_basis[0]
    jxi = j_action(xi)
    zvec = sub.zvec
    u1 = es.b2 * zvec + es.b1 * jxi
    u2 = -es.b1 * zvec + es.b2 * jxi

    # lambda_3 rows: every orbit tangent row but Z and u_1 (B, u_2..u_k,
    # the rest of the root space)
    t = sub.tangent_basis
    lam3_rows = np.vstack([t[:1], t[3:]])
    normals = sub.normal_basis[1:]
    # tangent rows in the order of es.blocks: the k-1 normals carry
    # lambda_4, or lambda_2 where the two merge (g = 3)
    blocks = (lam3_rows, normals) if es.g == 4 else (normals, lam3_rows)
    values, mults = zip(*es.blocks)
    germ = HypersurfaceGerm(
        params=params,
        normal=xi,
        tangent_basis=np.vstack([u1, u2, *blocks]),
        shape=np.diag(np.repeat(values, mults)),
    )
    return germ.validate()


# ---------------------------------------------------------------------------
# nonexistence scan


@dataclass
class ScanReport:
    """Result of the feasibility scan of the catalog equations."""

    grid_shape: tuple
    total_points: int
    feasible_count: int
    quad_tol: float
    trace_tol: float
    certificate: str | None
    curve_points: np.ndarray | None  # rows (l3, l1, l2, b1^2, b2^2)
    max_refined_residual: float | None


def _lambda2_bands(lam1, l2, lam3, c, reach, gap, trace_reach):
    """First lambda_2 index and length of the band of each (lambda_1,
    lambda_3) pair, given as flat arrays lam1 and lam3: the ascending l2
    samples where |catalog quadratic| <= reach and |lambda_1 + lambda_2 -
    3 lambda_3| <= trace_reach, among those with lambda_1 < lambda_2 - gap.

    For fixed (lambda_1, lambda_3) both equations are affine in lambda_2:
    the quadratic is ``(c + 8 l1 l3 - 12 l3^2) + (8 l3 - 4 l1) l2`` and
    the trace window is centred on 3 l3 - l1.  So the band is one index
    interval, whose ends two searchsorted calls give.  Where the
    quadratic's ends are undefined (0/0 at a zero slope, or an
    overflowing box) its band is the whole row, which is never too small.

    The ordering test is the scan's own: ``l2 - gap`` is the float it
    compares, and it is non-decreasing, so the cells that pass it are the
    suffix of the row that one searchsorted call finds.
    """
    base = c + 8.0 * lam1 * lam3 - 12.0 * lam3**2
    slope = 8.0 * lam3 - 4.0 * lam1
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = (-reach - base) / slope
        hi = (reach - base) / slope
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    undefined = np.isnan(lo)
    lo[undefined], hi[undefined] = -np.inf, np.inf
    centre = 3.0 * lam3 - lam1
    lo = np.maximum(lo, centre - trace_reach)
    hi = np.minimum(hi, centre + trace_reach)
    above = np.searchsorted(l2 - gap, lam1, side="right")
    first = np.maximum(np.searchsorted(l2, lo, side="left"), above)
    return first, np.maximum(np.searchsorted(l2, hi, side="right") - first, 0)


def _runs(counts, first, cap):
    """Greedy batches of whole runs: item p owns the ``counts[p]``
    consecutive indices from ``first[p]`` on.  Yield (batch, j): a slice
    of items holding at most ``cap`` indices (or one item alone, if it
    holds more) and the concatenation of their indices; batches with no
    index are skipped."""
    ends = np.cumsum(counts)
    p0 = 0
    while p0 < counts.size:
        start = int(ends[p0] - counts[p0])
        p1 = max(int(np.searchsorted(ends, start + cap, side="right")), p0 + 1)
        if ends[p1 - 1] > start:
            batch = slice(p0, p1)
            cnt = counts[batch]
            # per item: its first index less its position in the batch
            j = np.repeat(first[batch] - (ends[batch] - cnt), cnt)
            j += np.arange(start, ends[p1 - 1])
            yield batch, j
        p0 = p1


def _newton_curve(lam1, lam2, lam3, c):
    """Newton's method on the catalog quadratic and l1 + l2 = 3 l3 in
    (lambda_1, lambda_2) at fixed lambda_3, from all starts at once.

    The Jacobian determinant 4 (l1 - l2) is nonzero on every ordered
    start, but a start may land on the swapped root, so the roots are
    returned sorted, lambda_1 <= lambda_2.  The steps are elementwise
    float operations (no BLAS kernel changes the roots) and stop once
    none exceeds 1e-14 sqrt|c|, or after 64 steps.
    """
    tol = 1e-14 * math.sqrt(abs(c))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(64):
            quad = catalog_quadratic(lam1, lam2, lam3, c)
            trace = lam1 + lam2 - 3.0 * lam3
            det = 4.0 * (lam1 - lam2)
            d1 = ((8.0 * lam3 - 4.0 * lam1) * trace - quad) / det
            d2 = (quad - (8.0 * lam3 - 4.0 * lam2) * trace) / det
            lam1, lam2 = lam1 + d1, lam2 + d2
            if not (np.abs(d1) + np.abs(d2) > tol).any():
                break
    return np.minimum(lam1, lam2), np.maximum(lam1, lam2)


def nonexistence_scan(c: float, grid_shape: tuple) -> ScanReport:
    """Grid scan of (lambda_1, lambda_2, lambda_3), lambda_1 < lambda_2,
    for solutions of the catalog equations with b_1^2, b_2^2 in (0, 1),
    on the box [-1.5 sqrt|c|, 1.5 sqrt|c|]^2 x [0, 0.75 sqrt|c|].

    The catalog (arXiv:0911.3624) solves the quadratic Q = 0 and the
    trace relation l1 + l2 = 3 l3 (b1^2 + b2^2 - 1 = -Q/c adds nothing).
    A cell is feasible when both b^2 formulas lie in (0, 1) and both
    equations hold to one cell of slack: |Q| <= quad_tol (the spacing
    times a gradient bound) and |l1 + l2 - 3 l3| <= trace_tol = 5 spacing
    (the trace's gradient has l1 norm 5).  For c > 0 the count is zero
    for *any* slack: positivity of the b^2 formulas forces lambda_2 <
    2 lambda_3 < lambda_1, contradicting the ordering; the certificate
    -c - 3 lambda_3^2 <= -c < 0 (no real catalog roots) is reported
    alongside.  For c < 0 each lambda_3 sample in [0, s), s = sqrt(-c)/2,
    with a feasible cell gives one curve point: ``_newton_curve`` from
    its first feasible cell, kept where lambda_1 < lambda_3 < lambda_2
    and both b^2 lie in (0, 1).  The refined residual is the largest
    |Q|/|c| or |l1 + l2 - 3 l3|/s on the curve.  c must be finite and
    nonzero with |c| in [7.92e-206, 2.06e204] (where the b^2 numerators
    stay finite on the box and their denominators normal doubles), and
    every grid axis needs 2 samples, else ValueError.

    Both equations are affine in lambda_2 for fixed (lambda_1,
    lambda_3), so only one lambda_2 band of cells per pair is evaluated
    (``_lambda2_bands``).
    """
    if c == 0 or not math.isfinite(c):
        raise ValueError(f"the scan needs a finite nonzero c, got c={c!r}")
    if min(grid_shape) < 2:
        raise ValueError(
            f"every grid axis needs >= 2 samples, got {tuple(grid_shape)}"
        )
    if not _SCAN_MIN_ABS_C <= abs(c) <= _SCAN_MAX_ABS_C:
        raise ValueError(
            f"c = {c!r} is out of range: the scan's b^2 formulas leave the "
            "normal double range unless 7.92e-206 <= |c| <= 2.06e204"
        )
    scale = math.sqrt(abs(c))
    bound = 1.5 * scale
    n1, n2, n3 = grid_shape
    l1 = np.linspace(-bound, bound, n1)
    l2 = np.linspace(-bound, bound, n2)
    l3 = np.linspace(0.0, 0.75 * scale, n3)
    spacing = max(l1[1] - l1[0], l2[1] - l2[0], l3[1] - l3[0])
    # one cell of slack: |grad quadratic| <= 12(L + L3) on the box, and
    # the trace's gradient (1, 1, -3) has l1 norm 5
    quad_tol = 12.0 * (bound + 0.75 * scale) * spacing
    trace_tol = 5.0 * spacing

    # The bands are widened by a rounding margin, 1e-9 of the largest
    # magnitude each equation's terms reach on the box (``size`` for the
    # quadratic), far above their float error, so they hold every cell
    # that passes.  The candidates then meet the elementwise quadratic,
    # trace and b^2 tests (the ordering test is each band's start), so
    # every cell gets the same verdict as on the full grid.  The pairs
    # are taken a window of lambda_1 rows at a time, at most max(cap, n3)
    # pairs, and a batch gathers whole bands across pairs, at most cap =
    # max(n2*n3/8, n2, 2048) cells: no array grows with n1.  Both margins
    # are relative to the box, so a small |c| keeps its feasible cells.
    size = abs(c) + 12.0 * (bound + l3[-1]) ** 2
    reach = quad_tol + 1e-9 * size
    trace_reach = trace_tol + 1e-9 * (2.0 * bound + 3.0 * l3[-1])
    cap = max(n2 * n3 // 8, n2, 2048)
    rows = max(cap // n3, 1)
    gap = 1e-12 * scale  # the ordering margin: lambda_1 < lambda_2 - gap
    count = 0
    # each lambda_3 sample's first feasible (lambda_1, lambda_2)
    starts = np.full((n3, 2), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r0 in range(0, n1, rows):
            pair1 = np.repeat(l1[r0:r0 + rows], n3)
            pair3 = np.tile(l3, pair1.size // n3)
            first, counts = _lambda2_bands(pair1, l2, pair3, c, reach, gap, trace_reach)
            for batch, j in _runs(counts, first, cap):
                cnt = counts[batch]
                lam1, lam2 = np.repeat(pair1[batch], cnt), l2[j]
                lam3 = np.repeat(pair3[batch], cnt)
                ok = (np.abs(catalog_quadratic(lam1, lam2, lam3, c)) <= quad_tol) & (
                    np.abs(lam1 + lam2 - 3.0 * lam3) <= trace_tol
                )
                if not ok.all():
                    lam1, lam2, lam3 = lam1[ok], lam2[ok], lam3[ok]
                b2sq = hopf_projection_square(lam2, lam1, lam3, c)
                keep = np.flatnonzero((b2sq > 0.0) & (b2sq < 1.0))
                if keep.size == 0:
                    continue
                b1sq = hopf_projection_square(lam1[keep], lam2[keep], lam3[keep], c)
                hit = keep[(b1sq > 0.0) & (b1sq < 1.0)]
                count += int(hit.size)
                # l3 is strictly increasing, so this finds each sample's index
                m, at = np.unique(np.searchsorted(l3, lam3[hit]), return_index=True)
                new = np.isnan(starts[m, 0])
                starts[m[new]] = np.column_stack((lam1[hit], lam2[hit]))[at[new]]
    total = int(n1) * int(n2) * int(n3)

    certificate = curve = max_res = None
    if c > 0:
        certificate = (
            "b1^2 > 0 needs lambda2 < 2*lambda3 and b2^2 > 0 needs "
            "lambda1 > 2*lambda3, contradicting lambda1 < lambda2; "
            f"also -c - 3*lambda3^2 <= {-c} < 0 leaves the catalog "
            "quadratic without real roots"
        )
    else:
        s = rate(c)
        m = np.flatnonzero(~np.isnan(starts[:, 0]) & (l3 < s))
        lam3 = l3[m]
        lam1, lam2 = _newton_curve(starts[m, 0], starts[m, 1], lam3, c)
        with np.errstate(divide="ignore", invalid="ignore"):
            b1sq, b2sq = hopf_projection_squares(lam1, lam2, lam3, c)
        on = (
            (lam1 < lam3) & (lam3 < lam2)
            & (b1sq > 0.0) & (b1sq < 1.0) & (b2sq > 0.0) & (b2sq < 1.0)
        )
        curve = np.column_stack((lam3, lam1, lam2, b1sq, b2sq))[on]
        if on.any():
            lam1, lam2, lam3 = lam1[on], lam2[on], lam3[on]
            max_res = max(
                float(np.max(np.abs(catalog_quadratic(lam1, lam2, lam3, c)))) / -c,
                float(np.max(np.abs(lam1 + lam2 - 3.0 * lam3))) / s,
            )
    return ScanReport(
        grid_shape=tuple(grid_shape),
        total_points=total,
        feasible_count=count,
        quad_tol=quad_tol,
        trace_tol=trace_tol,
        certificate=certificate,
        curve_points=curve,
        max_refined_residual=max_res,
    )
