"""Solvable-group model of the complex hyperbolic space CH^n(c).

The ambient space is realized as a simply connected solvable Lie group
(the AN factor of an Iwasawa decomposition of the isometry group) with a
left-invariant metric and complex structure.  All tensor algebra happens
in a fixed orthonormal left-invariant frame; points live in global
exponential coordinates, so one chart covers everything.

Frame/coordinate order (dimension 2n):

    index 0        B   -- unit generator of the abelian factor
    index 1        Z   -- J B, spans the center of the nilpotent factor
    index 2i, 2i+1 e_i, J e_i  (i = 1..n-1) -- J-paired root directions

A point has coordinates (t, z, v) with t the abelian parameter, z the
center parameter and v in R^{2n-2}; the group element is
exp(t B) exp(v + z Z).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

B_INDEX = 0
Z_INDEX = 1
GALPHA_START = 2

DEFAULT_ODE_STEP = 1e-4
# central-difference step of the finite-difference lab (numlab, `residuals`)
DEFAULT_FD_STEP = 1e-3
DEFAULT_SAMPLES = 200
DEFAULT_SEED = 20260814
CURVATURE_TOLERANCE = 1e-10


def rate(c: float) -> float:
    """The rate s = sqrt(-c)/2 of CH^n(c), c < 0: the root-space weight
    of the solvable model and the growth rate of the Jacobi profiles."""
    if not (c < 0 and math.isfinite(c)):
        raise ValueError(f"the rate sqrt(-c)/2 needs a finite c < 0, got c={c!r}")
    return math.sqrt(-c) / 2.0


def check_positive(name: str, value: float) -> None:
    """Reject a step, tolerance or band that is not positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _entire(x, cutoff: float, series, direct):
    """An even entire function of x: its Taylor polynomial in x^2 (the
    coefficients ``series``) where |x| < cutoff, else ``direct(x)``."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < cutoff
    safe = np.where(small, cutoff, x)
    return np.where(
        small, np.polynomial.polynomial.polyval(x * x, series), direct(safe)
    )


def _atanc(y):
    """atan(y)/y."""
    return _entire(y, 0.02, [(-1) ** k / (2 * k + 1) for k in range(5)],
                   lambda y: np.arctan(y) / y)


def _atan_defect(y):
    """(atan(y) - y/(1+y^2))/y^3."""
    return _entire(
        y, 0.1, [(-1) ** k * (2 * k + 2) / (2 * k + 3) for k in range(9)],
        lambda y: (np.arctan(y) - y / (1.0 + y * y)) / y**3,
    )


def _sine_defect(theta):
    """(theta - sin(theta))/theta^3."""
    return _entire(
        theta, 0.1, [(-1) ** k / math.factorial(2 * k + 3) for k in range(5)],
        lambda x: (x - np.sin(x)) / x**3,
    )


def rk4(rhs, state, t: float, step: float = DEFAULT_ODE_STEP):
    """Fixed-step classical RK4 for y' = rhs(*y), y a tuple of arrays.

    Takes max(1, round(|t|/step)) equal steps to reach time t (negative t
    runs backwards) and returns the state at t as a tuple of new arrays.
    """
    check_positive("step", step)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    y = [np.array(part, dtype=float) for part in state]
    if t == 0.0:
        return tuple(y)
    nsteps = max(1, int(round(abs(t) / step)))
    h = t / nsteps
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(nsteps):
        k1 = rhs(*y)
        k2 = rhs(*[yi + half * ki for yi, ki in zip(y, k1)])
        k3 = rhs(*[yi + half * ki for yi, ki in zip(y, k2)])
        k4 = rhs(*[yi + h * ki for yi, ki in zip(y, k3)])
        y = [
            yi + sixth * (a + 2 * b + 2 * c + d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
        ]
    return tuple(y)


@functools.lru_cache(maxsize=None)
def _j_transpose(d: int) -> np.ndarray:
    """J^T on d frame components, read-only: x @ J^T applies J to rows x."""
    jt = np.zeros((d, d))
    even = np.arange(0, d, 2)
    jt[even, even + 1] = 1.0  # (Jx)[2m+1] = x[2m]
    jt[even + 1, even] = -1.0  # (Jx)[2m] = -x[2m+1]
    jt.flags.writeable = False
    return jt


def j_action(x) -> np.ndarray:
    """The complex structure J on the last axis of frame components,
    batched: (Jx)[2m] = -x[2m+1], (Jx)[2m+1] = x[2m] (JB = Z, Je_i paired);
    GALPHA_START is even, so root-space slices follow the same rule.  J is
    a signed permutation, so the result is exact.  One- and two-axis
    operands take ``ndarray.dot``, which makes the BLAS call that ``@``
    makes at about half of its per-call cost; ``dot`` is not ``@`` on
    more axes, which keep ``@``."""
    x = np.asarray(x, dtype=float)
    jt = _j_transpose(x.shape[-1])
    return x.dot(jt) if x.ndim <= 2 else x @ jt


def standard_complex_structure(n: int) -> np.ndarray:
    """Matrix of J in the left-invariant frame (columns J e_i)."""
    return _j_transpose(2 * n).T.copy()


@dataclass(frozen=True)
class ModelParams:
    """Ambient dimension parameter n >= 2 and holomorphic curvature c != 0.

    The solvable group model needs c < 0; c > 0 is accepted only so the
    closed-form curvature tensor (and the algebraic scans built on it)
    can be evaluated there.
    """

    n: int
    c: float

    def __post_init__(self):
        try:
            integral = int(self.n) == self.n
        except (OverflowError, TypeError, ValueError):
            integral = False
        if not integral or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if self.c == 0 or not math.isfinite(self.c):
            raise ValueError(f"c must be a nonzero finite real, got {self.c!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self) -> int:
        return 2 * self.n


def _row_dot(a, b):
    """Dot product over the last axis, batched over leading axes; on
    single vectors it rounds exactly as ``np.dot``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


class _BilinearTable:
    """x, y -> sum_ij x_i y_j table[i, j, :] on the last axis, broadcast
    over the leading ones, for a sparse (d, d, d) table.

    For finite x and y the result is the three-operand
    ``np.einsum("...i,...j,ijk->...k")`` bit for bit, at the cost of the
    table's nonzero terms instead of d^3 per row.  That einsum adds the
    terms (x_i y_j) table[i, j, k] to 0.0 one by one, in the row-major
    order of (i, j), and a zero term changes no such sum.  Here the
    nonzero terms of each output k stand in that order in column k of a
    (width, d) plan, padded with zero terms (width <= d), and the plan's
    rows are added in turn, each as one whole-array add over every output
    of every input row.  These are the left-to-right sums a running sum
    along each column gives, but ``np.cumsum`` on so short an axis runs
    one short inner loop per output, and the width - 1 adds run one long
    loop each.  The final + 0.0 turns the -0.0 that a run of -0.0 terms
    leaves into einsum's 0.0.
    """

    def __init__(self, table: np.ndarray):
        k, i, j = np.nonzero(table.transpose(2, 0, 1))  # by k, then (i, j)
        slot = np.arange(k.size) - np.searchsorted(k, k)
        shape = (int(slot.max()) + 1, table.shape[2])
        self.i, self.j = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int)
        self.values = np.zeros(shape)
        self.i[slot, k], self.j[slot, k], self.values[slot, k] = i, j, table[i, j, k]

    def __call__(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        terms = (x[..., self.i] * y[..., self.j]) * self.values
        acc = terms[..., 0, :]
        for w in range(1, terms.shape[-2]):
            acc = acc + terms[..., w, :]
        # a C-ordered result, as einsum gives: later row-wise products
        # (matmul) may round differently on other layouts
        return np.add(acc, 0.0, order="C")


def ambient_curvature(x, y, z, c: float) -> np.ndarray:
    """Closed-form curvature R(x,y)z of a complex space form, any c != 0.

    R(X,Y)Z = (c/4)(<Y,Z>X - <X,Z>Y + <JY,Z>JX - <JX,Z>JY - 2<JX,Y>JZ).
    Inputs are frame components, single vectors or row stacks; valid for
    either curvature sign.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    jx, jy, jz = j_action(x), j_action(y), j_action(z)

    def dot(a, b):
        return _row_dot(a, b)[..., None]

    return (c / 4.0) * (
        dot(y, z) * x
        - dot(x, z) * y
        + dot(jy, z) * jx
        - dot(jx, z) * jy
        - 2.0 * dot(jx, y) * jz
    )


class SolvableModel:
    """CH^n(c) as a solvable Lie group with left-invariant geometry.

    Exposes exact Lie brackets, the Koszul connection table, curvature
    both structurally and in closed form, the group law, the closed-form
    geodesic flow, and geodesic and parallel-transport integrators built
    on the shared ``rk4`` (the oracles of the closed form).
    """

    def __init__(self, params: ModelParams):
        if params.c >= 0:
            raise ValueError(
                "the solvable group model exists only for c < 0; "
                "use ambient_curvature for c > 0"
            )
        self.params = params
        self.n = params.n
        self.c = params.c
        self.dim = params.dim
        # a is the root-space weight: ad(B) = a*id on the paired block,
        # 2a*id on the center.
        self.a = rate(params.c)
        self.structure = self._structure_tensor()
        # koszul[i, j, k] = <nabla_{E_i} E_j, E_k> for the orthonormal
        # left-invariant frame.
        cs = self.structure
        # K[i,j,k] = (cs[i,j,k] - cs[j,k,i] + cs[k,i,j]) / 2
        self.koszul = 0.5 * (
            cs - np.transpose(cs, (2, 0, 1)) + np.transpose(cs, (1, 2, 0))
        )

    # -- algebra ---------------------------------------------------------

    def _structure_tensor(self) -> np.ndarray:
        d, a = self.dim, self.a
        cs = np.zeros((d, d, d))
        cs[B_INDEX, Z_INDEX, Z_INDEX] = 2.0 * a
        cs[Z_INDEX, B_INDEX, Z_INDEX] = -2.0 * a
        for u in range(GALPHA_START, d):
            cs[B_INDEX, u, u] = a
            cs[u, B_INDEX, u] = -a
        # [U, V] = 2a <JU, V> Z on the paired block
        cs[GALPHA_START:, GALPHA_START:, Z_INDEX] = 2.0 * a * j_action(
            np.eye(d - GALPHA_START)
        )
        return cs

    @functools.cached_property
    def _bracket(self) -> _BilinearTable:
        return _BilinearTable(self.structure)

    @functools.cached_property
    def _nabla(self) -> _BilinearTable:
        return _BilinearTable(self.koszul)

    def bracket(self, x, y) -> np.ndarray:
        """Lie bracket of left-invariant fields, frame components (single
        vectors or row stacks)."""
        return self._bracket(x, y)

    def koszul_connection(self, x, y) -> np.ndarray:
        """nabla_x y for left-invariant fields, frame components (single
        vectors or row stacks)."""
        return self._nabla(x, y)

    # -- curvature -------------------------------------------------------

    def curvature_from_koszul(self, x, y, z) -> np.ndarray:
        """R(x,y)z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z."""
        nc = self.koszul_connection
        return (
            nc(x, nc(y, z)) - nc(y, nc(x, z)) - nc(self.bracket(x, y), z)
        )

    def sectional_curvature(self, x, y):
        """K(span(x,y)) via the structural curvature tensor; a float for
        single vectors, an array of row-wise values for row stacks."""
        r = self.curvature_from_koszul(x, y, y)
        area = _row_dot(x, x) * _row_dot(y, y) - _row_dot(x, y) ** 2
        if np.any(area < 1e-300):
            raise ValueError("degenerate 2-plane")
        k = _row_dot(r, x) / area
        return float(k) if np.ndim(k) == 0 else k

    def verify_curvature(
        self,
        samples: int = DEFAULT_SAMPLES,
        seed: int = DEFAULT_SEED,
    ) -> dict:
        """Compare structural and closed-form curvature on random triples.

        Also checks holomorphic planes (K = c), totally real planes
        (K = c/4) and the pinching c <= K <= c/4.  Returns the largest
        deviation of each, keyed ``curvature``, ``holomorphic``,
        ``totally_real`` and ``pinching``.
        """
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples!r}")
        rng = np.random.default_rng(seed)
        d = self.dim
        # one (samples, 3, d) draw per check: the same stream as drawing
        # the three rows of each sample in turn
        x, y, z = np.moveaxis(rng.standard_normal((samples, 3, d)), 1, 0)
        r1 = self.curvature_from_koszul(x, y, z)
        r2 = ambient_curvature(x, y, z, self.c)
        curvature = float(np.max(np.abs(r1 - r2)))

        def normalize(v):
            return v / np.sqrt(_row_dot(v, v))[:, None]

        x, y, w = np.moveaxis(rng.standard_normal((samples, 3, d)), 1, 0)
        x = normalize(x)
        jx = j_action(x)
        holo_err = np.max(np.abs(self.sectional_curvature(x, jx) - self.c))
        # totally real plane: orthonormalize y against x and Jx
        y = normalize(
            y - (_row_dot(y, x)[:, None] * x + _row_dot(y, jx)[:, None] * jx)
        )
        real_err = np.max(np.abs(self.sectional_curvature(x, y) - self.c / 4.0))
        w = normalize(w - _row_dot(w, x)[:, None] * x)
        k = self.sectional_curvature(x, w)
        pinch = max(np.max(self.c - k), np.max(k - self.c / 4.0), 0.0)
        return {
            "curvature": curvature,
            "holomorphic": float(holo_err),
            "totally_real": float(real_err),
            "pinching": float(pinch),
        }

    # -- group structure -------------------------------------------------

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim)
        e[i] = 1.0
        return e

    def _split(self, coords: np.ndarray):
        return coords[..., 0], coords[..., 1], coords[..., GALPHA_START:]

    def group_product(self, coords1, coords2) -> np.ndarray:
        """Group product of coordinate arrays, batched over leading axes."""
        coords1 = np.asarray(coords1, dtype=float)
        coords2 = np.asarray(coords2, dtype=float)
        t1, z1, v1 = self._split(coords1)
        t2, z2, v2 = self._split(coords2)
        a = self.a
        s = np.exp(-a * t2)
        jv1 = j_action(v1)
        out = np.empty(np.broadcast(coords1, coords2).shape)
        out[..., 0] = t1 + t2
        out[..., 1] = s * s * z1 + z2 + a * s * np.sum(jv1 * v2, axis=-1)
        out[..., GALPHA_START:] = s[..., None] * v1 + v2
        return out

    def frame_to_coordinate_velocity(self, coords, vel) -> np.ndarray:
        """Coordinate velocity of a curve with frame velocity ``vel``."""
        coords = np.asarray(coords, dtype=float)
        vel = np.asarray(vel, dtype=float)
        t, z, v = self._split(coords)
        beta, zeta, u = self._split(vel)
        a = self.a
        jv = j_action(v)
        out = np.empty(np.broadcast(coords, vel).shape)
        out[..., 0] = beta
        out[..., 1] = zeta - 2.0 * a * beta * z + a * np.sum(jv * u, axis=-1)
        out[..., GALPHA_START:] = u - a * beta[..., None] * v
        return out

    def coordinate_to_frame_velocity(self, coords, cdot) -> np.ndarray:
        """Frame components of a coordinate velocity (exact inverse)."""
        coords = np.asarray(coords, dtype=float)
        cdot = np.asarray(cdot, dtype=float)
        t, z, v = self._split(coords)
        td, zd, vd = self._split(cdot)
        a = self.a
        out = np.empty(np.broadcast(coords, cdot).shape)
        out[..., 0] = td
        u = vd + a * td[..., None] * v
        out[..., GALPHA_START:] = u
        jv = j_action(v)
        out[..., 1] = zd + 2.0 * a * td * z - a * np.sum(jv * u, axis=-1)
        return out

    # -- geodesic flow ----------------------------------------------------

    def geodesic_closed(self, coords0, vel0, t: float):
        """Closed-form geodesic flow; returns (coords(t), frame vel(t)).

        Same arguments as ``integrate_geodesic`` without the step, batched
        over leading axes, any speed.  The geodesic from the identity with
        unit velocity X = (b0, z0, u0) lies in the complex line
        span{X, JX}.  With a the rate, w = tanh(a tau), R = w/(1 - b0 w),
        y = z0 R, theta = 2 atan(y) and q = cosh(a tau)^2 ((1 - b0 w)^2
        + z0^2 w^2) = exp(-2 a t(tau)), it reaches

            t = -log(q)/(2a),
            v = sqrt(q) I1 (S u0 + C J u0),
            z = q (z0 I2 + a |u0|^2 I1^2 (theta - sin theta)/theta^2),

        where S = sin(theta)/theta, C = (1 - cos theta)/theta,
        atanc(y) = atan(y)/y, I1 = R atanc(y)/a and
        I2 = (F + 2 b0 G + (b0^2 - 1) H)/a with
        F = (R/(1 + y^2) + R atanc(y))/2, G = R^2/(2(1 + y^2)) and
        H = R^3 (atan(y) - y/(1 + y^2))/(2 y^3).  Its frame velocity is
        (-q'/(2aq), z0/q, q^{-1/2}(cos theta u0 + sin theta J u0)).  Every
        quotient is entire and is evaluated by its series near 0.  Left
        translation to coords0 is an isometry that keeps frame components.
        """
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t!r}")
        coords0 = np.asarray(coords0, dtype=float)
        vel0 = np.asarray(vel0, dtype=float)
        if t == 0.0:
            return coords0.copy(), vel0.copy()
        a = self.a
        speed = np.linalg.norm(vel0, axis=-1)
        moving = speed > 0
        # a resting point follows the unit B geodesic for time 0
        unit = np.where(
            moving[..., None],
            vel0 / np.where(moving, speed, 1.0)[..., None],
            self.basis_vector(B_INDEX),
        )
        b0, z0, u0 = self._split(unit)
        ju0 = j_action(u0)
        mu2 = np.sum(u0 * u0, axis=-1)
        x = a * speed * t
        w = np.tanh(x)
        # 1 - b0 w without cancellation as b0 -> 1 and w -> 1
        e = np.exp(-2.0 * np.abs(x))
        one_minus_w = np.where(x > 0, 2.0 * e / (1.0 + e), 1.0 - w)
        one_minus_b0 = np.where(
            b0 > 0, (z0 * z0 + mu2) / (1.0 + np.abs(b0)), 1.0 - b0
        )
        den = one_minus_b0 + b0 * one_minus_w
        f = den * den + z0 * z0 * w * w
        ch = np.cosh(x)
        q = ch * ch * f
        log_cosh = np.abs(x) + np.log1p(e) - math.log(2.0)
        big_r = w / den
        y = z0 * big_r
        theta = 2.0 * np.arctan(y)
        atanc = _atanc(y)
        i1 = big_r * atanc / a
        half = 0.5 / (1.0 + y * y)
        i2 = (
            0.5 * big_r * atanc + half * big_r
            + 2.0 * b0 * half * big_r * big_r
            + (b0 * b0 - 1.0) * 0.5 * big_r**3 * _atan_defect(y)
        ) / a
        sinc = np.sinc(theta / np.pi)  # sin(theta)/theta
        cosc = 0.5 * theta * np.sinc(theta / (2.0 * np.pi)) ** 2
        out = np.empty(np.broadcast(coords0, vel0).shape)
        out[..., 0] = -(2.0 * log_cosh + np.log(f)) / (2.0 * a)
        out[..., 1] = q * (
            z0 * i2 + a * mu2 * i1 * i1 * theta * _sine_defect(theta)
        )
        out[..., GALPHA_START:] = (np.sqrt(q) * i1)[..., None] * (
            sinc[..., None] * u0 + cosc[..., None] * ju0
        )
        vel = np.empty_like(out)
        b0_minus_w = one_minus_w - one_minus_b0
        vel[..., 0] = (den * b0_minus_w - z0 * z0 * w) / f
        vel[..., 1] = z0 / q
        vel[..., GALPHA_START:] = (
            np.cos(theta)[..., None] * u0 + np.sin(theta)[..., None] * ju0
        ) / np.sqrt(q)[..., None]
        vel *= speed[..., None]
        return self.group_product(coords0, out), vel

    # -- integrators -----------------------------------------------------

    def _geodesic_rhs(self, coords, vel):
        cdot = self.frame_to_coordinate_velocity(coords, vel)
        vdot = -np.einsum("...i,...j,ijk->...k", vel, vel, self.koszul)
        return cdot, vdot

    def _transport_rhs(self, coords, vel, mat):
        cdot, vdot = self._geodesic_rhs(coords, vel)
        mdot = -np.einsum("...i,...rj,ijk->...rk", vel, mat, self.koszul)
        return cdot, vdot, mdot

    def integrate_geodesic(self, coords0, vel0, t: float, step: float = DEFAULT_ODE_STEP):
        """Batched RK4 geodesic flow; returns (coords(t), frame vel(t)).
        The oracle of ``geodesic_closed``."""
        return rk4(self._geodesic_rhs, (coords0, vel0), t, step)

    def integrate_transport(self, coords0, vel0, mat0, t: float, step: float = DEFAULT_ODE_STEP):
        """RK4 transport of row-stacked vectors mat0 along a geodesic."""
        return rk4(self._transport_rhs, (coords0, vel0, mat0), t, step)
