"""Moebius algebra and hyperbolic geometry in the Poincare disk.

Transforms are unit-determinant disk automorphisms stored as a coefficient
pair (u, v) acting on the closed disk by

    z  ->  (u*z + v) / (conj(v)*z + conj(u)),      |u|^2 - |v|^2 = 1.

The pair is renormalized after every construction and composition, and the
overall sign is fixed (Re u >= 0, breaking ties by Im u > 0) so equal maps
compare equal.

Incidence computations run in the hyperboloid model of the hyperbolic
plane: a geodesic is the trace of a plane through the origin of R^{2,1}
with unit spacelike normal, points lift to unit timelike vectors, and all
predicates (sides, crossings, clipping) become Minkowski inner
products.  The disk model is kept for storage and for the boundary circle,
where arcs are finite angular intervals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

IDENTITY_TOL = 1e-12  # |u - 1| and |v| below this classify as the identity
PARABOLIC_TRACE_TOL = 1e-9  # |tr| within this of 2 classifies as parabolic
ENDPOINT_GAP = 1e-12  # minimal angular separation of geodesic endpoints


class GeometryError(ValueError):
    """Raised when inputs violate a geometric precondition."""


def _brentq(
    f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100, fa=None, fb=None
) -> float:
    """Root of f on the sign-changing bracket [xa, xb] by Brent's method.

    A line-for-line port of scipy's C ``brentq``: the same interpolation,
    extrapolation and bisection rules in the same floating-point order, so
    roots are bit-identical to ``scipy.optimize.brentq`` with equal
    arguments.  ``fa``/``fb`` are f(xa)/f(xb) when the caller already
    has them; f is then not evaluated there again.  A same-sign bracket,
    a NaN value or an exhausted ``maxiter`` raises ``GeometryError``.
    """

    def call(x: float, fx=None) -> float:
        fx = float(f(x) if fx is None else fx)
        if math.isnan(fx):
            raise GeometryError(f"root solve hit a NaN value at x={x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre, fa), call(xcur, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise GeometryError(
            f"root bracket [{xpre!r}, {xcur!r}] has no sign change: "
            f"f = {fpre!r}, {fcur!r}"
        )
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise GeometryError(f"root solve did not converge in {maxiter} iterations")


# ---------------------------------------------------------------------------
# Moebius transforms


@dataclass(frozen=True)
class MoebiusTransform:
    """Disk automorphism z -> (u z + v)/(conj(v) z + conj(u))."""

    u: complex
    v: complex

    def __post_init__(self):
        u, v = complex(self.u), complex(self.v)
        det = abs(u) ** 2 - abs(v) ** 2
        if det <= 0.0 or not math.isfinite(det):
            raise GeometryError(
                "coefficients do not define a disk automorphism "
                f"(|u|^2-|v|^2 = {det!r})"
            )
        scale = 1.0 / math.sqrt(det)
        if u.real < 0.0 or (u.real == 0.0 and u.imag < 0.0):
            scale = -scale
        object.__setattr__(self, "u", u * scale)
        object.__setattr__(self, "v", v * scale)

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls) -> "MoebiusTransform":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def rotation(cls, psi: float) -> "MoebiusTransform":
        """Rotation of the disk by angle psi about the origin."""
        return cls(cmath.exp(0.5j * psi), 0.0j)

    @classmethod
    def real_translation(cls, length: float) -> "MoebiusTransform":
        """Hyperbolic translation along the horizontal diameter.

        Translation length ``length``; the attracting fixed point is +1
        when ``length`` > 0.
        """
        return cls(math.cosh(0.5 * length), math.sinh(0.5 * length))

    @classmethod
    def from_sl2r(cls, a: float, b: float, c: float, d: float) -> "MoebiusTransform":
        """Conjugate a real SL(2,R) matrix (upper half-plane) to the disk."""
        u = complex(0.5 * (a + d), 0.5 * (b - c))
        v = complex(0.5 * (a - d), -0.5 * (b + c))
        return cls(u, v)

    # -- group operations ----------------------------------------------------

    def compose(self, other: "MoebiusTransform") -> "MoebiusTransform":
        """self after other (matrix product)."""
        u = self.u * other.u + self.v * other.v.conjugate()
        v = self.u * other.v + self.v * other.u.conjugate()
        return MoebiusTransform(u, v)

    __matmul__ = compose

    def inverse(self) -> "MoebiusTransform":
        return MoebiusTransform(self.u.conjugate(), -self.v)

    def power(self, k: int) -> "MoebiusTransform":
        m = self if k >= 0 else self.inverse()
        out = MoebiusTransform.identity()
        for _ in range(abs(k)):
            out = out.compose(m)
        return out

    # -- action --------------------------------------------------------------

    def apply(self, z: complex) -> complex:
        return (self.u * z + self.v) / (self.v.conjugate() * z + self.u.conjugate())

    __call__ = apply

    def apply_angle(self, theta: float) -> tuple[float, float]:
        """Image angle and angular derivative at a boundary angle."""
        z = cmath.exp(1j * theta)
        den = self.v.conjugate() * z + self.u.conjugate()
        w = (self.u * z + self.v) / den
        return math.atan2(w.imag, w.real) % TWO_PI, 1.0 / abs(den) ** 2

    @property
    def trace(self) -> float:
        return 2.0 * self.u.real

    def is_identity(self, tol: float = 1e-12) -> bool:
        return abs(self.u - 1.0) <= tol and abs(self.v) <= tol

    def almost_equal(self, other: "MoebiusTransform", tol: float = 1e-12) -> bool:
        same = abs(self.u - other.u) <= tol and abs(self.v - other.v) <= tol
        flip = abs(self.u + other.u) <= tol and abs(self.v + other.v) <= tol
        return same or flip


# ---------------------------------------------------------------------------
# Points


@dataclass(frozen=True)
class BoundaryPoint:
    """Point of the circle at infinity, stored as an angle in [0, 2*pi)."""

    theta: float

    def __post_init__(self):
        t = float(self.theta) % TWO_PI
        if t == TWO_PI:  # guard the representable 2*pi rounding case
            t = 0.0
        object.__setattr__(self, "theta", t)

    @classmethod
    def from_complex(cls, w: complex) -> "BoundaryPoint":
        return cls(math.atan2(w.imag, w.real))

    @property
    def point(self) -> complex:
        return cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class DiskPoint:
    """Point of the open unit disk."""

    z: complex

    def __post_init__(self):
        z = complex(self.z)
        if abs(z) >= 1.0 - 1e-12:
            raise GeometryError(f"point is not strictly inside the disk: |z| = {abs(z)}")
        object.__setattr__(self, "z", z)


def _zval(p) -> complex:
    if isinstance(p, DiskPoint):
        return p.z
    z = complex(p)
    if abs(z) >= 1.0 - 1e-12:
        raise GeometryError(f"point is not strictly inside the disk: |z| = {abs(z)}")
    return z


# ---------------------------------------------------------------------------
# Hyperboloid helpers (model R^{2,1}, form x^2 + y^2 - t^2)


def _mink(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[0] + a[1] * b[1] - a[2] * b[2])


def _lift(z: complex) -> np.ndarray:
    s = 1.0 - abs(z) ** 2
    return np.array([2.0 * z.real / s, 2.0 * z.imag / s, (1.0 + abs(z) ** 2) / s])


def _light(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta), 1.0])


# ---------------------------------------------------------------------------
# Geodesics


@dataclass(frozen=True)
class Geodesic:
    """Complete geodesic with ideal endpoints p and q.

    The realized arc is the circle orthogonal to the unit circle through
    the endpoints (a diameter when they are antipodal).  ``normal`` is the
    unit spacelike normal of the corresponding plane in the hyperboloid
    model, oriented by the (p, q) order.
    """

    p: BoundaryPoint
    q: BoundaryPoint
    is_diameter: bool = field(init=False)
    center: complex | None = field(init=False)
    radius: float | None = field(init=False)
    normal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tp, tq = self.p.theta, self.q.theta
        gap = min((tp - tq) % TWO_PI, (tq - tp) % TWO_PI)
        if gap <= ENDPOINT_GAP:
            raise GeometryError("geodesic endpoints coincide")
        # phi the midpoint and h the half-length of the arc from p to q; unlike
        # the cross product of the endpoints' light vectors, nothing cancels
        h = 0.5 * ((tq - tp) % TWO_PI)
        phi = tp + h
        n = np.array([math.cos(phi), math.sin(phi), math.cos(h)]) / -math.sin(h)
        object.__setattr__(self, "normal", n)

        zp, zq = self.p.point, self.q.point
        den = zp.real * zq.imag - zp.imag * zq.real
        if abs(den) < 1e-12:
            object.__setattr__(self, "is_diameter", True)
            object.__setattr__(self, "center", None)
            object.__setattr__(self, "radius", None)
        else:
            cx = (zq.imag - zp.imag) / den
            cy = (zp.real - zq.real) / den
            c = complex(cx, cy)
            object.__setattr__(self, "is_diameter", False)
            object.__setattr__(self, "center", c)
            object.__setattr__(self, "radius", math.sqrt(max(abs(c) ** 2 - 1.0, 0.0)))


def hyp_distance(z1, z2) -> float:
    """Poincare distance between two disk points."""
    a, b = _zval(z1), _zval(z2)
    num = abs(a - b)
    den = math.sqrt((1.0 - abs(a) ** 2) * (1.0 - abs(b) ** 2))
    return 2.0 * math.asinh(num / den)


# ---------------------------------------------------------------------------
# Isometry classification


@dataclass(frozen=True)
class IsometryInfo:
    kind: str  # identity | elliptic | parabolic | hyperbolic
    translation_length: float
    axis: Geodesic | None
    fixed_points: tuple[complex, ...]


def classify_isometry(m: MoebiusTransform) -> IsometryInfo:
    """Classify by trace; hyperbolic maps carry their axis.

    The axis endpoints are the boundary fixed points with the attracting
    one listed first.  Translation length is 2*arccosh(|tr|/2).
    """
    if m.is_identity(IDENTITY_TOL):
        return IsometryInfo("identity", 0.0, None, ())
    tr = abs(m.trace)
    if abs(tr - 2.0) <= PARABOLIC_TRACE_TOL:
        fix = ()
        if abs(m.v) > 0:
            fix = ((1j * m.u.imag) / m.v.conjugate(),)
        return IsometryInfo("parabolic", 0.0, None, fix)
    if tr < 2.0:
        return IsometryInfo("elliptic", 0.0, None, ())
    s = math.sqrt(m.u.real ** 2 - 1.0)
    att = (1j * m.u.imag + s) / m.v.conjugate()
    rep = (1j * m.u.imag - s) / m.v.conjugate()
    axis = Geodesic(BoundaryPoint.from_complex(att), BoundaryPoint.from_complex(rep))
    return IsometryInfo("hyperbolic", 2.0 * math.acosh(0.5 * tr), axis, (att, rep))


# ---------------------------------------------------------------------------
# Vectorized kernels shared by the dynamical modules


def lift_light(z: np.ndarray) -> np.ndarray:
    """Lightlike lifts of an array of boundary complex points, shape (N, 3)."""
    out = np.empty(z.shape + (3,))
    out[..., 0] = z.real
    out[..., 1] = z.imag
    out[..., 2] = 1.0
    return out


CLIP_EPS = 1e-13
CLIP_BLOCK = 4096  # chords per pass of clip_chord


def clip_chord(l_back: np.ndarray, l_fwd: np.ndarray, normals: np.ndarray):
    """Clip unit-speed geodesics against oriented half-planes.

    ``l_back``/``l_fwd`` are (..., 3) lightlike endpoint lifts of the
    backward and forward ideal endpoints; ``normals`` is (k, 3) with the
    allowed region {x : <x, n_i> >= 0}.  The chord is parametrized as
    gamma(t) = (l_back e^{-t} + l_fwd e^{t}) / sqrt(-2 <l_fwd, l_back>),
    which has unit speed.  Returns (t_in, t_out, side_in, side_out); a
    miss is reported as t_in > t_out (sides are then meaningless).

    Endpoint products within CLIP_EPS of zero are treated as lying on the
    bounding plane, so a geodesic running along a side counts as inside.
    The bounds kernel ``_clip_block`` lays each side's crossing bounds out
    (k, ...), side first, so that every reduction runs over whole rows.
    More chords than ``CLIP_BLOCK`` run in equal blocks that keep the
    (k, block) temporaries in cache; none is a single chord, whose product
    numpy rounds differently (by gemv).  The geodesic sampler reduces the
    same blocks' bounds without the sides.
    """
    n = math.prod(l_back.shape[:-1])
    if n <= CLIP_BLOCK:
        return _clip_sides(*_clip_block(normals, l_back, l_fwd))
    back, fwd = l_back.reshape(n, 3), l_fwd.reshape(n, 3)
    out = (np.empty(n), np.empty(n), np.empty(n, np.intp), np.empty(n, np.intp))
    n_blocks = -(-n // CLIP_BLOCK)
    for k in range(n_blocks):
        blk = slice(k * n // n_blocks, (k + 1) * n // n_blocks)
        for o, r in zip(out, _clip_sides(*_clip_block(normals, back[blk], fwd[blk]))):
            o[blk] = r
    return tuple(o.reshape(l_back.shape[:-1]) for o in out)


def _clip_sides(lower: np.ndarray, upper: np.ndarray):
    return lower.max(axis=0), upper.min(axis=0), lower.argmax(axis=0), upper.argmin(axis=0)


def _clip_block(normals: np.ndarray, l_back: np.ndarray, l_fwd: np.ndarray):
    """Per-side bounds (lower, upper), shape (k, ...): a chord is inside
    side i for t in [lower[i], upper[i]]."""
    nJ = normals * np.array([1.0, 1.0, -1.0])
    shape = (len(nJ),) + l_back.shape[:-1]
    a = (nJ @ l_back.reshape(-1, 3).T).reshape(shape)
    b = (nJ @ l_fwd.reshape(-1, 3).T).reshape(shape)
    t = np.negative(a)  # t_cross = log(-a / b) / 2, in place
    with np.errstate(divide="ignore", invalid="ignore"):
        t /= b
        np.log(t, out=t)
    t *= 0.5

    apos, aneg = a > CLIP_EPS, a < -CLIP_EPS
    bpos, bneg = b > CLIP_EPS, b < -CLIP_EPS
    lower = np.where(aneg & bpos, t, -np.inf)
    upper = t
    upper[~(apos & bneg)] = np.inf
    # sides violated for every t
    lower[(aneg & ~bpos) | (bneg & ~apos)] = np.inf
    return lower, upper


def chord_point(l_back: np.ndarray, l_fwd: np.ndarray, t) -> np.ndarray:
    """Disk point at parameter t of the unit-speed chord, vectorized."""
    J = np.array([1.0, 1.0, -1.0])
    dot = np.sum(l_fwd * J * l_back, axis=-1)
    scale = 1.0 / np.sqrt(-2.0 * dot)
    t = np.asarray(t)
    w = (
        l_back * np.exp(-t)[..., None] + l_fwd * np.exp(t)[..., None]
    ) * scale[..., None]
    return (w[..., 0] + 1j * w[..., 1]) / (1.0 + w[..., 2])
