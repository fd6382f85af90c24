"""Moebius algebra and hyperbolic geometry in the Poincare disk.

Transforms are unit-determinant disk automorphisms stored as a coefficient
pair (u, v) acting on the closed disk by

    z  ->  (u*z + v) / (conj(v)*z + conj(u)),      |u|^2 - |v|^2 = 1.

The pair is renormalized after every construction and composition, and the
overall sign is fixed (Re u >= 0, breaking ties by Im u > 0) so equal maps
compare equal.  Word products (``symbolic.word_to_element``) are never
renormalized: the measured |u|^2 - |v|^2 of a long product cancels.

Incidence computations run in the hyperboloid model of the hyperbolic
plane: a geodesic is the trace of a plane through the origin of R^{2,1}
with unit spacelike normal, boundary points lift to light vectors, and
chord clipping (``clip_chord``) becomes Minkowski inner products.  Points,
geodesics and arcs have no classes here: the one octagon is held as
arrays on ``pants.PantsGeometry`` (vertices in the disk, side and arc
endpoints as angles on the circle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class GeometryError(ValueError):
    """Raised when inputs violate a geometric precondition."""


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
    def _raw(cls, u: complex, v: complex) -> "MoebiusTransform":
        """The pair as given, with the sign convention but no check or renormalization."""
        if u.real < 0.0 or (u.real == 0.0 and u.imag < 0.0):
            u, v = -u, -v
        m = object.__new__(cls)
        object.__setattr__(m, "u", u)
        object.__setattr__(m, "v", v)
        return m

    @classmethod
    def real_translation(cls, length: float) -> "MoebiusTransform":
        """Hyperbolic translation along the horizontal diameter.

        Translation length ``length``; the attracting fixed point is +1
        when ``length`` > 0.
        """
        return cls(math.cosh(0.5 * length), math.sinh(0.5 * length))

    # -- group operations ----------------------------------------------------

    def compose(self, other: "MoebiusTransform") -> "MoebiusTransform":
        """self after other (matrix product)."""
        u = self.u * other.u + self.v * other.v.conjugate()
        v = self.u * other.v + self.v * other.u.conjugate()
        return MoebiusTransform(u, v)

    __matmul__ = compose

    def inverse(self) -> "MoebiusTransform":
        return MoebiusTransform(self.u.conjugate(), -self.v)

    # -- action --------------------------------------------------------------

    def apply(self, z: complex) -> complex:
        return (self.u * z + self.v) / (self.v.conjugate() * z + self.u.conjugate())

    __call__ = apply

    @property
    def translation_length(self) -> float:
        """2 arccosh(|tr| / 2), tr = 2 Re u; 0 for elliptic maps and the identity."""
        return 2.0 * math.acosh(max(1.0, abs(self.u.real)))


# ---------------------------------------------------------------------------
# Vectorized kernels shared by the dynamical modules


def lift_light(z: np.ndarray) -> np.ndarray:
    """Lightlike lifts of an array of boundary complex points, shape (N, 3)."""
    out = np.empty(z.shape + (3,))
    out[..., 0] = z.real
    out[..., 1] = z.imag
    out[..., 2] = 1.0
    return out


CLIP_EPS = 1e-13  # zero band of a side product, per unit of the side normal's 1-norm
CLIP_BLOCK = 4096  # chords per pass of clip_chord


def side_eps(normals: np.ndarray) -> np.ndarray:
    """Each side's zero band CLIP_EPS * ||n_i||_1: a side product's rounding
    error grows with its normal's 1-norm, which reaches 1.6e5 at cuffs (0.01)^3."""
    return CLIP_EPS * np.abs(normals).sum(axis=-1)


def clip_chord(l_back: np.ndarray, l_fwd: np.ndarray, normals: np.ndarray):
    """Clip unit-speed geodesics against oriented half-planes.

    ``l_back``/``l_fwd`` are (..., 3) lightlike endpoint lifts of the
    backward and forward ideal endpoints; ``normals`` is (k, 3) with the
    allowed region {x : <x, n_i> >= 0}.  The chord is parametrized as
    gamma(t) = (l_back e^{-t} + l_fwd e^{t}) / sqrt(-2 <l_fwd, l_back>),
    which has unit speed.  Returns (t_in, t_out, side_in, side_out); a
    miss is reported as t_in > t_out (sides are then meaningless).

    Endpoint products within ``side_eps`` of zero, CLIP_EPS units of side
    i's rounding scale ||n_i||_1, are treated as lying on the bounding
    plane, so a geodesic running along a side counts as inside.
    The bounds kernel ``_clip_block`` lays each side's crossing bounds out
    (k, ...), side first, so that every reduction runs over whole rows.
    More chords than ``CLIP_BLOCK`` run in equal blocks that keep the
    (k, block) temporaries in cache; none is a single chord, whose product
    numpy rounds differently (by gemv).

    This is the vector reference of the rule: the geodesic sampler reduces
    the same blocks' bounds of the four seam sides alone, without the side
    indices, and ``symbolic._exit_side`` runs it on one chord in scalars,
    which the tests hold to this form.
    """
    n, eps = math.prod(l_back.shape[:-1]), side_eps(normals)
    if n <= CLIP_BLOCK:
        return _clip_sides(*_clip_block(normals, eps, l_back, l_fwd))
    back, fwd = l_back.reshape(n, 3), l_fwd.reshape(n, 3)
    out = (np.empty(n), np.empty(n), np.empty(n, np.intp), np.empty(n, np.intp))
    n_blocks = -(-n // CLIP_BLOCK)
    for k in range(n_blocks):
        blk = slice(k * n // n_blocks, (k + 1) * n // n_blocks)
        for o, r in zip(out, _clip_sides(*_clip_block(normals, eps, back[blk], fwd[blk]))):
            o[blk] = r
    return tuple(o.reshape(l_back.shape[:-1]) for o in out)


def _clip_sides(lower: np.ndarray, upper: np.ndarray):
    return lower.max(axis=0), upper.min(axis=0), lower.argmax(axis=0), upper.argmin(axis=0)


def _clip_block(normals: np.ndarray, eps: np.ndarray, l_back: np.ndarray, l_fwd: np.ndarray):
    """Per-side bounds (lower, upper), shape (k, ...): a chord is inside
    side i for t in [lower[i], upper[i]]; eps is ``side_eps(normals)``."""
    nJ = normals * np.array([1.0, 1.0, -1.0])
    shape = (len(nJ),) + l_back.shape[:-1]
    a = (nJ @ l_back.reshape(-1, 3).T).reshape(shape)
    b = (nJ @ l_fwd.reshape(-1, 3).T).reshape(shape)
    t = np.negative(a)  # t_cross = log(-a / b) / 2, in place
    with np.errstate(divide="ignore", invalid="ignore"):
        t /= b
        np.log(t, out=t)
    t *= 0.5

    eps = eps.reshape((-1,) + (1,) * (a.ndim - 1))
    apos, aneg = a > eps, a < -eps
    bpos, bneg = b > eps, b < -eps
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
