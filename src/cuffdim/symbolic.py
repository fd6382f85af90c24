"""Reduced words, boundary expansions, cylinder arcs and cutting sequences.

Words are tuples over the symbols ALPHA=0, ABAR=1, BETA=2, BBAR=3; a word
is reduced when no symbol is followed by its bar.  The cylinder of a word
w is the set of circle points whose boundary expansion starts with w; its
arc is obtained by pushing the arc of the last symbol through the
contracting inverse branches of the preceding symbols.  Arc lengths are
tracked multiplicatively through the exact chordal contraction factor of
each Moebius branch, so they stay accurate at depths where the naive
endpoint difference would lose all precision.

A complete geodesic is coded by its pair of endpoint words and traced
through the octagon tiling on those words: after each crossing both words
are pulled back into the fundamental octagon symbolically.  Each endpoint
keeps the stack of partial images of its word, and a crossing pops or
pushes one contracting branch, so no precision is lost however long the
traced word is.

Points come only from the image stacks, chords only from the scalar rule
``_exit_side``, and group elements only from raw generator products.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .hyperbolic import TWO_PI, GeometryError, MoebiusTransform
from .pants import (
    ALPHA,
    ABAR,
    BETA,
    BBAR,
    CUFF_SIDE_INDICES,
    SEAM_SIDE_SYMBOL,
    SYMBOL_CHARS,
    PantsGeometry,
    bar,
)

Word = tuple[int, ...]

MAX_TRACE_LEN = 200


# ---------------------------------------------------------------------------
# Word utilities


_SYMBOLS = frozenset(range(4))


def is_reduced(word) -> bool:
    # bar(s) = s ^ 1, so a symbol followed by its bar xors to 1
    return 1 not in map(operator.xor, word, word[1:])


def check_reduced(word) -> Word:
    word = tuple(map(int, word))
    if not _SYMBOLS.issuperset(word):
        raise GeometryError(f"invalid symbols in word {word}")
    if not is_reduced(word):
        raise GeometryError(f"word {word} is not reduced")
    return word


def word_from_string(s: str) -> Word:
    try:
        return tuple(SYMBOL_CHARS.index(ch) for ch in s)
    except ValueError:
        raise GeometryError(f"word string {s!r} has letters outside {SYMBOL_CHARS!r}")


def word_to_string(word) -> str:
    return "".join(SYMBOL_CHARS[s] for s in word)


def bar_reverse(word) -> Word:
    """Reverse the word and bar every symbol (the time-reversal involution)."""
    return tuple(bar(s) for s in reversed(word))


# ---------------------------------------------------------------------------
# Cylinder covers


@dataclass(frozen=True, eq=False)
class CylinderCover:
    """All depth-n cylinder arcs, in lexicographic word order.

    ``p``/``q`` hold the lo/hi arc endpoints as unit complex numbers and
    ``log_chord`` the logarithm of the chordal endpoint distance,
    accumulated multiplicatively along the inverse branches.
    """

    depth: int
    words: np.ndarray  # (N, depth) uint8
    p: np.ndarray  # (N,) complex lo endpoints
    q: np.ndarray  # (N,) complex hi endpoints
    log_chord: np.ndarray  # (N,)

    @property
    def n_words(self) -> int:
        return self.words.shape[0]

    @property
    def lo(self) -> np.ndarray:
        return np.angle(self.p) % TWO_PI

    @property
    def lengths(self) -> np.ndarray:
        """Angular arc lengths, exact via the chord."""
        return 2.0 * np.arcsin(np.minimum(0.5 * np.exp(self.log_chord), 1.0))

    @property
    def hi(self) -> np.ndarray:
        return (self.lo + self.lengths) % TWO_PI

    @property
    def midpoints(self) -> np.ndarray:
        """Unit complex arc midpoints."""
        m = self.p + self.q
        return m / np.abs(m)

    def word_string(self, i: int) -> str:
        return word_to_string(self.words[i])


def cylinder_cover(p: PantsGeometry, n: int) -> CylinderCover:
    """Arcs of all 4*3^(n-1) depth-n cylinders."""
    if not 1 <= n <= 14:
        raise GeometryError(f"cover depth {n} outside [1, 14]")
    cached = p._cache.get(("cover", n))
    if cached is not None:
        return cached

    words = np.arange(4, dtype=np.uint8).reshape(4, 1)
    zp = p.arc_point(np.arange(4), -1.0)
    zq = p.arc_point(np.arange(4), 1.0)
    log_chord = np.log(np.abs(zq - zp))

    for _ in range(n - 1):
        parts_w, parts_p, parts_q, parts_c = [], [], [], []
        first = words[:, 0]
        for tau in range(4):
            mask = first != bar(tau)
            img_p, den_p = p.inverse_branch(tau, zp[mask])
            img_q, den_q = p.inverse_branch(tau, zq[mask])
            parts_p.append(img_p)
            parts_q.append(img_q)
            parts_c.append(log_chord[mask] - np.log(np.abs(den_p)) - np.log(np.abs(den_q)))
            w_mask = words[mask]
            parts_w.append(
                np.hstack([np.full((w_mask.shape[0], 1), tau, dtype=np.uint8), w_mask])
            )
        words = np.vstack(parts_w)
        zp = np.concatenate(parts_p)
        zq = np.concatenate(parts_q)
        log_chord = np.concatenate(parts_c)

    # keep endpoints exactly on the circle; drift is multiplicative otherwise
    zp = zp / np.abs(zp)
    zq = zq / np.abs(zq)
    cover = CylinderCover(depth=n, words=words, p=zp, q=zq, log_chord=log_chord)
    p._cache[("cover", n)] = cover
    return cover


# ---------------------------------------------------------------------------
# Words as group elements


def word_to_element(p: PantsGeometry, word) -> MoebiusTransform:
    """Composition of the generators named by the word, read left to right.

    The stored coefficients are multiplied raw, as in _attracting_fixed_point,
    and never renormalized: the measured |u|^2 - |v|^2 of a long product
    cancels, while its true determinant stays 1 to a few ulps per letter.
    """
    u, v = 1.0 + 0.0j, 0.0j
    for s in check_reduced(word):
        g = p.gens[s]
        u, v = u * g.u + v * g.v.conjugate(), u * g.v + v * g.u.conjugate()
    return MoebiusTransform._raw(u, v)


# ---------------------------------------------------------------------------
# Symbolic rays and their points


@dataclass(frozen=True)
class Ray:
    """Endpoint data: a reduced prefix, optionally followed by a repeating block."""

    prefix: Word = ()
    period: Word | None = None

    def __post_init__(self):
        object.__setattr__(self, "prefix", check_reduced(self.prefix))
        if self.period is not None:
            per = check_reduced(self.period)
            if not per:
                raise GeometryError("empty period")
            if per[0] == bar(per[-1]):
                raise GeometryError(f"period {per} is not cyclically reduced")
            if self.prefix and per[0] == bar(self.prefix[-1]):
                raise GeometryError("prefix/period junction is not reduced")
            object.__setattr__(self, "period", per)
        if not self.prefix and self.period is None:
            raise GeometryError("ray needs a prefix or a period")

    @classmethod
    def from_string(cls, prefix: str, period: str | None = None) -> "Ray":
        return cls(
            word_from_string(prefix),
            word_from_string(period) if period else None,
        )

    @property
    def first(self) -> int:
        return self.prefix[0] if self.prefix else self.period[0]


@dataclass(frozen=True)
class GeodesicPair:
    """Forward/backward symbolic endpoints with distinct first symbols."""

    xi: Ray
    eta: Ray

    def __post_init__(self):
        if self.xi.first == self.eta.first:
            raise GeometryError("xi and eta start with the same symbol")

    @classmethod
    def periodic(cls, word) -> "GeodesicPair":
        """The pair of the bi-infinite periodic word (w)^infinity."""
        word = check_reduced(word)
        if word[0] == bar(word[-1]):
            raise GeometryError(f"word {word} is not cyclically reduced")
        return cls(Ray((), word), Ray((), bar_reverse(word)))


def _realize(p: PantsGeometry, prefix: Word, period: Word | None) -> complex:
    """Unit complex point whose boundary expansion is prefix + period^inf.

    A period is realized exactly, as the repelling fixed point of its
    return map (the attracting one of its contracting branches), pushed
    through the inverse branches of the prefix.  A prefix alone gives the
    midpoint of its whole cylinder, which stays exact because only
    contracting branches run.
    """
    return _point(_images(p, prefix, period)[-1])


def _images(p: PantsGeometry, prefix: Word, period: Word | None) -> list:
    """Partial images of the word prefix + period^inf, as a stack.

    Entry 0 is the base: the repelling fixed point of the period's return
    map, or the arc ends of the last prefix symbol.  Each entry above it
    applies the contracting branch of one more prefix symbol, from the end
    inwards, so the top entry realizes the whole word.  An entry is
    (zp, zq, s), s the leading symbol of the word it realizes, so the stack
    also holds the prefix.  Only contracting branches are applied, so every
    entry carries full double precision however long the word is.
    """
    if period is not None:
        zp = zq = _attracting_fixed_point(p, period)
        stack, tail = [(zp, zq, period[0])], prefix
    else:
        zp, zq = p._arc_ends[prefix[-1]]
        stack, tail = [(zp, zq, prefix[-1])], prefix[:-1]
    # _branch's step inline: no call and no entry tuple to unpack per symbol
    branches = p._branches
    for s in reversed(tail):
        u, v, cv, cu = branches[s]
        zp, zq = (u * zp + v) / (cv * zp + cu), (u * zq + v) / (cv * zq + cu)
        stack.append((zp, zq, s))
    return stack


def _attracting_fixed_point(p: PantsGeometry, period: Word) -> complex:
    """Attracting fixed point of the contracting composition phi_period.

    The coefficients (u, v) are composed raw and never renormalized, so no
    |u|^2 - |v|^2 is formed (at long cuffs it cancels to nothing).  The
    root of conj(v) z^2 - 2i Im(u) z - v = 0 does not depend on their scale.
    """
    u, v = 1.0 + 0.0j, 0.0j
    for s in period:
        u, v = p.compose_branch(u, v, s)
    u, v = complex(u), complex(v)
    try:
        root = math.copysign(math.sqrt(abs(v) ** 2 - u.imag ** 2), u.real)
        z = (1j * u.imag + root) / v.conjugate()
    except (ValueError, ZeroDivisionError, OverflowError):
        z = complex(math.nan)
    if not cmath.isfinite(z):
        raise GeometryError(f"period {word_to_string(period)} has no finite attracting fixed point")
    return z


def _branch(p: PantsGeometry, s: int, entry):
    """The stack entry one contracting branch phi_s further out."""
    u, v, cv, cu = p._branches[s]
    zp, zq, _ = entry
    return (u * zp + v) / (cv * zp + cu), (u * zq + v) / (cv * zq + cu), s


def _point(entry) -> complex:
    """Unit complex midpoint of a stack entry's arc ends."""
    zp, zq, _ = entry
    m = zp / abs(zp) + zq / abs(zq)
    return m / abs(m)


# ---------------------------------------------------------------------------
# The chord rule, tracing, suspension


def _exit_side(p: PantsGeometry, z_fwd: complex, z_back: complex):
    """(x_in, x_out, exit side) of the chord from z_back to z_fwd through
    p's octagon, None when it misses.

    The scalar form of ``clip_chord``'s rule, on x = exp(2t) instead of
    the unit-speed parameter t: side i is crossed at x = -a/b, so the
    chord spends 1/2 log(x_out / x_in) inside.  x_in is 0 when no side
    bounds the entry.  A side product a or b within ``p.side_eps[i]`` of
    zero, CLIP_EPS units of its rounding scale ||n_i||_1, counts as on
    the side.
    """
    xb, yb, xf, yf = z_back.real, z_back.imag, z_fwd.real, z_fwd.imag
    x_in, x_out, side = 0.0, math.inf, None
    for i, (nx, ny, nt, eps, neg) in enumerate(p._side_rows):
        a = nx * xb + ny * yb - nt
        b = nx * xf + ny * yf - nt
        if a < neg:
            if b > eps:
                x_in = max(x_in, -a / b)
            else:
                return None
        elif a > eps:
            if b < neg and -a / b < x_out:
                x_out, side = -a / b, i
        elif b < neg:
            return None
    return (x_in, x_out, side) if side is not None and x_in < x_out else None


def cutting_sequence_trace(
    p: PantsGeometry, pair: GeodesicPair, n: int, prec: int | None = None
) -> Word:
    """Forward crossing itinerary of a symbolic geodesic through the octagon tiling.

    Records the interior label of each seam side crossed; over n crossings
    it equals the boundary expansion of the forward endpoint.  Output
    shorter than n signals escape through a cuff side, or a prefix-only
    forward ray whose symbols ran out.

    The state is the two endpoint words, not two points (shift
    renormalization).  Each endpoint is realized once, in full, as a stack
    of partial images of its word (see _images).  After a crossing through
    the side of sym, both words are updated for z -> g_sym(z) exactly, and
    each stack follows in O(1) (see _shift), so no digit is lost however
    many crossings are traced.  ``prec`` changes nothing: every trace runs
    in doubles.
    """
    if not isinstance(pair, GeodesicPair):
        raise GeometryError(f"trace takes a GeodesicPair, not {type(pair).__name__}")
    if not 0 <= n <= MAX_TRACE_LEN:
        raise GeometryError(f"trace length {n} outside [0, {MAX_TRACE_LEN}]")
    xi_period, xi_stack = pair.xi.period, _images(p, pair.xi.prefix, pair.xi.period)
    eta_period, eta_stack = pair.eta.period, _images(p, pair.eta.prefix, pair.eta.period)
    out = []
    for step in range(n):
        if not (xi_stack and eta_stack):
            break
        hit = _exit_side(p, _point(xi_stack[-1]), _point(eta_stack[-1]))
        if hit is None and step == 0:
            raise GeometryError("geodesic misses the octagon")
        if hit is None or hit[2] in CUFF_SIDE_INDICES:
            break
        sym = SEAM_SIDE_SYMBOL[hit[2]]
        out.append(sym)
        xi_period, xi_stack = _shift(p, xi_period, xi_stack, sym)
        eta_period, eta_stack = _shift(p, eta_period, eta_stack, sym)
    return tuple(out)


def _shift(p: PantsGeometry, period: Word | None, stack: list, sym: int):
    """Period and image stack of g_sym(z) from those of z.

    g_sym undoes a leading sym, which pops the top entry, and maps every
    other point into the arc of bar(sym), which pushes its branch; a bare
    period rotates instead, which rebuilds the base.
    """
    if stack[-1][2] != sym:
        stack.append(_branch(p, bar(sym), stack[-1]))
    elif len(stack) > 1 or period is None:
        stack.pop()
    else:
        period = period[1:] + period[:1]
        stack = _images(p, (), period)
    return period, stack


def periodic_suspension_sum(p: PantsGeometry, word) -> float:
    """Sum over one period of the bi-infinite word of the suspension times:
    the lengths of the rotated periodic geodesics' chords inside the octagon."""
    word = check_reduced(word)
    total = 0.0
    for i in range(len(word)):
        pair = GeodesicPair.periodic(word[i:] + word[:i])
        z_fwd, z_back = (_realize(p, (), ray.period) for ray in (pair.xi, pair.eta))
        hit = _exit_side(p, z_fwd, z_back)
        if hit is None or hit[0] == 0.0:
            raise GeometryError("realized geodesic does not cross the octagon")
        total += 0.5 * math.log(hit[1] / hit[0])
    return total


# ---------------------------------------------------------------------------
# Export


def cover_to_csv(cover: CylinderCover) -> str:
    """Cover rows as CSV text: word, lo_angle, hi_angle (17 significant digits)."""
    lines = ["word,lo_angle,hi_angle"]
    lo, hi = cover.lo, cover.hi
    for i in range(cover.n_words):
        lines.append(f"{cover.word_string(i)},{lo[i]:.17g},{hi[i]:.17g}")
    return "\n".join(lines) + "\n"
