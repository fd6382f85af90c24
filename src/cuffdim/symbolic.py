"""Reduced words, boundary expansions, cylinder arcs and cutting sequences.

Words are tuples over the symbols ALPHA=0, ABAR=1, BETA=2, BBAR=3; a word
is reduced when no symbol is followed by its bar.  The cylinder of a word
w is the set of circle points whose boundary expansion starts with w; its
arc is obtained by pushing the arc of the last symbol through the
contracting inverse branches of the preceding symbols.  Arc lengths are
tracked multiplicatively through the exact chordal contraction factor of
each Moebius branch, so they stay accurate at depths where the naive
endpoint difference would lose all precision.

Geodesics are realized from symbolic endpoint data and traced through the
octagon by repeated clipping: after each crossing the geodesic is pulled
back into the fundamental octagon.  A symbolic pair is pulled back on its
endpoint words: each endpoint keeps the stack of partial images of its
word, and a crossing pops or pushes one contracting branch, so no
precision is lost however long the traced word is.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import (
    TWO_PI,
    CLIP_EPS,
    BoundaryPoint,
    Geodesic,
    GeometryError,
    MoebiusTransform,
    clip_chord,
    lift_light,
)
from .pants import (
    ALPHA,
    ABAR,
    BETA,
    BBAR,
    CUFF_SIDE_INDICES,
    SEAM_SIDE_SYMBOL,
    SYMBOL_CHARS,
    Arc,
    PantsGeometry,
    bar,
)

Word = tuple[int, ...]

MAX_TRACE_LEN = 200


# ---------------------------------------------------------------------------
# Word utilities


def is_reduced(word) -> bool:
    return all(word[i + 1] != bar(word[i]) for i in range(len(word) - 1))


def check_reduced(word) -> Word:
    word = tuple(int(s) for s in word)
    if any(s not in (0, 1, 2, 3) for s in word):
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

    def word(self, i: int) -> Word:
        return tuple(int(s) for s in self.words[i])

    def word_string(self, i: int) -> str:
        return word_to_string(self.words[i])

    def arc(self, i: int) -> Arc:
        lo = float(self.lo[i])
        return Arc(lo, lo + float(self.lengths[i]))

    def index_of(self, word) -> int:
        word = check_reduced(word)
        if len(word) != self.depth:
            raise GeometryError(f"word length {len(word)} != cover depth {self.depth}")
        return int(lex_rank(np.array([word], dtype=np.int64))[0])

    def entries(self):
        for i in range(self.n_words):
            yield self.word_string(i), self.arc(i)


def lex_rank(words: np.ndarray) -> np.ndarray:
    """Lexicographic rank of reduced words among all of the same length."""
    w = words.astype(np.int64)
    n = w.shape[1]
    if n == 1:
        return w[:, 0]
    rel = w[:, 1:] - (w[:, 1:] > (w[:, :-1] ^ 1))
    weights = 3 ** np.arange(n - 2, -1, -1, dtype=np.int64)
    return w[:, 0] * 3 ** (n - 1) + rel @ weights


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
    """Composition of the generators named by the word, read left to right."""
    word = check_reduced(word)
    out = MoebiusTransform.identity()
    for s in word:
        out = out @ p.gens[s]
    return out


# ---------------------------------------------------------------------------
# Symbolic rays and geodesic realization


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

    def head(self, n: int) -> Word:
        """First n symbols of the (possibly infinite) word."""
        out = list(self.prefix[:n])
        if self.period:
            while len(out) < n:
                out.extend(self.period)
        return tuple(out[:n])


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


def realize_ray(p: PantsGeometry, ray: Ray, depth: int = 12) -> BoundaryPoint:
    """Boundary point whose expansion starts with the ray's word.

    Rays with a period are realized exactly as the repelling fixed point of
    the return composition, pushed through the inverse branches of the
    prefix.  Prefix-only rays use the midpoint of the prefix cylinder
    (truncated to ``depth`` symbols if longer).
    """
    return BoundaryPoint.from_complex(_realize(p, ray.prefix, ray.period, depth))


def _realize(p: PantsGeometry, prefix: Word, period: Word | None, depth: int) -> complex:
    """Unit complex point of the word prefix + period^inf (see realize_ray)."""
    return _point(_images(p, prefix if period is not None else prefix[: max(1, depth)], period)[-1])


def _images(p: PantsGeometry, prefix: Word, period: Word | None) -> list:
    """Partial images of the word prefix + period^inf, as a stack.

    Entry 0 is the base: the repelling fixed point of the period's return
    map, or the arc ends of the last prefix symbol.  Each entry above it
    applies the contracting branch of one more prefix symbol, from the end
    inwards, so the top entry realizes the whole word.  An entry is
    (zp, zq, s), s the leading symbol of the word it realizes, so the stack
    also holds the prefix.  Only
    contracting branches are applied, so every entry carries full double
    precision however long the word is.
    """
    if period is not None:
        z = _attracting_fixed_point(p, period)
        stack, tail = [(z, z, period[0])], prefix
    else:
        stack, tail = [(*p._arc_ends[prefix[-1]], prefix[-1])], prefix[:-1]
    for s in reversed(tail):
        stack.append(_branch(p, s, stack[-1]))
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


def geodesic_from_pair(p: PantsGeometry, pair: GeodesicPair, depth: int = 12) -> Geodesic:
    """Geodesic with forward endpoint from xi and backward endpoint from eta.

    The returned geodesic stores the xi endpoint first.
    """
    xi = realize_ray(p, pair.xi, depth)
    eta = realize_ray(p, pair.eta, depth)
    return Geodesic(xi, eta)


# ---------------------------------------------------------------------------
# Clipping, tracing, suspension


def _clip_once(p: PantsGeometry, z_fwd: complex, z_back: complex):
    l_back = lift_light(np.array([z_back]))
    l_fwd = lift_light(np.array([z_fwd]))
    t_in, t_out, s_in, s_out = clip_chord(l_back[0], l_fwd[0], p.interior_normals)
    return float(t_in), float(t_out), int(s_in), int(s_out)


def _exit_side(normals, z_fwd: complex, z_back: complex) -> int | None:
    """Exit side of the chord from z_back to z_fwd, None when it misses.

    The scalar form of ``clip_chord``'s rule: each side's crossing is
    compared through exp(2 t_cross) = -a/b instead of its logarithm.
    """
    x_in, x_out, side = 0.0, math.inf, None
    for i, (nx, ny, nt) in enumerate(normals):
        a = nx * z_back.real + ny * z_back.imag - nt
        b = nx * z_fwd.real + ny * z_fwd.imag - nt
        if a < -CLIP_EPS:
            if b > CLIP_EPS:
                x_in = max(x_in, -a / b)
            else:
                return None
        elif a > CLIP_EPS:
            if b < -CLIP_EPS and -a / b < x_out:
                x_out, side = -a / b, i
        elif b < -CLIP_EPS:
            return None
    return side if x_in < x_out else None


def octagon_crossing(p: PantsGeometry, g: Geodesic):
    """Entry/exit parameters and side indices of a geodesic through the octagon.

    The geodesic is parametrized by arclength running from g.q (backward)
    to g.p (forward).  Returns None when it misses the octagon.
    """
    t_in, t_out, s_in, s_out = _clip_once(p, g.p.point, g.q.point)
    if not (t_in < t_out) or not math.isfinite(t_in) or not math.isfinite(t_out):
        return None
    return t_in, t_out, s_in, s_out


def cutting_sequence_trace(
    p: PantsGeometry,
    g: Geodesic | GeodesicPair,
    n: int,
    prec: int | None = None,
) -> Word:
    """Forward crossing itinerary of a geodesic through the octagon tiling.

    Records the interior label of each seam side crossed, pulling the
    geodesic back into the fundamental octagon after every crossing; the
    output over n crossings equals the boundary expansion of the forward
    endpoint.  Output shorter than n signals escape through a cuff side.

    A realized Geodesic is traced by pushing its endpoints forward, which
    loses about one digit per crossing (reliable to roughly 15 symbols).
    A GeodesicPair is traced to any length by shift renormalization: the
    state is the two endpoint words, not the two points.  Each endpoint is
    realized once, in full, as a stack of partial images of its word (see
    _images), at a cost of O(len xi + len eta).  After a crossing through
    the side of sym, both words are updated for z -> g_sym(z) symbolically
    and exactly, and each stack follows in O(1): a dropped leading symbol
    pops the top entry, a pushed bar(sym) applies one contracting branch
    to it, and a rotated bare period rebuilds the base from the period.
    So no digit is lost however many crossings are traced.  A geometrically
    wrong crossing still shows as a wrong symbol or an escape.  A
    prefix-only ray carries no symbols past its prefix, so the trace stops
    when the forward word runs out.  ``prec`` no longer changes the result:
    every trace runs in double precision.
    """
    if n > MAX_TRACE_LEN:
        raise GeometryError(f"trace length {n} exceeds {MAX_TRACE_LEN}")
    if isinstance(g, GeodesicPair):
        ends = tuple((r.period, _images(p, r.prefix, r.period)) for r in (g.xi, g.eta))

        def point(end):
            return _point(end[1][-1]) if end[1] else None

        def push(end, sym):
            return _shift(p, *end, sym)

    else:
        ends = (g.p.point, g.q.point)

        def point(z):
            return z

        def push(z, sym):
            z = p.gens[sym](z)
            return z / abs(z)

    normals = p._normal_rows
    out = []
    for step in range(n):
        z_fwd, z_back = point(ends[0]), point(ends[1])
        if z_fwd is None or z_back is None:
            break
        side = _exit_side(normals, z_fwd, z_back)
        if side is None:
            if step == 0:
                raise GeometryError("geodesic misses the octagon")
            break
        if side in CUFF_SIDE_INDICES:
            break
        sym = SEAM_SIDE_SYMBOL[side]
        out.append(sym)
        ends = (push(ends[0], sym), push(ends[1], sym))
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


def suspension_time(p: PantsGeometry, pair: GeodesicPair, depth: int = 12) -> float:
    """Length of the intersection of the realized geodesic with the octagon."""
    g = geodesic_from_pair(p, pair, depth)
    hit = octagon_crossing(p, g)
    if hit is None:
        raise GeometryError("realized geodesic does not cross the octagon")
    t_in, t_out, _, _ = hit
    return t_out - t_in


def periodic_suspension_sum(p: PantsGeometry, word, depth: int = 12) -> float:
    """Sum of suspension times over one period of the bi-infinite word."""
    word = check_reduced(word)
    total = 0.0
    k = len(word)
    for i in range(k):
        rotated = word[i:] + word[:i]
        total += suspension_time(p, GeodesicPair.periodic(rotated), depth)
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
