"""Hyperbolic pairs of pants from cuff lengths.

``build_pants(a, b, c)`` produces the right-angled octagon obtained by
cutting the pair of pants with boundary geodesics of lengths a, b, c along
two of its seams, together with the two Moebius generators that reglue the
cut sides and the four boundary-circle arcs (the Schottky arcs) on which
the expanding boundary map acts.

Canonical placement: the axis of ``g_alpha`` (translation length b) is the
horizontal diameter with attracting fixed point at angle 0, and the common
perpendicular between the axes of ``g_alpha`` and ``g_beta`` is the
vertical diameter, crossing at the origin.  The whole figure is then
symmetric under reflection across the vertical diameter, so the origin
is the midpoint of the octagon side lying on the horizontal axis.

Everything is in closed form.  The vertical diameter cuts the octagon
into two right-angled hexagons with alternate sides a/2, b/2, c/2, so the
hexagon law gives the three seams.  Translations along the two diameters,
composed into one frame per vertex, carry the origin to the vertex and
the diameters to the two sides that meet there; the left half uses the
mirror frames, with a and b negated.

The octagon is held once, as arrays on ``PantsGeometry``: ``vertices``
(side i runs from vertex i to vertex i + 1), ``side_ends`` (each side's
ideal endpoint angles, in SIDE_ORDER) and ``arcs`` (the Schottky arcs'
(lo, hi) angles, in symbol order).  The oriented side normals, the arc
lengths and the arc endpoints are derived from them once, when the
geometry is made; the dynamical modules read those, and
``validate_pants`` and ``octagon_svg`` read the same arrays.

Symbols are the integers ALPHA=0, ABAR=1, BETA=2, BBAR=3 with the bar
involution s -> s ^ 1.  The boundary map on the arc of symbol s applies
``gens[s]``, i.e. g_alpha on arc A, its inverse on arc Abar, and so on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .hyperbolic import TWO_PI, GeometryError, MoebiusTransform, side_eps

ALPHA, ABAR, BETA, BBAR = 0, 1, 2, 3
SYMBOL_NAMES = ("alpha", "abar", "beta", "bbar")
SYMBOL_CHARS = "aAbB"  # cover export alphabet: a=alpha, A=abar, b=beta, B=bbar
SIDE_ORDER = ("alpha", "b", "abar", "c1", "bbar", "a", "beta", "c2")
SEAM_SIDE_SYMBOL = {0: ALPHA, 2: ABAR, 4: BBAR, 6: BETA}  # side index -> symbol
CUFF_SIDE_INDICES = (1, 3, 5, 7)
ENDPOINT_GAP = 1e-12  # minimal angular separation of a side's ideal endpoints


def bar(symbol: int) -> int:
    """Involution exchanging each symbol with its inverse letter."""
    return symbol ^ 1


@dataclass(frozen=True)
class CuffLengths:
    a: float
    b: float
    c: float

    def __post_init__(self):
        for name, val in zip("abc", (self.a, self.b, self.c)):
            if not (0.0 < val <= 20.0):
                raise GeometryError(f"cuff length {name}={val} outside (0, 20]")

    @classmethod
    def coerce(cls, cuffs) -> "CuffLengths":
        if isinstance(cuffs, CuffLengths):
            return cuffs
        return cls(*cuffs)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


# ---------------------------------------------------------------------------
# Hyperboloid helpers (model R^{2,1}, form x^2 + y^2 - t^2) for the side normals


def _mink(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] - a[2] * b[2]


def _lift(z: complex) -> np.ndarray:
    s = 1.0 - abs(z) ** 2
    return np.array([2.0 * z.real / s, 2.0 * z.imag / s, (1.0 + abs(z) ** 2) / s])


def _side_normal(tp: float, tq: float) -> tuple[float, float, float]:
    """Unit spacelike normal of the geodesic from angle tp to angle tq.

    Built from phi, the midpoint, and h, the half-length of the boundary
    arc from tp to tq; unlike the cross product of the endpoints' light
    vectors, nothing cancels.
    """
    h = 0.5 * ((tq - tp) % TWO_PI)
    phi = tp + h
    d = -math.sin(h)
    return (math.cos(phi) / d, math.sin(phi) / d, math.cos(h) / d)


@dataclass(frozen=True, eq=False)
class PantsGeometry:
    """The octagon as arrays: side i runs from vertices[i] to vertices[i + 1],
    and each arc counterclockwise from lo to hi; all angles lie in [0, 2*pi)."""

    cuffs: CuffLengths
    g_alpha: MoebiusTransform
    g_beta: MoebiusTransform
    axis_gap: float  # distance between the axes of g_alpha and g_beta
    side_ends: np.ndarray  # (8, 2)
    arcs: np.ndarray  # (4, 2), symbol order ALPHA, ABAR, BETA, BBAR
    vertices: np.ndarray  # (8,) complex

    gens: tuple[MoebiusTransform, ...] = field(init=False, repr=False)
    interior_ref: complex = field(init=False, repr=False)
    interior_normals: np.ndarray = field(init=False, repr=False)  # (8, 3), <x, n> > 0 inside
    side_eps: np.ndarray = field(init=False, repr=False)  # (8,) zero band of each side's products
    arc_len: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ga, gb = self.g_alpha, self.g_beta
        gens = (ga, ga.inverse(), gb, gb.inverse())
        object.__setattr__(self, "gens", gens)
        # inverse-branch coefficients (u, v, conj v, conj u) per symbol, as
        # Python complex for scalar loops and as four contiguous arrays for
        # the vectorised kernels
        inv = [g.inverse() for g in gens]
        branches = tuple((m.u, m.v, m.v.conjugate(), m.u.conjugate()) for m in inv)
        object.__setattr__(self, "_branches", branches)
        object.__setattr__(self, "_branch_table", tuple(np.array(c) for c in zip(*branches)))
        object.__setattr__(self, "interior_ref", 1j * math.tanh(0.25 * self.axis_gap))
        arcs = self.arcs.tolist()
        object.__setattr__(self, "arc_len", np.array([(hi - lo) % TWO_PI for lo, hi in arcs]))
        ends = tuple((cmath.exp(1j * lo), cmath.exp(1j * hi)) for lo, hi in arcs)
        object.__setattr__(self, "_arc_ends", ends)
        # each side's normal, computed once and oriented towards the interior
        ref = _lift(self.interior_ref).tolist()
        rows = []
        for tp, tq in self.side_ends.tolist():
            n = _side_normal(tp, tq)
            s = _mink(ref, n)
            if s == 0.0:
                raise GeometryError("interior reference point lies on an octagon side")
            rows.append(n if s > 0 else (-n[0], -n[1], -n[2]))
        object.__setattr__(self, "interior_normals", np.array(rows))
        object.__setattr__(self, "side_eps", side_eps(self.interior_normals))
        # (n_x, n_y, n_t, eps, -eps) per side, as Python floats for scalar loops
        eps = self.side_eps.tolist()
        object.__setattr__(self, "_side_rows", tuple((*n, e, -e) for n, e in zip(rows, eps)))
        object.__setattr__(self, "_cache", {})

    # -- Schottky arcs and inverse branches, vectorised over symbols ---------

    def arc_point(self, sym, t):
        """Unit complex point at Chebyshev coordinate t (-1 lo, 0 midpoint, 1 hi) on arc sym."""
        return np.exp(1j * (self.arcs[sym, 0] + 0.5 * self.arc_len[sym] * (1.0 + t)))

    def arc_coordinate(self, sym, theta):
        """Angles on arc sym as the Chebyshev coordinate in [-1, 1]."""
        half = 0.5 * self.arc_len[sym]
        return ((theta - self.arcs[sym, 0] - half + math.pi) % TWO_PI - math.pi) / half

    def inverse_branch(self, sym, z):
        """phi_sym(z) and its denominator conj(v) z + conj(u); |phi_sym'(z)| = |den|^-2."""
        u, v, cv, cu = (c[sym] for c in self._branch_table)
        den = cv * z + cu
        return (u * z + v) / den, den

    def compose_branch(self, u, v, sym):
        """Coefficients (u', v') of M o phi_sym, for M: z -> (u z + v) / (conj(v) z + conj(u))."""
        bu, bv, bcv, bcu = (c[sym] for c in self._branch_table)
        return u * bu + v * bcv, u * bv + v * bcu


# ---------------------------------------------------------------------------
# Construction


def _vertical_translation(dist: float) -> MoebiusTransform:
    """Hyperbolic translation along the vertical diameter, 0 -> i*tanh(d/2)."""
    return MoebiusTransform(math.cosh(0.5 * dist), 1j * math.sinh(0.5 * dist))


def _hexagon_side(x: float, y: float, z: float) -> float:
    """Side of a right-angled hexagon joining the alternate sides y and z.

    x is the third alternate side, the one opposite.  The law
    cosh s = (cosh x + cosh y cosh z) / (sinh y sinh z), with cosh s - 1
    written free of cancellation.
    """
    return 2.0 * math.asinh(
        math.sqrt((math.cosh(x) + math.cosh(y - z)) / (2.0 * math.sinh(y) * math.sinh(z)))
    )


def _angle(w: complex) -> float:
    """Angle of a boundary point in [0, 2*pi)."""
    t = math.atan2(w.imag, w.real) % TWO_PI
    return 0.0 if t == TWO_PI else t  # guard the representable 2*pi rounding case


def _disk_point(z) -> complex:
    """``z`` as a complex, refused unless strictly inside the disk."""
    z = complex(z)
    if abs(z) >= 1.0 - 1e-12:
        raise GeometryError(f"point is not strictly inside the disk: |z| = {abs(z)}")
    return z


def _side_ends(frame: MoebiusTransform, ends: tuple[complex, complex]) -> tuple[float, float]:
    """Endpoint angles of the image under ``frame`` of the diameter with the given ends."""
    tp, tq = (_angle(frame(w)) for w in ends)
    if min((tp - tq) % TWO_PI, (tq - tp) % TWO_PI) <= ENDPOINT_GAP:
        raise GeometryError("geodesic endpoints coincide")
    return tp, tq


def _arcs_disjoint(arcs: np.ndarray) -> tuple[bool, float]:
    arcs = arcs.tolist()
    order = sorted(arcs, key=lambda a: a[0])
    gaps = [(nxt[0] - cur[1]) % TWO_PI for cur, nxt in zip(order, order[1:] + order[:1])]
    total = sum((hi - lo) % TWO_PI for lo, hi in arcs) + sum(gaps)
    if abs(total - TWO_PI) > 1e-6:  # an arc swallowed another
        return False, 0.0
    return min(gaps) > 0.0, min(gaps)


def build_pants(cuffs) -> PantsGeometry:
    """Construct the canonical octagon for cuff lengths (a, b, c).

    The vertical diameter cuts the octagon into two mirror-image
    right-angled hexagons with alternate sides a/2, b/2, c/2.  The hexagon
    law gives the seams, and four frames per half (translations along the
    axes and seams) carry the origin to the vertices and the diameters to
    the sides: the seam sides are images of the vertical diameter, the
    cuff sides of the horizontal one.  Each Schottky arc is the ideal
    interval its seam side cuts off away from the octagon, which the
    frames place counterclockwise from the image of i on the alpha and
    beta sides and from the image of -i on the abar and bbar sides.
    g_beta enters the gluing inverted: the two cuff-c lifts are the axes
    of g_alpha g_beta^-1 and g_beta^-1 g_alpha.  Any failure, arithmetic
    ones included (tiny cuffs underflow sinh to 0), raises one
    GeometryError naming the cuffs.
    """
    cuffs = CuffLengths.coerce(cuffs)
    a, b, c = cuffs.as_tuple()
    try:
        d = _hexagon_side(0.5 * c, 0.5 * a, 0.5 * b)  # the a-b seam, on the vertical diameter
        e_bc = _hexagon_side(0.5 * a, 0.5 * b, 0.5 * c)
        e_ac = _hexagon_side(0.5 * b, 0.5 * a, 0.5 * c)
        v_d = _vertical_translation(d)
        g_alpha = MoebiusTransform.real_translation(b)
        g_beta = v_d @ MoebiusTransform.real_translation(a) @ v_d.inverse()

        def frames(sign):  # carry 0 to the feet u, w, y, x of the right (+1) or left (-1) half
            f_u = MoebiusTransform.real_translation(0.5 * sign * b)
            f_y = v_d @ MoebiusTransform.real_translation(0.5 * sign * a)
            return f_u, f_u @ _vertical_translation(e_bc), f_y, f_y @ _vertical_translation(-e_ac)

        right, left = frames(1.0), frames(-1.0)
        u2, w2, y1, x1 = (_disk_point(f(0.0)) for f in right)
        u1, w1, y2, x2 = (_disk_point(f(0.0)) for f in left)
        vertical, horizontal = (1j, -1j), (1.0, -1.0)
        # SIDE_ORDER: alpha, b, abar, c1, bbar, a, beta, c2
        side_frames = (left[0], right[0], right[0], right[1], right[2], right[2], left[2], left[1])
        side_ends = np.array([
            _side_ends(f, horizontal if i % 2 else vertical) for i, f in enumerate(side_frames)
        ])
        s_alpha, s_abar, s_bbar, s_beta = side_ends[[0, 2, 4, 6]]
        arcs = np.array([s_alpha, s_abar[::-1], s_beta, s_bbar[::-1]])
        if not _arcs_disjoint(arcs)[0]:
            raise GeometryError("Schottky arcs are not pairwise disjoint")

        verts = np.array([w1, u1, u2, w2, x1, y1, y2, x2])
        return PantsGeometry(cuffs, g_alpha, g_beta, d, side_ends=side_ends, arcs=arcs, vertices=verts)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:  # GeometryError is a ValueError
        raise GeometryError(f"pants construction failed for cuffs {cuffs.as_tuple()}: {exc}") from exc


# ---------------------------------------------------------------------------
# Validation


# validate_pants bounds
RIGHT_ANGLE_TOL = 1e-8
SIDE_LENGTH_TOL = 1e-8
CUFF_RECOVERY_TOL = 1e-8
GLUING_TOL = 1e-9


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    residual: float
    note: str = ""


@dataclass(frozen=True)
class PantsReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            note = f" ({c.note})" if c.note else ""
            lines.append(f"{status}  {c.name}: residual {c.residual:.3e}{note}")
        return "\n".join(lines)


def _distance(z: complex, w: complex) -> float:
    """Poincare distance between two disk points."""
    den = math.sqrt((1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2))
    return 2.0 * math.asinh(abs(z - w) / den)


def validate_pants(p: PantsGeometry) -> PantsReport:
    """Recheck every structural property of a built octagon."""
    checks = []
    verts = p.vertices.tolist()

    # the seam sides, in SIDE_ORDER, bound the arcs of their symbols
    labels_ok = p.side_ends.shape == (len(SIDE_ORDER), 2) and all(
        {*p.arcs[s].tolist()} == {*p.side_ends[i].tolist()} for i, s in SEAM_SIDE_SYMBOL.items()
    )
    checks.append(ValidationCheck("side_labels", labels_ok, 0.0 if labels_ok else 1.0))

    # side i ends where side i + 1 starts: one vertex per side closes the ring
    closed = p.vertices.shape == (len(p.side_ends),)
    checks.append(ValidationCheck("vertex_closure", closed, 0.0 if closed else 1.0))

    rows = p._side_rows
    ares = 0.0
    for i in range(8):
        ares = max(ares, abs(_mink(rows[i], rows[(i + 1) % 8])))
    checks.append(ValidationCheck("right_angles", ares <= RIGHT_ANGLE_TOL, ares))

    a, b, c = p.cuffs.as_tuple()
    expected = {1: b, 5: a, 3: 0.5 * c, 7: 0.5 * c}  # sides b, a, c1, c2
    sres = max(abs(_distance(verts[i], verts[(i + 1) % 8]) - v) for i, v in expected.items())
    checks.append(ValidationCheck("side_lengths", sres <= SIDE_LENGTH_TOL, sres))

    ga, gb = p.g_alpha, p.g_beta
    cres = max(
        abs(ga.translation_length - b),
        abs(gb.translation_length - a),
        abs((ga @ gb.inverse()).translation_length - c),
    )
    note = "lengths of g_alpha, g_beta, g_alpha*g_beta^-1 vs (b, a, c)"
    checks.append(ValidationCheck("cuff_recovery", cres <= CUFF_RECOVERY_TOL, cres, note))

    ok, gap = _arcs_disjoint(p.arcs)
    checks.append(ValidationCheck("arcs_disjoint", ok and gap > 0.0, -gap, f"min gap {gap:.3e}"))

    gres = _gluing_residual(p, verts)
    checks.append(ValidationCheck("gluing", gres <= GLUING_TOL, gres))

    return PantsReport(checks=tuple(checks))


def _gluing_residual(p: PantsGeometry, verts: list[complex]) -> float:
    # g_alpha carries side alpha (vertices 0 -> 1) onto side abar (2 -> 3)
    # reversed, and g_beta side beta (6 -> 7) onto side bbar (4 -> 5)
    ga, gb = p.g_alpha, p.g_beta
    res = [abs(g(verts[i]) - verts[j]) for g, i, j in ((ga, 0, 3), (ga, 1, 2), (gb, 6, 5), (gb, 7, 4))]
    # phi_tau maps the arc of tau onto the complement of the bar(tau) arc,
    # sending the lo endpoint to the other arc's hi endpoint.
    arcs = p.arcs.tolist()
    for sym in range(4):
        (lo_t, hi_t), (lo_b, hi_b) = arcs[sym], arcs[bar(sym)]
        g = p.gens[sym]
        res.append(abs(g(np.exp(1j * lo_t)) - np.exp(1j * hi_b)))
        res.append(abs(g(np.exp(1j * hi_t)) - np.exp(1j * lo_b)))
    return max(res)


# ---------------------------------------------------------------------------
# SVG emission

SVG_SIZE = 640  # width and height of the octagon picture, in pixels


def _svg_xy(z: complex) -> tuple[float, float]:
    half = 0.5 * SVG_SIZE
    return half + 0.46 * SVG_SIZE * z.real, half - 0.46 * SVG_SIZE * z.imag


def _svg_circle(tp: float, tq: float) -> tuple[complex, float] | None:
    """Centre and radius of the circle orthogonal to the unit circle through
    the ideal points at angles tp and tq; None when they are antipodal (a diameter)."""
    zp, zq = cmath.exp(1j * tp), cmath.exp(1j * tq)
    den = zp.real * zq.imag - zp.imag * zq.real
    if abs(den) < 1e-12:
        return None
    centre = complex((zq.imag - zp.imag) / den, (zp.real - zq.real) / den)
    return centre, math.sqrt(max(abs(centre) ** 2 - 1.0, 0.0))


def _svg_arc_path(ends: tuple[float, float], z0: complex, z1: complex) -> str:
    x0, y0 = _svg_xy(z0)
    x1, y1 = _svg_xy(z1)
    circle = _svg_circle(*ends)
    if circle is None:
        return f"M {x0:.3f} {y0:.3f} L {x1:.3f} {y1:.3f}"
    centre, radius = circle
    r = radius * 0.46 * SVG_SIZE
    cross = (z0 - centre).real * (z1 - centre).imag - (z0 - centre).imag * (z1 - centre).real
    sweep = 0 if cross > 0 else 1  # svg y-axis points down
    return f"M {x0:.3f} {y0:.3f} A {r:.3f} {r:.3f} 0 0 {sweep} {x1:.3f} {y1:.3f}"


def octagon_svg(p: PantsGeometry, report: PantsReport) -> str:
    """Render the octagon, its labels and the Schottky arcs, with the
    validation ``report`` as a comment, as SVG text."""
    size = SVG_SIZE
    half = 0.5 * size
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<!-- right-angled octagon for cuffs {p.cuffs.as_tuple()} -->",
        "<!-- validation:",
    ]
    out.extend("  " + line for line in report.summary().splitlines())
    out.append("-->")
    out.append(
        f'<circle cx="{half:.3f}" cy="{half:.3f}" r="{0.46 * size:.3f}" '
        'fill="none" stroke="#999" stroke-width="1"/>'
    )
    verts = p.vertices.tolist()
    for i, (label, ends) in enumerate(zip(SIDE_ORDER, p.side_ends.tolist())):
        start, end = verts[i], verts[(i + 1) % 8]
        path = _svg_arc_path(ends, start, end)
        out.append(f'<path d="{path}" fill="none" stroke="#114" stroke-width="1.6"/>')
        x, y = _svg_xy(0.55 * (start + end))
        out.append(
            f'<text x="{x:.3f}" y="{y:.3f}" font-size="14" fill="#114" '
            f'text-anchor="middle">{label}</text>'
        )
    for sym, ((lo, _), length) in enumerate(zip(p.arcs.tolist(), p.arc_len.tolist())):
        steps = max(2, int(length / 0.05))
        pts = [_svg_xy(np.exp(1j * (lo + length * k / steps))) for k in range(steps + 1)]
        d = "M " + " L ".join(f"{x:.3f} {y:.3f}" for x, y in pts)
        out.append(f'<path d="{d}" fill="none" stroke="#b22" stroke-width="4"/>')
        x, y = _svg_xy(1.08 * np.exp(1j * ((lo + 0.5 * length) % TWO_PI)))
        out.append(
            f'<text x="{x:.3f}" y="{y:.3f}" font-size="13" fill="#b22" '
            f'text-anchor="middle">{SYMBOL_NAMES[sym]}</text>'
        )
    for v in verts:
        x, y = _svg_xy(v)
        out.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2.5" fill="#114"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
