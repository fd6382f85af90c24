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

Symbols are the integers ALPHA=0, ABAR=1, BETA=2, BBAR=3 with the bar
involution s -> s ^ 1.  The boundary map on the arc of symbol s applies
``gens[s]``, i.e. g_alpha on arc A, its inverse on arc Abar, and so on.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .hyperbolic import (
    TWO_PI,
    BoundaryPoint,
    DiskPoint,
    Geodesic,
    GeometryError,
    MoebiusTransform,
    _lift,
    _light,
    _mink,
    hyp_distance,
)

ALPHA, ABAR, BETA, BBAR = 0, 1, 2, 3
SYMBOL_NAMES = ("alpha", "abar", "beta", "bbar")
SYMBOL_CHARS = "aAbB"  # cover export alphabet: a=alpha, A=abar, b=beta, B=bbar
SIDE_ORDER = ("alpha", "b", "abar", "c1", "bbar", "a", "beta", "c2")
SEAM_SIDE_SYMBOL = {0: ALPHA, 2: ABAR, 4: BBAR, 6: BETA}  # side index -> symbol
CUFF_SIDE_INDICES = (1, 3, 5, 7)


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


@dataclass(frozen=True)
class Arc:
    """Counterclockwise boundary-circle interval from lo to hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo) % TWO_PI
        hi = float(self.hi) % TWO_PI
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not 0.0 < self.length < TWO_PI:
            raise GeometryError(f"degenerate arc [{lo}, {hi}]")

    @property
    def length(self) -> float:
        return (self.hi - self.lo) % TWO_PI

    @property
    def midpoint(self) -> float:
        return (self.lo + 0.5 * self.length) % TWO_PI


@dataclass(frozen=True)
class OctagonSide:
    label: str
    geodesic: Geodesic
    start: DiskPoint
    end: DiskPoint

    @property
    def length(self) -> float:
        return hyp_distance(self.start, self.end)


@dataclass(frozen=True, eq=False)
class PantsGeometry:
    cuffs: CuffLengths
    g_alpha: MoebiusTransform
    g_beta: MoebiusTransform
    axis_gap: float  # distance between the axes of g_alpha and g_beta
    sides: tuple[OctagonSide, ...]
    arcs: tuple[Arc, Arc, Arc, Arc]  # symbol order ALPHA, ABAR, BETA, BBAR
    vertices: tuple[DiskPoint, ...]

    gens: tuple[MoebiusTransform, ...] = field(init=False, repr=False)
    interior_ref: complex = field(init=False, repr=False)

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
        object.__setattr__(self, "_arc_lo", np.array([a.lo for a in self.arcs]))
        object.__setattr__(self, "_arc_len", np.array([a.length for a in self.arcs]))
        ends = tuple((cmath.exp(1j * a.lo), cmath.exp(1j * a.hi)) for a in self.arcs)
        object.__setattr__(self, "_arc_ends", ends)
        ref = _lift(self.interior_ref)
        normals = np.empty((8, 3))
        for i, side in enumerate(self.sides):
            n = side.geodesic.normal
            s = _mink(ref, n)
            if s == 0.0:
                raise GeometryError("interior reference point lies on an octagon side")
            normals[i] = n if s > 0 else -n
        object.__setattr__(self, "_normals", normals)
        object.__setattr__(self, "_normal_rows", tuple(tuple(map(float, n)) for n in normals))
        object.__setattr__(self, "_cache", {})

    # -- convenience lookups -------------------------------------------------

    def side(self, label: str) -> OctagonSide:
        return self.sides[SIDE_ORDER.index(label)]

    @property
    def interior_normals(self) -> np.ndarray:
        """Octagon side normals oriented so interior points have <x, n> > 0."""
        return self._normals

    # -- Schottky arcs and inverse branches, vectorised over symbols ---------

    def arc_point(self, sym, t):
        """Unit complex point at Chebyshev coordinate t (-1 lo, 0 midpoint, 1 hi) on arc sym."""
        return np.exp(1j * (self._arc_lo[sym] + 0.5 * self._arc_len[sym] * (1.0 + t)))

    def arc_coordinate(self, sym, theta):
        """Angles on arc sym as the Chebyshev coordinate in [-1, 1]."""
        half = 0.5 * self._arc_len[sym]
        return ((theta - self._arc_lo[sym] - half + math.pi) % TWO_PI - math.pi) / half

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


def _side(frame: MoebiusTransform, ends: tuple[complex, complex]) -> Geodesic:
    """Image under ``frame`` of the diameter with the given ends."""
    return Geodesic(*(BoundaryPoint.from_complex(frame(w)) for w in ends))


def _far_arc(g: Geodesic, interior_ref: complex) -> Arc:
    """Ideal interval cut off by ``g`` on the side away from the octagon."""
    ref = _lift(interior_ref)
    orient = _mink(ref, g.normal)
    tp, tq = g.p.theta, g.q.theta
    mid = (tp + 0.5 * ((tq - tp) % TWO_PI)) % TWO_PI
    far_side = _mink(_light(mid), g.normal) * orient < 0
    if far_side:
        return Arc(tp, tq)
    return Arc(tq, tp)


def _arcs_disjoint(arcs) -> tuple[bool, float]:
    order = sorted(arcs, key=lambda a: a.lo)
    gaps = []
    for cur, nxt in zip(order, order[1:] + order[:1]):
        gaps.append((nxt.lo - cur.hi) % TWO_PI)
    total = sum(a.length for a in arcs) + sum(gaps)
    if abs(total - TWO_PI) > 1e-6:  # an arc swallowed another
        return False, 0.0
    return min(gaps) > 0.0, min(gaps)


def build_pants(cuffs) -> PantsGeometry:
    """Construct the canonical octagon for cuff lengths (a, b, c).

    The vertical diameter cuts the octagon into two mirror-image
    right-angled hexagons with alternate sides a/2, b/2, c/2.  The hexagon
    law gives the seams, and four frames per half (translations along the
    axes and seams) carry the origin to the vertices and the diameters to
    the sides.  g_beta enters the gluing inverted: the two cuff-c lifts are
    the axes of g_alpha g_beta^-1 and g_beta^-1 g_alpha.  Any failure,
    arithmetic ones included (tiny cuffs underflow sinh to 0), raises one
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
        u2, w2, y1, x1 = (DiskPoint(f(0.0)) for f in right)
        u1, w1, y2, x2 = (DiskPoint(f(0.0)) for f in left)
        horizontal, vertical = (1.0, -1.0), (1j, -1j)
        s_alpha, s_abar = _side(left[0], vertical), _side(right[0], vertical)
        s_bbar, s_beta = _side(right[2], vertical), _side(left[2], vertical)

        verts = (w1, u1, u2, w2, x1, y1, y2, x2)
        sides = (
            OctagonSide("alpha", s_alpha, w1, u1),
            OctagonSide("b", _side(right[0], horizontal), u1, u2),
            OctagonSide("abar", s_abar, u2, w2),
            OctagonSide("c1", _side(right[1], horizontal), w2, x1),
            OctagonSide("bbar", s_bbar, x1, y1),
            OctagonSide("a", _side(right[2], horizontal), y1, y2),
            OctagonSide("beta", s_beta, y2, x2),
            OctagonSide("c2", _side(left[1], horizontal), x2, w1),
        )

        interior_ref = 1j * math.tanh(0.25 * d)
        arcs = tuple(_far_arc(s, interior_ref) for s in (s_alpha, s_abar, s_beta, s_bbar))
        if not _arcs_disjoint(arcs)[0]:
            raise GeometryError("Schottky arcs are not pairwise disjoint")

        return PantsGeometry(
            cuffs=cuffs,
            g_alpha=g_alpha,
            g_beta=g_beta,
            axis_gap=d,
            sides=sides,
            arcs=arcs,
            vertices=verts,
        )
    except (ZeroDivisionError, OverflowError, ValueError) as exc:  # GeometryError is a ValueError
        raise GeometryError(f"pants construction failed for cuffs {cuffs.as_tuple()}: {exc}") from exc


# ---------------------------------------------------------------------------
# Validation


# validate_pants bounds
VERTEX_MATCH_TOL = 1e-10
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


def validate_pants(p: PantsGeometry) -> PantsReport:
    """Recheck every structural property of a built octagon."""
    checks = []

    labels_ok = tuple(s.label for s in p.sides) == SIDE_ORDER
    checks.append(ValidationCheck("side_labels", labels_ok, 0.0 if labels_ok else 1.0))

    vres = max(
        abs(p.sides[i].end.z - p.sides[(i + 1) % 8].start.z) for i in range(8)
    )
    checks.append(ValidationCheck("vertex_closure", vres <= VERTEX_MATCH_TOL, vres))

    ares = 0.0
    for i in range(8):
        n1 = p.sides[i].geodesic.normal
        n2 = p.sides[(i + 1) % 8].geodesic.normal
        ares = max(ares, abs(_mink(n1, n2)))
    checks.append(ValidationCheck("right_angles", ares <= RIGHT_ANGLE_TOL, ares))

    a, b, c = p.cuffs.as_tuple()
    expected = {"b": b, "a": a, "c1": 0.5 * c, "c2": 0.5 * c}
    sres = max(abs(p.side(k).length - v) for k, v in expected.items())
    checks.append(ValidationCheck("side_lengths", sres <= SIDE_LENGTH_TOL, sres))

    recovered = (
        abs(p.g_alpha.translation_length - b),
        abs(p.g_beta.translation_length - a),
        abs((p.g_alpha @ p.g_beta.inverse()).translation_length - c),
    )
    cres = max(recovered)
    checks.append(
        ValidationCheck(
            "cuff_recovery",
            cres <= CUFF_RECOVERY_TOL,
            cres,
            "lengths of g_alpha, g_beta, g_alpha*g_beta^-1 vs (b, a, c)",
        )
    )

    ok, gap = _arcs_disjoint(p.arcs)
    checks.append(
        ValidationCheck("arcs_disjoint", ok and gap > 0.0, -gap, f"min gap {gap:.3e}")
    )

    gres = _gluing_residual(p)
    checks.append(ValidationCheck("gluing", gres <= GLUING_TOL, gres))

    return PantsReport(checks=tuple(checks))


def _gluing_residual(p: PantsGeometry) -> float:
    ga, gb = p.g_alpha, p.g_beta
    s_alpha, s_abar = p.side("alpha"), p.side("abar")
    s_beta, s_bbar = p.side("beta"), p.side("bbar")
    res = [
        abs(ga(s_alpha.start.z) - s_abar.end.z),
        abs(ga(s_alpha.end.z) - s_abar.start.z),
        abs(gb(s_beta.start.z) - s_bbar.end.z),
        abs(gb(s_beta.end.z) - s_bbar.start.z),
    ]
    # phi_tau maps the arc of tau onto the complement of the bar(tau) arc,
    # sending the lo endpoint to the other arc's hi endpoint.
    for sym in range(4):
        arc_t, arc_b = p.arcs[sym], p.arcs[bar(sym)]
        g = p.gens[sym]
        res.append(abs(g(np.exp(1j * arc_t.lo)) - np.exp(1j * arc_b.hi)))
        res.append(abs(g(np.exp(1j * arc_t.hi)) - np.exp(1j * arc_b.lo)))
    return max(res)


# ---------------------------------------------------------------------------
# SVG emission

SVG_SIZE = 640  # width and height of the octagon picture, in pixels


def _svg_xy(z: complex) -> tuple[float, float]:
    half = 0.5 * SVG_SIZE
    return half + 0.46 * SVG_SIZE * z.real, half - 0.46 * SVG_SIZE * z.imag


def _svg_arc_path(g: Geodesic, z0: complex, z1: complex) -> str:
    x0, y0 = _svg_xy(z0)
    x1, y1 = _svg_xy(z1)
    if g.is_diameter:
        return f"M {x0:.3f} {y0:.3f} L {x1:.3f} {y1:.3f}"
    r = g.radius * 0.46 * SVG_SIZE
    cross = (z0 - g.center).real * (z1 - g.center).imag - (z0 - g.center).imag * (
        z1 - g.center
    ).real
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
    for side in p.sides:
        path = _svg_arc_path(side.geodesic, side.start.z, side.end.z)
        out.append(f'<path d="{path}" fill="none" stroke="#114" stroke-width="1.6"/>')
        mid = 0.55 * (side.start.z + side.end.z)
        x, y = _svg_xy(mid)
        out.append(
            f'<text x="{x:.3f}" y="{y:.3f}" font-size="14" fill="#114" '
            f'text-anchor="middle">{side.label}</text>'
        )
    for sym in range(4):
        arc = p.arcs[sym]
        steps = max(2, int(arc.length / 0.05))
        pts = [
            _svg_xy(np.exp(1j * (arc.lo + arc.length * k / steps)))
            for k in range(steps + 1)
        ]
        d = "M " + " L ".join(f"{x:.3f} {y:.3f}" for x, y in pts)
        out.append(f'<path d="{d}" fill="none" stroke="#b22" stroke-width="4"/>')
        x, y = _svg_xy(1.08 * np.exp(1j * arc.midpoint))
        out.append(
            f'<text x="{x:.3f}" y="{y:.3f}" font-size="13" fill="#b22" '
            f'text-anchor="middle">{SYMBOL_NAMES[sym]}</text>'
        )
    for v in p.vertices:
        x, y = _svg_xy(v.z)
        out.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2.5" fill="#114"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
