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
    _brentq,
    _lift,
    _light,
    _mink,
    classify_isometry,
    common_perpendicular,
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

    def contains(self, theta: float, half_open: bool = True) -> bool:
        """Membership, by default with the half-open convention [lo, hi)."""
        d = (float(theta) - self.lo) % TWO_PI
        return d < self.length if half_open else d <= self.length


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
        # Python complex for scalar loops
        inv = [g.inverse() for g in gens]
        branches = tuple((m.u, m.v, m.v.conjugate(), m.u.conjugate()) for m in inv)
        object.__setattr__(self, "_branches", branches)
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

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        x = _lift(complex(z))
        vals = self._normals @ (x * np.array([1.0, 1.0, -1.0]))
        return bool(np.all(vals > margin))


# ---------------------------------------------------------------------------
# Construction


def _vertical_translation(dist: float) -> MoebiusTransform:
    """Hyperbolic translation along the vertical diameter, 0 -> i*tanh(d/2)."""
    return MoebiusTransform(math.cosh(0.5 * dist), 1j * math.sinh(0.5 * dist))


def _g_beta_at(a: float, d: float) -> MoebiusTransform:
    v = _vertical_translation(d)
    return v @ MoebiusTransform.real_translation(a) @ v.inverse()


def _raw_trace(m: MoebiusTransform, n: MoebiusTransform) -> float:
    # trace of the matrix product before sign canonicalization
    return 2.0 * (m.u * n.u + m.v * n.v.conjugate()).real


def _solve_axis_gap(a: float, b: float, c: float) -> float:
    """Separation d of the two axes with tr(g_alpha g_beta^-1) = -2cosh(c/2).

    The signed trace of the product is monotone in d, and this branch is
    the one that yields the gluing cuff.
    """
    ga = MoebiusTransform.real_translation(b)
    target = 2.0 * math.cosh(0.5 * c)

    def f(d: float) -> float:
        return _raw_trace(ga, _g_beta_at(a, d).inverse()) + target

    lo, hi = 1e-9, 1.0
    flo, fhi = f(lo), f(hi)
    for _ in range(64):
        if flo * fhi < 0:
            break
        hi *= 2.0
        if hi > 1e6:
            raise GeometryError(
                "trace solve failed to bracket tr(g_alpha g_beta^-1) = -2cosh(c/2)"
            )
        fhi = f(hi)
    return _brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, fa=flo, fb=fhi)


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

    g_beta enters the gluing inverted: the two cuff-c lifts are the axes of
    g_alpha g_beta^-1 and g_beta^-1 g_alpha.  Any failure raises one
    GeometryError naming the cuffs.
    """
    cuffs = CuffLengths.coerce(cuffs)
    a, b, c = cuffs.as_tuple()
    try:
        d = _solve_axis_gap(a, b, c)
        g_alpha = MoebiusTransform.real_translation(b)
        g_beta = _g_beta_at(a, d)
        gbi = g_beta.inverse()

        axis_b = Geodesic(BoundaryPoint(0.0), BoundaryPoint(math.pi))
        info_a = classify_isometry(g_beta)
        info_c1 = classify_isometry(g_alpha @ gbi)
        info_c2 = classify_isometry(gbi @ g_alpha)
        for name, info in (("g_beta", info_a), ("g_alpha*g_beta^-1", info_c1)):
            if info.kind != "hyperbolic":
                raise GeometryError(f"{name} is not hyperbolic (trace solve inconsistent)")
        axis_a = info_a.axis
        lift_c1 = info_c1.axis  # cuff-c lift on the abar side
        lift_c2 = info_c2.axis  # cuff-c lift on the alpha side

        seam_alpha = common_perpendicular(axis_b, lift_c2)
        seam_bbar = common_perpendicular(axis_a, lift_c1)
        u1, w1 = seam_alpha.foot1.z, seam_alpha.foot2.z
        y1, x1 = seam_bbar.foot1.z, seam_bbar.foot2.z
        u2, w2 = g_alpha(u1), g_alpha(w1)
        y2, x2 = gbi(y1), gbi(x1)

        if not (u1.real < 0.0 < u2.real):
            raise GeometryError(
                "octagon orientation check failed: seam feet on the g_alpha axis "
                f"are at {u1.real:.6f}, {u2.real:.6f}"
            )

        s_alpha = seam_alpha.geodesic
        s_abar = s_alpha.transform(g_alpha)
        s_bbar = seam_bbar.geodesic
        s_beta = s_bbar.transform(gbi)

        verts = tuple(DiskPoint(z) for z in (w1, u1, u2, w2, x1, y1, y2, x2))
        sides = (
            OctagonSide("alpha", s_alpha, verts[0], verts[1]),
            OctagonSide("b", axis_b, verts[1], verts[2]),
            OctagonSide("abar", s_abar, verts[2], verts[3]),
            OctagonSide("c1", lift_c1, verts[3], verts[4]),
            OctagonSide("bbar", s_bbar, verts[4], verts[5]),
            OctagonSide("a", axis_a, verts[5], verts[6]),
            OctagonSide("beta", s_beta, verts[6], verts[7]),
            OctagonSide("c2", lift_c2, verts[7], verts[0]),
        )

        interior_ref = 1j * math.tanh(0.25 * d)
        arcs = (
            _far_arc(s_alpha, interior_ref),
            _far_arc(s_abar, interior_ref),
            _far_arc(s_beta, interior_ref),
            _far_arc(s_bbar, interior_ref),
        )
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
    except GeometryError as exc:
        raise GeometryError(f"pants construction failed for cuffs {cuffs.as_tuple()}: {exc}") from exc


# ---------------------------------------------------------------------------
# Accessors


def octagon_of(p: PantsGeometry) -> tuple[OctagonSide, ...]:
    """The eight labeled sides in cyclic order."""
    return p.sides


def schottky_arcs(p: PantsGeometry) -> dict[str, Arc]:
    """The four boundary arcs keyed by their symbol name."""
    return {SYMBOL_NAMES[s]: p.arcs[s] for s in range(4)}


def expansion_map_step(p: PantsGeometry, t) -> tuple[int | None, BoundaryPoint, float]:
    """One step of the piecewise-Moebius boundary map.

    Returns (symbol, image, derivative).  Points outside the four arcs are
    fixed with derivative 1 and symbol None; arc membership uses the
    half-open convention [lo, hi).
    """
    theta = t.theta if isinstance(t, BoundaryPoint) else float(t) % TWO_PI
    for sym in range(4):
        if p.arcs[sym].contains(theta):
            image, deriv = p.gens[sym].apply_angle(theta)
            return sym, BoundaryPoint(image), deriv
    return None, BoundaryPoint(theta), 1.0


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
    min_arc_gap: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def residual(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)

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
        abs(classify_isometry(p.g_alpha).translation_length - b),
        abs(classify_isometry(p.g_beta).translation_length - a),
        abs(classify_isometry(p.g_alpha @ p.g_beta.inverse()).translation_length - c),
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

    return PantsReport(checks=tuple(checks), min_arc_gap=gap)


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


def _svg_xy(z: complex, size: int) -> tuple[float, float]:
    half = 0.5 * size
    return half + 0.46 * size * z.real, half - 0.46 * size * z.imag


def _svg_arc_path(g: Geodesic, z0: complex, z1: complex, size: int) -> str:
    x0, y0 = _svg_xy(z0, size)
    x1, y1 = _svg_xy(z1, size)
    if g.is_diameter:
        return f"M {x0:.3f} {y0:.3f} L {x1:.3f} {y1:.3f}"
    r = g.radius * 0.46 * size
    cross = (z0 - g.center).real * (z1 - g.center).imag - (z0 - g.center).imag * (
        z1 - g.center
    ).real
    sweep = 0 if cross > 0 else 1  # svg y-axis points down
    return f"M {x0:.3f} {y0:.3f} A {r:.3f} {r:.3f} 0 0 {sweep} {x1:.3f} {y1:.3f}"


def octagon_svg(p: PantsGeometry, size: int = 640, report: PantsReport | None = None) -> str:
    """Render the octagon, its labels and the Schottky arcs as SVG text."""
    if report is None:
        report = validate_pants(p)
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
        path = _svg_arc_path(side.geodesic, side.start.z, side.end.z, size)
        out.append(f'<path d="{path}" fill="none" stroke="#114" stroke-width="1.6"/>')
        mid = 0.55 * (side.start.z + side.end.z)
        x, y = _svg_xy(mid, size)
        out.append(
            f'<text x="{x:.3f}" y="{y:.3f}" font-size="14" fill="#114" '
            f'text-anchor="middle">{side.label}</text>'
        )
    for sym in range(4):
        arc = p.arcs[sym]
        steps = max(2, int(arc.length / 0.05))
        pts = [
            _svg_xy(np.exp(1j * (arc.lo + arc.length * k / steps)), size)
            for k in range(steps + 1)
        ]
        d = "M " + " L ".join(f"{x:.3f} {y:.3f}" for x, y in pts)
        out.append(f'<path d="{d}" fill="none" stroke="#b22" stroke-width="4"/>')
        x, y = _svg_xy(1.08 * np.exp(1j * arc.midpoint), size)
        out.append(
            f'<text x="{x:.3f}" y="{y:.3f}" font-size="13" fill="#b22" '
            f'text-anchor="middle">{SYMBOL_NAMES[sym]}</text>'
        )
    for v in p.vertices:
        x, y = _svg_xy(v.z, size)
        out.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="2.5" fill="#114"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
