"""Octagon construction, Schottky arcs, boundary map, validation."""

import dataclasses
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from cuffdim.hyperbolic import GeometryError, MoebiusTransform, classify_isometry
from cuffdim.pants import (
    ABAR,
    ALPHA,
    BBAR,
    BETA,
    SIDE_ORDER,
    SYMBOL_NAMES,
    CuffLengths,
    bar,
    build_pants,
    octagon_svg,
    validate_pants,
)
from cuffdim.symbolic import cylinder_cover
from cuffdim.thermo import hausdorff_delta

from test_symbolic import expansion_map_step


def test_cuff_range_enforced():
    with pytest.raises(GeometryError):
        CuffLengths(0.0, 1.0, 1.0)
    with pytest.raises(GeometryError):
        CuffLengths(1.0, 25.0, 1.0)
    with pytest.raises(GeometryError):
        build_pants((1.0, -2.0, 1.0))


def test_construction_failure_names_the_cuffs():
    build_pants((0.01, 0.01, 20))  # failed before the closed-form construction
    with pytest.raises(GeometryError, match=r"cuffs \(20, 0\.0001, 0\.0001\)"):
        build_pants((20, 0.0001, 0.0001))


@pytest.mark.parametrize(
    "cuffs", [(12, 0.01, 0.01), (16, 0.02, 0.2), (20, 0.01, 5), (8, 0.01, 12)]
)
def test_construction_failure_is_a_geometry_error(cuffs):
    # these once escaped as a bare ValueError from a square root of a
    # negative Minkowski norm, then failed with a named GeometryError; the
    # closed-form construction builds them
    assert build_pants(cuffs).cuffs.as_tuple() == cuffs


def test_every_grid_triple_builds_or_names_itself():
    vals = (0.01, 0.05, 0.2, 1, 5, 12, 20)
    built = 0
    for cuffs in itertools.product(vals, repeat=3):
        try:
            build_pants(cuffs)
            built += 1
        except GeometryError as exc:
            assert f"cuffs {cuffs}" in str(exc)
    assert built >= 343  # every triple, since the closed-form construction


def test_build_symmetric_pants_validates(pants222):
    report = validate_pants(pants222)
    assert report.passed, report.summary()
    # reflection across the vertical diameter pairs each arc with its bar
    arcs = pants222.arcs
    assert abs(arcs[ALPHA].length - arcs[ABAR].length) < 1e-12
    assert abs(arcs[BETA].length - arcs[BBAR].length) < 1e-12


def mp_hexagon_vertices(a, b, c):
    """Axis gap and octagon vertices from the hexagon law in 50-digit mpmath.

    The seams use the plain law cosh s = (cosh x + cosh y cosh z) /
    (sinh y sinh z), and the vertices compose the translations as maps
    rather than as coefficient pairs.
    """
    with mp.workdps(50):
        a, b, c = (mp.mpf(x) / 2 for x in (a, b, c))

        def seam(x, y, z):
            return mp.acosh((mp.cosh(x) + mp.cosh(y) * mp.cosh(z)) / (mp.sinh(y) * mp.sinh(z)))

        def T(t, z):  # translation by t along the horizontal diameter
            return (z + mp.tanh(t / 2)) / (1 + mp.tanh(t / 2) * z)

        def V(t, z):  # translation by t along the vertical diameter
            return (z + 1j * mp.tanh(t / 2)) / (1 - 1j * mp.tanh(t / 2) * z)

        d, e_bc, e_ac = seam(c, a, b), seam(a, b, c), seam(b, a, c)
        zero = mp.mpc(0)
        u2, w2 = T(b, zero), T(b, V(e_bc, zero))
        y1, x1 = V(d, T(a, zero)), V(d, T(a, V(-e_ac, zero)))
        left = [-mp.conj(z) for z in (w2, u2, y1, x1)]
        return d, (left[0], left[1], u2, w2, x1, y1, left[2], left[3])


def vertex_error(p) -> float:
    """Largest hyperbolic distance from a vertex to its extended-precision value."""
    d, want = mp_hexagon_vertices(*p.cuffs.as_tuple())
    with mp.workdps(50):
        assert abs(p.axis_gap - d) <= 1e-14 * d
        return float(max(
            2 * mp.asinh(abs(v.z - w) / mp.sqrt((1 - abs(mp.mpc(v.z)) ** 2) * (1 - abs(w) ** 2)))
            for v, w in zip(p.vertices, want)
        ))


def test_vertices_match_the_hexagon_law_in_extended_precision():
    rng = np.random.default_rng(30)
    for _ in range(30):
        assert vertex_error(build_pants(tuple(rng.uniform(0.3, 8.0, size=3)))) <= 1e-12
    # the axis-gap solve read 0.64 at (20, 0.2, 0.2) and could not build 29 of these
    vals = (0.01, 0.05, 0.2, 1, 5, 12, 20)
    for cuffs in itertools.product(vals, repeat=3):
        assert vertex_error(build_pants(cuffs)) <= 1e-6, cuffs


def test_canonical_placement(pants222):
    p = pants222
    # axis of g_alpha is the horizontal diameter, attracting end at angle 0
    info = classify_isometry(p.g_alpha)
    att, rep = info.fixed_points
    assert abs(att - 1.0) < 1e-12
    assert abs(rep + 1.0) < 1e-12
    # the octagon side on that axis is centered at the origin
    side_b = p.side("b")
    assert abs(side_b.start.z + side_b.end.z) < 1e-12
    # interior reference point on the vertical diameter is inside
    assert p.contains(p.interior_ref)


def test_validate_many_random_triples():
    rng = np.random.default_rng(31)
    for _ in range(10):
        cuffs = tuple(rng.uniform(0.3, 8.0, size=3))
        report = validate_pants(build_pants(cuffs))
        assert report.passed, f"{cuffs}: {report.summary()}"


def test_octagon_labels_and_vertex_sharing(pants123):
    sides = pants123.sides
    assert tuple(s.label for s in sides) == SIDE_ORDER
    for i in range(8):
        gap = abs(sides[i].end.z - sides[(i + 1) % 8].start.z)
        assert gap < 1e-10


def test_cuff_c_is_split_into_equal_halves(pants123):
    a, b, c = pants123.cuffs.as_tuple()
    assert abs(pants123.side("c1").length - c / 2) < 1e-8
    assert abs(pants123.side("c2").length - c / 2) < 1e-8
    assert abs(pants123.side("a").length - a) < 1e-8
    assert abs(pants123.side("b").length - b) < 1e-8


def test_gluing_maps_sides_endpoint_to_endpoint(pants123):
    p = pants123
    s_alpha, s_abar = p.side("alpha"), p.side("abar")
    # g_alpha carries the alpha side onto the abar side
    assert abs(p.g_alpha(s_alpha.start.z) - s_abar.end.z) < 1e-9
    assert abs(p.g_alpha(s_alpha.end.z) - s_abar.start.z) < 1e-9
    s_beta, s_bbar = p.side("beta"), p.side("bbar")
    assert abs(p.g_beta(s_beta.start.z) - s_bbar.end.z) < 1e-9
    assert abs(p.g_beta(s_beta.end.z) - s_bbar.start.z) < 1e-9


def test_schottky_arcs_disjoint_with_positive_gaps(pants222):
    assert len(pants222.arcs) == 4
    total = sum(a.length for a in pants222.arcs)
    assert total < 2.0 * math.pi
    report = validate_pants(pants222)
    assert report.min_arc_gap > 0.0


def test_schottky_arcs_disjoint_for_small_cuffs():
    report = validate_pants(build_pants((0.5, 0.5, 0.5)))
    assert report.passed
    assert report.min_arc_gap > 0.0


def test_arc_image_endpoints(pants222):
    # phi_tau maps the tau arc onto the complement of the bar(tau) arc:
    # lo endpoint to the other arc's hi endpoint and vice versa
    p = pants222
    for sym in range(4):
        arc_t, arc_b = p.arcs[sym], p.arcs[bar(sym)]
        g = p.gens[sym]
        assert abs(g(np.exp(1j * arc_t.lo)) - np.exp(1j * arc_b.hi)) < 1e-9
        assert abs(g(np.exp(1j * arc_t.hi)) - np.exp(1j * arc_b.lo)) < 1e-9


def test_fixed_points_sit_in_the_arcs(pants222):
    # each generator repels inside its own arc and attracts inside the bar
    # arc, which is what makes the arc-restricted boundary map expanding
    p = pants222
    for sym, g in ((ALPHA, p.g_alpha), (BETA, p.g_beta)):
        att, rep = classify_isometry(g).fixed_points
        t_att = math.atan2(att.imag, att.real)
        t_rep = math.atan2(rep.imag, rep.real)
        assert p.arcs[sym].contains(t_rep)
        assert p.arcs[bar(sym)].contains(t_att)


def test_expansion_step_outside_arcs_is_identity(pants222):
    sym, image, deriv = expansion_map_step(pants222, 1.5 * math.pi)
    assert sym is None
    assert image.theta == pytest.approx(1.5 * math.pi)
    assert deriv == 1.0


def test_expansion_step_at_repelling_fixed_point(pants222):
    att, rep = classify_isometry(pants222.g_alpha).fixed_points
    t = math.atan2(rep.imag, rep.real) % (2.0 * math.pi)
    sym, image, deriv = expansion_map_step(pants222, t)
    assert sym == ALPHA
    assert abs(image.theta - t) < 1e-12 or abs(image.theta - t) > 2 * math.pi - 1e-12
    assert deriv > 1.0
    # the multiplier at the repelling point equals e^(translation length)
    assert abs(deriv - math.exp(2.0)) < 1e-9


def test_expansion_derivative_exceeds_one_inside_arcs(pants222):
    margins = []
    for sym in range(4):
        arc = pants222.arcs[sym]
        ts = arc.lo + arc.length * np.linspace(0.005, 0.995, 100)
        derivs = np.array([expansion_map_step(pants222, t)[2] for t in ts])
        assert np.all(derivs > 1.0)
        margins.append(derivs.min() - 1.0)
    assert min(margins) > 0.0


def test_ping_pong_nesting_exhaustive_to_depth_four(pants222):
    covers = {n: cylinder_cover(pants222, n) for n in (1, 2, 3, 4)}
    for n in (2, 3, 4):
        cov, parent = covers[n], covers[n - 1]
        # prefix lookup: the first n-1 symbols locate the parent arc
        from cuffdim.symbolic import lex_rank

        pidx = lex_rank(cov.words[:, : n - 1].astype(np.int64))
        lo_rel = (cov.lo - parent.lo[pidx]) % (2.0 * math.pi)
        assert np.all(lo_rel + cov.lengths <= parent.lengths[pidx] + 1e-12)
        # word arcs stay inside the arc of their first symbol
        first = cov.words[:, 0].astype(np.int64)
        arc_lo = np.array([pants222.arcs[s].lo for s in range(4)])[first]
        arc_len = np.array([pants222.arcs[s].length for s in range(4)])[first]
        rel = (cov.lo - arc_lo) % (2.0 * math.pi)
        assert np.all(rel + cov.lengths <= arc_len + 1e-12)


def test_fricke_trace_identity(pants123):
    a_tr = pants123.g_alpha.trace
    b_tr = pants123.g_beta.trace
    ab = pants123.g_alpha @ pants123.g_beta
    comm = (
        pants123.g_alpha
        @ pants123.g_beta
        @ pants123.g_alpha.inverse()
        @ pants123.g_beta.inverse()
    )
    lhs = a_tr**2 + b_tr**2 + ab.trace**2 - a_tr * b_tr * ab.trace - 2.0
    assert abs(lhs - comm.trace) < 1e-8


def test_construction_is_bit_deterministic():
    p1 = build_pants((1.3, 2.7, 0.9))
    p2 = build_pants((1.3, 2.7, 0.9))
    assert p1.g_alpha.u == p2.g_alpha.u and p1.g_alpha.v == p2.g_alpha.v
    assert p1.g_beta.u == p2.g_beta.u and p1.g_beta.v == p2.g_beta.v
    assert p1.axis_gap == p2.axis_gap
    for v1, v2 in zip(p1.vertices, p2.vertices):
        assert v1.z == v2.z
    for a1, a2 in zip(p1.arcs, p2.arcs):
        assert a1.lo == a2.lo and a1.hi == a2.hi


def test_tampered_generator_fails_validation(pants222):
    tampered = dataclasses.replace(
        pants222, g_beta=MoebiusTransform.rotation(1e-3) @ pants222.g_beta
    )
    report = validate_pants(tampered)
    assert not report.passed
    assert report.residual("cuff_recovery") > 1e-8


def test_permuted_cuffs_give_same_dimension():
    d1 = hausdorff_delta(build_pants((1.0, 2.0, 3.0)), tol=1e-4, depths=(6, 8)).delta
    d2 = hausdorff_delta(build_pants((3.0, 1.0, 2.0)), tol=1e-4, depths=(6, 8)).delta
    assert abs(d1 - d2) < 2e-3


def test_group_law_pointwise_exactness(pants222):
    # words of length up to 8 in the generators: the composed transform
    # acts like the sequential application of its letters
    rng = np.random.default_rng(32)
    from conftest import random_reduced_word

    for _ in range(25):
        k = int(rng.integers(1, 9))
        word = random_reduced_word(rng, k)
        composed = pants222.gens[word[0]]
        for s in word[1:]:
            composed = composed @ pants222.gens[s]
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=4):
            z = np.exp(1j * theta)
            seq = z
            for s in reversed(word):
                seq = pants222.gens[s](seq)
            assert abs(composed(z) - seq) < 1e-8


def test_svg_emission(pants111):
    svg = octagon_svg(pants111)
    assert svg.startswith("<?xml")
    for label in SIDE_ORDER:
        assert f">{label}</text>" in svg
    for name in SYMBOL_NAMES:
        assert f">{name}</text>" in svg
    assert "validation:" in svg
    assert svg == octagon_svg(build_pants((1.0, 1.0, 1.0)))
