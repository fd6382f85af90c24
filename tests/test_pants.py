"""Octagon construction, Schottky arcs, boundary map, validation."""

import cmath
import dataclasses
import hashlib
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from cuffdim import pants as pants_mod
from cuffdim.hyperbolic import TWO_PI, GeometryError, MoebiusTransform
from cuffdim.pants import (
    ABAR,
    ALPHA,
    BBAR,
    BETA,
    SIDE_ORDER,
    SYMBOL_NAMES,
    CuffLengths,
    _lift,
    bar,
    build_pants,
    octagon_svg,
    validate_pants,
)
from cuffdim.symbolic import cylinder_cover
from cuffdim.thermo import hausdorff_delta

from conftest import classify_isometry, trace
from test_symbolic import expansion_map_step, lex_rank


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
    # admitted cuffs so short that sinh underflows to 0 in the hexagon law
    # escaped as a bare ZeroDivisionError
    for cuffs in ((5e-324, 1, 1), (1e-300,) * 3):
        with pytest.raises(GeometryError, match=rf"cuffs \({cuffs[0]}, "):
            build_pants(cuffs)


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
    arc_len = pants222.arc_len
    assert abs(arc_len[ALPHA] - arc_len[ABAR]) < 1e-12
    assert abs(arc_len[BETA] - arc_len[BBAR]) < 1e-12


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
            2 * mp.asinh(abs(v - w) / mp.sqrt((1 - abs(mp.mpc(v)) ** 2) * (1 - abs(w) ** 2)))
            for v, w in zip(p.vertices.tolist(), want)
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
    b_start, b_end = p.vertices[1], p.vertices[2]
    assert abs(b_start + b_end) < 1e-12
    # interior reference point on the vertical diameter is inside
    assert np.all(p.interior_normals @ (_lift(p.interior_ref) * [1.0, 1.0, -1.0]) > 0.0)


def test_validate_many_random_triples():
    rng = np.random.default_rng(31)
    for _ in range(10):
        cuffs = tuple(rng.uniform(0.3, 8.0, size=3))
        report = validate_pants(build_pants(cuffs))
        assert report.passed, f"{cuffs}: {report.summary()}"


def test_octagon_labels_and_vertex_sharing(pants123):
    # side i runs from vertex i to vertex i + 1; the seam sides, in
    # SIDE_ORDER, bound the arcs of their symbols
    p = pants123
    assert p.side_ends.shape == (len(SIDE_ORDER), 2) and p.vertices.shape == (8,)
    for i, sym in pants_mod.SEAM_SIDE_SYMBOL.items():
        assert {*p.side_ends[i]} == {*p.arcs[sym]}
    # each vertex lies on the two sides that meet there
    for i in range(8):
        lift = _lift(p.vertices[(i + 1) % 8]) * [1.0, 1.0, -1.0]
        for side in (i, (i + 1) % 8):
            assert abs(p.interior_normals[side] @ lift) < 1e-10 * np.linalg.norm(lift)


def side_length(p, label) -> float:
    """Poincare distance between the two vertices of a side."""
    i = SIDE_ORDER.index(label)
    return pants_mod._distance(p.vertices[i], p.vertices[(i + 1) % 8])


def test_cuff_c_is_split_into_equal_halves(pants123):
    a, b, c = pants123.cuffs.as_tuple()
    assert abs(side_length(pants123, "c1") - c / 2) < 1e-8
    assert abs(side_length(pants123, "c2") - c / 2) < 1e-8
    assert abs(side_length(pants123, "a") - a) < 1e-8
    assert abs(side_length(pants123, "b") - b) < 1e-8


def test_gluing_maps_sides_endpoint_to_endpoint(pants123):
    p = pants123
    # side i runs from vertex i to vertex i + 1: alpha 0, abar 2, bbar 4, beta 6
    v = p.vertices
    # g_alpha carries the alpha side onto the abar side
    assert abs(p.g_alpha(v[0]) - v[3]) < 1e-9
    assert abs(p.g_alpha(v[1]) - v[2]) < 1e-9
    assert abs(p.g_beta(v[6]) - v[5]) < 1e-9
    assert abs(p.g_beta(v[7]) - v[4]) < 1e-9


def min_arc_gap(report) -> float:
    """The smallest gap between Schottky arcs, read off the arcs_disjoint check."""
    (check,) = (c for c in report.checks if c.name == "arcs_disjoint")
    assert check.note == f"min gap {-check.residual:.3e}"
    return -check.residual


def test_schottky_arcs_disjoint_with_positive_gaps(pants222):
    assert len(pants222.arcs) == 4
    total = sum(pants222.arc_len)
    assert total < 2.0 * math.pi
    assert min_arc_gap(validate_pants(pants222)) > 0.0


def test_schottky_arcs_disjoint_for_small_cuffs():
    report = validate_pants(build_pants((0.5, 0.5, 0.5)))
    assert report.passed
    assert min_arc_gap(report) > 0.0


def test_arc_image_endpoints(pants222):
    # phi_tau maps the tau arc onto the complement of the bar(tau) arc:
    # lo endpoint to the other arc's hi endpoint and vice versa
    p = pants222
    for sym in range(4):
        (lo_t, hi_t), (lo_b, hi_b) = p.arcs[sym], p.arcs[bar(sym)]
        g = p.gens[sym]
        assert abs(g(np.exp(1j * lo_t)) - np.exp(1j * hi_b)) < 1e-9
        assert abs(g(np.exp(1j * hi_t)) - np.exp(1j * lo_b)) < 1e-9


def test_fixed_points_sit_in_the_arcs(pants222):
    # each generator repels inside its own arc and attracts inside the bar
    # arc, which is what makes the arc-restricted boundary map expanding
    p = pants222
    for sym, g in ((ALPHA, p.g_alpha), (BETA, p.g_beta)):
        att, rep = classify_isometry(g).fixed_points
        t_att = math.atan2(att.imag, att.real)
        t_rep = math.atan2(rep.imag, rep.real)
        for s, t in ((sym, t_rep), (bar(sym), t_att)):
            assert (t - p.arcs[s, 0]) % TWO_PI < p.arc_len[s]


def test_expansion_step_outside_arcs_is_identity(pants222):
    sym, image, deriv = expansion_map_step(pants222, 1.5 * math.pi)
    assert sym is None
    assert image == pytest.approx(1.5 * math.pi)
    assert deriv == 1.0


def test_expansion_step_at_repelling_fixed_point(pants222):
    att, rep = classify_isometry(pants222.g_alpha).fixed_points
    t = math.atan2(rep.imag, rep.real) % (2.0 * math.pi)
    sym, image, deriv = expansion_map_step(pants222, t)
    assert sym == ALPHA
    assert abs(image - t) < 1e-12 or abs(image - t) > 2 * math.pi - 1e-12
    assert deriv > 1.0
    # the multiplier at the repelling point equals e^(translation length)
    assert abs(deriv - math.exp(2.0)) < 1e-9


def test_expansion_derivative_exceeds_one_inside_arcs(pants222):
    margins = []
    for sym in range(4):
        ts = pants222.arcs[sym, 0] + pants222.arc_len[sym] * np.linspace(0.005, 0.995, 100)
        derivs = np.array([expansion_map_step(pants222, t)[2] for t in ts])
        assert np.all(derivs > 1.0)
        margins.append(derivs.min() - 1.0)
    assert min(margins) > 0.0


def test_inverse_branch_chain_rule(pants123):
    # |phi'| = |den|^-2, so the den of the composed branch phi_s o phi_t is
    # the product of the two dens: the multiplicative chord bookkeeping of
    # cylinder_cover rests on this
    p = pants123
    z = np.exp(1j * np.random.default_rng(33).uniform(0.0, TWO_PI, size=64))
    for s, t in itertools.product(range(4), repeat=2):
        w, den_t = p.inverse_branch(t, z)
        _, den_s = p.inverse_branch(s, w)
        u, v = p.compose_branch(*p.compose_branch(1.0, 0.0, s), t)
        den_st = np.conj(v) * z + np.conj(u)
        assert np.allclose(np.abs(den_st), np.abs(den_s * den_t), rtol=1e-12, atol=0.0)


def test_inverse_branch_derivative_integrates_to_full_circle(pants123):
    # each branch is a disk automorphism, so it maps the circle onto itself
    # once: the mean of |phi'| = |den|^-2 over the circle is 1
    theta = np.linspace(0.0, TWO_PI, 8192, endpoint=False)
    for sym in range(4):
        _, den = pants123.inverse_branch(sym, np.exp(1j * theta))
        assert abs(np.mean(np.abs(den) ** -2.0) - 1.0) < 1e-6 / TWO_PI


def test_ping_pong_nesting_exhaustive_to_depth_four(pants222):
    covers = {n: cylinder_cover(pants222, n) for n in (1, 2, 3, 4)}
    for n in (2, 3, 4):
        cov, parent = covers[n], covers[n - 1]
        # prefix lookup: the first n-1 symbols locate the parent arc
        pidx = lex_rank(cov.words[:, : n - 1].astype(np.int64))
        lo_rel = (cov.lo - parent.lo[pidx]) % (2.0 * math.pi)
        assert np.all(lo_rel + cov.lengths <= parent.lengths[pidx] + 1e-12)
        # word arcs stay inside the arc of their first symbol
        first = cov.words[:, 0].astype(np.int64)
        arc_lo = pants222.arcs[first, 0]
        arc_len = pants222.arc_len[first]
        rel = (cov.lo - arc_lo) % (2.0 * math.pi)
        assert np.all(rel + cov.lengths <= arc_len + 1e-12)


def test_fricke_trace_identity(pants123):
    a_tr = trace(pants123.g_alpha)
    b_tr = trace(pants123.g_beta)
    ab = pants123.g_alpha @ pants123.g_beta
    comm = (
        pants123.g_alpha
        @ pants123.g_beta
        @ pants123.g_alpha.inverse()
        @ pants123.g_beta.inverse()
    )
    lhs = a_tr**2 + b_tr**2 + trace(ab) ** 2 - a_tr * b_tr * trace(ab) - 2.0
    assert abs(lhs - trace(comm)) < 1e-8


def test_construction_is_bit_deterministic():
    p1 = build_pants((1.3, 2.7, 0.9))
    p2 = build_pants((1.3, 2.7, 0.9))
    assert p1.g_alpha.u == p2.g_alpha.u and p1.g_alpha.v == p2.g_alpha.v
    assert p1.g_beta.u == p2.g_beta.u and p1.g_beta.v == p2.g_beta.v
    assert p1.axis_gap == p2.axis_gap
    for v1, v2 in zip(p1.vertices, p2.vertices):
        assert v1 == v2
    for (lo1, hi1), (lo2, hi2) in zip(p1.arcs, p2.arcs):
        assert lo1 == lo2 and hi1 == hi2


def test_tampered_generator_fails_validation(pants222):
    tampered = dataclasses.replace(
        pants222, g_beta=MoebiusTransform(cmath.exp(0.5e-3j), 0) @ pants222.g_beta
    )
    report = validate_pants(tampered)
    assert not report.passed
    assert {c.name: c.residual for c in report.checks}["cuff_recovery"] > 1e-8


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
    svg = octagon_svg(pants111, validate_pants(pants111))
    assert svg.startswith("<?xml")
    for label in SIDE_ORDER:
        assert f">{label}</text>" in svg
    for name in SYMBOL_NAMES:
        assert f">{name}</text>" in svg
    assert "validation:" in svg
    p = build_pants((1.0, 1.0, 1.0))
    assert svg == octagon_svg(p, validate_pants(p))


# SHA-256 of (float.hex of the vertices, interior normals and arc ends;
# the validator's names, flags, residuals and notes; the octagon_svg text),
# taken before the octagon was held as arrays.  (5, 12, 20) and
# (20, 0.01, 0.05) fail the validator.
OCTAGON_DIGESTS = {
    (2.0, 2.0, 2.0): (
        "efdfbfbc5cee3e0dff5665aa38b7b4dc35dbad7c2096806444676c31a7752631",
        "1c84832a4af4c77eb28e32a1b3ac26febf4ba0fd506dcb3e76f28182b9fcacd2",
        "ae47fbbb7ab228df0d2cd6e165d934c8a84f02bd472b662a5f2526e70e0459bb",
    ),
    (0.2, 1.0, 12.0): (
        "d26f5d8f886713b8092e653fa9086e4dba993a71f19fe39ff78e43928b3a983c",
        "d5e5cf901f3f491d2be514c4f169796ae2d187c6dbf29cfd1f4551155c972049",
        "422727afd74dc43b60b08dc890ad0ec90c352a1fd709ef79093667034f07529e",
    ),
    (5.0, 12.0, 20.0): (
        "aa5219f49366305658dcdedb845307e0ff3e58b3d388c88496dcc6503e0b9f77",
        "ae92a471daf96fc2d2fe439b3918da4d021048d48ebe0891da511455364a0972",
        "1595266d89a9e549bd38b2d319137ca1e4f52babcd212cb76d9aa3d77a163eea",
    ),
    (20.0, 0.01, 0.05): (
        "041f738ccad22ab28488d6ed9a160b4abb6a0fde059bc748df8e40f8b661dac9",
        "2426b9c20f01cb404c848dd8af555a085bbe3705b12017f095ff5b8b486af08b",
        "2105f0ce6731e42619a2847c5ac896cdee4d8592b889a8208fb2d959607d0296",
    ),
}


@pytest.mark.parametrize("cuffs", list(OCTAGON_DIGESTS))
def test_octagon_bytes_are_pinned(cuffs):
    p = build_pants(cuffs)
    report = validate_pants(p)
    geometry = [x.hex() for z in p.vertices.tolist() for x in (z.real, z.imag)]
    geometry += [x.hex() for row in p.interior_normals.tolist() for x in row]
    geometry += [x.hex() for ends in p._arc_ends for z in ends for x in (z.real, z.imag)]
    checks = [f"{c.name} {bool(c.passed)} {float(c.residual).hex()} {c.note}" for c in report.checks]
    got = tuple(
        hashlib.sha256("\n".join(text).encode()).hexdigest()
        for text in (geometry, checks, [octagon_svg(p, report)])
    )
    assert got == OCTAGON_DIGESTS[cuffs]


def test_svg_size_is_the_module_constant(pants111, monkeypatch):
    monkeypatch.setattr(pants_mod, "SVG_SIZE", 320)
    svg = octagon_svg(pants111, validate_pants(pants111))
    assert 'width="320" height="320" viewBox="0 0 320 320"' in svg
    assert '<circle cx="160.000" cy="160.000" r="147.200"' in svg
