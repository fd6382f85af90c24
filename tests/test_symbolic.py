"""Boundary expansions, cylinder covers, tracing, suspension times."""

import math

import numpy as np
import pytest

from cuffdim.hyperbolic import TWO_PI, GeometryError, Geodesic, BoundaryPoint, classify_isometry
from cuffdim import symbolic
from cuffdim.pants import ABAR, ALPHA, BBAR, BETA
from cuffdim.symbolic import (
    CylinderCover,
    GeodesicPair,
    Ray,
    bar_reverse,
    cover_to_csv,
    cutting_sequence_trace,
    cylinder_cover,
    geodesic_from_pair,
    is_reduced,
    lex_rank,
    periodic_suspension_sum,
    realize_ray,
    suspension_time,
    word_from_string,
    word_to_element,
    word_to_string,
)

from conftest import random_reduced_word


# The cylinder-word oracle: the piecewise-Moebius boundary map, one circle
# point at a time.  test_pants checks its step on its own.


def expansion_map_step(p, t):
    """One step of the boundary map: (symbol, image, derivative).

    Points outside the four arcs are fixed with derivative 1 and symbol
    None; arc membership uses the half-open convention [lo, hi).
    """
    theta = t.theta if isinstance(t, BoundaryPoint) else float(t) % TWO_PI
    for sym in range(4):
        if p.arcs[sym].contains(theta):
            image, deriv = p.gens[sym].apply_angle(theta)
            return sym, BoundaryPoint(image), deriv
    return None, BoundaryPoint(theta), 1.0


def boundary_expansion(p, t, max_n):
    """Itinerary of a circle point under the boundary map, up to max_n symbols."""
    theta = t.theta if isinstance(t, BoundaryPoint) else float(t) % TWO_PI
    out = []
    for _ in range(max_n):
        sym, image, _ = expansion_map_step(p, theta)
        if sym is None:
            break
        out.append(sym)
        theta = image.theta
    return tuple(out)


def test_word_string_round_trip():
    word = (ALPHA, BETA, ABAR, BBAR)
    assert word_from_string(word_to_string(word)) == word
    assert word_to_string(word) == "abAB"
    with pytest.raises(GeometryError):
        word_from_string("axb")


def test_reducedness_checks():
    assert is_reduced((ALPHA, BETA, ALPHA))
    assert not is_reduced((ALPHA, ABAR))
    assert bar_reverse((ALPHA, BETA)) == (BBAR, ABAR)


def test_expansion_of_gap_point_is_empty(pants222):
    assert boundary_expansion(pants222, 1.5 * math.pi, 10) == ()


def test_expansion_of_fixed_point_is_constant(pants222):
    # the attracting fixed point of g_alpha is the repelling fixed point of
    # its inverse, sits in the bar arc, and expands as (abar)^n
    att, _ = classify_isometry(pants222.g_alpha).fixed_points
    t = math.atan2(att.imag, att.real)
    assert boundary_expansion(pants222, t, 12) == (ABAR,) * 12


def test_expansions_are_reduced_fuzz(pants222):
    rng = np.random.default_rng(40)
    for t in rng.uniform(0.0, 2.0 * math.pi, size=10_000):
        assert is_reduced(boundary_expansion(pants222, t, 12))


def test_cover_depth_one_is_the_arc_system(pants222):
    cov = cylinder_cover(pants222, 1)
    assert cov.n_words == 4
    for sym in range(4):
        assert cov.lo[sym] == pytest.approx(pants222.arcs[sym].lo, abs=1e-14)
        assert cov.lengths[sym] == pytest.approx(pants222.arcs[sym].length, rel=1e-12)


def test_cover_counts_and_nesting(pants222):
    c2 = cylinder_cover(pants222, 2)
    assert c2.n_words == 12
    c1 = cylinder_cover(pants222, 1)
    pidx = c2.words[:, 0].astype(np.int64)
    rel = (c2.lo - c1.lo[pidx]) % (2.0 * math.pi)
    assert np.all(rel > 0.0)
    assert np.all(rel + c2.lengths < c1.lengths[pidx])
    # threefold refinement per parent
    c4, c3 = cylinder_cover(pants222, 4), cylinder_cover(pants222, 3)
    assert c4.n_words == 3 * c3.n_words
    parents = lex_rank(c4.words[:, :3].astype(np.int64))
    assert np.all(np.bincount(parents) == 3)


def test_cover_arcs_pairwise_disjoint(pants222):
    cov = cylinder_cover(pants222, 5)
    order = np.argsort(cov.lo)
    lo, hi = cov.lo[order], cov.lo[order] + cov.lengths[order]
    assert np.all(lo[1:] - hi[:-1] > 0.0)


def test_cover_contraction_is_geometric(pants222):
    maxima = [cylinder_cover(pants222, n).lengths.max() for n in range(1, 9)]
    ratios = [b / a for a, b in zip(maxima, maxima[1:])]
    assert max(ratios) < 1.0
    # ratios settle to the uniform contraction rate of the Markov pieces
    assert abs(ratios[-1] - ratios[-2]) < 0.01


def test_cover_depth_bounds():
    from cuffdim.pants import build_pants

    p = build_pants((2.0, 2.0, 2.0))
    with pytest.raises(GeometryError):
        cylinder_cover(p, 0)
    with pytest.raises(GeometryError):
        cylinder_cover(p, 15)


def test_lex_rank_is_the_enumeration_order(pants222):
    for n in (1, 2, 3, 6):
        cov = cylinder_cover(pants222, n)
        assert np.array_equal(
            lex_rank(cov.words.astype(np.int64)), np.arange(cov.n_words)
        )


def test_word_to_element_basics(pants222):
    assert word_to_element(pants222, ()).is_identity()
    with pytest.raises(GeometryError):
        word_to_element(pants222, (ALPHA, ABAR))
    # the (alpha, bbar) element realizes the third cuff
    e = word_to_element(pants222, (ALPHA, BBAR))
    assert abs(classify_isometry(e).translation_length - 2.0) < 1e-8


def test_geodesic_from_pair_periodic_words_give_axes(pants222):
    g = geodesic_from_pair(pants222, GeodesicPair(Ray((), (ALPHA,)), Ray((), (ABAR,))))
    att, rep = classify_isometry(pants222.g_alpha).fixed_points
    assert abs(g.p.point - rep) < 1e-12  # (alpha)^inf is the repelling end
    assert abs(g.q.point - att) < 1e-12
    g2 = geodesic_from_pair(pants222, GeodesicPair(Ray((), (BETA,)), Ray((), (BBAR,))))
    attb, repb = classify_isometry(pants222.g_beta).fixed_points
    assert abs(g2.p.point - repb) < 1e-12
    assert abs(g2.q.point - attb) < 1e-12


def test_pair_with_equal_first_symbols_rejected():
    with pytest.raises(GeometryError):
        GeodesicPair(Ray((ALPHA, BETA)), Ray((ALPHA,)))


def test_ray_validation():
    with pytest.raises(GeometryError):
        Ray((ALPHA, ABAR))
    with pytest.raises(GeometryError):
        Ray((), (ALPHA, ABAR))  # not reduced
    with pytest.raises(GeometryError):
        Ray((), (ALPHA, BETA, ABAR))  # not cyclically reduced
    with pytest.raises(GeometryError):
        Ray((ALPHA,), (ABAR, BETA))  # junction not reduced
    with pytest.raises(GeometryError):
        Ray(())


def test_realized_endpoints_lie_in_their_cylinders(pants222):
    rng = np.random.default_rng(41)
    cov = cylinder_cover(pants222, 6)
    for _ in range(100):
        word = random_reduced_word(rng, 6)
        theta = realize_ray(pants222, Ray(word)).theta
        idx = cov.index_of(word)
        rel = (theta - cov.lo[idx]) % (2.0 * math.pi)
        assert rel <= cov.lengths[idx]


def test_trace_of_generator_axis_is_constant_word(pants222):
    axis = classify_isometry(pants222.g_alpha).axis
    word = cutting_sequence_trace(pants222, axis, 10)
    assert word in {(ALPHA,) * 10, (ABAR,) * 10}


def count_calls(monkeypatch, *names):
    """Call counts of the named symbolic functions, kept up to date."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(symbolic, name)

        def spy(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(symbolic, name, spy)
    return calls


def test_geodesic_trace_clips_each_crossing_once(pants222, monkeypatch):
    calls = count_calls(monkeypatch, "_exit_side", "_clip_once")
    axis = classify_isometry(pants222.g_alpha).axis
    assert len(cutting_sequence_trace(pants222, axis, 10)) == 10
    assert calls == {"_exit_side": 10, "_clip_once": 0}


def test_pair_trace_realizes_each_endpoint_once(pants222, monkeypatch):
    calls = count_calls(monkeypatch, "_exit_side", "_images", "_realize")
    rng = np.random.default_rng(47)
    xi = random_reduced_word(rng, 48)
    eta = random_reduced_word(rng, 48, first_not=xi[0])
    assert cutting_sequence_trace(pants222, GeodesicPair(Ray(xi), Ray(eta)), 30) == xi[:30]
    assert calls == {"_exit_side": 30, "_images": 2, "_realize": 0}


def test_trace_reproduces_forward_prefix_double_precision(pants222):
    rng = np.random.default_rng(42)
    for _ in range(20):
        xi = random_reduced_word(rng, 40)
        eta = random_reduced_word(rng, 40, first_not=xi[0])
        pair = GeodesicPair(Ray(xi), Ray(eta))
        g = geodesic_from_pair(pants222, pair, depth=40)
        assert cutting_sequence_trace(pants222, g, 12) == xi[:12]


def test_trace_reproduces_forward_prefix_extended_precision(pants222):
    rng = np.random.default_rng(43)
    for _ in range(10):
        xi = random_reduced_word(rng, 48)
        eta = random_reduced_word(rng, 48, first_not=xi[0])
        pair = GeodesicPair(Ray(xi), Ray(eta))
        assert cutting_sequence_trace(pants222, pair, 30, prec=80) == xi[:30]


def test_trace_escapes_through_cuff_side(pants222):
    # endpoints in two different gaps: the geodesic crosses the octagon but
    # leaves the tiling immediately through a cuff side
    g = Geodesic(BoundaryPoint(4.7), BoundaryPoint(1.6))
    word = cutting_sequence_trace(pants222, g, 30)
    assert len(word) < 30


def test_trace_errors_when_geodesic_misses(pants222):
    g = Geodesic(BoundaryPoint(4.5), BoundaryPoint(5.0))
    with pytest.raises(GeometryError):
        cutting_sequence_trace(pants222, g, 10)


def test_trace_length_cap(pants222):
    axis = classify_isometry(pants222.g_alpha).axis
    with pytest.raises(GeometryError):
        cutting_sequence_trace(pants222, axis, 500)


def test_shift_equivariance(pants222):
    rng = np.random.default_rng(44)
    for _ in range(20):
        xi = random_reduced_word(rng, 30)
        eta = random_reduced_word(rng, 30, first_not=xi[0])
        g = geodesic_from_pair(pants222, GeodesicPair(Ray(xi), Ray(eta)), depth=30)
        word = cutting_sequence_trace(pants222, g, 8)
        m = pants222.gens[word[0]]
        pulled = Geodesic(*(BoundaryPoint.from_complex(m(e.point)) for e in (g.p, g.q)))
        assert cutting_sequence_trace(pants222, pulled, 7) == word[1:]


def test_round_trip_expansion_of_forward_endpoint(pants222):
    rng = np.random.default_rng(45)
    for _ in range(20):
        xi = random_reduced_word(rng, 8)
        eta = random_reduced_word(rng, 8, first_not=xi[0])
        g = geodesic_from_pair(pants222, GeodesicPair(Ray(xi), Ray(eta)), depth=8)
        assert boundary_expansion(pants222, g.p, 8) == xi


def test_distinct_prefixes_give_disjoint_endpoint_arcs(pants222):
    rng = np.random.default_rng(46)
    cov = cylinder_cover(pants222, 10)
    w1 = random_reduced_word(rng, 10)
    w2 = random_reduced_word(rng, 10)
    while w2 == w1:
        w2 = random_reduced_word(rng, 10)
    t1 = realize_ray(pants222, Ray(w1)).theta
    t2 = realize_ray(pants222, Ray(w2)).theta
    i1, i2 = cov.index_of(w1), cov.index_of(w2)
    assert i1 != i2
    assert (t1 - cov.lo[i1]) % (2 * math.pi) <= cov.lengths[i1]
    assert (t2 - cov.lo[i2]) % (2 * math.pi) <= cov.lengths[i2]
    # the two cylinder arcs themselves are disjoint
    gap = (cov.lo[i2] - (cov.lo[i1] + cov.lengths[i1])) % (2 * math.pi)
    gap2 = (cov.lo[i1] - (cov.lo[i2] + cov.lengths[i2])) % (2 * math.pi)
    assert gap > 0 and gap2 > 0


def test_suspension_time_positive_and_cuff_periods(pants222):
    ell = suspension_time(pants222, GeodesicPair(Ray((), (ALPHA,)), Ray((), (ABAR,))))
    assert abs(ell - 2.0) < 1e-6  # one period along the axis of g_alpha
    ell_b = suspension_time(pants222, GeodesicPair(Ray((), (BETA,)), Ray((), (BBAR,))))
    assert abs(ell_b - 2.0) < 1e-6
    rng = np.random.default_rng(47)
    for _ in range(10):
        xi = random_reduced_word(rng, 10)
        eta = random_reduced_word(rng, 10, first_not=xi[0])
        assert suspension_time(pants222, GeodesicPair(Ray(xi), Ray(eta))) > 0.0


def test_octagon_crossing_none_for_gap_geodesic(pants222):
    from cuffdim.symbolic import octagon_crossing

    g = Geodesic(BoundaryPoint(4.5), BoundaryPoint(5.0))
    assert octagon_crossing(pants222, g) is None
    hit = octagon_crossing(
        pants222, classify_isometry(pants222.g_alpha).axis
    )
    assert hit is not None
    t_in, t_out, _, _ = hit
    assert abs((t_out - t_in) - 2.0) < 1e-9  # the b cuff crossing


def test_periodic_suspension_sums_match_translation_lengths(pants222, pants123):
    rng = np.random.default_rng(48)
    for p in (pants222, pants123):
        done = 0
        while done < 8:
            k = int(rng.integers(1, 5))
            word = random_reduced_word(rng, k)
            if word[0] == (word[-1] ^ 1):
                continue
            total = periodic_suspension_sum(p, word)
            ell = classify_isometry(word_to_element(p, word)).translation_length
            assert abs(total - ell) <= 1e-6 * max(ell, 1.0), word
            done += 1


def test_cover_csv_round_trip(pants222):
    cov = cylinder_cover(pants222, 2)
    text = cover_to_csv(cov)
    lines = text.strip().split("\n")
    assert lines[0] == "word,lo_angle,hi_angle"
    assert len(lines) == 13
    word, lo, hi = lines[1].split(",")
    assert set(word) <= set("aAbB")
    assert float(lo) == cov.lo[0]  # 17 significant digits round-trip
    assert float(hi) == cov.hi[0]
