"""Boundary expansions, cylinder covers, tracing, suspension times."""

import cmath
import math

import numpy as np
import pytest

from cuffdim.hyperbolic import TWO_PI, GeometryError
from cuffdim import symbolic
from cuffdim.pants import ABAR, ALPHA, BBAR, BETA, _angle, bar
from cuffdim.symbolic import (
    CylinderCover,
    GeodesicPair,
    Ray,
    bar_reverse,
    cover_to_csv,
    cutting_sequence_trace,
    cylinder_cover,
    is_reduced,
    periodic_suspension_sum,
    word_from_string,
    word_to_element,
    word_to_string,
)

from conftest import classify_isometry, is_identity, random_reduced_word


# The cylinder-word oracles: the piecewise-Moebius boundary map, one circle
# point at a time, and the rank of a word in the covers' enumeration order.
# test_pants checks the map's step on its own and imports both; test_thermo
# imports the rank.


def expansion_map_step(p, t):
    """One step of the boundary map: (symbol, image, derivative).

    Points outside the four arcs are fixed with derivative 1 and symbol
    None; arc membership uses the half-open convention [lo, hi).
    """
    theta = float(t) % TWO_PI
    for sym in range(4):
        g = p.gens[sym]
        if (theta - p.arcs[sym, 0]) % TWO_PI < p.arc_len[sym]:
            z = cmath.exp(1j * theta)
            w = g(z)
            deriv = 1.0 / abs(g.v.conjugate() * z + g.u.conjugate()) ** 2
            return sym, _angle(w), deriv
    return None, theta, 1.0


def boundary_expansion(p, t, max_n):
    """Itinerary of a circle point under the boundary map, up to max_n symbols."""
    theta = float(t) % TWO_PI
    out = []
    for _ in range(max_n):
        sym, image, _ = expansion_map_step(p, theta)
        if sym is None:
            break
        out.append(sym)
        theta = image
    return tuple(out)


def realized_angle(p, prefix) -> float:
    """Angle in [0, 2 pi) of the point the tracer realizes for a prefix-only ray."""
    return cmath.phase(symbolic._realize(p, prefix, None)) % TWO_PI


def chord_length(p, z_fwd, z_back) -> float | None:
    """Time the chord from z_back to z_fwd spends in the octagon, by the scalar rule."""
    hit = symbolic._exit_side(p, z_fwd, z_back)
    return None if hit is None else 0.5 * math.log(hit[1] / hit[0])


def lex_rank(words: np.ndarray) -> np.ndarray:
    """Lexicographic rank of reduced words among all of the same length."""
    w = words.astype(np.int64)
    n = w.shape[1]
    if n == 1:
        return w[:, 0]
    rel = w[:, 1:] - (w[:, 1:] > (w[:, :-1] ^ 1))
    weights = 3 ** np.arange(n - 2, -1, -1, dtype=np.int64)
    return w[:, 0] * 3 ** (n - 1) + rel @ weights


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
        assert cov.lo[sym] == pytest.approx(pants222.arcs[sym, 0], abs=1e-14)
        assert cov.lengths[sym] == pytest.approx(pants222.arc_len[sym], rel=1e-12)


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
    assert is_identity(word_to_element(pants222, ()))
    with pytest.raises(GeometryError):
        word_to_element(pants222, (ALPHA, ABAR))
    # the (alpha, bbar) element realizes the third cuff
    e = word_to_element(pants222, (ALPHA, BBAR))
    assert abs(e.translation_length - 2.0) < 1e-8


def test_periodic_rays_realize_the_generator_axes(pants222):
    realize = symbolic._realize
    att, rep = classify_isometry(pants222.g_alpha).fixed_points
    assert abs(realize(pants222, (), (ALPHA,)) - rep) < 1e-12  # (alpha)^inf is the repelling end
    assert abs(realize(pants222, (), (ABAR,)) - att) < 1e-12
    attb, repb = classify_isometry(pants222.g_beta).fixed_points
    assert abs(realize(pants222, (), (BETA,)) - repb) < 1e-12
    assert abs(realize(pants222, (), (BBAR,)) - attb) < 1e-12


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
        theta = realized_angle(pants222, word)
        idx = lex_rank(np.array([word]))[0]
        rel = (theta - cov.lo[idx]) % (2.0 * math.pi)
        assert rel <= cov.lengths[idx]


def test_trace_of_generator_axis_is_constant_word(pants222):
    axis = GeodesicPair.periodic((ALPHA,))
    assert cutting_sequence_trace(pants222, axis, 10) == (ALPHA,) * 10


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
    # one scalar chord rule per crossing; the vector clip_chord is not
    # reachable from symbolic
    calls = count_calls(monkeypatch, "_exit_side")
    axis = GeodesicPair.periodic((ALPHA,))
    assert len(cutting_sequence_trace(pants222, axis, 10)) == 10
    assert calls == {"_exit_side": 10}
    assert not hasattr(symbolic, "clip_chord")


def test_suspension_sum_clips_each_rotation_once(pants222, monkeypatch):
    calls = count_calls(monkeypatch, "_exit_side", "_realize", "_images")
    periodic_suspension_sum(pants222, (ALPHA, BETA, BETA))
    assert calls == {"_exit_side": 3, "_realize": 6, "_images": 6}


def test_pair_trace_realizes_each_endpoint_once(pants222, monkeypatch):
    calls = count_calls(monkeypatch, "_exit_side", "_images", "_realize")
    rng = np.random.default_rng(47)
    xi = random_reduced_word(rng, 48)
    eta = random_reduced_word(rng, 48, first_not=xi[0])
    assert cutting_sequence_trace(pants222, GeodesicPair(Ray(xi), Ray(eta)), 30) == xi[:30]
    assert calls == {"_exit_side": 30, "_images": 2, "_realize": 0}


def test_trace_reproduces_forward_prefix_extended_precision(pants222):
    rng = np.random.default_rng(43)
    for _ in range(10):
        xi = random_reduced_word(rng, 48)
        eta = random_reduced_word(rng, 48, first_not=xi[0])
        pair = GeodesicPair(Ray(xi), Ray(eta))
        assert cutting_sequence_trace(pants222, pair, 30, prec=80) == xi[:30]


def test_trace_refuses_a_realized_geodesic(pants222):
    # pushing realized points through the expanding generators gives wrong words
    axis = classify_isometry(pants222.g_alpha).axis
    with pytest.raises(GeometryError, match="GeodesicPair, not tuple"):
        cutting_sequence_trace(pants222, axis, 10)


def test_trace_length_cap(pants222):
    pair = GeodesicPair(Ray.from_string("", "ab"), Ray.from_string("", "BA"))
    with pytest.raises(GeometryError, match=r"trace length 500 outside \[0, 200\]"):
        cutting_sequence_trace(pants222, pair, 500)
    with pytest.raises(GeometryError, match=r"trace length -3 outside \[0, 200\]"):
        cutting_sequence_trace(pants222, pair, -3)
    assert cutting_sequence_trace(pants222, pair, 0) == ()


def test_shift_equivariance(pants222):
    rng = np.random.default_rng(44)
    for _ in range(20):
        xi = random_reduced_word(rng, 30)
        eta = random_reduced_word(rng, 30, first_not=xi[0])
        word = cutting_sequence_trace(pants222, GeodesicPair(Ray(xi), Ray(eta)), 8)
        assert word == xi[:8]
        # g_{xi[0]} drops the forward word's first symbol and pushes its bar
        # onto the backward word
        pulled = GeodesicPair(Ray(xi[1:]), Ray((bar(xi[0]),) + eta))
        assert cutting_sequence_trace(pants222, pulled, 7) == word[1:]


def test_round_trip_expansion_of_forward_endpoint(pants222):
    rng = np.random.default_rng(45)
    for _ in range(20):
        xi = random_reduced_word(rng, 8)
        eta = random_reduced_word(rng, 8, first_not=xi[0])
        assert boundary_expansion(pants222, realized_angle(pants222, xi), 8) == xi


def test_distinct_prefixes_give_disjoint_endpoint_arcs(pants222):
    rng = np.random.default_rng(46)
    cov = cylinder_cover(pants222, 10)
    w1 = random_reduced_word(rng, 10)
    w2 = random_reduced_word(rng, 10)
    while w2 == w1:
        w2 = random_reduced_word(rng, 10)
    t1 = realized_angle(pants222, w1)
    t2 = realized_angle(pants222, w2)
    i1, i2 = lex_rank(np.array([w1, w2]))
    assert i1 != i2
    assert (t1 - cov.lo[i1]) % (2 * math.pi) <= cov.lengths[i1]
    assert (t2 - cov.lo[i2]) % (2 * math.pi) <= cov.lengths[i2]
    # the two cylinder arcs themselves are disjoint
    gap = (cov.lo[i2] - (cov.lo[i1] + cov.lengths[i1])) % (2 * math.pi)
    gap2 = (cov.lo[i1] - (cov.lo[i2] + cov.lengths[i2])) % (2 * math.pi)
    assert gap > 0 and gap2 > 0


def test_suspension_time_positive_and_cuff_periods(pants222):
    # a one-letter period sums one suspension time: one period along the axis
    assert abs(periodic_suspension_sum(pants222, (ALPHA,)) - 2.0) < 1e-6
    assert abs(periodic_suspension_sum(pants222, (BETA,)) - 2.0) < 1e-6
    rng = np.random.default_rng(47)
    for _ in range(10):
        xi = random_reduced_word(rng, 10)
        eta = random_reduced_word(rng, 10, first_not=xi[0])
        z_fwd, z_back = (symbolic._realize(pants222, w, None) for w in (xi, eta))
        assert chord_length(pants222, z_fwd, z_back) > 0.0


def test_chord_rule_misses_a_gap_chord_and_times_the_b_cuff(pants222):
    assert chord_length(pants222, cmath.exp(4.5j), cmath.exp(5.0j)) is None
    att, rep = classify_isometry(pants222.g_alpha).fixed_points
    t = chord_length(pants222, att / abs(att), rep / abs(rep))
    assert abs(t - 2.0) < 1e-9  # the b cuff crossing


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
            ell = word_to_element(p, word).translation_length
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
