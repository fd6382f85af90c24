"""Box covers, projections, Favard averages, certification, sampling."""

import dataclasses
import functools
import itertools
import hashlib
import math
import time

import numpy as np
import pytest

from cuffdim.hyperbolic import CLIP_BLOCK, GeometryError, chord_point, clip_chord, lift_light
from cuffdim.projlab import (
    box_dimension,
    constant_family,
    direction_family,
    favard_estimate,
    four_corner_cover,
    lambda_grid,
    product_cover,
    project_cover_length,
    project_lengths,
    projection_profile,
    read_point_cloud,
    sample_complete_geodesic_points,
    segment_cover,
    transversality_certify,
    write_point_cloud,
    BoxCover,
    ks_uniform_statistic,
)
from cuffdim import build_pants, hyperbolic, projlab, thermo
from cuffdim.symbolic import cylinder_cover
from cuffdim.thermo import gibbs_measure

from conftest import A_HALF

LAM_HALF = math.atan(0.5)


def _flat_cover(label, x0, x1, y0, y1):
    """A cover of one block of four equal-length box arrays."""
    return BoxCover(label=label, depth=0, blocks=((x0, x1, y0, y1),))


def unit_square_cover():
    one, zero = np.array([1.0]), np.array([0.0])
    return _flat_cover("unit-square", zero, one, zero, one)


# ---------------------------------------------------------------------------
# Covers and projections


def test_unit_square_projections():
    sq = unit_square_cover()
    assert project_cover_length(sq, 0.0) == pytest.approx(1.0)
    assert project_cover_length(sq, math.pi / 4) == pytest.approx(math.sqrt(2.0))


def test_product_cover_counts(pants222):
    # 4x4 word pairs minus the 4 equal-first-symbol blocks; the arc through
    # angle zero splits into two unit-interval pieces, adding boxes
    unres = product_cover(pants222, 1, restrict=False)
    assert unres.n_pairs == 16
    assert unres.n_boxes == 25
    res = product_cover(pants222, 1, restrict=True)
    assert res.n_pairs == 12
    assert res.n_boxes == 18
    assert product_cover(pants222, 2).n_pairs == 12 * 9
    with pytest.raises(GeometryError):
        product_cover(pants222, 10)


def test_product_cover_area_decreases(pants222):
    # the unrestricted product area is exactly the squared total arc mass
    areas = []
    for n in (1, 2, 3, 4):
        cov = product_cover(pants222, n, restrict=False)
        total = cylinder_cover(pants222, n).lengths.sum() / (2.0 * math.pi)
        assert abs(cov.total_area - total**2) < 1e-12
        areas.append(cov.total_area)
    assert all(a > b for a, b in zip(areas, areas[1:]))


def test_product_cover_boxes_do_not_overlap(pants222):
    cov = product_cover(pants222, 1, restrict=True)
    x0, x1, y0, y1 = cov.x0, cov.x1, cov.y0, cov.y1
    n = cov.n_boxes
    for i in range(n):
        for j in range(i + 1, n):
            x_apart = x1[i] <= x0[j] or x1[j] <= x0[i]
            y_apart = y1[i] <= y0[j] or y1[j] <= y0[i]
            assert x_apart or y_apart


def test_four_corner_exact_projection_facts():
    # the direction of slope 1/2 tiles a full interval at every depth; the
    # axis projection is the middle-halves Cantor cover of length 2^-n
    for n in range(1, 7):
        cov = four_corner_cover(n)
        assert cov.n_boxes == 4**n
        assert project_cover_length(cov, LAM_HALF) == pytest.approx(
            3.0 / math.sqrt(5.0), abs=1e-12
        )
        assert project_cover_length(cov, 0.0) == pytest.approx(2.0**-n, abs=1e-12)


def test_four_corner_favard_strictly_decreasing():
    favs = [favard_estimate(four_corner_cover(n), grid=64) for n in range(1, 7)]
    assert all(a > b for a, b in zip(favs, favs[1:]))


def test_segment_control_favard_stable():
    favs = [favard_estimate(segment_cover(n), grid=64) for n in range(2, 7)]
    assert max(favs) / min(favs) < 1.10
    assert min(favs) > 0.5  # positivity floor for a rectifiable set


def test_projection_refinement_monotone(pants222):
    lams = lambda_grid(32)
    l3 = project_lengths(product_cover(pants222, 3), lams)
    l4 = project_lengths(product_cover(pants222, 4), lams)
    assert np.all(l4 <= l3 + 1e-12)
    f5, f6 = four_corner_cover(5), four_corner_cover(6)
    assert np.all(project_lengths(f6, lams) <= project_lengths(f5, lams) + 1e-12)


def test_projected_length_lipschitz_in_direction():
    # each box's projected interval endpoints move at rate at most
    # 2|center| + diagonal, so the union length is Lipschitz with constant
    # bounded by the sum of those rates over the cover
    cov = four_corner_cover(3)
    cx, cy = cov.centers
    rate = 2.0 * np.hypot(cx, cy) + np.hypot(cov.x1 - cov.x0, cov.y1 - cov.y0)
    lip_bound = float(rate.sum())
    lams = lambda_grid(128)
    lens = project_lengths(cov, lams)
    dl = np.abs(np.diff(lens))
    dlam = math.pi / 128
    assert np.all(dl <= lip_bound * dlam + 1e-12)
    # and the observed constant is far below the crude bound
    assert dl.max() / dlam < lip_bound


def _union_length_sweep(cover, lam):
    """Reference: merge the projected intervals one at a time in sorted order."""
    c, s = math.cos(lam), math.sin(lam)
    cx, cy = cover.centers
    mid = cx * c + cy * s
    hw = 0.5 * (cover.x1 - cover.x0) * abs(c) + 0.5 * (cover.y1 - cover.y0) * abs(s)
    pieces = []
    cur_lo = cur_hi = None
    for a, b in sorted(zip((mid - hw).tolist(), (mid + hw).tolist())):
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                pieces.append(cur_hi - cur_lo)
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        pieces.append(cur_hi - cur_lo)
    return math.fsum(pieces)


def _quantised_boxes(seed, n, q=16):
    # corners on a 1/q lattice: many tied starts, zero widths, duplicates
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, q, n) / q
    y0 = rng.integers(0, q, n) / q
    x1 = x0 + rng.integers(0, 4, n) / q
    y1 = y0 + rng.integers(0, 4, n) / q
    return _flat_cover(f"quantised-{seed}", x0, x1, y0, y1)


def _nested_boxes():
    # concentric squares plus an exact duplicate and a degenerate point box
    r = np.array([0.5, 0.4, 0.25, 0.1, 0.1, 0.0])
    return _flat_cover("nested", 0.5 - r, 0.5 + r, 0.5 - r, 0.5 + r)


# directions on both sides of pi/2, where cos changes sign
KERNEL_LAMS = (
    0.0, 0.3, LAM_HALF, math.pi / 2 - 1e-3, math.pi / 2, math.pi / 2 + 1e-3, 2.0, math.pi - 0.1
)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _quantised_boxes(0, 1),
        lambda: _quantised_boxes(1, 7),
        lambda: _quantised_boxes(2, 64),
        lambda: _quantised_boxes(3, 500, q=4),
        lambda: _quantised_boxes(4, 2000),
        _nested_boxes,
        unit_square_cover,
        lambda: four_corner_cover(4),
        lambda: segment_cover(6),
    ],
)
def test_projection_matches_plain_sweep(make):
    cover = make()
    for lam in KERNEL_LAMS:
        assert abs(project_cover_length(cover, lam) - _union_length_sweep(cover, lam)) <= 1e-12


def test_projection_matches_plain_sweep_on_product_cover(pants222):
    cover = product_cover(pants222, 3)
    for lam in KERNEL_LAMS:
        assert abs(project_cover_length(cover, lam) - _union_length_sweep(cover, lam)) <= 1e-12


def _cover_arrays(cover):
    return [a for block in cover.blocks for a in block]


def test_projection_leaves_cover_unchanged(pants222):
    for cover in (_quantised_boxes(5, 300), product_cover(pants222, 3)):
        before = [a.copy() for a in _cover_arrays(cover)]
        for lam in KERNEL_LAMS:
            project_cover_length(cover, lam)
        for a, b in zip(before, _cover_arrays(cover)):
            assert np.array_equal(a, b)


def _product_covers():
    for cuffs in ((2.0, 2.0, 2.0), (0.2, 1.0, 12.0), (A_HALF, A_HALF, A_HALF)):
        p = build_pants(cuffs)
        for n in range(1, 6):
            for restrict in (True, False):
                yield p, n, restrict, product_cover(p, n, restrict=restrict)


def _blocked_covers():
    for *_, cover in _product_covers():
        yield cover
    for n in range(1, 7):
        yield four_corner_cover(n)


def test_blocked_projection_is_bit_identical_to_the_box_arrays():
    lams = list(KERNEL_LAMS) + lambda_grid(64).tolist()
    for cover in _blocked_covers():
        # x pieces as a column, y pieces as a row: intervals from outer sums
        assert all(xl.shape[1] == 1 and yl.shape[0] == 1 for xl, _, yl, _ in cover.blocks)
        if cover.label.startswith("omega"):
            # one arc through angle zero is split, so some pairs make two boxes
            assert cover.n_boxes > cover.n_pairs
        flat = _flat_cover(cover.label, cover.x0, cover.x1, cover.y0, cover.y1)
        for lam in lams:
            assert project_cover_length(cover, lam) == project_cover_length(flat, lam)


def _block_rows(cover):
    rows = [np.stack([a.ravel() for a in np.broadcast_arrays(*b)], axis=1) for b in cover.blocks]
    return np.concatenate(rows)


def _lexsorted(rows):
    return rows[np.lexsort(rows.T[::-1])]


def test_blocks_expand_to_the_box_multiset():
    # every pair of unit-interval pieces whose words start apart (all pairs
    # unrestricted) is one box
    for p, n, restrict, cover in _product_covers():
        cov = cylinder_cover(p, n)
        parent, lo, hi = projlab._unit_pieces(cov)
        first = cov.words[parent, 0]
        i, j = np.divmod(np.arange(len(lo) ** 2), len(lo))
        if restrict:
            keep = first[i] != first[j]
            i, j = i[keep], j[keep]
        want = np.stack([lo[i], hi[i], lo[j], hi[j]], axis=1)
        got = _block_rows(cover)
        assert cover.n_boxes == len(got) == len(want)
        assert np.array_equal(_lexsorted(got), _lexsorted(want))
    # the four-corner boxes are all pairs of depth-n digit sums
    for n in range(1, 7):
        cover = four_corner_cover(n)
        vals = []
        for digits in itertools.product((0.0, 0.75), repeat=n):
            v = 0.0
            for k, d in enumerate(digits):
                v = v + d * 4.0 ** -k
            vals.append(v)
        side = 4.0 ** -n
        want = np.array([(x, x + side, y, y + side) for x in vals for y in vals])
        got = _block_rows(cover)
        assert cover.n_boxes == len(got) == 4**n
        assert np.array_equal(_lexsorted(got), _lexsorted(want))


def test_product_cover_refuses_depth_9_before_building_boxes(pants222):
    start = time.perf_counter()
    with pytest.raises(GeometryError, match="516600018 boxes.*PRODUCT_COVER_MAX_BOXES"):
        product_cover(pants222, 9)
    assert time.perf_counter() - start < 1.0


def test_depth_7_product_cover_holds_no_per_box_array(pants_half):
    cover = product_cover(pants_half, 7)
    assert cover.n_boxes == 6_381_666
    held = [a for block in cover.blocks for a in block]
    held += [v for v in vars(cover).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in held) < 1_000_000


def test_projection_of_empty_cover_is_zero():
    e = np.zeros(0)
    empty = _flat_cover("empty", e, e, e, e)
    assert project_cover_length(empty, 0.7) == 0.0


def test_favard_grid_minimum():
    with pytest.raises(GeometryError):
        favard_estimate(unit_square_cover(), grid=8)


def test_favard_single_box_bounds():
    f = favard_estimate(unit_square_cover(), grid=64)
    assert 1.0 < f < math.sqrt(2.0)


def test_projection_profile_csv(pants222):
    prof = projection_profile(
        {n: four_corner_cover(n) for n in (1, 2)}, grid=32, label="fc"
    )
    text = prof.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "depth,lambda,length"
    assert len(lines) == 1 + 2 * 32
    d, lam, ln = lines[1].split(",")
    assert float(ln) == prof.lengths[1][0]


# ---------------------------------------------------------------------------
# Transversality


def test_direction_family_certifies_at_seven_tenths():
    rep = transversality_certify(direction_family())
    assert rep.certified
    assert rep.c_t == pytest.approx(0.7)
    assert rep.margin is not None and rep.margin > 0.0
    # closed form: (d/dlam T)^2 = 1 - T^2 >= 0.51 on |T| <= 0.7
    assert rep.margin == pytest.approx(0.51 - 0.49, abs=5e-3)
    assert rep.c_l <= 1.0 + 1e-6
    assert rep.c1 <= math.sqrt(2.0)  # |D_lam P| <= |x| on the unit square


def test_constant_family_fails_certification():
    rep = transversality_certify(constant_family())
    assert not rep.certified
    assert rep.c_t is None


def test_certification_is_replayable():
    rep1 = transversality_certify(direction_family())
    rep2 = transversality_certify(direction_family())
    assert rep1.as_dict() == rep2.as_dict()


def test_inconsistent_evaluators_rejected():
    fam = direction_family()

    def bad_dp(lam, x):
        return fam.DP(lam, x) + 1e-3

    broken = dataclasses.replace(fam, DP=bad_dp)
    with pytest.raises(GeometryError):
        transversality_certify(broken)


def test_separation_floor_excludes_close_pairs():
    fam = direction_family()
    pts = np.array([[0.1, 0.1], [0.1 + 1e-9, 0.1], [0.8, 0.8]])
    rep = transversality_certify(fam, points=pts, lam_grid=32)
    assert rep.excluded_pairs == 1
    assert rep.n_pairs == 2


def test_lambda_grid_minimum():
    with pytest.raises(GeometryError):
        transversality_certify(direction_family(), lam_grid=16)


# ---------------------------------------------------------------------------
# Sampler


@pytest.fixture(scope="module")
def sample222(pants222):
    mu = gibbs_measure(pants222, 0.57, 5)
    return sample_complete_geodesic_points(pants222, mu, 50_000, seed=11)


def test_sampled_points_inside_octagon(pants222, sample222):
    pts = sample222.points
    assert len(pts) == 50_000
    # every emitted point lies inside the octagon (strictly, up to clip eps)
    sub = pts[:2000]
    for z in sub:
        assert pants222.contains(z, margin=-1e-9)


def test_sampler_flow_time_uniform(sample222):
    assert ks_uniform_statistic(sample222.time_fractions) < 0.01


def test_sampler_deterministic(pants222):
    mu = gibbs_measure(pants222, 0.57, 5)
    s1 = sample_complete_geodesic_points(pants222, mu, 5_000, seed=3)
    s2 = sample_complete_geodesic_points(pants222, mu, 5_000, seed=3)
    assert np.array_equal(s1.points, s2.points)
    s3 = sample_complete_geodesic_points(pants222, mu, 5_000, seed=4)
    assert not np.array_equal(s1.points, s3.points)


def test_sampler_reads_the_chain_the_measure_carries(pants222, monkeypatch):
    calls = []
    orig = thermo.gibbs_chain

    def spy(*args):
        calls.append(args[1:])
        return orig(*args)

    monkeypatch.setattr(thermo, "gibbs_chain", spy)
    monkeypatch.setattr(projlab, "gibbs_chain", spy, raising=False)
    mu = gibbs_measure(pants222, 0.57, 5)
    s1 = sample_complete_geodesic_points(pants222, mu, 5_000, seed=3)
    assert calls == [(0.57, 5)]
    s2 = sample_complete_geodesic_points(pants222, orig(pants222, 0.57, 5), 5_000, seed=3)
    assert np.array_equal(s1.points, s2.points)


def test_sampler_seed_stability_of_dimension(pants222):
    mu = gibbs_measure(pants222, 0.57, 5)
    fits = []
    for seed in (21, 22):
        s = sample_complete_geodesic_points(pants222, mu, 150_000, seed=seed)
        fits.append(box_dimension(s.points, min_points=100_000).estimate)
    assert abs(fits[0] - fits[1]) < 0.05


def test_sampler_count_cap(pants222):
    mu = gibbs_measure(pants222, 0.57, 5)
    for count in (10**7 + 1, 0, -1):
        with pytest.raises(GeometryError, match=r"outside \[1, 1e7\]"):
            sample_complete_geodesic_points(pants222, mu, count, seed=0)


# SHA-256 of float32-rounded (points.real, points.imag, lengths,
# time_fractions) of 20,000 points at seed 7 from a Gibbs chain at s = 0.5,
# frozen while every word was still realised step by step.  The float32
# rounding keeps the digests independent of numpy's SIMD log and exp
# kernels, whose last bits differ between its AVX2 and AVX-512 code paths.
# The (0.5, 1, 6) and (0.2, 1, 12) entries were re-frozen when the octagon
# became closed-form: time fractions stayed bit-equal, and points moved by
# at most 2.4e-11.
SAMPLER_DIGESTS = {
    ((A_HALF,) * 3, 6, 14): "4622225479dff89281402565aa16d8a1d5c5437d77c0964003a73434ca0f7c13",
    # word_len below the chain depth
    ((2.0, 2.0, 2.0), 6, 4): "37e64abf592fc46b58f768c9ee7d720e596426ecee949a0913ff79af9175480d",
    # word_len beyond twice the depth
    ((0.5, 1.0, 6.0), 6, 20): "0ee10a9173425149425a627edadd34da8ba9d24056125f3bcbbe0c5b914f5b95",
    ((0.2, 1.0, 12.0), 8, 9): "37a6e17e7bf2da652103309b12dd13d10ad3fcfa5c0458b2f0904112788ac1c6",
    ((8.0, 8.0, 8.0), 4, 9): "853d51e04ddb1a32e73e930f57a7bfb8270da117adccc843f2d1f5655676355f",
}


@pytest.mark.parametrize("cuffs, depth, word_len", list(SAMPLER_DIGESTS))
def test_sampler_output_matches_frozen_digest(cuffs, depth, word_len):
    p = build_pants(cuffs)
    s = sample_complete_geodesic_points(
        p, thermo.gibbs_chain(p, 0.5, depth), 20_000, seed=7, word_len=word_len
    )
    h = hashlib.sha256()
    for a in (s.points.real, s.points.imag, s.lengths, s.time_fractions):
        h.update(a.astype(np.float32).tobytes())
    assert h.hexdigest() == SAMPLER_DIGESTS[(cuffs, depth, word_len)]


def _sampler_oracle(p, chain, count, seed, word_len, max_attempt_factor=10):
    """The sampler as written before its endpoint table and blocked rounds.

    Each round draws the stationary states and the clash redraws, then one
    draw row per chain step of the forward walk and of the backward walk;
    every word is pulled back in full from its last symbol's arc midpoint,
    all chords are clipped by one clip_chord call, and the chord times are
    drawn last.  Returns (points, lengths, fractions, resampled, attempts).
    """
    steps = max(word_len, chain.depth) - chain.depth
    rng = np.random.Generator(np.random.Philox(key=seed))
    pi_cum = np.cumsum(chain.stationary)
    pi_cum[-1] = 1.0
    words = chain.skeleton.cover.words.astype(np.intp)
    cum = np.cumsum(chain.transition_probs, axis=1)[:, :2]
    mid = p.arc_point(np.arange(4), 0.0)

    def realize(idx):
        cur, rows = idx, list(words[idx].T)
        for _ in range(steps):
            r = rng.random(len(idx))
            cur = chain.skeleton.cols[cur, (r[:, None] > cum[cur]).sum(axis=1)]
            rows.append(words[cur, -1])
        z = mid[rows[-1]]
        for sym in rows[-2::-1]:
            z, _ = p.inverse_branch(sym, z)
            z /= np.abs(z)
        return z

    pts, lens, fracs = np.empty(count, complex), np.empty(count), np.empty(count)
    need, resampled, attempts = np.arange(count), 0, 0
    while len(need):
        m = len(need)
        attempts += m
        if attempts > max_attempt_factor * count:
            raise GeometryError("oracle exceeded its attempt budget")
        xi = np.searchsorted(pi_cum, rng.random(m))
        eta = np.searchsorted(pi_cum, rng.random(m))
        clash = np.flatnonzero(words[xi, 0] == words[eta, 0])
        while len(clash):
            eta[clash] = np.searchsorted(pi_cum, rng.random(len(clash)))
            clash = clash[words[xi[clash], 0] == words[eta[clash], 0]]
        l_fwd, l_back = lift_light(realize(xi)), lift_light(realize(eta))
        t_in, t_out, _, _ = clip_chord(l_back, l_fwd, p.interior_normals)
        good = np.isfinite(t_in) & np.isfinite(t_out) & (t_in < t_out)
        u = rng.random(m)
        ell = (t_out - t_in)[good]
        pts[need[good]] = chord_point(l_back[good], l_fwd[good], t_in[good] + u[good] * ell)
        lens[need[good]] = ell
        fracs[need[good]] = u[good]
        resampled += int(np.sum(~good))
        need = need[~good]
    return pts, lens, fracs, resampled, attempts


@functools.cache
def _sampler_chain(cuffs, depth):
    p = build_pants(cuffs)
    return p, thermo.gibbs_chain(p, 0.5, depth)


def _assert_sample_equals_oracle(s, want):
    got = (s.points, s.lengths, s.time_fractions, s.resampled, s.attempts)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# the counts pick different table depths j: 0 at counts 1 and 2, and at
# CLIP_BLOCK + 1 and 20,000 two levels apart, up to j = steps (depth 4,
# and depth 8 with one step); CLIP_BLOCK + 1 runs two blocks of unequal size
@pytest.mark.parametrize("count", [1, 2, CLIP_BLOCK + 1, 20_000])
@pytest.mark.parametrize(
    "cuffs, depth, word_len",
    [
        ((A_HALF,) * 3, 6, 14),
        ((2.0, 2.0, 2.0), 6, 4),  # word_len below the depth: no walk steps
        ((0.5, 1.0, 6.0), 6, 20),
        ((0.2, 1.0, 12.0), 8, 9),
        ((8.0, 8.0, 8.0), 4, 9),
    ],
)
def test_sampler_matches_stepwise_oracle(cuffs, depth, word_len, count):
    p, chain = _sampler_chain(cuffs, depth)
    for seed in (7, 13):
        s = sample_complete_geodesic_points(p, chain, count, seed, word_len=word_len)
        _assert_sample_equals_oracle(s, _sampler_oracle(p, chain, count, seed, word_len))


def _reject_where(kernel, reject):
    """_clip_block that also rejects every chord whose lifts satisfy reject."""

    def patched(normals, l_back, l_fwd):
        lower, upper = kernel(normals, l_back, l_fwd)
        lower[:, reject(l_back, l_fwd)] = np.inf
        return lower, upper

    return patched


def test_sampler_resamples_rejected_chords(monkeypatch):
    p, chain = _sampler_chain((A_HALF,) * 3, 6)
    # a fixed subset of chords, those whose forward endpoint has positive
    # real part (about half): every round rejects the drawn chords in it
    kernel = _reject_where(hyperbolic._clip_block, lambda back, fwd: fwd[..., 0] > 0.0)
    monkeypatch.setattr(hyperbolic, "_clip_block", kernel)
    monkeypatch.setattr(projlab, "_clip_block", kernel)
    count = 20_000
    s = sample_complete_geodesic_points(p, chain, count, seed=7)
    assert s.resampled > count // 10
    assert s.attempts == count + s.resampled
    z = s.points
    r2 = np.abs(z) ** 2
    lift = np.stack([2.0 * z.real, 2.0 * z.imag, 1.0 + r2]) / (1.0 - r2)
    normals = p.interior_normals
    assert np.all(normals[:, :2] @ lift[:2] - np.outer(normals[:, 2], lift[2]) >= -1e-12)
    _assert_sample_equals_oracle(s, _sampler_oracle(p, chain, count, 7, 14))


def test_sampler_rejecting_every_chord_exhausts_the_budget(monkeypatch):
    p, chain = _sampler_chain((A_HALF,) * 3, 6)
    kernel = _reject_where(hyperbolic._clip_block, lambda back, fwd: np.ones(fwd.shape[:-1], bool))
    monkeypatch.setattr(projlab, "_clip_block", kernel)
    with pytest.raises(GeometryError, match="attempt budget"):
        sample_complete_geodesic_points(p, chain, 5_000, seed=7)


def _extend_words_oracle(chain, idx, rng, total_len):
    """_extend_words as first written: each step compares the draw with all
    three cumulative probabilities and derives the symbol from the last one."""
    n = chain.depth
    words = chain.skeleton.cover.words[idx].astype(np.uint8)
    if total_len <= n:
        return words[:, :total_len]
    cur = idx.copy()
    out = np.empty((len(idx), total_len), dtype=np.uint8)
    out[:, :n] = words
    cum = np.cumsum(chain.transition_probs, axis=1)
    for k in range(n, total_len):
        r = rng.random(len(idx))
        j = (r[:, None] > cum[cur]).sum(axis=1)
        out[:, k] = j + (j >= (out[:, k - 1].astype(np.int64) ^ 1))
        cur = chain.skeleton.cols[cur, j]
    return out


@pytest.mark.parametrize("total_len", [4, 6, 7, 20])
def test_extend_words_matches_oracle(pants_half, total_len):
    chain = thermo.gibbs_chain(pants_half, 0.5, 6)
    idx = np.random.default_rng(2).integers(0, len(chain.stationary), 5_000)
    got = projlab._extend_words(chain, idx, np.random.Generator(np.random.Philox(key=5)), total_len)
    want = _extend_words_oracle(chain, idx, np.random.Generator(np.random.Philox(key=5)), total_len)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "cuffs, depth", [((A_HALF,) * 3, 6), ((0.2, 1.0, 12.0), 8), ((0.01, 12.0, 12.0), 6)]
)
def test_stationary_draw_equals_searchsorted(cuffs, depth):
    chain = thermo.gibbs_chain(build_pants(cuffs), 0.5, depth)
    pi_cum = np.cumsum(chain.stationary)
    pi_cum[-1] = 1.0
    # every cumulative entry and its neighbours, every bucket edge up to
    # 2^16 buckets, and both ends of [0, 1)
    edges = np.concatenate([pi_cum, np.arange(2**16) / 2**16, [0.0, 1.0 - 2.0**-53]])
    probes = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    probes = probes[(probes >= 0.0) & (probes < 1.0)]
    draws = np.random.default_rng(6).random(10**6)
    draw = projlab._stationary_draw(pi_cum)
    for r in (probes, draws):
        assert np.array_equal(draw(r), np.searchsorted(pi_cum, r))


class _TopDraw:
    """Generator stub whose every draw is the largest double below 1."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


def test_chain_step_top_draw_takes_the_third_successor(pants_half):
    chain = thermo.gibbs_chain(pants_half, 0.5, 6)
    # rows whose cumulative transition probabilities end below the draw
    rows = np.flatnonzero(np.cumsum(chain.transition_probs, axis=1)[:, 2] < 1.0 - 2.0**-53)
    assert len(rows) > 0
    words = projlab._extend_words(chain, rows, _TopDraw(), 7)
    skel = chain.skeleton
    assert words.dtype == np.uint8
    assert np.array_equal(words[:, :6], skel.cover.words[rows])
    assert np.array_equal(words[:, 6], skel.cover.words[skel.cols[rows, 2], -1])


# ---------------------------------------------------------------------------
# Box dimension


def test_box_dimension_of_segment():
    rng = np.random.default_rng(51)
    u = rng.random(100_000)
    pts = u * (0.9 + 0.45j) + (0.02 + 0.01j)
    fit = box_dimension(pts)
    assert abs(fit.estimate - 1.0) < 0.05


def test_box_dimension_of_disk():
    rng = np.random.default_rng(52)
    r = 0.9 * np.sqrt(rng.random(1_000_000))
    phi = rng.uniform(0, 2 * math.pi, 1_000_000)
    pts = r * np.exp(1j * phi)
    fit = box_dimension(pts)
    assert abs(fit.estimate - 2.0) < 0.05


def test_box_dimension_preconditions():
    rng = np.random.default_rng(53)
    pts = rng.random(1000) + 1j * rng.random(1000)
    with pytest.raises(GeometryError):
        box_dimension(pts)
    big = rng.random(100_000) + 1j * rng.random(100_000)
    with pytest.raises(GeometryError):
        box_dimension(big, scales=[0.5, 0.25, 0.125])
    xyz = rng.random((100_000, 3))
    for bad in (xyz, xyz[:, 0], big[:, None]):
        with pytest.raises(GeometryError, match=r"complex \(N,\) or real \(N, 2\) points"):
            box_dimension(bad)


def _box_counts_oracle(xy, scales):
    """Box counts as first written: one np.unique over packed box keys."""
    origin = xy.min(axis=0)
    counts = []
    for s in np.sort(np.asarray(scales, dtype=float))[::-1]:
        ij = np.floor((xy - origin) / s).astype(np.int64)
        counts.append(len(np.unique(ij[:, 0] * (2**31) + ij[:, 1])))
    return np.array(counts)


@pytest.mark.parametrize("seed", [55, 56])
def test_box_counts_equal_the_unique_oracle(seed):
    rng = np.random.default_rng(seed)
    r = 0.95 * np.sqrt(rng.random(50_000))
    pts = r * np.exp(2j * math.pi * rng.random(50_000))
    xy = np.stack([pts.real, pts.imag], axis=-1)
    clouds = [
        pts,  # complex
        xy,  # real (N, 2)
        xy * 3.0 - 7.0,  # negative coordinates and a span above 1
        pts[:5_000] ** 3,  # a skewed cloud
    ]
    scale_lists = [None, [0.3, 0.07, 0.011, 0.0023, 0.05, 1.7e-3], 2.0 ** -np.arange(1, 11)]
    for cloud in clouds:
        xy_c = np.stack([cloud.real, cloud.imag], axis=-1) if np.iscomplexobj(cloud) else cloud
        for scales in scale_lists:
            fit = box_dimension(cloud, scales=scales, min_points=1)
            want = _box_counts_oracle(xy_c, fit.scales)
            assert fit.counts.dtype == want.dtype
            assert np.array_equal(fit.counts, want)


def test_box_dimension_refuses_a_grid_above_the_cap():
    pts = np.random.default_rng(57).random(1000) + 1j * np.random.default_rng(58).random(1000)
    pts[:2] = [0.0, 1.0 + 1.0j]  # the cloud spans [0, 1]^2
    # 2^-13 needs 8193^2 cells, just above 2^26; 2^-12 needs 4097^2
    msg = r"scale 0\.0001220703125 needs a 8193 x 8193 grid, above BOX_COUNT_MAX_CELLS = 67108864"
    with pytest.raises(GeometryError, match=msg):
        box_dimension(pts, scales=2.0 ** -np.arange(1, 14), min_points=1)
    assert box_dimension(pts, scales=2.0 ** -np.arange(1, 13), min_points=1).counts[-1] <= 1000
    # a scale so small that the grid side overflows to infinity
    with np.errstate(over="ignore"), pytest.raises(GeometryError, match="inf x inf grid"):
        box_dimension(pts, scales=[0.5, 0.25, 0.125, 1e-320], min_points=1)


def test_box_dimension_refuses_non_finite_points_and_bad_scales():
    pts = np.random.default_rng(59).random(100_000) + 0.5j
    pts[[3, 70, 900]] = [complex(math.nan, 0.1), complex(0.2, math.inf), complex(-math.inf, math.nan)]
    with pytest.raises(GeometryError, match="3 are not"):
        box_dimension(pts)
    xy = np.stack([pts.real, pts.imag], axis=-1)
    with pytest.raises(GeometryError, match="3 are not"):
        box_dimension(xy)
    for bad in ([0.5, 0.25, 0.0, 0.125], [0.5, 0.25, -0.125, 0.1], [0.5, math.nan, 0.25, 0.1]):
        with pytest.raises(GeometryError, match="at least 4 positive scales"):
            box_dimension(pts[1000:2000], scales=bad, min_points=1)


# ---------------------------------------------------------------------------
# Point cloud files


def test_point_cloud_round_trip(tmp_path):
    rng = np.random.default_rng(54)
    pts = rng.random(1000) + 1j * rng.random(1000)
    path = tmp_path / "cloud.bin"
    write_point_cloud(str(path), pts)
    raw = path.read_bytes()
    assert raw[:8] == b"CSPTS001"
    assert len(raw) == 8 + 1000 * 16
    back = read_point_cloud(str(path))
    assert np.array_equal(back, pts)


def test_point_cloud_magic_checked(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
    with pytest.raises(GeometryError):
        read_point_cloud(str(path))
