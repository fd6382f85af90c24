"""Box covers, projections, Favard averages, certification, sampling."""

import dataclasses
import functools
import itertools
import hashlib
import json
import math
import time
import tracemalloc

import mpmath as mp
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
from cuffdim.pants import SEAM_SIDE_SYMBOL, PantsGeometry
from cuffdim.symbolic import cylinder_cover
from cuffdim.thermo import gibbs_chain

from conftest import A_HALF

CHUNK = projlab.SAMPLER_CHUNK

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
    # the arc through angle zero splits into two unit-interval pieces, so the
    # 5 pieces of the 4 arcs make 5 x 5 pairs, less the 2^2 + 1 + 1 + 1 whose
    # words start with the same symbol
    assert product_cover(pants222, 1).n_boxes == 18
    with pytest.raises(GeometryError):
        product_cover(pants222, 10)


def test_product_cover_area_decreases(pants222):
    # the product area is the squared total arc mass less the squared mass
    # of the words starting with each symbol
    areas = []
    for n in (1, 2, 3, 4):
        cov = product_cover(pants222, n)
        cyl = cylinder_cover(pants222, n)
        mass = np.bincount(cyl.words[:, 0], weights=cyl.lengths, minlength=4) / (2.0 * math.pi)
        area = float(np.sum((cov.x1 - cov.x0) * (cov.y1 - cov.y0)))
        assert abs(area - (mass.sum() ** 2 - np.sum(mass**2))) < 1e-12
        areas.append(area)
    assert all(a > b for a, b in zip(areas, areas[1:]))


def test_product_cover_boxes_do_not_overlap(pants222):
    cov = product_cover(pants222, 1)
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


def test_segment_depth_is_bounded():
    # depth 40 asked numpy for 8 TiB; 2^20 boxes equal the four-corner maximum 4^10
    for n in (0, 21, 40):
        with pytest.raises(GeometryError, match=rf"segment depth {n} outside \[1, 20\]"):
            segment_cover(n)
    assert segment_cover(1).n_boxes == 2
    assert segment_cover(20).n_boxes == 2**20


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
    cx, cy = 0.5 * (cov.x0 + cov.x1), 0.5 * (cov.y0 + cov.y1)
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
    cx, cy = 0.5 * (cover.x0 + cover.x1), 0.5 * (cover.y0 + cover.y1)
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
            yield p, n, product_cover(p, n)


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
        flat = _flat_cover(cover.label, cover.x0, cover.x1, cover.y0, cover.y1)
        for lam in lams:
            assert project_cover_length(cover, lam) == project_cover_length(flat, lam)


def _block_rows(cover):
    rows = [np.stack([a.ravel() for a in np.broadcast_arrays(*b)], axis=1) for b in cover.blocks]
    return np.concatenate(rows)


def _lexsorted(rows):
    return rows[np.lexsort(rows.T[::-1])]


def test_blocks_expand_to_the_box_multiset():
    # every pair of unit-interval pieces whose words start apart is one box
    for p, n, cover in _product_covers():
        cov = cylinder_cover(p, n)
        parent, lo, hi = projlab._unit_pieces(cov)
        first = cov.words[parent, 0]
        i, j = np.divmod(np.arange(len(lo) ** 2), len(lo))
        keep = first[i] != first[j]
        i, j = i[keep], j[keep]
        # one arc through angle zero is split, so some word pairs make two boxes
        assert len(i) > np.sum(cov.words[:, None, 0] != cov.words[None, :, 0])
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
    # the profile shares the check: an empty grid used to give a header-only
    # profile and NaN Favard lengths
    covers = {2: segment_cover(2)}
    for grid in (15, 0, -4):
        with pytest.raises(GeometryError, match=f"direction grid {grid} below 16"):
            projection_profile(covers, grid=grid)
    prof = projection_profile(covers, grid=16)
    assert prof.favard(2) == favard_estimate(covers[2], grid=16)


def test_favard_grid_maximum():
    covers = {2: segment_cover(2)}
    top = projlab.FAVARD_MAX_GRID
    assert projection_profile(covers, grid=top).lambdas.shape == (top,)
    with pytest.raises(GeometryError, match=rf"direction grid {top + 1} above FAVARD_MAX_GRID = {top}; "
                                            rf"grid must lie in \[16, {top}\]"):
        projection_profile(covers, grid=top + 1)


def test_favard_single_box_bounds():
    f = favard_estimate(unit_square_cover(), grid=64)
    assert 1.0 < f < math.sqrt(2.0)


def test_projection_profile_csv(pants222):
    prof = projection_profile({n: four_corner_cover(n) for n in (1, 2)}, grid=32)
    assert prof.label == "four-corner-1"
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


def test_separation_floor_excludes_close_pairs(monkeypatch):
    fam = direction_family()
    pts = np.array([[0.1, 0.1], [0.1 + 1e-9, 0.1], [0.8, 0.8]])
    monkeypatch.setattr(projlab, "default_point_sample", lambda: pts)
    rep = transversality_certify(fam, lam_grid=32)
    assert rep.excluded_pairs == 1
    assert rep.n_pairs == 2


def test_lambda_grid_minimum():
    with pytest.raises(GeometryError):
        transversality_certify(direction_family(), lam_grid=16)


# sha256 of each certificate's sorted JSON: the certifier's running
# reductions give the bytes of keeping every (lambda, pair) value
CERTIFICATE_DIGESTS = {
    ("directions", 32): "b5b67cd398a5fd6553ca26afe3f2eea82848011f2e77963e050dc64508127b03",
    ("directions", 256): "7cbf6664b95aebffac6b051bd7a150f5e934cf4063341894000aaa63f5eaa3eb",
    ("constant", 32): "d8a0408a6df5f624eb0cd342e5b930e488b90dd299d817088ebc290ed64b453d",
    ("constant", 256): "c28ec787c813b06b516e982e205f5472866aba81d6866476acd4e2332d6b1bc8",
}


@pytest.mark.parametrize("name, grid", sorted(CERTIFICATE_DIGESTS))
def test_certificate_bytes_are_pinned(name, grid):
    rep = transversality_certify(projlab.FAMILIES[name](), lam_grid=grid)
    text = json.dumps(rep.as_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_DIGESTS[name, grid]


def test_certification_memory_does_not_grow_with_the_grid():
    rep, peak = _traced_peak(lambda: transversality_certify(direction_family(), lam_grid=2048))
    assert rep.certified
    # every (lambda, pair) value kept until the end traced 127 MiB
    assert peak < 4 * 2**20


def test_non_finite_family_is_refused():
    fam = direction_family()

    def p_nan_at_one_point(lam, x):
        out = fam.P(lam, x)
        if len(x) == 64:
            out[1] = np.nan  # a point the evaluator check does not probe
        return out

    def dp_nan(lam, x):
        return np.full(len(x), np.nan)

    # both were certified at C_T = 0.7 with evaluator consistency 0.0
    broken = dataclasses.replace(fam, P=p_nan_at_one_point)
    with pytest.raises(GeometryError, match=r"'directions' has a non-finite value at lambda = 0\.0490873852"):
        transversality_certify(broken, lam_grid=32)
    with pytest.raises(GeometryError, match="'directions' evaluators are inconsistent.*nan"):
        transversality_certify(dataclasses.replace(fam, DP=dp_nan), lam_grid=32)


# ---------------------------------------------------------------------------
# Sampler


@pytest.fixture(scope="module")
def sample222(pants222):
    chain = gibbs_chain(pants222, 0.57, 5)
    return sample_complete_geodesic_points(pants222, chain, 50_000, seed=11)


def test_sampled_points_inside_octagon(pants222, sample222):
    pts = sample222.points
    assert len(pts) == 50_000
    # every emitted point lies inside the octagon (strictly, up to clip eps):
    # <lift(z), n> > 0 for each interior side normal n
    z = pts[:2000]
    s = 1.0 - np.abs(z) ** 2
    lifts = np.stack([2.0 * z.real / s, 2.0 * z.imag / s, -(1.0 + np.abs(z) ** 2) / s])
    assert np.all(pants222.interior_normals @ lifts > -1e-9)


def test_sampler_flow_time_uniform(sample222):
    assert ks_uniform_statistic(sample222.time_fractions) < 0.01


def test_sampler_deterministic(pants222):
    chain = gibbs_chain(pants222, 0.57, 5)
    s1 = sample_complete_geodesic_points(pants222, chain, 5_000, seed=3)
    s2 = sample_complete_geodesic_points(pants222, chain, 5_000, seed=3)
    assert np.array_equal(s1.points, s2.points)
    s3 = sample_complete_geodesic_points(pants222, chain, 5_000, seed=4)
    assert not np.array_equal(s1.points, s3.points)


def test_sampler_builds_no_chain_of_its_own(pants222, monkeypatch):
    chain = gibbs_chain(pants222, 0.57, 5)
    calls = []
    for name in ("gibbs_chain", "transfer_matrix", "transition_skeleton"):
        monkeypatch.setattr(thermo, name, lambda *args, name=name: calls.append(name))
    sample = sample_complete_geodesic_points(pants222, chain, 5_000, seed=3)
    assert calls == []
    assert sample.points.shape == (5_000,)


def test_sampler_seed_stability_of_dimension(pants222):
    chain = gibbs_chain(pants222, 0.57, 5)
    fits = []
    for seed in (21, 22):
        s = sample_complete_geodesic_points(pants222, chain, 150_000, seed=seed)
        fits.append(box_dimension(s.points, min_points=100_000).estimate)
    assert abs(fits[0] - fits[1]) < 0.05


def test_sampler_count_cap(pants222):
    chain = gibbs_chain(pants222, 0.57, 5)
    for count in (10**7 + 1, 0, -1):
        with pytest.raises(GeometryError, match=r"outside \[1, 1e7\]"):
            sample_complete_geodesic_points(pants222, chain, count, seed=0)


def test_sampler_refuses_a_word_length_outside_one_to_sixty_four(pants222):
    chain = gibbs_chain(pants222, 0.57, 5)
    # 0 and below were read as the chain depth; 10^5 would draw 1.6 MB per point
    for word_len in (0, -3, 65, 10**5):
        with pytest.raises(GeometryError, match=rf"word length {word_len} outside \[1, 64\]"):
            sample_complete_geodesic_points(pants222, chain, 10**7, seed=0, word_len=word_len)
    for word_len in (1, 64):
        s = sample_complete_geodesic_points(pants222, chain, 10, seed=0, word_len=word_len)
        assert np.all(np.abs(s.points) < 1.0)


# SHA-256 of float32-rounded (points.real, points.imag, lengths,
# time_fractions) of 20,000 points at seed 7 from a Gibbs chain at s = 0.5,
# frozen while every word was still realised step by step.  The float32
# rounding keeps the digests independent of numpy's SIMD log and exp
# kernels, whose last bits differ between its AVX2 and AVX-512 code paths.
# The (0.5, 1, 6) and (0.2, 1, 12) entries were re-frozen when the octagon
# became closed-form: time fractions stayed bit-equal, and points moved by
# at most 2.4e-11.  The four entries whose word length exceeds the depth
# were re-frozen when each state's head symbols were folded into one
# base-point Moebius map: draws, time fractions, resampled and attempts
# stayed bit-equal, and points moved by at most 1.9e-15 (A_HALF^3),
# 3.9e-14 (0.5, 1, 6), 6.7e-12 (0.2, 1, 12) and 1.3e-13 (8^3).  Only the
# (0.2, 1, 12) digest changed; the other moves are below float32 rounding.
SAMPLER_DIGESTS = {
    ((A_HALF,) * 3, 6, 14): "4622225479dff89281402565aa16d8a1d5c5437d77c0964003a73434ca0f7c13",
    # word_len below the chain depth
    ((2.0, 2.0, 2.0), 6, 4): "37e64abf592fc46b58f768c9ee7d720e596426ecee949a0913ff79af9175480d",
    # word_len beyond twice the depth
    ((0.5, 1.0, 6.0), 6, 20): "0ee10a9173425149425a627edadd34da8ba9d24056125f3bcbbe0c5b914f5b95",
    ((0.2, 1.0, 12.0), 8, 9): "f211acfd3ba9b61f799916738926aaa0938071ef21ed355bf0b8f22fb35e3e2d",
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


def _assert_sample_equals_oracle(s, want, folded=True):
    """Draws, accept/reject and time fractions equal the oracle's.  Points
    and lengths do too where no head symbol is folded (word length at most
    the depth); folded heads realize endpoints in another order, so there
    they agree within bounds fixed above the worst measured moves, 8.3e-12
    and 5.3e-10 at (0.2, 1, 12)."""
    points, lengths, fractions, resampled, attempts = want
    assert np.array_equal(s.time_fractions, fractions)
    assert (s.resampled, s.attempts) == (resampled, attempts)
    if folded:
        assert np.max(np.abs(s.points - points)) <= 1e-10
        assert np.max(np.abs(s.lengths - lengths)) <= 1e-8
    else:
        assert np.array_equal(s.points, points)
        assert np.array_equal(s.lengths, lengths)


# with q, r = divmod(word_len - depth, depth - 1), the configurations run
# every case of the realization rule: no walk steps (6/4), a partial fold
# alone (8/9: q = 0, r = 1), full folds with no partial fold (6/11: q = 1,
# r = 0), both (6/14, 4/9 and 6/20, q = 1, 1 and 2) and eleven full folds
# (6/64: r = 3).  The counts run one block (1 and 2), two blocks of unequal
# size (CLIP_BLOCK + 1) and several
@pytest.mark.parametrize("count", [1, 2, CLIP_BLOCK + 1, 20_000])
@pytest.mark.parametrize(
    "cuffs, depth, word_len",
    [
        ((A_HALF,) * 3, 6, 14),
        ((2.0, 2.0, 2.0), 6, 4),  # word_len below the depth: no walk steps
        ((0.5, 1.0, 6.0), 6, 20),
        ((0.2, 1.0, 12.0), 8, 9),
        ((8.0, 8.0, 8.0), 4, 9),
        ((2.0, 2.0, 2.0), 6, 11),
        ((2.0, 2.0, 2.0), 6, 64),
    ],
)
def test_sampler_matches_stepwise_oracle(cuffs, depth, word_len, count):
    p, chain = _sampler_chain(cuffs, depth)
    for seed in (7, 13):
        s = sample_complete_geodesic_points(p, chain, count, seed, word_len=word_len)
        _assert_sample_equals_oracle(s, _sampler_oracle(p, chain, count, seed, word_len), word_len > depth)


def _reject_where(kernel, reject):
    """_clip_block that also rejects every chord whose lifts satisfy reject."""

    def patched(normals, eps, l_back, l_fwd):
        lower, upper = kernel(normals, eps, l_back, l_fwd)
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


GRID = (0.01, 0.05, 0.2, 1.0, 5.0, 12.0, 20.0)


def test_sampler_seam_clipping_keeps_the_eight_side_chords(monkeypatch):
    # the sampler clips at the four seam sides; on the grid's 84 triples the
    # eight sides accept the same chords with the same t_in and t_out bits
    kernel, chords = hyperbolic._clip_block, []

    def reduce(lower, upper):
        t_in, t_out = lower.max(axis=0), upper.min(axis=0)
        return np.isfinite(t_in) & np.isfinite(t_out) & (t_in < t_out), t_in, t_out

    def spy(normals, eps, l_back, l_fwd):
        assert np.array_equal(normals, p.interior_normals[list(SEAM_SIDE_SYMBOL)])
        out = kernel(normals, eps, l_back, l_fwd)
        good, t_in, t_out = reduce(*out)
        good8, t_in8, t_out8 = reduce(*kernel(p.interior_normals, p.side_eps, l_back, l_fwd))
        assert np.array_equal(good, good8), cuffs
        assert np.array_equal(t_in[good], t_in8[good]) and np.array_equal(t_out[good], t_out8[good]), cuffs
        chords.append(len(good))
        return out

    monkeypatch.setattr(projlab, "_clip_block", spy)
    for cuffs in itertools.combinations_with_replacement(GRID, 3):
        p = build_pants(cuffs)
        sample_complete_geodesic_points(p, thermo.gibbs_chain(p, 0.5, 4), 2_000, seed=11)
    assert sum(chords) >= 84 * 2_000


@functools.cache
def _two_chunk_sample(seed):
    p, chain = _sampler_chain((2.0, 2.0, 2.0), 6)
    return sample_complete_geodesic_points(p, chain, 2 * CHUNK + 1, seed)


def test_sampler_first_chunk_is_the_one_chunk_call():
    p, chain = _sampler_chain((2.0, 2.0, 2.0), 6)
    one = sample_complete_geodesic_points(p, chain, CHUNK, seed=7)
    s = _two_chunk_sample(7)
    # chunk 0 draws Philox(key=seed) at counter 0, whatever the count
    assert np.array_equal(s.lengths[:CHUNK], one.lengths)
    assert np.array_equal(s.time_fractions[:CHUNK], one.time_fractions)
    assert np.array_equal(s.points[:CHUNK], one.points)


def test_sampler_chunks_draw_distinct_substreams():
    s = _two_chunk_sample(7)
    first, second = s.time_fractions[:CHUNK], s.time_fractions[CHUNK : 2 * CHUNK]
    # a copy, or the first stream shifted by a few draws, would share most values
    assert len(np.intersect1d(first, second)) == 0
    assert not np.array_equal(s.points[:CHUNK], s.points[CHUNK : 2 * CHUNK])
    assert s.attempts == 2 * CHUNK + 1 + s.resampled


def test_sampler_multi_chunk_calls_are_deterministic():
    p, chain = _sampler_chain((2.0, 2.0, 2.0), 6)
    a = _two_chunk_sample(7)
    b = sample_complete_geodesic_points(p, chain, 2 * CHUNK + 1, seed=7)
    for f in ("points", "lengths", "time_fractions"):
        assert np.array_equal(getattr(a, f), getattr(b, f))
    assert (a.resampled, a.attempts) == (b.resampled, b.attempts)


def _traced_peak(fn):
    """fn's result and the peak of traced allocations while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_memory_is_bounded_by_a_chunk():
    p, chain = _sampler_chain((2.0, 2.0, 2.0), 6)
    s, peak = _traced_peak(lambda: sample_complete_geodesic_points(p, chain, 300_000, seed=5))
    kept = s.points.nbytes + s.lengths.nbytes + s.time_fractions.nbytes
    # whole-call draws held about 50 MiB beyond the output at this count
    assert peak - kept < 16 * 2**20


def test_sampler_memory_of_a_repeat_call_holds_no_table_or_walk_draws():
    p, chain = _sampler_chain((A_HALF,) * 3, 6)
    sample_complete_geodesic_points(p, chain, 62_500, seed=5)
    s, peak = _traced_peak(lambda: sample_complete_geodesic_points(p, chain, 62_500, seed=6))
    assert len(s.points) == 62_500
    # 1.9 MiB of it is the output; rebuilding an endpoint table and holding
    # both walks' (steps, m) draw blocks traced 11.4 MiB, and keeping the
    # walks' states as int64 rows 6.9 MiB
    assert peak <= 6.5 * 2**20


@pytest.mark.parametrize(
    "cuffs, depth, word_len, hs", [((A_HALF,) * 3, 6, 14, (3, 5)), ((2.0, 2.0, 2.0), 8, 18, (3, 7))]
)
def test_sampler_builds_the_fold_maps_once_per_geometry(monkeypatch, cuffs, depth, word_len, hs):
    p = build_pants(cuffs)
    chain = thermo.gibbs_chain(p, 0.5, depth)
    calls = []
    branch = PantsGeometry.inverse_branch
    monkeypatch.setattr(PantsGeometry, "inverse_branch", lambda *a: calls.append(1) or branch(*a))
    sample_complete_geodesic_points(p, chain, 20_000, seed=7, word_len=word_len)
    # one branch row per folded symbol: the partial fold's r and the full fold's n - 1
    assert len(calls) == sum(hs)
    maps = {k: v for k, v in p._cache.items() if k[0] == "fold"}
    assert sorted(maps) == [("fold", depth, h) for h in hs]
    calls.clear()
    again = sample_complete_geodesic_points(p, chain, 20_000, seed=8, word_len=word_len)
    assert calls == []
    assert all(p._cache[k] is v for k, v in maps.items())
    monkeypatch.undo()
    fresh_p = build_pants(cuffs)
    fresh = sample_complete_geodesic_points(fresh_p, thermo.gibbs_chain(fresh_p, 0.5, depth), 20_000, 8, word_len)
    for f in ("points", "lengths", "time_fractions"):
        assert np.array_equal(getattr(again, f), getattr(fresh, f))
    assert (again.resampled, again.attempts) == (fresh.resampled, fresh.attempts)
    for a in maps[("fold", depth, hs[1])]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def _words_60_digits(p, words):
    """Each word realized in 60-digit mpmath through the stored branch
    coefficients, step by step from its last symbol's arc midpoint,
    normalized after every branch."""
    coef = [[mp.mpc(complex(c)) for c in col] for col in p._branch_table]
    mid = p.arc_point(np.arange(4), 0.0)
    out = []
    with mp.workdps(60):
        for w in words.T.tolist():
            x = mp.mpc(complex(mid[w[-1]]))
            for s in w[-2::-1]:
                x = (coef[0][s] * x + coef[1][s]) / (coef[2][s] * x + coef[3][s])
                x /= abs(x)
            out.append(x)
    return out


def _stepwise(p, z, cols):
    """Unit points z pulled back through the symbol rows cols, last row first."""
    for sym in cols[::-1]:
        z, _ = p.inverse_branch(sym, z)
        z = z / np.abs(z)
    return z


def test_folded_heads_are_as_accurate_as_step_by_step():
    # depth 6, word length 14: the full fold pulls each state's h = 5 heads
    # back onto the rest of its word
    bound_failed = {}
    for cuffs in [(A_HALF,) * 3, (0.2, 1.0, 12.0), (20.0,) * 3, (0.05,) * 3]:
        p, chain = _sampler_chain(cuffs, 6)
        words = chain.skeleton.cover.words
        heads = words.T.astype(np.intp)
        maps = projlab._fold_table(p, chain, 5)
        # the full fold's base image is the state's own word, step by step
        assert np.array_equal(maps[1], _stepwise(p, p.arc_point(heads[-1], 0.0), heads[:-1]))
        rng = np.random.Generator(np.random.Philox(key=5))
        idx = rng.integers(0, heads.shape[1], 300)
        states = projlab._chain_walk(chain)(idx, rng, 8, 1)
        word = np.vstack([heads[:, idx], words[states[1:], -1]]).astype(np.intp)
        z = _stepwise(p, p.arc_point(word[-1], 0.0), word[5:-1])
        u, v = np.ones(300, complex), np.zeros(300, complex)
        for sym in word[:5]:
            u, v = p.compose_branch(u, v, sym)
        composed = (u * z + v) / (v.conj() * z + u.conj())
        want = _words_60_digits(p, word)
        with mp.workdps(60):
            step, fold, comp = (
                max(float(abs(x - y)) for x, y in zip(want, got.tolist()))
                for got in (_stepwise(p, z, word[:5]), projlab._fold(maps, z, idx), composed / np.abs(composed))
            )
        assert fold <= 2.0 * step + 4e-16, cuffs
        bound_failed[cuffs] = comp > 2.0 * step + 4e-16
    # the bound rejects the composed coefficients at short cuffs (3e-11
    # against 5e-14 step by step)
    assert bound_failed[(0.2, 1.0, 12.0)]


def _extend_words_stepwise(chain, idx, rng, total_len):
    """_extend_words with its draw rows taken up front, as one (steps, n) block."""
    words = chain.skeleton.cover.words
    cum = np.cumsum(chain.transition_probs, axis=1)[:, :2]
    cur, out = idx, [words[idx]]
    for r in rng.random((total_len - chain.depth, len(idx))):
        cur = chain.skeleton.cols[cur, (r[:, None] > cum[cur]).sum(axis=1)]
        out.append(words[cur, -1:])
    return np.hstack(out).astype(np.uint8)


@pytest.mark.parametrize("total_len", [6, 14, 48])
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_extend_words_draws_what_a_block_of_rows_draws(pants_half, seed, total_len):
    chain = thermo.gibbs_chain(pants_half, 0.5, 6)
    idx = np.random.default_rng(seed).integers(0, len(chain.stationary), 2_000)
    got = projlab._extend_words(chain, idx, np.random.Generator(np.random.Philox(key=seed)), total_len)
    want = _extend_words_stepwise(chain, idx, np.random.Generator(np.random.Philox(key=seed)), total_len)
    assert np.array_equal(got, want)


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
def test_box_counts_equal_the_unique_oracle(seed, monkeypatch):
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
    scale_lists = [projlab.BOX_SCALES, np.array([0.3, 0.07, 0.05, 0.011, 0.0023, 1.7e-3]),
                   2.0 ** -np.arange(1, 11)]
    for cloud in clouds:
        xy_c = np.stack([cloud.real, cloud.imag], axis=-1) if np.iscomplexobj(cloud) else cloud
        for scales in scale_lists:
            monkeypatch.setattr(projlab, "BOX_SCALES", scales)
            fit = box_dimension(cloud, min_points=1)
            want = _box_counts_oracle(xy_c, fit.scales)
            assert fit.counts.dtype == want.dtype
            assert np.array_equal(fit.counts, want)


def test_box_counts_over_several_chunks_equal_the_unique_oracle():
    rng = np.random.default_rng(60)
    n = 3 * CHUNK + 11
    pts = 0.9 * np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))
    # both minima and both maxima in the last chunk, away from its start
    pts[-3:] = [-0.97 - 0.2j, 0.1 - 0.98j, 0.99 + 0.95j]
    xy = np.stack([pts.real, pts.imag], axis=-1)
    for cloud in (pts, xy):
        fit = box_dimension(cloud, min_points=1)
        assert np.array_equal(fit.counts, _box_counts_oracle(xy, fit.scales))


def test_box_dimension_memory_is_bounded_by_a_chunk():
    rng = np.random.default_rng(61)
    pts = rng.random(10**6) + 1j * rng.random(10**6)
    _, peak = _traced_peak(lambda: box_dimension(pts))
    # whole-cloud temporaries took 38 MiB
    assert peak < 4 * 2**20


def test_box_dimension_refuses_a_grid_above_the_cap(monkeypatch):
    pts = np.random.default_rng(57).random(1000) + 1j * np.random.default_rng(58).random(1000)
    pts[:2] = [0.0, 1.0 + 1.0j]  # the cloud spans [0, 1]^2
    # 2^-13 needs 8193^2 cells, just above 2^26; 2^-12 needs 4097^2
    msg = r"scale 0\.0001220703125 needs a 8193 x 8193 grid, above BOX_COUNT_MAX_CELLS = 67108864"
    monkeypatch.setattr(projlab, "BOX_SCALES", 2.0 ** -np.arange(1, 14))
    with pytest.raises(GeometryError, match=msg):
        box_dimension(pts, min_points=1)
    monkeypatch.setattr(projlab, "BOX_SCALES", 2.0 ** -np.arange(1, 13))
    assert box_dimension(pts, min_points=1).counts[-1] <= 1000
    # a scale so small that the grid side overflows to infinity
    monkeypatch.setattr(projlab, "BOX_SCALES", np.array([0.5, 0.25, 0.125, 1e-320]))
    with np.errstate(over="ignore"), pytest.raises(GeometryError, match="inf x inf grid"):
        box_dimension(pts, min_points=1)


def test_box_dimension_refuses_non_finite_points():
    pts = np.random.default_rng(59).random(100_000) + 0.5j
    pts[[3, 70, 900]] = [complex(math.nan, 0.1), complex(0.2, math.inf), complex(-math.inf, math.nan)]
    with pytest.raises(GeometryError, match="3 are not"):
        box_dimension(pts)
    xy = np.stack([pts.real, pts.imag], axis=-1)
    with pytest.raises(GeometryError, match="3 are not"):
        box_dimension(xy)


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


def test_point_cloud_bytes_over_several_chunks(tmp_path):
    rng = np.random.default_rng(62)
    n = 3 * CHUNK + 7
    pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xy = np.stack([pts.real, pts.imag], axis=-1)
    want = projlab.POINT_CLOUD_MAGIC + xy.astype("<f8").tobytes()
    path = tmp_path / "cloud.bin"
    for cloud in (pts, xy):  # complex, and real (N, 2)
        write_point_cloud(str(path), cloud)
        assert path.read_bytes() == want
        assert np.array_equal(read_point_cloud(str(path)), pts)


def test_point_cloud_write_memory_is_bounded_by_a_chunk(tmp_path):
    rng = np.random.default_rng(63)
    pts = rng.random(10**6) + 1j * rng.random(10**6)
    path = tmp_path / "cloud.bin"
    _, peak = _traced_peak(lambda: write_point_cloud(str(path), pts))
    # a stack, its little-endian copy and the bytes took about 48 MiB
    assert peak < 4 * 2**20
    assert path.stat().st_size == 8 + 16 * 10**6


def test_point_cloud_magic_checked(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
    with pytest.raises(GeometryError):
        read_point_cloud(str(path))


def test_point_cloud_round_trip_is_bitwise(tmp_path):
    parts = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1.0, -2.5]
    pts = np.array([complex(x, y) for x in parts for y in parts])
    path = tmp_path / "cloud.bin"
    write_point_cloud(str(path), pts)
    back = read_point_cloud(str(path))
    # 1 + inf i read back as nan + inf i, and an imaginary -0.0 as +0.0
    assert back.dtype == complex
    assert np.array_equal(back.real.view(np.uint64), pts.real.view(np.uint64))
    assert np.array_equal(back.imag.view(np.uint64), pts.imag.view(np.uint64))


def test_point_cloud_partial_payload_is_refused(tmp_path):
    path = tmp_path / "cloud.bin"
    write_point_cloud(str(path), np.arange(10) + 1j)
    whole = path.read_bytes()
    for cut in (3, 8):  # a partial double, and half of a point
        path.write_bytes(whole[:-cut])
        with pytest.raises(GeometryError, match=f"payload of {160 - cut} bytes"):
            read_point_cloud(str(path))


def test_point_cloud_read_memory_is_the_result(tmp_path):
    rng = np.random.default_rng(64)
    path = tmp_path / "cloud.bin"
    write_point_cloud(str(path), rng.random(10**6) + 1j * rng.random(10**6))
    back, peak = _traced_peak(lambda: read_point_cloud(str(path)))
    # the file's bytes, their float view and a complex temporary traced 2x
    assert peak < 1.2 * back.nbytes
