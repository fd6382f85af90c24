"""Pressure, dimension root, Gibbs weights, entropy identity, locus."""

import math
import time

import numpy as np
import pytest

from cuffdim import thermo
from cuffdim.hyperbolic import GeometryError
from cuffdim.pants import build_pants
from cuffdim.symbolic import cylinder_cover
from cuffdim.thermo import (
    LOG3,
    cover_scaling_delta,
    entropy_identity_check,
    gibbs_chain,
    hausdorff_delta,
    moran_cover_counts,
    pressure,
    pressure_root,
    solve_locus,
    solve_locus_symmetric,
    transfer_matrix,
)

from conftest import A_HALF
from test_symbolic import lex_rank


def test_transfer_matrix_structure(pants222):
    tm = transfer_matrix(pants222, 0.0, 3)
    cols = tm.skeleton.cols
    assert tm.weights.shape == cols.shape == (36, 3)
    # exactly three unit entries per row at s = 0, in distinct columns
    assert np.all(np.diff(np.sort(cols, axis=1), axis=1) > 0)
    assert np.allclose(tm.weights, 1.0)
    row_sums = tm.matvec(np.ones(36))
    assert np.allclose(row_sums, 3.0)
    # and exactly three per column, at every depth
    for n in (1, 2, 3, 4):
        skel = transfer_matrix(pants222, 0.0, n).skeleton
        nwords = len(skel.cols)
        assert np.all(np.bincount(skel.cols.ravel(), minlength=nwords) == 3)
    assert np.allclose(tm.rmatvec(np.ones(36)), 3.0)


def test_transfer_entries_decrease_in_s(pants222):
    d2 = transfer_matrix(pants222, 0.2, 4).weights
    d4 = transfer_matrix(pants222, 0.4, 4).weights
    d6 = transfer_matrix(pants222, 0.6, 4).weights
    assert np.all(d2 > d4) and np.all(d4 > d6)


def test_transfer_depth_and_exponent_bounds(pants222):
    with pytest.raises(GeometryError):
        transfer_matrix(pants222, 0.5, 11)
    with pytest.raises(GeometryError):
        transfer_matrix(pants222, -0.1, 4)
    with pytest.raises(GeometryError):
        transfer_matrix(pants222, 1.6, 4)


def test_pressure_at_zero_is_log3(pants222, pants111):
    for p in (pants222, pants111):
        for n in (1, 2, 4, 6):
            assert abs(pressure(p, 0.0, n) - LOG3) < 1e-9


def test_pressure_decreasing_and_convex(pants222):
    grid = np.linspace(0.0, 1.0, 11)
    vals = [pressure(pants222, s, 5) for s in grid]
    diffs = np.diff(vals)
    assert np.all(diffs < 0.0)
    second = np.diff(diffs)
    assert np.all(second > -1e-9)


def test_pressure_negative_at_one(pants222, pants111):
    assert pressure(pants222, 1.0, 6) < 0.0
    assert pressure(pants111, 1.0, 6) < 0.0


def test_pressure_root_unique_sign_change(pants222):
    vals = [pressure(pants222, s, 4) for s in np.arange(0.001, 1.0, 0.01)]
    signs = np.sign(vals)
    changes = np.sum(signs[:-1] != signs[1:])
    assert changes == 1


def test_pressure_failure_names_cuffs_depth_and_s():
    # the depth-5 power iteration at (0.2, 1, 12) stalls near s = 1
    p = build_pants((0.2, 1.0, 12.0))
    named = r"cuffs \(0\.2, 1\.0, 12\.0\) at depth 5, s=0\.999: power iteration"
    with pytest.raises(GeometryError, match=named):
        pressure(p, 0.999, 5)


@pytest.mark.parametrize(
    "cuffs",
    [(0.01, 1.0, 12.0), (0.05, 1.0, 12.0), (0.05, 1.0, 20.0), (0.05, 5.0, 20.0),
     (0.2, 1.0, 12.0), (0.2, 5.0, 20.0), (1.0, 5.0, 20.0), (20.0, 20.0, 20.0)],
)
def test_pressure_root_returns_fast_where_the_right_end_stalls(cuffs):
    # each stalled for 1.0-1.6 s in power iteration at s = 0.999, which
    # Newton from the left never evaluates
    p = build_pants(cuffs)
    t0 = time.perf_counter()
    root = pressure_root(p, 5)
    assert time.perf_counter() - t0 < 2.0
    assert 0.001 < root < 0.999
    assert abs(pressure(p, root, 5)) < 1e-12


def test_pressure_root_failures_name_the_end_and_the_depth(monkeypatch):
    p = build_pants((2.0, 2.0, 2.0))  # depth-5 root 0.570
    monkeypatch.setattr(thermo, "PRESSURE_BRACKET", (0.6, 0.999))
    with pytest.raises(GeometryError, match=r"root below 0\.6 at depth 5 for cuffs \(2\.0, "):
        pressure_root(p, 5)
    monkeypatch.setattr(thermo, "PRESSURE_BRACKET", (0.001, 0.5))
    with pytest.raises(GeometryError, match=r"root above 0\.5 at depth 5 for cuffs \(2\.0, "):
        pressure_root(p, 5)


def test_perron_raises_at_the_first_step_on_a_negative_sum():
    # the residual |y - lambda x| of -x is 0 at once, but lambda = -1 never
    # passed the stop test, so all 100,000 steps ran before the error
    t0 = time.perf_counter()
    with pytest.raises(GeometryError, match=r"^power sum -1\.0 at step 1 is not positive$"):
        thermo._perron(lambda x: -x, 8)
    assert time.perf_counter() - t0 < 1e-3
    with pytest.raises(GeometryError, match=r"^power sum nan at step 1 is not positive$"):
        thermo._perron(lambda x: x * math.nan, 8)


def test_root_refinement_gaps_shrink(pants222):
    roots = {n: pressure_root(pants222, n) for n in (4, 6, 8, 10)}
    g46 = abs(roots[4] - roots[6])
    g68 = abs(roots[6] - roots[8])
    g810 = abs(roots[8] - roots[10])
    assert g46 > g68 > g810


def test_hausdorff_delta_converges_and_reports(pants222):
    res = hausdorff_delta(pants222, tol=1e-4)
    assert res.converged
    assert 0.0 < res.delta < 1.0
    assert abs(res.delta - 0.56997) < 5e-4
    assert res.pressure_residual < 1e-10
    assert len(res.roots) >= 2
    with pytest.raises(GeometryError):
        hausdorff_delta(pants222, tol=1e-7)


def test_delta_decreases_with_cuff_length():
    d_small = hausdorff_delta(build_pants((0.5,) * 3), tol=1e-4, depths=(5, 7)).delta
    d_large = hausdorff_delta(build_pants((6.0,) * 3), tol=1e-4, depths=(5, 7)).delta
    assert d_small > d_large


def test_delta_permutation_invariance():
    d1 = hausdorff_delta(build_pants((1.0, 2.0, 3.0)), tol=1e-4, depths=(6, 8)).delta
    d2 = hausdorff_delta(build_pants((2.0, 3.0, 1.0)), tol=1e-4, depths=(6, 8)).delta
    assert abs(d1 - d2) < 2e-4


def test_cover_scaling_estimate_agrees(pants222):
    slope, diag = cover_scaling_delta(pants222)
    d = hausdorff_delta(pants222, tol=1e-5, depths=(6, 8)).delta
    assert abs(slope - d) < 0.02
    assert len(diag["counts"]) >= 6


def _minimal_cylinder_counts(p, eps):
    """Brute-force covering counts: cylinders shorter than eps whose parent is not.

    The parent of depth-(n+1) cover row i is depth-n row i // 3; depth-1
    cylinders have parent length 2 pi.
    """
    counts = np.zeros(len(eps), dtype=np.int64)
    parent = np.full(4, 2.0 * math.pi)
    n = 1
    while True:
        length = cylinder_cover(p, n).lengths
        counts += ((length[:, None] < eps) & (parent[:, None] >= eps)).sum(axis=0)
        if length.max() < eps.min():
            return counts
        parent = np.repeat(length, 3)
        n += 1


@pytest.mark.parametrize("cuffs", [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0), (5.0, 5.0, 5.0)])
def test_moran_counts_match_brute_force(cuffs):
    p = build_pants(cuffs)
    eps, counts = moran_cover_counts(p, 2.0 ** -np.arange(3, 12))
    assert np.array_equal(eps, 2.0 ** -np.arange(11, 2, -1))
    assert np.array_equal(counts, _minimal_cylinder_counts(p, eps))
    assert np.all(np.diff(counts) <= 0) and counts[-1] > 0


def test_gibbs_at_zero_is_maximal_entropy(pants222):
    mu = gibbs_chain(pants222, 0.0, 3)
    assert abs(mu.stationary.sum() - 1.0) < 1e-12
    assert np.allclose(np.bincount(mu.skeleton.cover.words[:, 0], mu.stationary), 0.25, atol=1e-12)
    # depth-1 cylinders all carry weight 1/4
    mu1 = gibbs_chain(pants222, 0.0, 1)
    assert np.allclose(mu1.stationary, 0.25, atol=1e-12)


def test_gibbs_stationarity_proxy(pants222):
    mu = gibbs_chain(pants222, 0.57, 5)
    w = mu.skeleton.cover.words.astype(np.int64)
    head = lex_rank(w[:, :-1])
    tail = lex_rank(w[:, 1:])
    n_sub = 4 * 3 ** (mu.depth - 2)
    head_marginal = np.zeros(n_sub)
    tail_marginal = np.zeros(n_sub)
    np.add.at(head_marginal, head, mu.stationary)
    np.add.at(tail_marginal, tail, mu.stationary)
    assert np.max(np.abs(head_marginal - tail_marginal)) < 1e-6


def test_gibbs_ahlfors_ratio_bounded(pants222):
    res = hausdorff_delta(pants222, tol=1e-5, depths=(6, 8))
    mu = gibbs_chain(pants222, res.delta, 8)
    ratios = mu.stationary / mu.skeleton.cover.lengths**res.delta
    assert ratios.max() / ratios.min() < 50.0


def test_gibbs_bar_symmetry(pants222, pants123):
    # reflection across the vertical diameter swaps every symbol with its
    # bar, so cylinder weights are exactly bar-invariant
    for p in (pants222, pants123):
        d = hausdorff_delta(p, tol=1e-4, depths=(5, 7)).delta
        mu = gibbs_chain(p, d, 6)
        idx = lex_rank(mu.skeleton.cover.words.astype(np.int64) ^ 1)
        assert np.max(np.abs(mu.stationary - mu.stationary[idx])) < 1e-8


def test_gibbs_weights_track_branch_contraction(pants222):
    # bounded-distortion proxy: child weight over parent weight stays
    # within a bounded ratio of the branch contraction to the delta power
    res = hausdorff_delta(pants222, tol=1e-5, depths=(6, 8))
    mu8 = gibbs_chain(pants222, res.delta, 8)
    mu7 = gibbs_chain(pants222, res.delta, 7)
    parents = lex_rank(mu8.skeleton.cover.words[:, :-1].astype(np.int64))
    ratio = mu8.stationary / mu7.stationary[parents]
    branch = (mu8.skeleton.cover.lengths / mu7.skeleton.cover.lengths[parents]) ** res.delta
    spread = (ratio / branch).max() / (ratio / branch).min()
    assert spread < 10.0


def test_entropy_identity(pants222):
    res = hausdorff_delta(pants222, tol=1e-5, depths=(6, 8))
    resid = entropy_identity_check(pants222, res.delta, 8)
    assert resid < 5e-3
    assert entropy_identity_check(pants222, res.delta + 0.05, 8) > resid * 10
    assert entropy_identity_check(pants222, res.delta - 0.05, 8) > resid * 10


def test_chain_lyapunov_positive(pants222):
    chain = gibbs_chain(pants222, 0.5, 6)
    chi = -float(
        np.sum(
            chain.stationary[:, None]
            * chain.transition_probs
            * chain.skeleton.log_deriv
        )
    )
    assert chi > 0.0


def test_solve_locus_symmetric_half():
    a = solve_locus_symmetric(0.5, tol=1e-3)
    assert abs(a - A_HALF) < 1e-6
    d10 = hausdorff_delta(build_pants((a, a, a)), tol=1e-6, depths=(10,)).delta
    assert abs(d10 - 0.5) < 5e-3


def test_locus_solves_each_point_once(monkeypatch):
    calls = []
    orig = thermo._delta_at

    def spy(cuffs, depths, tol):
        calls.append(cuffs)
        return orig(cuffs, depths, tol)

    monkeypatch.setattr(thermo, "_delta_at", spy)
    a = solve_locus_symmetric(0.5, depths=(4, 6))
    assert (a, a, a) in calls
    # 8 scan points and 7 Illinois points (Brent's method took 6)
    assert len(calls) == len(set(calls)) == 15


def test_locus_root_needs_a_converged_delta(monkeypatch):
    # the scan brackets against the unconverged a = 0.359, but delta at the root converges
    a = solve_locus_symmetric(0.88, depths=(4, 6, 8))
    assert abs(a - 0.5851534820) < 1e-9
    a_scan = np.geomspace(0.2, 12.0, 8)[1]
    assert not thermo._delta_at((a_scan,) * 3, (4, 6, 8), tol=1e-5).converged
    # delta at this root has ladder gap 7.9e-5 >= 1e-5 over (4, 6, 8)
    with pytest.raises(GeometryError, match=r"cuffs \(0\.4991\d*, .*gap 7\.\d+e-05"):
        solve_locus_symmetric(0.9, depths=(4, 6, 8))
    # a deeper ladder converges there
    monkeypatch.setattr(thermo, "LOCUS_A_RANGE", (0.4, 12.0))
    a = solve_locus_symmetric(0.9, depths=(6, 8, 10))
    assert abs(a - 0.4991165413) < 1e-9


def test_solve_locus_round_trip():
    c0 = 3.0
    target = hausdorff_delta(build_pants((1.0, 1.0, c0)), tol=1e-5, depths=(6, 8)).delta
    c = solve_locus(1.0, 1.0, target, tol=1e-3)
    assert abs(c - c0) < 1e-2


def test_solve_locus_reports_scan_on_failure():
    with pytest.raises(GeometryError) as err:
        solve_locus(8.0, 8.0, 0.9, tol=1e-3, depths=(5, 6))
    assert "scan" in str(err.value)


def test_locus_scan_names_each_failure():
    # the scan once listed "21.000: failed, 25.000: failed" and dropped why
    with pytest.raises(GeometryError) as err:
        thermo._bracketed_solve(lambda x: (x, 1.0, 1.0), [21.0, 25.0], 0.5, 1e-3, (4, 6), "locus in a")
    msg = str(err.value)
    assert "scan: 21.000: failed, 25.000: failed" in msg
    assert "failed: cuff length a=21.0 outside (0, 20]" in msg
    assert "failed: cuff length a=25.0 outside (0, 20]" in msg


def counted(f):
    """f and the list of points it was evaluated at."""
    seen = []
    return (lambda x: seen.append(x) or f(x)), seen


def test_illinois_refuses_a_bracket_finer_than_the_floats():
    # floats near 1e8 are 1.5e-8 apart, so the bracket can never narrow to xtol
    f, seen = counted(lambda x: (x - 1e8) ** 3 - 0.3)
    with pytest.raises(GeometryError, match="wider than 1e-10 in 102 steps"):
        thermo._illinois(f, 1e8, 1e8 + 1.0, f(1e8), f(1e8 + 1.0), 1e-10)
    assert len(seen) == 2 + 102  # 3 * ceil(log2(1 / 1e-10)) steps


def test_illinois_finishes_a_flat_root_by_bisection():
    # Illinois alone converges linearly on a ninefold root
    f, seen = counted(lambda x: (x - 0.3) ** 9)
    root = thermo._illinois(f, -1.0, 10.0, f(-1.0), f(10.0), 1e-10)
    assert abs(root - 0.3) <= 1e-10 and root == seen[-1]
    assert len(seen) == len(set(seen)) <= 2 + 3 * math.ceil(math.log2(11.0 / 1e-10))


def test_locus_target_range_checked():
    with pytest.raises(GeometryError):
        solve_locus(1.0, 1.0, 0.99)
    with pytest.raises(GeometryError):
        solve_locus_symmetric(0.01)
