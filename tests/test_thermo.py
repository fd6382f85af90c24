"""Pressure, dimension root, Gibbs weights, entropy identity, locus."""

import math

import numpy as np
import pytest

from cuffdim import thermo
from cuffdim.hyperbolic import GeometryError
from cuffdim.pants import build_pants
from cuffdim.symbolic import cylinder_cover, lex_rank
from cuffdim.thermo import (
    LOG3,
    cover_scaling_delta,
    entropy_identity_check,
    gibbs_chain,
    gibbs_measure,
    hausdorff_delta,
    moran_cover_counts,
    pressure,
    pressure_root,
    solve_locus,
    solve_locus_symmetric,
    transfer_matrix,
)

from conftest import A_HALF


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
        # the predecessor table lists each column's entries in ascending row order
        column = np.repeat(np.arange(nwords), 3).reshape(-1, 3)
        assert np.array_equal(skel.cols.ravel()[skel.pred], column)
        assert np.all(np.diff(skel.pred // 3, axis=1) > 0)
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
    mu = gibbs_measure(pants222, 0.0, 3)
    assert abs(mu.weights.sum() - 1.0) < 1e-12
    assert np.allclose(mu.symbol_marginals(), 0.25, atol=1e-12)
    # depth-1 cylinders all carry weight 1/4
    mu1 = gibbs_measure(pants222, 0.0, 1)
    assert np.allclose(mu1.weights, 0.25, atol=1e-12)


def test_gibbs_stationarity_proxy(pants222):
    mu = gibbs_measure(pants222, 0.57, 5)
    w = mu.cover.words.astype(np.int64)
    head = lex_rank(w[:, :-1])
    tail = lex_rank(w[:, 1:])
    n_sub = 4 * 3 ** (mu.depth - 2)
    head_marginal = np.zeros(n_sub)
    tail_marginal = np.zeros(n_sub)
    np.add.at(head_marginal, head, mu.weights)
    np.add.at(tail_marginal, tail, mu.weights)
    assert np.max(np.abs(head_marginal - tail_marginal)) < 1e-6


def test_gibbs_ahlfors_ratio_bounded(pants222):
    res = hausdorff_delta(pants222, tol=1e-5, depths=(6, 8))
    mu = gibbs_measure(pants222, res.delta, 8)
    ratios = mu.weights / mu.cover.lengths**res.delta
    assert ratios.max() / ratios.min() < 50.0


def test_gibbs_bar_symmetry(pants222, pants123):
    # reflection across the vertical diameter swaps every symbol with its
    # bar, so cylinder weights are exactly bar-invariant
    for p in (pants222, pants123):
        d = hausdorff_delta(p, tol=1e-4, depths=(5, 7)).delta
        mu = gibbs_measure(p, d, 6)
        idx = lex_rank(mu.cover.words.astype(np.int64) ^ 1)
        assert np.max(np.abs(mu.weights - mu.weights[idx])) < 1e-8


def test_gibbs_weights_track_branch_contraction(pants222):
    # bounded-distortion proxy: child weight over parent weight stays
    # within a bounded ratio of the branch contraction to the delta power
    res = hausdorff_delta(pants222, tol=1e-5, depths=(6, 8))
    mu8 = gibbs_measure(pants222, res.delta, 8)
    mu7 = gibbs_measure(pants222, res.delta, 7)
    parents = lex_rank(mu8.cover.words[:, :-1].astype(np.int64))
    ratio = mu8.weights / mu7.weights[parents]
    branch = (mu8.cover.lengths / mu7.cover.lengths[parents]) ** res.delta
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
    assert len(calls) == len(set(calls)) == 14


def test_locus_root_needs_a_converged_delta():
    # the scan brackets against the unconverged a = 0.359, but delta at the root converges
    a = solve_locus_symmetric(0.88, depths=(4, 6, 8))
    assert abs(a - 0.5851534820) < 1e-9
    a_scan = np.geomspace(0.2, 12.0, 8)[1]
    assert not thermo._delta_at((a_scan,) * 3, (4, 6, 8), tol=1e-5).converged
    # delta at this root has ladder gap 7.9e-5 >= 1e-5 over (4, 6, 8)
    with pytest.raises(GeometryError, match=r"cuffs \(0\.4991\d*, .*gap 7\.\d+e-05"):
        solve_locus_symmetric(0.9, depths=(4, 6, 8))
    # a deeper ladder converges there
    a = solve_locus_symmetric(0.9, depths=(6, 8, 10), a_range=(0.4, 12.0))
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


def test_locus_target_range_checked():
    with pytest.raises(GeometryError):
        solve_locus(1.0, 1.0, 0.99)
    with pytest.raises(GeometryError):
        solve_locus_symmetric(0.01)
