"""Chebyshev collocation of the transfer operator: delta and its oracles."""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from cuffdim import thermo
from cuffdim.hyperbolic import GeometryError
from cuffdim.pants import build_pants
from cuffdim.thermo import (
    barycentric_rows,
    collocation,
    collocation_nodes,
    hausdorff_delta,
    pressure_root,
)

from conftest import A_HALF

# triples where the depth ladder ended unconverged or stalled in power
# iteration for over a second at depths (4, 6, 8), tol 1e-4
LADDER_FAILURES = [
    (4.9, 7.2, 1.1),
    (2.7, 7.3, 1.0),
    (0.53, 7.37, 0.93),
    (0.37, 5.2, 3.1),
    (1.13, 0.58, 7.7),
    (0.67, 1.83, 6.47),
    (0.4, 8.0, 8.0),
]


# the 84 sorted triples of {0.01, 0.05, 0.2, 1, 5, 12, 20}^3; 5 of them cannot be built
GRID_VALUES = (0.01, 0.05, 0.2, 1.0, 5.0, 12.0, 20.0)
GRID = [
    (a, b, c)
    for i, a in enumerate(GRID_VALUES)
    for j, b in enumerate(GRID_VALUES[i:], i)
    for c in GRID_VALUES[j:]
]


def _collocation_loop(p, m):
    """interp and log_weight of the m-node collocation, one (arc j, branch tau) block at a time."""
    x, _ = thermo.chebyshev_nodes(m)
    interp = np.zeros((4 * m, 4 * m))
    log_weight = np.zeros((4 * m, 4))
    for j in range(4):
        z = p.arc_point(j, x)
        rows = slice(j * m, (j + 1) * m)
        for tau in range(4):
            if tau == j ^ 1:
                continue
            img, den = p.inverse_branch(tau, z)
            t = p.arc_coordinate(tau, np.angle(img))
            interp[rows, tau * m : (tau + 1) * m] = barycentric_rows(t, m)
            log_weight[rows, tau] = -2.0 * np.log(np.abs(den))
    return interp, log_weight


def _eigvals_lambda(p, s, m):
    """Largest real eigenvalue of the m-node collocation matrix at s, by LAPACK."""
    return float(np.linalg.eigvals(collocation(p, m).matrix(s)).real.max())


def _eigvals_root(p, m, guess):
    """Root of log lambda_m by Brent's method on LAPACK eigenvalues.

    The bracket is guess +- 0.01, widened to [0.001, 0.999] when that has
    no sign change.
    """

    def f(s):
        return math.log(_eigvals_lambda(p, s, m))

    lo, hi = max(0.001, guess - 0.01), min(0.999, guess + 0.01)
    if not f(lo) > 0.0 > f(hi):
        lo, hi = 0.001, 0.999
    return brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)


def _eigenfunction(p, s, m):
    """Positive leading eigenvector of the m-node collocation matrix at s."""
    vals, vecs = np.linalg.eig(collocation(p, m).matrix(s))
    h = vecs[:, int(np.argmax(vals.real))].real
    h = h / h[np.argmax(np.abs(h))]
    assert np.all(h > 0.0)
    return h


def _ratio_range(p, s, m, grid=4000):
    """min and max of (L_s h) / h over a grid on every arc.

    h is the collocation eigenfunction at s, interpolated between nodes;
    L_s is applied through the exact inverse branches.  For any positive
    h, min > 1 gives delta > s and max < 1 gives delta < s.
    """
    h = _eigenfunction(p, s, m)

    def h_at(tau, theta):
        rows = barycentric_rows(p.arc_coordinate(tau, theta), m)
        return rows @ h[tau * m : (tau + 1) * m]

    lo, hi = math.inf, -math.inf
    for j in range(4):
        theta = p.arcs[j, 0] + p.arc_len[j] * np.linspace(0.0, 1.0, grid)
        z = np.exp(1j * theta)
        lh = np.zeros(grid)
        for tau in range(4):
            if tau == j ^ 1:
                continue
            u, v, cv, cu = p._branches[tau]
            den = cv * z + cu
            lh += np.abs(den) ** (-2.0 * s) * h_at(tau, np.angle((u * z + v) / den))
        ratio = lh / h_at(j, theta)
        lo, hi = min(lo, float(ratio.min())), max(hi, float(ratio.max()))
    return lo, hi


def test_nodes_per_level(monkeypatch):
    assert [collocation_nodes(n) for n in range(4, 11)] == [16, 23, 32, 45, 64, 91, 128]
    for n in (0, 11):
        with pytest.raises(GeometryError):
            collocation_nodes(n)
    with pytest.raises(GeometryError):
        hausdorff_delta(build_pants((2.0, 2.0, 2.0)), depths=(4, 11))

    # every level is checked before any solve: 4 -> 6 converges, so a bad
    # later level used to be neither reached nor named
    def refuse(*args):
        raise AssertionError("solved before the levels were checked")

    monkeypatch.setattr(thermo, "collocation", refuse)
    for depths, bad in (((4, 6, 99), 99), ((0, 4), 0)):
        with pytest.raises(GeometryError, match=rf"collocation level {bad} outside \[1, 10\]"):
            hausdorff_delta(build_pants((2.0, 2.0, 2.0)), depths=depths)
    with pytest.raises(GeometryError, match="at least one collocation level"):
        hausdorff_delta(build_pants((2.0, 2.0, 2.0)), depths=())


def test_levels_must_strictly_increase(monkeypatch):
    # (4, 4) reported converged with gap 0, and (8, 4) a coarser root as converged
    def refuse(*args):
        raise AssertionError("solved before the ladder was checked")

    monkeypatch.setattr(thermo, "collocation", refuse)
    p = build_pants((0.2, 1.0, 12.0))
    for depths in ((4, 4), (8, 4), (4, 6, 6), (6, 8, 7)):
        with pytest.raises(GeometryError, match=rf"levels \({depths[0]}, .* do not strictly increase"):
            hausdorff_delta(p, depths=depths)


def test_barycentric_rows_reproduce_polynomials():
    m = 16
    x, _ = thermo.chebyshev_nodes(m)
    assert np.array_equal(barycentric_rows(x, m), np.eye(m))
    t = np.linspace(-1.0, 1.0, 101)
    poly = np.polynomial.chebyshev.Chebyshev(np.arange(1.0, m + 1.0))
    assert np.max(np.abs(barycentric_rows(t, m) @ poly(x) - poly(t))) < 1e-10


def test_branch_images_land_in_their_arc(pants123):
    x, _ = thermo.chebyshev_nodes(16)
    for j in range(4):
        z = np.exp(1j * (pants123.arcs[j, 0] + 0.5 * pants123.arc_len[j] * (1.0 + x)))
        assert np.all(np.abs(pants123.arc_coordinate(j, np.angle(z))) < 1.0)
        for tau in range(4):
            if tau == j ^ 1:
                continue
            u, v, cv, cu = pants123._branches[tau]
            t = pants123.arc_coordinate(tau, np.angle((u * z + v) / (cv * z + cu)))
            assert np.all(np.abs(t) <= 1.0)


@pytest.mark.parametrize("cuffs", [(2.0, 2.0, 2.0), (0.2, 1.0, 12.0), (A_HALF,) * 3, (20.0,) * 3])
def test_collocation_is_bit_identical_to_the_per_block_loop(cuffs):
    p = build_pants(cuffs)
    for m in (16, 23, 32, 64, 128):
        col = collocation(p, m)
        interp, log_weight = _collocation_loop(p, m)
        assert np.array_equal(col.interp, interp), m
        assert np.array_equal(col.log_weight, log_weight), m
        for s in (0.001, 0.5, 0.999):
            repeated = interp * np.repeat(np.exp(s * log_weight), m, axis=1)
            assert np.array_equal(col.matrix(s), repeated), (m, s)


def test_delta_result_reports_nodes_and_residual(pants222):
    res = hausdorff_delta(pants222, tol=1e-4, depths=(4, 6, 8))
    assert res.converged and res.depth_used == 6 and res.nodes == 32
    assert res.as_dict()["nodes"] == 32
    assert res.pressure_residual < 1e-12
    # power iteration and LAPACK differ by 2.4e-15 here
    lapack = abs(math.log(_eigvals_lambda(pants222, res.delta, 32)))
    assert abs(lapack - res.pressure_residual) <= 1e-13
    assert all(type(v) is float for v in (res.delta, res.last_gap, res.pressure_residual))
    assert type(res.converged) is bool


@pytest.mark.parametrize(
    "cuffs", [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0), (0.5, 0.5, 0.5), (5.0, 5.0, 5.0)]
)
def test_delta_inside_min_max_bracket(cuffs):
    p = build_pants(cuffs)
    res = hausdorff_delta(p, tol=1e-6, depths=(6, 8, 10))
    assert res.converged
    below, _ = _ratio_range(p, res.delta - 1e-8, res.nodes)
    _, above = _ratio_range(p, res.delta + 1e-8, res.nodes)
    assert below > 1.0, below - 1.0
    assert above < 1.0, above - 1.0


@pytest.mark.parametrize("cuffs", [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0), (A_HALF,) * 3])
def test_delta_within_depth_ten_ladder_gap(cuffs):
    p = build_pants(cuffs)
    r8, r10 = pressure_root(p, 8), pressure_root(p, 10)
    delta = hausdorff_delta(p, tol=1e-4, depths=(4, 6, 8)).delta
    assert abs(delta - r10) <= abs(r10 - r8)


@pytest.mark.parametrize("cuffs", LADDER_FAILURES)
def test_ladder_failures_converge_fast(cuffs):
    p = build_pants(cuffs)
    t0 = time.perf_counter()
    res = hausdorff_delta(p, tol=1e-4, depths=(4, 6, 8))
    elapsed = time.perf_counter() - t0
    assert res.converged
    assert elapsed < 0.5
    ref = _eigvals_root(p, collocation_nodes(10), res.delta)
    assert abs(res.delta - ref) < 1e-6


@pytest.mark.parametrize(
    "cuffs",
    [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0), (0.5,) * 3, (5.0,) * 3, (A_HALF,) * 3, (0.2, 1.0, 12.0)]
    + LADDER_FAILURES,
)
def test_delta_matches_the_eigvals_root(cuffs):
    p = build_pants(cuffs)
    res = hausdorff_delta(p)
    assert abs(res.delta - _eigvals_root(p, res.nodes, res.delta)) <= 1e-12


def test_levels_that_cannot_bracket_are_skipped():
    # log lambda_m(0.999) > 0 at m = 16 and 32: the root is under-resolved there
    for cuffs in [(0.05, 0.05, 0.05), (0.05, 0.05, 0.2)]:
        res = hausdorff_delta(build_pants(cuffs))
        assert [n for n, _ in res.roots] == [8, 10]
        assert res.last_gap == abs(res.roots[1][1] - res.roots[0][1])
        assert 0.001 + 1e-9 < res.delta < 0.999 - 1e-9
    # Newton from the left would step past 0.999: the error says the root lies above it
    with pytest.raises(
        GeometryError, match=r"root above 0\.999 at 128 nodes for cuffs \(0\.01, .* predicts s="
    ):
        hausdorff_delta(build_pants((0.01, 0.01, 0.01)))


def test_bracket_errors_name_the_end_the_root_lies_beyond(monkeypatch):
    # delta is 0.0693 at (20)^3 and 0.5700 at (2)^3: narrowed brackets miss each root
    monkeypatch.setattr(thermo, "PRESSURE_BRACKET", (0.5, 0.999))
    with pytest.raises(GeometryError, match=r"root below 0\.5 at 16 nodes for cuffs \(20"):
        hausdorff_delta(build_pants((20.0, 20.0, 20.0)), depths=(4,))
    monkeypatch.setattr(thermo, "PRESSURE_BRACKET", (0.001, 0.5))
    with pytest.raises(
        GeometryError, match=r"root above 0\.5 at 16 nodes for cuffs \(2.* predicts s=0\.5"
    ):
        hausdorff_delta(build_pants((2.0, 2.0, 2.0)), depths=(4,))


def test_nonpositive_two_sided_quotient_raises_a_named_error(monkeypatch):
    # a negative quotient <l, A r> / <l, r> once reached math.log, which raised a
    # bare ValueError.  The power iterations run on A, whose Perron vectors they
    # find, and the quotient is taken with -A, where it reads -lambda
    matrix, perron = thermo.Collocation.matrix, thermo._perron
    monkeypatch.setattr(thermo.Collocation, "matrix", lambda col, s: -matrix(col, s))
    monkeypatch.setattr(thermo, "_perron", lambda apply, *a: perron(lambda x: -apply(x), *a))
    p = build_pants((0.0003, 0.001, 20.0))
    for depths in ((4, 6), (4, 6, 8, 10)):
        t0 = time.perf_counter()
        with pytest.raises(
            GeometryError,
            match=r"^cuffs \(0\.0003, 0\.001, 20\.0\) at 16 nodes, s=.*two-sided quotient",
        ):
            hausdorff_delta(p, depths=depths)
        assert time.perf_counter() - t0 < 1.0


def test_newton_step_below_the_bracket_raises_before_evaluating_there(monkeypatch):
    # at 16 nodes the second step went from s = 0.1376 to -4.57, where the
    # quotient was then evaluated
    matrix, seen = thermo.Collocation.matrix, []

    def spy(col, s):
        seen.append(s)
        return matrix(col, s)

    monkeypatch.setattr(thermo.Collocation, "matrix", spy)
    p = build_pants((0.0003, 0.001, 20.0))
    with pytest.raises(
        GeometryError,
        match=r"^cuffs \(0\.0003, 0\.001, 20\.0\) at 16 nodes, s=0\.137.*Newton step -4\.7"
        r".* leaves the bracket below 0\.001 at s=-4\.57",
    ):
        hausdorff_delta(p, depths=(4, 6))
    assert min(seen) >= thermo.PRESSURE_BRACKET[0]


def test_delta_runs_no_lapack_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK eigensolver ran")

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert hausdorff_delta(build_pants((1.0, 2.0, 3.0))).converged


def test_tolerance_below_supported_raises(pants222):
    with pytest.raises(GeometryError, match="below the supported 1e-6"):
        hausdorff_delta(pants222, tol=5e-7)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_non_finite_or_non_positive_tolerances_are_refused(pants222, tol):
    # inf and nan passed the tol < 1e-6 check: inf stopped at the second
    # level as converged, whatever the gap
    with pytest.raises(GeometryError, match="tolerance"):
        hausdorff_delta(pants222, tol=tol, depths=(4, 6))
    with pytest.raises(GeometryError, match="locus tolerance"):
        thermo.solve_locus_symmetric(0.5, tol=tol, depths=(4, 6))


@pytest.mark.parametrize("cuffs", GRID, ids=lambda t: ",".join(f"{x:g}" for x in t))
def test_grid_triple_returns_or_fails_fast_with_a_name(cuffs):
    try:
        p = build_pants(cuffs)
    except GeometryError as exc:
        assert f"cuffs {cuffs}" in str(exc)
        return
    t0 = time.perf_counter()
    try:
        res = hausdorff_delta(p, tol=1e-6)
    except GeometryError as exc:
        assert f"cuffs {cuffs}" in str(exc) and "nodes" in str(exc)
    else:
        assert 0.001 + 1e-9 < res.delta < 0.999 - 1e-9
        assert res.pressure_residual < 1e-12
    assert time.perf_counter() - t0 < 2.0
