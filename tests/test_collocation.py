"""Chebyshev collocation of the transfer operator: delta and its oracles."""

import math
import time

import numpy as np
import pytest

from cuffdim import thermo
from cuffdim.hyperbolic import GeometryError
from cuffdim.pants import build_pants
from cuffdim.thermo import (
    arc_coordinate,
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
        rows = barycentric_rows(arc_coordinate(p, tau, theta), m)
        return rows @ h[tau * m : (tau + 1) * m]

    lo, hi = math.inf, -math.inf
    for j in range(4):
        theta = p._arc_lo[j] + p._arc_len[j] * np.linspace(0.0, 1.0, grid)
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


def test_nodes_per_level():
    assert [collocation_nodes(n) for n in range(4, 11)] == [16, 23, 32, 45, 64, 91, 128]
    for n in (0, 11):
        with pytest.raises(GeometryError):
            collocation_nodes(n)
    with pytest.raises(GeometryError):
        hausdorff_delta(build_pants((2.0, 2.0, 2.0)), depths=(4, 11))


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
        z = np.exp(1j * (pants123._arc_lo[j] + 0.5 * pants123._arc_len[j] * (1.0 + x)))
        assert np.all(np.abs(arc_coordinate(pants123, j, np.angle(z))) < 1.0)
        for tau in range(4):
            if tau == j ^ 1:
                continue
            u, v, cv, cu = pants123._branches[tau]
            t = arc_coordinate(pants123, tau, np.angle((u * z + v) / (cv * z + cu)))
            assert np.all(np.abs(t) <= 1.0)


def test_delta_result_reports_nodes_and_residual(pants222):
    res = hausdorff_delta(pants222, tol=1e-4, depths=(4, 6, 8))
    assert res.converged and res.depth_used == 6 and res.nodes == 32
    assert res.as_dict()["nodes"] == 32
    assert res.pressure_residual < 1e-12
    col = collocation(pants222, 32)
    assert abs(math.log(col.eigenvalue(res.delta))) == res.pressure_residual


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
    ref, _ = thermo._collocation_root(p, collocation_nodes(10), res.delta)
    assert abs(res.delta - ref) < 1e-6
