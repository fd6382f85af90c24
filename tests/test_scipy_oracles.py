"""In-house numerics checked against scipy, used here as an oracle.

The package itself imports no scipy module; these tests hold the Markov
pressure root and the locus's Illinois refinement to ``brentq``, and the
KS statistic and the depth-n transfer products to the scipy results they
replace, bit for bit.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.stats import kstest

from cuffdim import thermo
from cuffdim.pants import build_pants
from cuffdim.projlab import ks_uniform_statistic
from cuffdim.thermo import pressure, pressure_root, transfer_matrix


@pytest.mark.parametrize("cuffs", [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0)])
@pytest.mark.parametrize("depth", [4, 6])
def test_pressure_root_matches_scipy_on_pressure(cuffs, depth):
    p = build_pants(cuffs)
    ref = brentq(lambda s: pressure(p, s, depth), 0.001, 0.999, xtol=1e-12, rtol=8.9e-16)
    assert abs(pressure_root(p, depth) - ref) < 1e-10


def test_pressure_root_stays_left_of_the_root(monkeypatch):
    # Brent's method evaluated s = 0.999, where the spectral gap may close.  Newton
    # from the left overshoots only by its slope's error: the left Perron vector is
    # solved to the square root of the right one's tolerance, loose on the first
    # steps, and the overshoot was 8.5e-9 at (2, 2, 2)
    seen = []
    orig = thermo.transfer_matrix

    def spy(p_, s, n):
        seen.append(s)
        return orig(p_, s, n)

    monkeypatch.setattr(thermo, "transfer_matrix", spy)
    for cuffs in [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0), (0.2, 1.0, 12.0), (20.0, 20.0, 20.0)]:
        seen.clear()
        root = pressure_root(build_pants(cuffs), 6)
        assert seen[0] == 0.001 and max(seen) <= root + 1e-7, (cuffs, root, max(seen))


def cubic(x):
    return x**3 - 2.0 * x - 5.0


@pytest.mark.parametrize(
    "f,lo,hi,xtol",
    [
        (cubic, 2.0, 3.0, 1e-12),
        (cubic, -1.0, 5.0, 1e-14),
        (cubic, 1.5, 100.0, 1e-3),
        (lambda x: math.exp(x) - 2.0, -50.0, 50.0, 1e-12),
        (lambda x: math.atan(x - 0.3), -10.0, 20.0, 1e-12),
    ],
    ids=["cubic", "cubic-wide", "cubic-loose", "exp", "atan"],
)
def test_illinois_matches_scipy_on_closed_forms(f, lo, hi, xtol):
    seen = []
    root = thermo._illinois(lambda x: seen.append(x) or f(x), lo, hi, f(lo), f(hi), xtol)
    assert abs(root - brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)) <= xtol
    # the locus reads delta at the root back from this last evaluation
    assert root == seen[-1]
    # a secant step that rounds onto an end bisects instead of repeating it
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize(
    "values",
    [
        np.random.default_rng(1).random(2000),
        np.random.default_rng(2).random(37) ** 2,
        np.round(np.random.default_rng(3).random(500), 2),  # many ties
        np.array([0.25, 0.25, 0.25, 0.0, 0.5]),
        np.array([0.3]),
        np.array([0.0]),
    ],
    ids=["random", "skewed", "tied", "small-tied", "n1", "n1-zero"],
)
def test_ks_statistic_matches_scipy(values):
    assert ks_uniform_statistic(values) == float(kstest(values, "uniform").statistic)


@pytest.mark.parametrize("cuffs", [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0)])
def test_transfer_products_match_csr(cuffs):
    """M x, x M and M' x equal scipy's CSR products of the same matrices, bit for bit."""
    p = build_pants(cuffs)
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for s in (0.0, 0.001, 0.57, 0.999):
            tm = transfer_matrix(p, s, n)
            nwords = len(tm.weights)
            csr = csr_matrix(
                (tm.weights.ravel(), tm.skeleton.cols.ravel(), np.arange(0, 3 * nwords + 1, 3)),
                shape=(nwords, nwords),
            )
            x = rng.uniform(0.1, 1.0, nwords)
            assert np.array_equal(tm.matvec(x), csr @ x)
            assert np.array_equal(tm.rmatvec(x), csr.T.tocsr() @ x)
            csr.data = (tm.weights * tm.skeleton.log_deriv).ravel()  # the s-derivative M'
            assert np.array_equal(tm.dmatvec(x), csr @ x)

