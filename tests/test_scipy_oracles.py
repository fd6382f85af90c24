"""In-house ports checked bit for bit against scipy, used here as an oracle.

The package itself imports no scipy module outside the sparse transfer
matrix; these tests hold the root finder and the KS statistic to the
scipy results they replace.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import kstest

from cuffdim import pants, thermo
from cuffdim.hyperbolic import GeometryError, _brentq
from cuffdim.pants import build_pants
from cuffdim.projlab import ks_uniform_statistic
from cuffdim.thermo import pressure


def assert_same_root(f, lo, hi, fa=None, fb=None, **kw):
    """Same root and the same sequence of evaluation points as scipy.

    Bracket-end values passed in as ``fa``/``fb`` spare those evaluations,
    so the sequence is then scipy's without them.
    """
    ours_x, theirs_x = [], []
    ours = _brentq(lambda x: ours_x.append(x) or f(x), lo, hi, fa=fa, fb=fb, **kw)
    theirs = brentq(lambda x: theirs_x.append(x) or f(x), lo, hi, **kw)
    assert ours == theirs, (ours, theirs)
    assert theirs_x[:2] == [lo, hi]
    skipped = [x for x, fx in ((lo, fa), (hi, fb)) if fx is not None]
    assert ours_x == [x for x in theirs_x[:2] if x not in skipped] + theirs_x[2:]


def cubic(x):
    return x**3 - 2.0 * x - 5.0


@pytest.mark.parametrize(
    "f,lo,hi,xtol,rtol",
    [
        (cubic, 2.0, 3.0, 1e-12, 8.9e-16),
        (cubic, -1.0, 5.0, 1e-14, 8.9e-16),
        (cubic, 1.5, 100.0, 1e-3, 1e-6),
        (lambda x: math.exp(x) - 2.0, -50.0, 50.0, 1e-12, 8.9e-16),
        (lambda x: math.atan(x - 0.3), -10.0, 20.0, 1e-12, 8.9e-16),
    ],
    ids=["cubic", "cubic-wide", "cubic-loose", "exp", "atan"],
)
def test_brentq_bit_equal_on_closed_forms(f, lo, hi, xtol, rtol):
    assert_same_root(f, lo, hi, xtol=xtol, rtol=rtol)


@pytest.mark.parametrize("cuffs", [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0)])
@pytest.mark.parametrize("depth", [4, 6])
def test_brentq_bit_equal_on_pressure(cuffs, depth):
    p = build_pants(cuffs)
    assert_same_root(
        lambda s: pressure(p, s, depth), 0.001, 0.999, xtol=1e-12, rtol=8.9e-16
    )


@pytest.mark.parametrize("cuffs", [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0), (0.5, 4.0, 7.5)])
def test_brentq_bit_equal_on_axis_gap(cuffs, monkeypatch):
    calls = []

    def spy(f, lo, hi, **kw):
        calls.append((f, lo, hi, kw))
        return _brentq(f, lo, hi, **kw)

    monkeypatch.setattr(pants, "_brentq", spy)
    build_pants(cuffs)
    assert calls
    for f, lo, hi, kw in calls:
        assert_same_root(f, lo, hi, **kw)


@pytest.mark.parametrize(
    "f,lo,hi",
    [(cubic, 2.0, 3.0), (lambda x: math.exp(x) - 2.0, -50.0, 50.0)],
    ids=["cubic", "exp"],
)
def test_brentq_with_end_values_skips_the_bracket_points(f, lo, hi):
    assert_same_root(f, lo, hi, fa=f(lo), fb=f(hi), xtol=1e-12, rtol=8.9e-16)
    p = build_pants((2.0, 2.0, 2.0))

    def g(s):
        return pressure(p, s, 4)

    assert_same_root(g, 0.001, 0.999, fa=g(0.001), fb=g(0.999), xtol=1e-12, rtol=8.9e-16)
    assert_same_root(g, 0.001, 0.999, fb=g(0.999), xtol=1e-12, rtol=8.9e-16)


def test_pressure_root_evaluates_each_point_once(monkeypatch):
    p = build_pants((1.0, 2.0, 3.0))
    seen = []

    def spy(p_, s, n):
        seen.append(s)
        return pressure(p_, s, n)

    monkeypatch.setattr(thermo, "pressure", spy)
    root = thermo.pressure_root(p, 6)
    scipy_x = []
    assert root == brentq(
        lambda s: scipy_x.append(s) or pressure(p, s, 6), 0.001, 0.999, xtol=1e-12, rtol=8.9e-16
    )
    assert seen == scipy_x
    assert len(set(seen)) == len(seen)


def test_brentq_returns_an_endpoint_root():
    assert _brentq(lambda x: x - 1.0, 1.0, 2.0, 1e-12, 8.9e-16) == 1.0
    assert _brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-12, 8.9e-16) == 1.0


def test_brentq_rejects_a_same_sign_bracket():
    with pytest.raises(GeometryError, match="no sign change"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 8.9e-16)


def test_brentq_raises_when_iterations_run_out():
    with pytest.raises(GeometryError, match="did not converge in 2"):
        _brentq(lambda x: math.exp(x) - 2.0, -50.0, 50.0, 1e-12, 8.9e-16, maxiter=2)
    assert issubclass(GeometryError, ValueError)


def test_brentq_raises_on_nan():
    with pytest.raises(GeometryError, match="NaN"):
        _brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12, 8.9e-16)


def test_brentq_raises_on_a_nan_end_value():
    with pytest.raises(GeometryError, match="NaN"):
        _brentq(lambda x: x - 0.7, 0.0, 1.0, 1e-12, 8.9e-16, fb=math.nan)


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
