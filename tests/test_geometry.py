"""Side circles, normals, distances and chord clipping."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from cuffdim import build_pants
from cuffdim.hyperbolic import (
    CLIP_BLOCK,
    CLIP_EPS,
    GeometryError,
    MoebiusTransform,
    clip_chord,
    lift_light,
)
from cuffdim.pants import _angle, _disk_point, _distance, _side_ends, _side_normal, _svg_circle

from conftest import A_HALF, random_disk_point, random_mobius


def test_diameters_from_antipodal_endpoints():
    assert _svg_circle(0.0, math.pi) is None
    assert _svg_circle(math.pi / 2, 3 * math.pi / 2) is None


def test_quarter_arc_center_and_orthogonality():
    circle = _svg_circle(0.0, math.pi / 2)
    assert circle is not None
    center, radius = circle
    assert abs(center - (1.0 + 1.0j)) < 1e-12
    # orthogonal circles satisfy |center|^2 = 1 + radius^2
    assert abs(abs(center) ** 2 - 1.0 - radius**2) < 1e-10


def test_random_arcs_meet_circle_orthogonally():
    rng = np.random.default_rng(20)
    for _ in range(50):
        a = rng.uniform(0.0, 2.0 * math.pi)
        b = a + rng.uniform(0.1, math.pi - 0.1)
        circle = _svg_circle(a, b)
        if circle is None:
            continue
        center, radius = circle
        assert abs(abs(center) ** 2 - 1.0 - radius**2) < 1e-10


def test_coincident_endpoints_rejected():
    w = cmath.exp(1j)
    with pytest.raises(GeometryError, match="geodesic endpoints coincide"):
        _side_ends(MoebiusTransform(1.0, 0.0), (w, w))


def test_boundary_point_normalization():
    assert _angle(cmath.exp(1j * (2.0 * math.pi + 0.5))) == pytest.approx(0.5)
    assert 0.0 <= _angle(cmath.exp(-1j)) < 2.0 * math.pi
    # atan2 of -1e-300 reduces to exactly 2*pi, which the guard maps to 0
    assert _angle(complex(1.0, -1e-300)) == 0.0


def test_disk_point_rejects_boundary():
    with pytest.raises(GeometryError):
        _disk_point(1.0 + 0.0j)
    with pytest.raises(GeometryError):
        _disk_point(0.9999999999999j * 1.0000000001)


def test_hyp_distance_closed_form_and_axioms():
    assert _distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    r = 0.5
    assert abs(_distance(0.0j, r + 0.0j) - math.log((1 + r) / (1 - r))) < 1e-14
    rng = np.random.default_rng(22)
    for _ in range(30):
        z1, z2, z3 = (random_disk_point(rng) for _ in range(3))
        d12 = _distance(z1, z2)
        assert abs(d12 - _distance(z2, z1)) < 1e-13
        assert d12 <= _distance(z1, z3) + _distance(z3, z2) + 1e-12


def test_hyp_distance_mobius_invariant():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = random_mobius(rng)
        z1, z2 = random_disk_point(rng), random_disk_point(rng)
        assert abs(_distance(m(z1), m(z2)) - _distance(z1, z2)) < 1e-10


@pytest.mark.parametrize("gap", [1e-9, 1e-6, 1e-3, 1.0, math.pi, 6.0])
def test_normal_matches_extended_precision(gap):
    # the cross product of the endpoints' light vectors can lose the sign of
    # <n, n> at gaps near 1e-6; the arc's midpoint and half-length lose nothing
    for t in np.random.default_rng(21).uniform(0.0, 2.0 * math.pi, 20):
        tp, tq = t % (2.0 * math.pi), (t + gap) % (2.0 * math.pi)
        normal = np.array(_side_normal(tp, tq))
        with mp.workdps(50):
            tp, tq = mp.mpf(tp), mp.mpf(tq)
            n = [mp.sin(tp) - mp.sin(tq), mp.cos(tq) - mp.cos(tp), -mp.sin(tq - tp)]
            scale = mp.sqrt(n[0] ** 2 + n[1] ** 2 - n[2] ** 2)
            want = np.array([float(x / scale) for x in n])
        assert np.max(np.abs(normal - want)) <= 1e-12 * np.max(np.abs(want))


def _clip_chord_oracle(l_back, l_fwd, normals):
    """clip_chord as first written: sides last, every mask built by np.where;
    side i's products within CLIP_EPS * ||n_i||_1 of zero lie on the side."""
    J = np.array([1.0, 1.0, -1.0])
    a = (l_back * J) @ normals.T
    b = (l_fwd * J) @ normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cross = 0.5 * np.log(-a / b)
    eps = CLIP_EPS * np.abs(normals).sum(axis=1)
    apos, aneg = a > eps, a < -eps
    bpos, bneg = b > eps, b < -eps
    azero, bzero = ~(apos | aneg), ~(bpos | bneg)
    lower = np.where(aneg & bpos, t_cross, -np.inf)
    upper = np.where(apos & bneg, t_cross, np.inf)
    dead = (aneg & (bneg | bzero)) | (azero & bneg)
    lower = np.where(dead, np.inf, lower)
    return (
        np.max(lower, axis=-1),
        np.min(upper, axis=-1),
        np.argmax(lower, axis=-1),
        np.argmin(upper, axis=-1),
    )


def _assert_clip_matches_oracle(l_back, l_fwd, normals):
    got = clip_chord(l_back, l_fwd, normals)
    want = _clip_chord_oracle(l_back, l_fwd, normals)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(g, w)


@pytest.mark.parametrize("cuffs", [(2.0, 2.0, 2.0), (A_HALF,) * 3, (0.2, 1.0, 12.0)])
def test_clip_chord_matches_oracle_on_random_chords(cuffs):
    normals = build_pants(cuffs).interior_normals
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.0, 2.0 * math.pi, (2, 100_000))
    l_back, l_fwd = lift_light(np.exp(1j * theta[0])), lift_light(np.exp(1j * theta[1]))
    _assert_clip_matches_oracle(l_back, l_fwd, normals)
    # batches around the block size.  A block of one chord would go through
    # numpy's matrix-vector product, which rounds differently and changes
    # about one window in four of a block and a chord, so that size runs
    # over 20 windows
    for n in (1, CLIP_BLOCK - 1, CLIP_BLOCK, 3 * CLIP_BLOCK + 7):
        _assert_clip_matches_oracle(l_back[:n], l_fwd[:n], normals)
    for k in range(20):
        window = slice(k, k + CLIP_BLOCK + 1)
        _assert_clip_matches_oracle(l_back[window], l_fwd[window], normals)
    # the single (3,) chord and a (..., 3) batch keep their shapes
    for k in range(20):
        _assert_clip_matches_oracle(l_back[k], l_fwd[k], normals)
    _assert_clip_matches_oracle(l_back[:60].reshape(4, 15, 3), l_fwd[:60].reshape(4, 15, 3), normals)


def test_clip_chord_matches_oracle_at_the_eps_boundary():
    # with axis normals +-e_i every endpoint product is a lift coordinate
    # (the third one sign-flipped), so products land exactly on 0 and
    # +-CLIP_EPS as well as just inside and outside them
    normals = np.vstack([np.eye(3), -np.eye(3)])
    up, down = np.nextafter(CLIP_EPS, 1.0), np.nextafter(CLIP_EPS, 0.0)
    values = np.array([-1.0, -up, -CLIP_EPS, -down, 0.0, down, CLIP_EPS, up, 1.0, 0.5])
    rng = np.random.default_rng(4)
    l_back = rng.choice(values, (20_000, 3))
    l_fwd = rng.choice(values, (20_000, 3))
    _assert_clip_matches_oracle(l_back, l_fwd, normals)
    for k in range(20):
        _assert_clip_matches_oracle(l_back[k], l_fwd[k], normals)
    t_in, t_out, _, _ = clip_chord(l_back, l_fwd, normals)
    assert np.any(t_in < t_out) and np.any(t_in > t_out)
