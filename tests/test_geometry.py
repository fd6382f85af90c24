"""Geodesics, sides, perpendiculars, distances and chord clipping."""

import cmath
import math

import numpy as np
import pytest

from cuffdim import build_pants
from cuffdim.hyperbolic import (
    CLIP_EPS,
    BoundaryPoint,
    DiskPoint,
    Geodesic,
    GeometryError,
    _mink,
    clip_chord,
    common_perpendicular,
    geodesic_from_endpoints,
    hyp_distance,
    lift_light,
    signed_side,
)

from conftest import A_HALF, random_disk_point, random_mobius


def test_diameters_from_antipodal_endpoints():
    g = geodesic_from_endpoints(0.0, math.pi)
    assert g.is_diameter
    v = geodesic_from_endpoints(math.pi / 2, 3 * math.pi / 2)
    assert v.is_diameter


def test_quarter_arc_center_and_orthogonality():
    g = geodesic_from_endpoints(0.0, math.pi / 2)
    assert not g.is_diameter
    assert abs(g.center - (1.0 + 1.0j)) < 1e-12
    # orthogonal circles satisfy |center|^2 = 1 + radius^2
    assert abs(abs(g.center) ** 2 - 1.0 - g.radius**2) < 1e-10


def test_random_arcs_meet_circle_orthogonally():
    rng = np.random.default_rng(20)
    for _ in range(50):
        a = rng.uniform(0.0, 2.0 * math.pi)
        b = a + rng.uniform(0.1, math.pi - 0.1)
        g = geodesic_from_endpoints(a, b)
        if g.is_diameter:
            continue
        assert abs(abs(g.center) ** 2 - 1.0 - g.radius**2) < 1e-10


def test_coincident_endpoints_rejected():
    with pytest.raises(GeometryError):
        geodesic_from_endpoints(1.0, 1.0)


def test_boundary_point_normalization():
    assert BoundaryPoint(2.0 * math.pi + 0.5).theta == pytest.approx(0.5)
    assert 0.0 <= BoundaryPoint(-1.0).theta < 2.0 * math.pi


def test_disk_point_rejects_boundary():
    with pytest.raises(GeometryError):
        DiskPoint(1.0 + 0.0j)
    with pytest.raises(GeometryError):
        DiskPoint(0.9999999999999j * 1.0000000001)


def test_signed_side_center_convention():
    g = geodesic_from_endpoints(0.3, 1.1)  # arc geodesic away from the origin
    assert signed_side(g, 0.0 + 0.0j) == 1
    # the point of the realized arc toward the arc midpoint lies on it
    mid_angle = 0.5 * (0.3 + 1.1)
    direction = cmath.exp(1j * mid_angle) - g.center
    on_g = g.center + g.radius * direction / abs(direction)
    assert signed_side(g, on_g) == 0


def test_signed_side_diameter_convention():
    # horizontal diameter: +1 side contains the upper boundary midpoint
    g = geodesic_from_endpoints(0.0, math.pi)
    assert signed_side(g, 0.5j) == 1
    assert signed_side(g, -0.5j) == -1
    assert signed_side(g, 0.2 + 0.0j) == 0


def _reflect(g: Geodesic, z: complex) -> complex:
    if g.is_diameter:
        axis = cmath.exp(1j * g.p.theta)
        return axis * (z / axis).conjugate()
    return g.center + g.radius**2 / (z - g.center).conjugate()


def test_signed_side_flips_under_reflection():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = rng.uniform(0.0, 2.0 * math.pi)
        b = a + rng.uniform(0.2, math.pi)
        g = geodesic_from_endpoints(a, b)
        z = random_disk_point(rng)
        s = signed_side(g, z)
        if s == 0:
            continue
        zr = _reflect(g, z)
        assert abs(zr) < 1.0
        assert signed_side(g, zr) == -s


def test_hyp_distance_closed_form_and_axioms():
    assert hyp_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0
    r = 0.5
    assert abs(hyp_distance(0.0j, r + 0.0j) - math.log((1 + r) / (1 - r))) < 1e-14
    rng = np.random.default_rng(22)
    for _ in range(30):
        z1, z2, z3 = (random_disk_point(rng) for _ in range(3))
        d12 = hyp_distance(z1, z2)
        assert abs(d12 - hyp_distance(z2, z1)) < 1e-13
        assert d12 <= hyp_distance(z1, z3) + hyp_distance(z3, z2) + 1e-12


def test_hyp_distance_mobius_invariant():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = random_mobius(rng)
        z1, z2 = random_disk_point(rng), random_disk_point(rng)
        assert abs(hyp_distance(m(z1), m(z2)) - hyp_distance(z1, z2)) < 1e-10


def test_common_perpendicular_of_crossing_geodesics_rejected():
    g1 = geodesic_from_endpoints(0.0, math.pi)
    g2 = geodesic_from_endpoints(math.pi / 2, 3 * math.pi / 2)
    with pytest.raises(GeometryError):
        common_perpendicular(g1, g2)


def test_common_perpendicular_symmetric_pair_lies_on_axis():
    # each geodesic is itself symmetric about the vertical diameter, one
    # straddling the top of the circle and one the bottom: the common
    # perpendicular is forced onto the vertical diameter
    g1 = geodesic_from_endpoints(math.pi / 2 - 0.5, math.pi / 2 + 0.5)
    g2 = geodesic_from_endpoints(3 * math.pi / 2 - 0.8, 3 * math.pi / 2 + 0.8)
    res = common_perpendicular(g1, g2)
    p, q = res.geodesic.p.theta, res.geodesic.q.theta
    assert {round(p, 9), round(q, 9)} == {
        round(math.pi / 2, 9),
        round(3 * math.pi / 2, 9),
    }
    # and both feet sit on the imaginary axis
    assert abs(res.foot1.z.real) < 1e-12
    assert abs(res.foot2.z.real) < 1e-12


def test_common_perpendicular_mirror_pair_is_mirror_invariant():
    # a geodesic and its mirror image across the vertical diameter: the
    # perpendicular is mirror-invariant (endpoint set {t, pi - t}) and the
    # feet are mirror images of each other
    g1 = geodesic_from_endpoints(0.2, 1.0)
    g2 = geodesic_from_endpoints(math.pi - 1.0, math.pi - 0.2)
    res = common_perpendicular(g1, g2)
    p, q = res.geodesic.p.theta, res.geodesic.q.theta
    assert abs(((p + q) % (2.0 * math.pi)) - math.pi) < 1e-9
    assert abs(res.foot1.z + res.foot2.z.conjugate()) < 1e-9


def _points_on(g: Geodesic, count: int) -> np.ndarray:
    # sample the realized circular arc inside the disk
    phi_p = cmath.phase(g.p.point - g.center)
    phi_q = cmath.phase(g.q.point - g.center)
    dphi = (phi_q - phi_p) % (2.0 * math.pi)
    if dphi > math.pi:
        phi_p, dphi = phi_q, 2.0 * math.pi - dphi
    ts = np.linspace(1e-4, dphi - 1e-4, count)
    return g.center + g.radius * np.exp(1j * (phi_p + ts))


def test_common_perpendicular_distance_brute_force():
    g1 = geodesic_from_endpoints(0.1, 0.9)
    g2 = geodesic_from_endpoints(2.0, 3.4)
    res = common_perpendicular(g1, g2)
    pts1, pts2 = _points_on(g1, 120), _points_on(g2, 120)
    d = np.empty((len(pts1), len(pts2)))
    for i, z1 in enumerate(pts1):
        num = np.abs(z1 - pts2)
        den = np.sqrt((1 - abs(z1) ** 2) * (1 - np.abs(pts2) ** 2))
        d[i] = 2.0 * np.arcsinh(num / den)
    i, j = np.unravel_index(np.argmin(d), d.shape)
    # refine around the coarse minimizer
    phi1 = np.linspace(-1, 1, 201) * 2e-2
    best = d[i, j]
    z1s = pts1[i] + 0  # anchor; refine by local grids on both arcs
    loc1 = _points_on(g1, 4000)
    loc2 = _points_on(g2, 4000)
    m = np.full(len(loc1), np.inf)
    for k, z1 in enumerate(loc1):
        num = np.abs(z1 - loc2)
        den = np.sqrt((1 - abs(z1) ** 2) * (1 - np.abs(loc2) ** 2))
        m[k] = (2.0 * np.arcsinh(num / den)).min()
    brute = m.min()
    assert abs(brute - res.distance) < 1e-4
    # feet realize the distance and lie on the geodesics
    assert abs(hyp_distance(res.foot1, res.foot2) - res.distance) < 1e-10
    assert signed_side(g1, res.foot1) == 0
    assert signed_side(g2, res.foot2) == 0


def test_common_perpendicular_meets_both_orthogonally():
    g1 = geodesic_from_endpoints(0.1, 0.9)
    g2 = geodesic_from_endpoints(2.0, 3.4)
    res = common_perpendicular(g1, g2)
    n = res.geodesic.normal
    assert abs(_mink(n, g1.normal)) < 1e-9
    assert abs(_mink(n, g2.normal)) < 1e-9



def _clip_chord_oracle(l_back, l_fwd, normals):
    """clip_chord as first written: sides last, every mask built by np.where."""
    J = np.array([1.0, 1.0, -1.0])
    a = (l_back * J) @ normals.T
    b = (l_fwd * J) @ normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t_cross = 0.5 * np.log(-a / b)
    apos, aneg = a > CLIP_EPS, a < -CLIP_EPS
    bpos, bneg = b > CLIP_EPS, b < -CLIP_EPS
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
