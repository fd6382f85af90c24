"""Moebius algebra: group laws, boundary action, translation length.

Classification by kind, axis and fixed points is a test oracle
(``conftest.classify_isometry``); the package keeps only the translation
length.
"""

import cmath
import functools
import math

import numpy as np
import pytest

from cuffdim.hyperbolic import GeometryError, MoebiusTransform

from conftest import classify_isometry, is_identity, random_mobius


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = random_mobius(rng)
        prod = m @ m.inverse()
        assert is_identity(prod)


def test_identity_is_neutral():
    rng = np.random.default_rng(2)
    e = MoebiusTransform(1.0, 0.0)
    for _ in range(20):
        n = random_mobius(rng)
        # the sign is canonical (Re u >= 0), so equal maps have close (u, v)
        for m in (e @ n, n @ e):
            assert abs(m.u - n.u) < 1e-14 and abs(m.v - n.v) < 1e-14


def test_compose_matches_pointwise_application():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = random_mobius(rng), random_mobius(rng)
        mn = m.compose(n)
        for theta in rng.uniform(0.0, 2.0 * math.pi, size=20):
            z = cmath.exp(1j * theta)
            assert abs(mn.apply(z) - m.apply(n.apply(z))) < 1e-10


def test_inverse_involution():
    rng = np.random.default_rng(4)
    assert is_identity(MoebiusTransform(1.0, 0.0).inverse())
    for _ in range(30):
        m = random_mobius(rng)
        mm = m.inverse().inverse()
        assert abs(mm.u - m.u) < 1e-13 and abs(mm.v - m.v) < 1e-13


def test_unit_circle_preserved():
    rng = np.random.default_rng(5)
    m = random_mobius(rng, spread=4.0)
    for theta in rng.uniform(0.0, 2.0 * math.pi, size=100):
        w = m.apply(cmath.exp(1j * theta))
        assert abs(abs(w) - 1.0) < 1e-12


def test_determinant_preserved_under_many_compositions():
    # 1e6 compositions with renormalization, on the same coefficient kernel
    rng = np.random.default_rng(6)
    seeds = [random_mobius(rng, spread=0.5) for _ in range(64)]
    u, v = 1.0 + 0.0j, 0.0j
    for k in range(1_000_000):
        s = seeds[k & 63]
        u, v = u * s.u + v * s.v.conjugate(), u * s.v + v * s.u.conjugate()
        det = abs(u) ** 2 - abs(v) ** 2
        scale = 1.0 / math.sqrt(det)
        u *= scale
        v *= scale
        if k % 4096 == 0:
            assert abs(abs(u) ** 2 - abs(v) ** 2 - 1.0) < 1e-9
    assert abs(abs(u) ** 2 - abs(v) ** 2 - 1.0) < 1e-9


def test_invalid_coefficients_rejected():
    with pytest.raises(GeometryError):
        MoebiusTransform(0.5, 1.0)  # |u| < |v|


def test_sign_canonicalization():
    m = MoebiusTransform(-2.0, 1.5j)
    assert m.u.real > 0


def test_classify_identity():
    info = classify_isometry(MoebiusTransform(1.0, 0.0))
    assert info.kind == "identity"
    assert info.translation_length == 0.0
    assert info.axis is None


def test_classify_halfplane_translation_standard_form():
    # diag(e^{t/2}, e^{-t/2}) on the half-plane, conjugated to the disk:
    # [[a, b], [c, d]] goes to u = (a + d + i(b - c))/2, v = (a - d - i(b + c))/2
    t = 1.0
    a, d = math.exp(t / 2), math.exp(-t / 2)
    m = MoebiusTransform(complex(0.5 * (a + d), 0.0), complex(0.5 * (a - d), 0.0))
    info = classify_isometry(m)
    assert info.kind == "hyperbolic"
    assert abs(info.translation_length - t) < 1e-12
    # a diameter: the axis's ideal endpoints are antipodal
    assert info.axis is not None and abs(info.axis[0] + info.axis[1]) < 1e-12


def test_classify_parabolic_and_elliptic():
    par = MoebiusTransform(1.0 + 0.5j, -0.5j)  # [[1, 1], [0, 1]] on the half-plane
    info = classify_isometry(par)
    assert info.kind == "parabolic"
    assert info.translation_length == 0.0
    ell = MoebiusTransform(cmath.exp(0.35j), 0)  # rotation by 0.7
    assert classify_isometry(ell).kind == "elliptic"


def test_translation_length_conjugation_invariant():
    rng = np.random.default_rng(9)
    m = MoebiusTransform.real_translation(1.7)
    for _ in range(20):
        k = random_mobius(rng)
        conj = k @ m @ k.inverse()
        assert abs(conj.translation_length - 1.7) < 1e-10


def test_translation_length_of_powers():
    rng = np.random.default_rng(10)
    for _ in range(10):
        m = random_mobius(rng)
        info = classify_isometry(m)
        if info.kind != "hyperbolic":
            continue
        for k in range(1, 6):
            m_k = functools.reduce(MoebiusTransform.__matmul__, [m] * k)
            assert abs(m_k.translation_length - k * m.translation_length) < 1e-8


def test_attracting_fixed_point_listed_first():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = random_mobius(rng)
        info = classify_isometry(m)
        if info.kind != "hyperbolic":
            continue
        att, rep = info.fixed_points
        # derivative 1/|conj(v) z + conj(u)|^2 < 1 at the attracting point, > 1
        # at the repelling one
        d_att, d_rep = (abs(m.v.conjugate() * z + m.u.conjugate()) ** -2 for z in (att, rep))
        assert d_att < 1.0 < d_rep
        assert abs(m.apply(att) - att) < 1e-9
        assert abs(m.apply(rep) - rep) < 1e-9


def test_translation_length_property_matches_the_classification():
    # hyperbolic maps agree bit for bit with 2 arccosh(|tr| / 2); the
    # identity, a parabolic and an elliptic map have length 0
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = random_mobius(rng, spread=6.0)
        assert m.translation_length == classify_isometry(m).translation_length
    assert MoebiusTransform(1.0, 0.0).translation_length == 0.0
    assert MoebiusTransform(1.0 + 0.5j, -0.5j).translation_length == 0.0
    assert MoebiusTransform(cmath.exp(0.35j), 0).translation_length == 0.0
