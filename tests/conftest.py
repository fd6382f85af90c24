import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from cuffdim import build_pants
from cuffdim.hyperbolic import MoebiusTransform

# cuff length of the symmetric pants whose limit set has dimension 1/2,
# solved once by the locus routine and frozen for reuse across tests
A_HALF = 2.4350334764413515


def random_mobius(rng: np.random.Generator, spread: float = 2.0) -> MoebiusTransform:
    """Random disk automorphism via rotation-translation-rotation.

    The rotation by psi about the origin is (u, v) = (exp(i psi / 2), 0).
    """
    return (
        MoebiusTransform(cmath.exp(0.5j * rng.uniform(0.0, 2.0 * math.pi)), 0)
        @ MoebiusTransform.real_translation(rng.uniform(-spread, spread))
        @ MoebiusTransform(cmath.exp(0.5j * rng.uniform(0.0, 2.0 * math.pi)), 0)
    )


def is_identity(m: MoebiusTransform, tol: float = 1e-12) -> bool:
    return abs(m.u - 1.0) <= tol and abs(m.v) <= tol


def trace(m: MoebiusTransform) -> float:
    return 2.0 * m.u.real


@dataclass(frozen=True)
class IsometryInfo:
    kind: str  # identity | elliptic | parabolic | hyperbolic
    translation_length: float
    axis: tuple[complex, complex] | None  # ideal endpoints (attracting, repelling)
    fixed_points: tuple[complex, ...]


def classify_isometry(m: MoebiusTransform) -> IsometryInfo:
    """Oracle: classify by trace; hyperbolic maps carry their axis.

    The axis endpoints are the boundary fixed points with the attracting
    one listed first.  Translation length is 2*arccosh(|tr|/2); |tr|
    within 1e-9 of 2 is parabolic.
    """
    if is_identity(m):
        return IsometryInfo("identity", 0.0, None, ())
    tr = abs(trace(m))
    if abs(tr - 2.0) <= 1e-9:
        fix = ((1j * m.u.imag) / m.v.conjugate(),) if abs(m.v) > 0 else ()
        return IsometryInfo("parabolic", 0.0, None, fix)
    if tr < 2.0:
        return IsometryInfo("elliptic", 0.0, None, ())
    s = math.sqrt(m.u.real ** 2 - 1.0)
    att = (1j * m.u.imag + s) / m.v.conjugate()
    rep = (1j * m.u.imag - s) / m.v.conjugate()
    return IsometryInfo("hyperbolic", 2.0 * math.acosh(0.5 * tr), (att, rep), (att, rep))


def random_disk_point(rng: np.random.Generator, rmax: float = 0.93) -> complex:
    r = rmax * math.sqrt(rng.uniform())
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def random_reduced_word(rng: np.random.Generator, k: int, first_not=None):
    word, prev = [], None
    for i in range(k):
        opts = [s for s in range(4) if s != prev and (i > 0 or s != first_not)]
        s = int(rng.choice(opts))
        word.append(s)
        prev = s ^ 1
    return tuple(word)


@pytest.fixture(scope="session")
def pants222():
    return build_pants((2.0, 2.0, 2.0))


@pytest.fixture(scope="session")
def pants111():
    return build_pants((1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def pants123():
    return build_pants((1.0, 2.0, 3.0))


@pytest.fixture(scope="session")
def pants_half():
    return build_pants((A_HALF, A_HALF, A_HALF))
