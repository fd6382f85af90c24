import cmath
import math

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
