"""Word products and suspension sums held to 60-digit lengths.

The reference length of a cyclically reduced word is 2 acosh(|tr w| / 2)
of the product of the stored generators, computed in mpmath at 60 digits
after each generator is renormalized to |u|^2 - |v|^2 = 1 there.  The
package's ``word_to_element`` multiplies the same coefficients raw in
doubles, and ``periodic_suspension_sum`` times the word's chords through
the octagon, so both must read the reference length.  A generator's powers
share its axis, which runs along an octagon side, so their chords also
test the side rule's zero band.
"""

import itertools

import mpmath as mp
import numpy as np
import pytest

from cuffdim import build_pants, validate_pants
from cuffdim.pants import BBAR, BETA
from cuffdim.symbolic import GeodesicPair, cutting_sequence_trace, periodic_suspension_sum, word_to_element

from conftest import random_reduced_word

SHORT = [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (5.0, 5.0, 5.0)]
LONG = [(0.2, 1.0, 12.0), (5.0, 12.0, 20.0), (20.0, 20.0, 20.0)]


def mp_length(p, word, dps=60) -> float:
    with mp.workdps(dps):
        u, v = mp.mpc(1), mp.mpc(0)
        for s in word:
            gu, gv = mp.mpc(p.gens[s].u), mp.mpc(p.gens[s].v)
            scale = mp.sqrt(abs(gu) ** 2 - abs(gv) ** 2)
            gu, gv = gu / scale, gv / scale
            u, v = u * gu + v * mp.conj(gv), u * gv + v * mp.conj(gu)
        return float(2 * mp.acosh(abs(mp.re(u))))


def cyclic_words(max_len: int):
    """Every cyclically reduced word of 1 to max_len letters."""
    for k in range(1, max_len + 1):
        for w in itertools.product(range(4), repeat=k):
            if all(w[i + 1] != w[i] ^ 1 for i in range(k - 1)) and w[0] != w[-1] ^ 1:
                yield w


def seeded_words(rng, count: int, max_len: int) -> list:
    words = []
    while len(words) < count:
        w = random_reduced_word(rng, int(rng.integers(1, max_len + 1)))
        if w[0] != w[-1] ^ 1:
            words.append(w)
    return words


def worst_word_error(p, words) -> float:
    return max(abs(word_to_element(p, w).translation_length - mp_length(p, w)) / mp_length(p, w)
               for w in words)


@pytest.mark.parametrize("cuffs, tol", [(c, 1e-9) for c in SHORT] + [(c, 1e-8) for c in LONG],
                         ids=["1-1-1", "2-2-2", "5-5-5", "0.2-1-12", "5-12-20", "20-20-20"])
def test_word_to_element_matches_60_digit_lengths(cuffs, tol):
    # the renormalizing product was off by up to 48% at (5,12,20), where
    # 149 of 150 words up to 8 letters raised
    p = build_pants(cuffs)
    for w in cyclic_words(8):
        ell = word_to_element(p, w).translation_length
        assert 0.0 < ell < float("inf"), w
    assert worst_word_error(p, seeded_words(np.random.default_rng(140), 60, 8)) <= tol


def test_word_to_element_matches_60_digit_lengths_on_box_triples():
    rng = np.random.default_rng(141)
    for _ in range(200):
        p = build_pants(tuple(rng.uniform(0.3, 5.0, 3)))
        assert worst_word_error(p, seeded_words(rng, 15, 8)) <= 1e-9, p.cuffs


@pytest.mark.parametrize(
    "cuffs, tol",
    [((2.0, 2.0, 2.0), 1e-12), ((1.0, 2.0, 3.0), 1e-12), ((5.0, 5.0, 5.0), 1e-12)]
    + [(c, 1e-8) for c in LONG],
    ids=["2-2-2", "1-2-3", "5-5-5", "0.2-1-12", "5-12-20", "20-20-20"],
)
def test_periodic_suspension_sum_matches_60_digit_lengths(cuffs, tol):
    p = build_pants(cuffs)
    rng = np.random.default_rng(142)
    done = 0
    while done < 40:
        (w,) = seeded_words(rng, 1, 5)
        ell = mp_length(p, w)
        assert abs(periodic_suspension_sum(p, w) - ell) <= tol * ell, w
        done += 1


def test_b4_axis_along_a_side_crosses_the_octagon():
    # at (0.2, 1, 12) the axis of g_beta^4, which is g_beta's, runs along a
    # side; its products sit 4.5e-13 from zero, inside that side's zero band
    p = build_pants(LONG[0])
    for k in (1, 2, 3, 4):
        for w in ((BETA,) * k, (BBAR,) * k):
            assert abs(periodic_suspension_sum(p, w) - 0.2 * k) < 1e-8


GRID = (0.01, 0.05, 0.2, 1.0, 5.0, 12.0, 20.0)


def test_generator_powers_cross_on_every_validated_grid_triple():
    # b^k and B^k share g_beta's axis, which carries a side of length a: each
    # of the k chords reads a within 1e-8, however large the side normals
    # (1-norms up to 1.6e5 at (0.01)^3)
    validated = 0
    for cuffs in itertools.combinations_with_replacement(GRID, 3):
        p = build_pants(cuffs)
        if not validate_pants(p).passed:
            continue
        validated += 1
        for k in range(1, 7):
            for w in ((BETA,) * k, (BBAR,) * k):
                assert abs(periodic_suspension_sum(p, w) - k * cuffs[0]) <= k * 1e-8, (cuffs, w)
        assert cutting_sequence_trace(p, GeodesicPair.periodic((BETA,)), 8) == (BETA,) * 8, cuffs
    assert validated == 51
