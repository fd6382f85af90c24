"""Deep cutting-sequence traces held to an extended-precision oracle.

The package traces symbolic geodesic pairs in double precision by shift
renormalization.  The oracle here is the direct method run in mpmath:
realize both endpoints once, then push them forward through the expanding
generators crossing after crossing.  Its generators are renormalized to
|u|^2 - |v|^2 = 1 in mpmath first: the double-precision coefficients miss
that by about 1e-15, which moves pushed points off the circle, and the
expanding maps amplify the drift whatever the working precision.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from cuffdim import build_pants, hausdorff_delta
from cuffdim.hyperbolic import GeometryError, clip_chord, lift_light
from cuffdim.pants import CUFF_SIDE_INDICES, SEAM_SIDE_SYMBOL, bar
from cuffdim.projlab import _extend_words
from cuffdim.symbolic import GeodesicPair, Ray, _exit_side, _realize, cutting_sequence_trace
from cuffdim.thermo import gibbs_chain

from conftest import A_HALF

A_03 = 4.511068895181121  # symmetric cuff with delta = 0.3 (criterion 11)


def mp_trace(p, pair, n, depth, dps=80):
    """Forward crossing itinerary computed in mpmath with unit-determinant generators."""
    with mp.workdps(dps):
        gens = []
        for g in p.gens:
            u, v = mp.mpc(g.u), mp.mpc(g.v)
            scale = mp.sqrt(abs(u) ** 2 - abs(v) ** 2)
            gens.append((u / scale, v / scale))

        def act(m, z):
            u, v = m
            w = (u * z + v) / (mp.conj(v) * z + mp.conj(u))
            return w / abs(w)

        def realize(ray):
            if ray.period is not None:
                u, v = mp.mpc(1), mp.mpc(0)
                for s in reversed(ray.period):
                    gu, gv = gens[s]
                    u, v = u * gu + v * mp.conj(gv), u * gv + v * mp.conj(gu)
                disc = mp.sqrt((mp.conj(u) - u) ** 2 + 4 * mp.conj(v) * v)
                roots = [((u - mp.conj(u)) + sg * disc) / (2 * mp.conj(v)) for sg in (1, -1)]
                # the expanding return map fixes its repelling point
                z = min(roots, key=lambda r: abs(mp.conj(v) * r + mp.conj(u)))
                z, tail = z / abs(z), ray.prefix
            else:
                word = ray.prefix[:depth]
                lo, length = p.arcs[word[-1], 0], p.arc_len[word[-1]]
                m = mp.expj(mp.mpf(lo)) + mp.expj(mp.mpf(lo) + mp.mpf(length))
                z, tail = m / abs(m), word[:-1]
            for s in reversed(tail):
                u, v = gens[s]
                z = act((mp.conj(u), -v), z)
            return z

        z_fwd, z_back = realize(pair.xi), realize(pair.eta)
        normals = [[mp.mpf(float(x)) for x in row] for row in p.interior_normals]
        out = []
        for _ in range(n):
            exit_x, exit_side = None, None
            for i, (nx, ny, nt) in enumerate(normals):
                a = nx * z_back.real + ny * z_back.imag - nt
                b = nx * z_fwd.real + ny * z_fwd.imag - nt
                if a < 0 and b < 0:
                    return tuple(out)
                if a > 0 and b < 0 and (exit_x is None or -a / b < exit_x):
                    exit_x, exit_side = -a / b, i
            if exit_side is None or exit_side in CUFF_SIDE_INDICES:
                break
            sym = SEAM_SIDE_SYMBOL[exit_side]
            out.append(sym)
            z_fwd, z_back = act(gens[sym], z_fwd), act(gens[sym], z_back)
    return tuple(out)


def rerealizing_trace(p, pair, n):
    """The pair tracer without image stacks: both endpoint words are realized
    afresh, to n + 18 symbols, before every crossing, and updated as tuples."""

    def shift(prefix, period, sym):
        if prefix:
            return (prefix[1:] if prefix[0] == sym else (bar(sym),) + prefix), period
        if period[0] == sym:
            return (), period[1:] + period[:1]
        return (bar(sym),), period

    ends = [(pair.xi.prefix, pair.xi.period), (pair.eta.prefix, pair.eta.period)]
    out = []
    for step in range(n):
        if not all(prefix or period for prefix, period in ends):
            break
        z_fwd, z_back = (_realize(p, prefix[: n + 18], period) for prefix, period in ends)
        hit = _exit_side(p, z_fwd, z_back)
        if hit is None and step == 0:
            raise GeometryError("geodesic misses the octagon")
        if hit is None or hit[2] in CUFF_SIDE_INDICES:
            break
        out.append(SEAM_SIDE_SYMBOL[hit[2]])
        ends = [shift(prefix, period, out[-1]) for prefix, period in ends]
    return tuple(out)


def gibbs_pairs(p, count, key, word_len=48):
    """Criterion 03's recipe: stationary Gibbs draws with distinct first
    symbols, extended by chain steps to ``word_len``-symbol words."""
    delta = hausdorff_delta(p, tol=1e-4, depths=(4, 6)).delta
    chain = gibbs_chain(p, delta, 6)
    rng = np.random.Generator(np.random.Philox(key=key))
    pi_cum = np.cumsum(chain.stationary)
    pi_cum[-1] = 1.0
    first = chain.skeleton.cover.words[:, 0]
    xi = np.searchsorted(pi_cum, rng.random(count))
    eta = np.searchsorted(pi_cum, rng.random(count))
    clash = first[xi] == first[eta]
    while clash.any():
        eta[clash] = np.searchsorted(pi_cum, rng.random(int(clash.sum())))
        clash = first[xi] == first[eta]
    xw = _extend_words(chain, xi, rng, word_len)
    ew = _extend_words(chain, eta, rng, word_len)
    return [GeodesicPair(Ray(tuple(map(int, a))), Ray(tuple(map(int, b)))) for a, b in zip(xw, ew)]


@pytest.mark.parametrize(
    "cuffs",
    [(2.0, 2.0, 2.0), (1.0, 2.0, 3.0), (A_HALF,) * 3, (3.0,) * 3, (A_03,) * 3, (5.0,) * 3],
    ids=["2-2-2", "1-2-3", "half", "3-3-3", "a03", "5-5-5"],
)
def test_pair_trace_matches_mp_oracle(cuffs):
    p = build_pants(cuffs)
    for pair in gibbs_pairs(p, 10, key=31):
        traced = cutting_sequence_trace(p, pair, 30)
        assert traced == pair.xi.prefix[:30]
        assert traced == mp_trace(p, pair, 30, depth=48)


def trace_outcome(tracer, p, pair, n):
    try:
        return tracer(p, pair, n)
    except GeometryError as exc:
        return str(exc)


# periodic pairs whose fixed points once came from renormalized Moebius
# products, where |u|^2 - |v|^2 cancels to nothing at long cuffs
LONG_CUFF_PAIRS = {(20.0,) * 3: ("ab", "BA"), (12.0,) * 3: ("abAB", "baBA")}


@pytest.mark.parametrize(
    "cuffs",
    [(2.0, 2.0, 2.0), (A_HALF,) * 3, (5.0,) * 3, (20.0,) * 3, (12.0,) * 3, (0.2, 1.0, 12.0),
     (A_03,) * 3],
    ids=["2-2-2", "half", "5-5-5", "20-20-20", "12-12-12", "0.2-1-12", "a03"],
)
def test_pair_trace_matches_the_rerealizing_trace(cuffs):
    p = build_pants(cuffs)
    pairs = gibbs_pairs(p, 100, key=13)
    pairs += [GeodesicPair.periodic((s,)) for s in range(4)]
    pairs.append(GeodesicPair(Ray.from_string("", "ab"), Ray.from_string("", "BA")))
    if cuffs in LONG_CUFF_PAIRS:
        xi, eta = LONG_CUFF_PAIRS[cuffs]
        pair = GeodesicPair(Ray.from_string("", xi), Ray.from_string("", eta))
        want = mp_trace(p, pair, 12, depth=48, dps=200)
        assert len(want) == 12 and cutting_sequence_trace(p, pair, 12) == want
        pairs.append(pair)
    for pair in pairs:
        want = trace_outcome(rerealizing_trace, p, pair, 30)
        assert trace_outcome(cutting_sequence_trace, p, pair, 30) == want


def test_mp_oracle_traces_periodic_pairs(pants222):
    pair = GeodesicPair(Ray.from_string("", "ab"), Ray.from_string("", "BA"))
    assert mp_trace(pants222, pair, 12, depth=30) == (0, 2) * 6
    assert cutting_sequence_trace(pants222, pair, 12) == (0, 2) * 6


@pytest.mark.parametrize("sym", range(4))
def test_generator_axis_pairs_run_along_a_side(pants222, sym):
    # the axes of g_alpha and g_beta carry the sides b and a: endpoint
    # products within CLIP_EPS of zero must count as inside, not as a miss
    pair = GeodesicPair.periodic((sym,))
    assert cutting_sequence_trace(pants222, pair, 40) == (sym,) * 40


@pytest.mark.parametrize("cuffs", [(3.0,) * 3, (A_03,) * 3], ids=["3-3-3", "a03"])
def test_deep_traces_away_from_delta_half(cuffs):
    # generator determinant drift breaks direct traces here at any precision
    p = build_pants(cuffs)
    for pair in gibbs_pairs(p, 50, key=20240):
        assert cutting_sequence_trace(p, pair, 30, prec=80) == pair.xi.prefix[:30]


def test_pair_trace_without_prec_reaches_30_symbols(pants222):
    for pair in gibbs_pairs(pants222, 10, key=7):
        assert cutting_sequence_trace(pants222, pair, 30) == pair.xi.prefix[:30]
        assert cutting_sequence_trace(pants222, pair, 30, prec=None) == pair.xi.prefix[:30]


def test_pair_trace_is_long_and_prec_free(pants222):
    pair = gibbs_pairs(pants222, 1, key=8, word_len=200)[0]
    traced = cutting_sequence_trace(pants222, pair, 150)
    assert traced == pair.xi.prefix[:150]
    assert cutting_sequence_trace(pants222, pair, 150, prec=300) == traced


def test_pair_trace_stops_where_the_forward_prefix_ends(pants222):
    pair = gibbs_pairs(pants222, 1, key=9)[0]
    short = GeodesicPair(Ray(pair.xi.prefix[:10]), pair.eta)
    assert cutting_sequence_trace(pants222, short, 30) == pair.xi.prefix[:10]


def test_exit_side_agrees_with_clip_chord(pants222):
    # the scalar rule works on x = exp(2t): its entry and exit are clip_chord's
    # parameters, and its side is clip_chord's exit side
    rng = np.random.default_rng(12)
    normals = pants222.interior_normals
    hits = 0
    for _ in range(2000):
        z_fwd, z_back = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
        t_in, t_out, _, s_out = clip_chord(
            lift_light(np.array([z_back]))[0], lift_light(np.array([z_fwd]))[0], normals
        )
        hit = _exit_side(pants222, complex(z_fwd), complex(z_back))
        if t_in < t_out:
            hits += 1
            x_in, x_out, side = hit
            assert side == int(s_out)
            assert 0.5 * math.log(x_in) == pytest.approx(t_in, rel=1e-12, abs=1e-12)
            assert 0.5 * math.log(x_out) == pytest.approx(t_out, rel=1e-12, abs=1e-12)
        else:
            assert hit is None
    assert hits > 100
