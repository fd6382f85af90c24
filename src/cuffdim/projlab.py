"""Projection experiments on products of limit-set covers.

The limit set lives on the circle; mapped to the unit interval by angle
over 2*pi, the product of two covers is a family of axis-aligned boxes in
the unit square.  A cylinder arc that crosses angle zero maps to two unit
intervals, so the corresponding word pairs contribute up to four boxes.
This module projects such covers onto lines, averages projected lengths
over directions (Favard length), certifies transversality of map families
numerically, samples points on complete geodesics inside the octagon, and
estimates box-counting dimensions of large point clouds.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

# clip_chord stays bound here for the benchmark tracer, which patches it
from .hyperbolic import CLIP_BLOCK, GeometryError, _clip_block, chord_point, clip_chord, lift_light  # noqa: F401
from .pants import SEAM_SIDE_SYMBOL, PantsGeometry
from .symbolic import cylinder_cover

if TYPE_CHECKING:
    from .thermo import GibbsChain

POINT_CLOUD_MAGIC = b"CSPTS001"

# admits every depth-8 product cover (57.4M boxes at most); a
# projection holds 16 bytes per box in its start and end buffer, plus one
# block's temporaries
PRODUCT_COVER_MAX_BOXES = 60_000_000

BOX_COUNT_MAX_CELLS = 2**26  # cells of one box-counting bitmap (64 MiB of bools)
BOX_SCALES = 2.0 ** -np.arange(3, 9)  # box sides of box_dimension, coarsest first

# transversality_certify: grid points per axis of the point sample, pair
# separation floor as a fraction of the sample's diameter, candidate C_T
# ladder, determinant slack, and the evaluator check's parameter probes and
# finite-difference step
CERTIFY_POINTS_PER_AXIS = 8
CERTIFY_SEPARATION = 2.0**-10
CERTIFY_CANDIDATES = (0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
CERTIFY_DET_TOL = 1e-9
CONSISTENCY_PROBES = 5
CONSISTENCY_STEP = 1e-6
CERTIFY_MAX_GRID = 16384  # largest lam_grid: 2.5 s and 32 MB peak RSS on a 2-core Xeon
FAVARD_MAX_GRID = 3072  # largest Favard grid: 46 s and 46 MB peak RSS at depths 2:6 on a 2-core Xeon

SAMPLER_MAX_ATTEMPT_FACTOR = 10  # sampler draws at most this many geodesics per point
# points per sampler chunk, and per pass of box_dimension and write_point_cloud;
# chunk c draws from the Philox counter substream c << 192
SAMPLER_CHUNK = 2**15


# ---------------------------------------------------------------------------
# Box covers


@dataclass(frozen=True, eq=False)
class BoxCover:
    """Non-overlapping axis-aligned boxes in the unit square, as blocks.

    A block is ``(x_lo, x_hi, y_lo, y_hi)``; its x arrays and its y arrays
    broadcast together, and its boxes ``[x_lo, x_hi] x [y_lo, y_hi]`` are
    the broadcast elements.  Product covers store x pieces as a column and
    y pieces as a row, so each block is a Cartesian product of pieces;
    other covers store one block of four equal-length 1-D arrays.  The
    per-box arrays ``x0 .. y1`` are derived from the blocks on each read,
    in block-major order.
    """

    label: str
    depth: int
    blocks: tuple
    # no per-box masses or word tags are kept; bench/spans.py::_product_attrs
    # still reads both names
    masses = None
    tags = None

    @property
    def n_boxes(self) -> int:
        return sum(np.broadcast(xl, yl).size for xl, _, yl, _ in self.blocks)

    def _boxes(self, k: int) -> np.ndarray:
        return np.concatenate([np.broadcast_arrays(*b)[k].ravel() for b in self.blocks])

    x0 = property(lambda self: self._boxes(0))
    x1 = property(lambda self: self._boxes(1))
    y0 = property(lambda self: self._boxes(2))
    y1 = property(lambda self: self._boxes(3))


def _unit_pieces(cov) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cylinder arcs as unit-interval pieces (parent index, lo, hi).

    The arc containing angle zero splits into a piece at each end of the
    interval; every other arc contributes a single piece.
    """
    lo = (cov.lo % (2.0 * math.pi)) / (2.0 * math.pi)
    hi = lo + cov.lengths / (2.0 * math.pi)
    wrap = hi > 1.0
    plain = ~wrap
    parent = np.concatenate(
        [np.flatnonzero(plain), np.flatnonzero(wrap), np.flatnonzero(wrap)]
    )
    p_lo = np.concatenate([lo[plain], lo[wrap], np.zeros(int(wrap.sum()))])
    p_hi = np.concatenate([hi[plain], np.ones(int(wrap.sum())), hi[wrap] - 1.0])
    return parent, p_lo, p_hi


def product_cover(p: PantsGeometry, n: int) -> BoxCover:
    """Product of two depth-n cylinder covers as boxes in the unit square.

    Each pair of words with different first symbols (the domain of the
    geodesic correspondence) contributes the product of its unit-interval
    pieces.  The cover's blocks are the products P_s x P_t over first
    symbols s != t, where P_s holds the pieces whose word starts with s (a
    piece split at angle zero keeps its parent's symbol).  A cover of more
    than ``PRODUCT_COVER_MAX_BOXES`` boxes is refused.
    """
    if not 1 <= n <= 9:
        raise GeometryError(f"product cover depth {n} outside [1, 9]")
    cov = cylinder_cover(p, n)
    parent, p_lo, p_hi = _unit_pieces(cov)
    first = cov.words[parent, 0]
    groups = [np.flatnonzero(first == s) for s in range(4)]
    cover = BoxCover(
        label=f"omega-product-{n}",
        depth=n,
        blocks=tuple(
            (p_lo[gs, None], p_hi[gs, None], p_lo[None, gt], p_hi[None, gt])
            for s, gs in enumerate(groups)
            for t, gt in enumerate(groups)
            if s != t
        ),
    )
    if cover.n_boxes > PRODUCT_COVER_MAX_BOXES:
        raise GeometryError(
            f"product cover depth {n} needs {cover.n_boxes} boxes, above "
            f"PRODUCT_COVER_MAX_BOXES = {PRODUCT_COVER_MAX_BOXES}"
        )
    return cover


def four_corner_cover(n: int) -> BoxCover:
    """Depth-n cover of the quarter-corner Cantor square: 4^n boxes of side 4^-n.

    The set is C x C where C keeps the first and last quarter of each
    interval; its projections average to zero length in the limit while
    single directions can stay fat (the direction of slope 1/2 projects
    onto a full interval at every depth).
    """
    if not 1 <= n <= 10:
        raise GeometryError(f"four-corner depth {n} outside [1, 10]")
    digits = np.array([0.0, 0.75])
    vals = np.zeros(1)
    for k in range(n):
        vals = (vals[:, None] + digits[None, :] * 4.0 ** -k).ravel()
    side = 4.0 ** -n
    col, row = vals[:, None], vals[None, :]
    return BoxCover(
        label=f"four-corner-{n}", depth=n, blocks=((col, col + side, row, row + side),)
    )


def segment_cover(n: int) -> BoxCover:
    """Rectifiable control: 2^n boxes of side 2^-n along the main diagonal.

    Depths run in [1, 20]: 2^20 boxes, the four-corner cover's 4^10.
    """
    if not 1 <= n <= 20:
        raise GeometryError(f"segment depth {n} outside [1, 20]")
    k = np.arange(2**n) / 2.0**n
    side = 2.0 ** -n
    return BoxCover(label=f"segment-{n}", depth=n, blocks=((k, k + side, k, k + side),))


# ---------------------------------------------------------------------------
# Projections and Favard averages


def _axis_terms(a0: np.ndarray, a1: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Projected centres and half-widths of the pieces [a0, a1] of one axis
    whose direction component is c."""
    return 0.5 * (a0 + a1) * c, 0.5 * (a1 - a0) * abs(c)


def project_cover_length(cover: BoxCover, lam: float) -> float:
    """Length of the projection of the box union onto the direction ``lam``.

    Boxes project to intervals ``mid -/+ hw`` from their centres and
    half-widths; intervals are merged exactly (gap tolerance zero) and the
    total length of the union is returned.

    A box's ``mid`` is the sum of its x and y pieces' projected centres,
    and ``hw`` the sum of their projected half-widths.  Those per-axis
    terms are computed once per block array, and each block's intervals
    are filled from their broadcast sums: a product block's x column and
    y row make every box's interval from its two pieces.

    The union depends only on the multiset of starts and the multiset of
    ends: a point x is covered iff more starts lie at or below x than
    ends lie below x.  So starts and ends are sorted separately and the
    k-th start is paired with the k-th end.  Each pair is a valid
    interval (the k-th smallest end dominates the k-th smallest start,
    since every end dominates its own start), the pairing has the same
    coverage count as the boxes, and with the ends sorted the running
    maximum of the ends is the ends themselves.  The union length is
    then exactly ``sum(hi[k] - max(lo[k], hi[k-1]))``, every term being
    non-negative; only the rounding of the summed pieces differs from a
    sweep over the boxes.  The block order only permutes the intervals,
    so it does not change the result.
    """
    n_boxes = cover.n_boxes
    if n_boxes == 0:
        return 0.0
    c, s = math.cos(lam), math.sin(lam)
    # one buffer for starts and ends: as two separate arrays each was mapped
    # and faulted in afresh on every direction (about 1,500 minor faults at
    # depth 6, 27% slower)
    lo, hi = np.empty((2, n_boxes))
    k = 0
    for x0, x1, y0, y1 in cover.blocks:
        xm, xh = _axis_terms(x0, x1, c)
        ym, yh = _axis_terms(y0, y1, s)
        mid = (xm + ym).ravel()
        hw = (xh + yh).ravel()
        n = mid.size
        np.subtract(mid, hw, out=lo[k:k + n])
        np.add(mid, hw, out=hi[k:k + n])
        k += n
    lo.sort()
    hi.sort()
    # lo[k] <- max(lo[k], hi[k-1]) for k >= 1; each piece is then hi - lo
    np.maximum(lo[1:], hi[:-1], out=lo[1:])
    return float(np.sum(np.subtract(hi, lo, out=hi)))


def lambda_grid(grid: int) -> np.ndarray:
    return np.arange(grid) * math.pi / grid


def project_lengths(cover: BoxCover, lams) -> np.ndarray:
    return np.array([project_cover_length(cover, float(l)) for l in lams])


def favard_estimate(cover: BoxCover, grid: int = 256) -> float:
    """Average projected length over the uniform direction grid on [0, pi).

    The integrand is pi-periodic, so the trapezoid rule with periodic
    closure equals the plain grid mean.
    """
    return projection_profile({0: cover}, grid).favard(0)


@dataclass(frozen=True)
class ProjectionProfile:
    """Per-direction projected lengths of a cover family across depths."""

    label: str
    lambdas: np.ndarray
    depths: tuple[int, ...]
    lengths: dict[int, np.ndarray]

    def favard(self, depth: int) -> float:
        return float(np.mean(self.lengths[depth]))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("depth,lambda,length\n")
        for d in self.depths:
            for lam, ln in zip(self.lambdas, self.lengths[d]):
                out.write(f"{d},{lam:.17g},{ln:.17g}\n")
        return out.getvalue()


def _check_favard_grid(grid: int) -> None:
    if not 16 <= grid <= FAVARD_MAX_GRID:
        where = "below 16" if grid < 16 else f"above FAVARD_MAX_GRID = {FAVARD_MAX_GRID}"
        raise GeometryError(f"direction grid {grid} {where}; grid must lie in [16, {FAVARD_MAX_GRID}]")


def projection_profile(covers: dict[int, BoxCover], grid: int = 256) -> ProjectionProfile:
    """Projected lengths of each cover on a grid in [16, FAVARD_MAX_GRID],
    labelled by the shallowest cover."""
    _check_favard_grid(grid)
    depths = tuple(sorted(covers))
    lams = lambda_grid(grid)
    lengths = {d: project_lengths(covers[d], lams) for d in depths}
    label = covers[depths[0]].label if depths else ""
    return ProjectionProfile(label=label, lambdas=lams, depths=depths, lengths=lengths)


# ---------------------------------------------------------------------------
# Transversal families


@dataclass(frozen=True, eq=False)
class TransversalFamilySpec:
    """One-parameter family of maps of the plane to the line, lambda in [0, pi].

    Evaluators take a float lam and points of shape (N, 2): ``P`` returns
    the (N,) values, ``DP`` their lambda-derivatives and ``D2P`` their
    second lambda-derivatives.
    """

    name: str
    P: callable = field(repr=False)
    DP: callable = field(repr=False)
    D2P: callable = field(repr=False)

    def evaluator_consistency(self, points: np.ndarray) -> float:
        """Max deviation of finite-difference DP from the analytic DP, at
        CONSISTENCY_PROBES parameters with step CONSISTENCY_STEP; NaN if any
        value is NaN."""
        h = CONSISTENCY_STEP
        return float(np.max([
            np.abs((self.P(lam + h, points) - self.P(lam - h, points)) / (2.0 * h) - self.DP(lam, points))
            for lam in _lambda_probe(CONSISTENCY_PROBES)
        ]))


def _lambda_probe(count: int) -> list[float]:
    """The midpoints of count equal cells of [0, pi]."""
    return ((np.arange(count) + 0.5) / count * math.pi).tolist()


def direction_family() -> TransversalFamilySpec:
    """Projections of the plane onto the rotating direction (cos t, sin t)."""

    def pval(lam, x):
        return x[:, 0] * math.cos(lam) + x[:, 1] * math.sin(lam)

    def dp(lam, x):
        return -x[:, 0] * math.sin(lam) + x[:, 1] * math.cos(lam)

    def d2p(lam, x):
        return -pval(lam, x)

    return TransversalFamilySpec(name="directions", P=pval, DP=dp, D2P=d2p)


def constant_family() -> TransversalFamilySpec:
    """Degenerate control: the first coordinate, independent of the parameter."""

    def pval(lam, x):
        return x[:, 0]

    def zero(lam, x):
        return np.zeros(x.shape[0])

    return TransversalFamilySpec(name="constant", P=pval, DP=zero, D2P=zero)


FAMILIES = {"directions": direction_family, "constant": constant_family}


@dataclass(frozen=True)
class TransversalityReport:
    family: str
    certified: bool
    c_t: float | None
    c1: float
    c2: float
    c_l: float
    margin: float | None
    candidates: tuple[float, ...]
    n_points: int
    n_pairs: int
    excluded_pairs: int
    lam_grid: int
    separation: float
    consistency_residual: float
    det_reduction: str

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "certified": self.certified,
            "C_T": self.c_t,
            "C_1": self.c1,
            "C_2": self.c2,
            "C_L": self.c_l,
            "margin": self.margin,
            "candidates": list(self.candidates),
            "n_points": self.n_points,
            "n_pairs": self.n_pairs,
            "excluded_pairs": self.excluded_pairs,
            "lambda_grid": self.lam_grid,
            "separation": self.separation,
            "evaluator_consistency": self.consistency_residual,
            "det_reduction": self.det_reduction,
        }


def default_point_sample() -> np.ndarray:
    """Regular grid of CERTIFY_POINTS_PER_AXIS per axis in the unit square, offset from the sides."""
    axis = np.linspace(0.06, 0.94, CERTIFY_POINTS_PER_AXIS)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def transversality_certify(fam: TransversalFamilySpec, lam_grid: int = 256) -> TransversalityReport:
    """Grid certification of the derivative bounds and the determinant gap.

    Estimates the derivative bounds as grid maxima over the points of
    ``default_point_sample`` and certifies the largest of
    CERTIFY_CANDIDATES C_T for which every sampled (lambda, x, y) with
    |T| <= C_T has det(D T D T^t) >= C_T^2 - CERTIFY_DET_TOL.  Point pairs
    closer than CERTIFY_SEPARATION times the sample's diameter are left
    out.  T maps to the line and has one parameter, so the determinant is
    the squared lambda-gradient of T.

    The grid's directions are visited once, keeping only running maxima
    and, per candidate C_T, the least squared gradient over the pairs it
    triggers.  A family with a non-finite value is refused.
    """
    if not 32 <= lam_grid <= CERTIFY_MAX_GRID:
        raise GeometryError(f"lambda grid {lam_grid} outside [32, {CERTIFY_MAX_GRID}]")
    points = default_point_sample()

    consistency = fam.evaluator_consistency(points[:: max(1, len(points) // 16)])
    if not consistency <= 1e-6:
        raise GeometryError(f"family {fam.name!r} evaluators are inconsistent: finite-difference "
                            f"vs analytic derivative mismatch {consistency:.2e}")

    n_pts = points.shape[0]
    ii, jj = np.triu_indices(n_pts, k=1)
    d = np.linalg.norm(points[ii] - points[jj], axis=-1)
    sep = float(d.max()) * CERTIFY_SEPARATION
    keep = d >= sep
    excluded = int(np.sum(~keep))
    ii, jj, dist = ii[keep], jj[keep], d[keep]

    cands = np.array(CERTIFY_CANDIDATES)[:, None]
    least = np.full(len(CERTIFY_CANDIDATES), np.inf)
    c1 = c2 = c_l = 0.0
    for lam in _lambda_probe(lam_grid):
        pv, dpv, d2pv = vals = np.array([fam.P(lam, points), fam.DP(lam, points), fam.D2P(lam, points)])
        if not np.isfinite(vals).all():
            raise GeometryError(f"family {fam.name!r} has a non-finite value at lambda = {lam!r}")
        c1 = max(c1, float(np.max(np.abs(dpv))))
        c2 = max(c2, float(np.max(np.abs(d2pv))))
        c_l = max(c_l, float(np.max(np.abs((d2pv[ii] - d2pv[jj]) / dist))))
        t = np.abs((pv[ii] - pv[jj]) / dist)
        grad2 = ((dpv[ii] - dpv[jj]) / dist) ** 2
        least = np.minimum(least, np.min(np.where(t <= cands, grad2, np.inf), axis=1))

    certified_ct = margin = None
    for ct, g2 in zip(CERTIFY_CANDIDATES, least.tolist()):
        # no triggered pair leaves g2 infinite, and the margin infinite
        worst = g2 - ct * ct
        if worst >= -CERTIFY_DET_TOL:
            certified_ct, margin = ct, worst
            break
    return TransversalityReport(
        family=fam.name,
        certified=certified_ct is not None,
        c_t=certified_ct,
        c1=c1,
        c2=c2,
        c_l=c_l,
        margin=margin,
        candidates=tuple(float(c) for c in CERTIFY_CANDIDATES),
        n_points=n_pts,
        n_pairs=int(len(ii)),
        excluded_pairs=excluded,
        lam_grid=lam_grid,
        separation=sep,
        consistency_residual=consistency,
        det_reduction="det(DT DT^t); for m=1 this is |grad_lambda T|^2",
    )


# ---------------------------------------------------------------------------
# Sampling points on complete geodesics


@dataclass(frozen=True, eq=False)
class GeodesicPointSample:
    points: np.ndarray  # complex disk coordinates
    lengths: np.ndarray  # chord length inside the octagon per sample
    time_fractions: np.ndarray  # u / length, for the uniformity diagnostic
    resampled: int
    attempts: int


def _chain_walk(chain: GibbsChain):
    """Walk function (cur, rng, steps, stride) -> int32 states (k, len(cur))
    of the walk from cur at steps 0, stride, 2 * stride, ... and steps.  Each
    step compares one fresh row rng.random(len(cur)) with the transition
    law, drawing what rng.random((steps, len(cur))) would.  A choice counts
    the first two cumulative probabilities below the draw, so the third
    successor takes the remainder where a row's sum rounds below 1.
    """
    c0, c1 = np.cumsum(chain.transition_probs, axis=1)[:, :2].T.copy()
    succ = chain.skeleton.cols.ravel()

    def walk(cur, rng, steps, stride):
        kept = np.empty((-(-steps // stride) + 1, len(cur)), dtype=np.int32)
        kept[0] = cur
        for k in range(1, steps + 1):
            r = rng.random(len(cur))
            # an integer sum: the sum of two bool arrays would be their OR
            choice = (r > c0[cur]).view(np.int8) + (r > c1[cur]).view(np.int8)
            cur = succ[3 * cur + choice]
            if k % stride == 0 or k == steps:
                kept[-(-k // stride)] = cur
        return kept

    return walk


def _extend_words(chain: GibbsChain, idx: np.ndarray, rng, total_len: int) -> np.ndarray:
    """Word symbols for chain states extended to total_len by chain steps,
    one draw row per step as the walk takes it."""
    words = chain.skeleton.cover.words
    if total_len <= chain.depth:
        return words[idx, :total_len]
    states = _chain_walk(chain)(idx, rng, total_len - chain.depth, 1)
    return np.concatenate([words[idx], words[states[1:], -1].T], axis=1)


def _stationary_draw(pi_cum: np.ndarray):
    """Draw function r -> np.searchsorted(pi_cum, r), r in [0, 1), by a guide table.

    The table (Chen and Asau, 1974) holds searchsorted's index at each edge
    k / K of K = 4 * 2^ceil(log2 n) buckets; a draw r is bisected between
    the indices at its bucket's edges, k = floor(r K) and k + 1.  K is a
    power of two, so r K and k / K are exact and each index is searchsorted's.
    """
    n_buckets = 4 << (len(pi_cum) - 1).bit_length()
    guide = np.searchsorted(pi_cum, np.arange(n_buckets + 1) / n_buckets)

    def draw(r: np.ndarray) -> np.ndarray:
        k = (r * n_buckets).astype(np.intp)
        lo, hi = guide[k], guide[k + 1]
        rows = np.flatnonzero(lo < hi)  # draws whose bounds still differ
        while len(rows):
            l, h = lo[rows], hi[rows]
            mid = (l + h) >> 1
            below = pi_cum[mid] < r[rows]
            lo[rows] = l = np.where(below, mid + 1, l)
            hi[rows] = h = np.where(below, h, mid)
            rows = rows[l < h]
        return lo

    return draw


def _fold_table(p: PantsGeometry, chain: GibbsChain, h: int):
    """Read-only (z_c, phi_c, D^2, kappa) per depth-n state s, cached on p per
    n and h: the base-point form of the map Phi pulling unit points back
    through the first h symbols of s.

    z_c is the midpoint of arc s[h]; phi_c = Phi(z_c) runs the h branches on
    it one at a time, normalized after each (at h = n - 1, the endpoint of
    the word s); D is the product of their denominators and kappa the sum
    of conj(v) / (D^2 den) with D before each branch.  Then Phi(z) = phi_c +
    dz / (D^2 (1 + kappa dz)), dz = z - z_c, exactly; the composed
    coefficients, whose rounding loses accuracy at short cuffs, are never
    formed.
    """
    key = ("fold", chain.depth, h)
    if key not in p._cache:
        heads = chain.skeleton.cover.words.T.astype(np.intp)  # intp symbols keep the gathers fast
        zc = p.arc_point(heads[h], 0.0)
        phi, d, kappa = zc, np.ones(len(zc), complex), np.zeros(len(zc), complex)
        for sym in heads[:h][::-1]:
            phi, den = p.inverse_branch(sym, phi)
            kappa = kappa + p._branch_table[2][sym] / (d * d * den)
            d = d * den
            phi /= np.abs(phi)
        p._cache[key] = maps = (zc, phi, d * d, kappa)
        for a in maps:
            a.flags.writeable = False
    return p._cache[key]


def _fold(maps, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Unit points z pulled back by the fold maps of the states s."""
    zc, phi, d2, kappa = maps
    dz = z - zc[s]
    z = phi[s] + dz / (d2[s] * (1.0 + kappa[s] * dz))
    return z / np.abs(z)


def sample_complete_geodesic_points(
    p: PantsGeometry,
    chain: GibbsChain,
    count: int,
    seed: int,
    word_len: int = 14,
) -> GeodesicPointSample:
    """Points of complete geodesics inside the octagon, one per chord.

    Draws independent stationary forward/backward words from the Gibbs
    chain ``chain`` (backward word conditioned to start with a different
    symbol), realizes the geodesic from cylinder midpoints, clips it against
    the octagon and emits one point uniform in time along the chord: not the
    flow-invariant measure.  Non-crossing realizations are resampled and
    counted.  Deterministic for a fixed seed.

    Points are drawn in chunks of SAMPLER_CHUNK: chunk c draws from the
    Philox stream of key ``seed`` and counter c << 192, so chunk 0 is the
    stream of ``Philox(key=seed)`` and a call's first chunk is the whole of
    a call of at most SAMPLER_CHUNK points.  A chunk that draws more than
    SAMPLER_MAX_ATTEMPT_FACTOR geodesics per point is refused.

    A word is a depth-n chain state s_0 walked steps = word_len - n steps.
    With q, r = divmod(steps, n - 1), its endpoint is phi_c of s_steps under
    the full fold (``_fold_table``, h = n - 1), pulled back by the h = r fold
    of s_{q(n-1)} if r > 0 and then by the full folds of s_{k(n-1)}, k = q - 1
    down to 0.  Each round walks both endpoints over all its points, one
    draw row per step (forward rows, backward rows, then the chord times),
    then folds and clips in ``clip_chord``'s blocks, so draws and
    accept/reject do not depend on the blocks.

    Chords are clipped at the four seam sides alone: the cuff sides lie on
    lifts of the cuffs, which bound the convex core, and a geodesic between
    limit points stays in the hull of the limit set, so it never crosses a
    cuff side.  Sampled endpoints are arc midpoints of finite words, not
    limit points, so the guarantee is the tests' check that all eight sides
    accept the same chords with the same t_in and t_out on the grid triples.
    """
    if not 1 <= count <= 10**7:
        raise GeometryError(f"sample count {count} outside [1, 1e7]")
    if not 0 <= seed < 2**128:
        raise GeometryError(f"seed {seed} outside [0, 2^128)")
    if not 1 <= word_len <= 64:
        raise GeometryError(f"word length {word_len} outside [1, 64]")
    if chain.depth < 4:
        raise GeometryError("sampling needs a chain of depth >= 4")
    steps = max(word_len, chain.depth) - chain.depth
    pi_cum = np.cumsum(chain.stationary)
    pi_cum[-1] = 1.0
    draw = _stationary_draw(pi_cum)
    seams = list(SEAM_SIDE_SYMBOL)
    normals, eps = p.interior_normals[seams], p.side_eps[seams]
    first = chain.skeleton.cover.words[:, 0].copy()
    walk = _chain_walk(chain)
    q, r = divmod(steps, chain.depth - 1)
    full = _fold_table(p, chain, chain.depth - 1)
    part = _fold_table(p, chain, r) if r else None

    def realize(states, blk):
        s = states[:, blk].astype(np.intp)  # one cast, not one per gather
        z = full[1][s[-1]]
        if r:
            z = _fold(part, z, s[q])
        for k in range(q - 1, -1, -1):
            z = _fold(full, z, s[k])
        return z

    pts = np.empty(count, dtype=complex)
    lens = np.empty(count)
    fracs = np.empty(count)
    resampled = attempts = 0
    for c, start in enumerate(range(0, count, SAMPLER_CHUNK)):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=c << 192))
        need = np.arange(start, min(start + SAMPLER_CHUNK, count))
        budget = attempts + SAMPLER_MAX_ATTEMPT_FACTOR * len(need)
        while len(need):
            m = len(need)
            attempts += m
            if attempts > budget:
                raise GeometryError(
                    f"geodesic sampler exceeded {SAMPLER_MAX_ATTEMPT_FACTOR}x attempt budget"
                )
            xi_idx = draw(rng.random(m))
            eta_idx = draw(rng.random(m))
            clash = np.flatnonzero(first[xi_idx] == first[eta_idx])
            while len(clash):
                eta_idx[clash] = draw(rng.random(len(clash)))
                clash = clash[first[xi_idx[clash]] == first[eta_idx[clash]]]
            xi_states = walk(xi_idx, rng, steps, chain.depth - 1)
            eta_states = walk(eta_idx, rng, steps, chain.depth - 1)
            u = rng.random(m)
            rejected = []
            n_blocks = -(-m // CLIP_BLOCK)
            for b in range(n_blocks):
                blk = slice(b * m // n_blocks, (b + 1) * m // n_blocks)
                l_fwd = lift_light(realize(xi_states, blk))
                l_back = lift_light(realize(eta_states, blk))
                lower, upper = _clip_block(normals, eps, l_back, l_fwd)
                t_in, t_out = lower.max(axis=0), upper.min(axis=0)
                good = np.isfinite(t_in) & np.isfinite(t_out) & (t_in < t_out)
                rows = need[blk][good]
                ell = (t_out - t_in)[good]
                ub = u[blk][good]
                pts[rows] = chord_point(l_back[good], l_fwd[good], t_in[good] + ub * ell)
                lens[rows], fracs[rows] = ell, ub
                rejected.append(need[blk][~good])
            need = np.concatenate(rejected)
            resampled += len(need)
    return GeodesicPointSample(
        points=pts,
        lengths=lens,
        time_fractions=fracs,
        resampled=resampled,
        attempts=attempts,
    )


def ks_uniform_statistic(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of samples in [0, 1) from uniform.

    With x sorted and clipped to [0, 1], the distance is the larger of
    max(i/n - x_i) and max(x_i - (i-1)/n) over i = 1..n.
    """
    x = np.clip(np.sort(np.asarray(values, dtype=float)), 0.0, 1.0)
    n = x.shape[0]
    d_plus = (np.arange(1.0, n + 1) / n - x).max()
    d_minus = (x - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


# ---------------------------------------------------------------------------
# Box dimension of point clouds


@dataclass(frozen=True)
class BoxDimensionFit:
    estimate: float
    scales: np.ndarray
    counts: np.ndarray
    fit_residual: float


def box_dimension(points: np.ndarray, min_points: int = 100_000) -> BoxDimensionFit:
    """Box-counting dimension of a planar point cloud.

    Counts occupied boxes of each scale of BOX_SCALES and fits the log-log
    slope, dropping the coarsest and finest scale from the fit.
    ``points`` is complex or real (N, 2), all finite.  Boxes are anchored
    at the coordinate minima (x0, y0), and the boxes of scale s are counted
    in a bitmap of nx * ny cells, nx = floor((x_max - x0) / s) + 1 (likewise
    ny); one of more than ``BOX_COUNT_MAX_CELLS`` cells is refused.  The
    bitmaps are marked SAMPLER_CHUNK points at a time.
    """
    pts = np.asarray(points)
    if pts.shape[1:] != (() if np.iscomplexobj(pts) else (2,)):
        raise GeometryError(f"box dimension needs complex (N,) or real (N, 2) points, not {pts.shape}")
    x, y = (pts.real, pts.imag) if np.iscomplexobj(pts) else np.asarray(pts, dtype=float).T
    if x.shape[0] < min_points:
        raise GeometryError(f"box dimension needs at least {min_points} points")
    # min and max carry any NaN or infinity, so all four are finite iff every point is
    x0, y0 = x.min(), y.min()
    x_max, y_max = x.max(), y.max()
    if not np.isfinite([x0, y0, x_max, y_max]).all():
        bad = int(np.count_nonzero(~(np.isfinite(x) & np.isfinite(y))))
        raise GeometryError(f"box dimension needs finite points; {bad} are not")
    scales = np.array(BOX_SCALES, dtype=float)  # the fit's own copy
    # rounding is monotone, so max(x - x0) is x_max - x0
    x_max, y_max = x_max - x0, y_max - y0
    bitmaps = []
    for s in scales.tolist():
        nx, ny = np.floor(x_max / s) + 1.0, np.floor(y_max / s) + 1.0
        if nx * ny > BOX_COUNT_MAX_CELLS:
            raise GeometryError(
                f"box scale {s!r} needs a {nx:.0f} x {ny:.0f} grid, above "
                f"BOX_COUNT_MAX_CELLS = {BOX_COUNT_MAX_CELLS}"
            )
        bitmaps.append((s, int(ny), np.zeros(int(nx * ny), dtype=bool)))
    for a in range(0, len(x), SAMPLER_CHUNK):
        # x - x0 >= 0, so truncation toward zero is the floor
        dx, dy = x[a : a + SAMPLER_CHUNK] - x0, y[a : a + SAMPLER_CHUNK] - y0
        for s, ny, occ in bitmaps:
            occ[(dx / s).astype(np.intp) * ny + (dy / s).astype(np.intp)] = True
    counts = np.asarray([np.count_nonzero(occ) for _, _, occ in bitmaps])
    x = np.log(1.0 / scales)[1:-1]
    y = np.log(counts)[1:-1]
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return BoxDimensionFit(estimate=float(slope), scales=scales, counts=counts, fit_residual=resid)


# ---------------------------------------------------------------------------
# Point-cloud files


def write_point_cloud(path: str, points: np.ndarray) -> None:
    """Binary little-endian float64 (x, y) pairs behind an 8-byte magic,
    written SAMPLER_CHUNK points at a time."""
    pts = np.asarray(points)
    with open(path, "wb") as fh:
        fh.write(POINT_CLOUD_MAGIC)
        for a in range(0, len(pts), SAMPLER_CHUNK):
            c = pts[a : a + SAMPLER_CHUNK]
            xy = np.stack([c.real, c.imag], axis=-1) if np.iscomplexobj(c) else c
            fh.write(np.ascontiguousarray(xy, dtype="<f8").tobytes())


def read_point_cloud(path: str) -> np.ndarray:
    """Complex points of a file that ``write_point_cloud`` wrote, bit for bit.
    A payload that is not a whole number of (x, y) pairs is refused."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != POINT_CLOUD_MAGIC:
            raise GeometryError(f"bad point cloud magic {magic!r}")
        size = os.fstat(fh.fileno()).st_size - len(magic)
        if size % 16:
            raise GeometryError(f"point cloud payload of {size} bytes is not a whole number of 16-byte points")
        xy = np.fromfile(fh, dtype="<f8")
    return xy.view("<c16").astype(complex, copy=False)
