"""Projection experiments on products of limit-set covers.

The limit set lives on the circle; mapped to the unit interval by angle
over 2*pi, the product of two covers is a family of axis-aligned boxes in
the unit square.  A cylinder arc that crosses angle zero maps to two unit
intervals, so the corresponding word pairs contribute up to four boxes;
pair counts and box counts are tracked separately.  This module projects
such covers onto lines, averages projected lengths over directions
(Favard length), certifies transversality of map families numerically,
samples points on complete geodesics inside the octagon, and estimates
box-counting dimensions of large point clouds.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

# clip_chord stays bound here for the benchmark tracer, which patches it
from .hyperbolic import CLIP_BLOCK, GeometryError, _clip_block, chord_point, clip_chord, lift_light  # noqa: F401
from .pants import PantsGeometry
from .symbolic import cylinder_cover
from .thermo import CylinderMeasure, GibbsChain

POINT_CLOUD_MAGIC = b"CSPTS001"

# admits every restricted depth-8 product cover (57.4M boxes at most); a
# projection holds 16 bytes per box in its start and end buffer, plus one
# block's temporaries
PRODUCT_COVER_MAX_BOXES = 60_000_000

BOX_COUNT_MAX_CELLS = 2**26  # cells of one box-counting bitmap (64 MiB of bools)


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
    n_pairs: int | None = None  # word pairs behind the boxes, when applicable
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

    @property
    def total_area(self) -> float:
        return float(sum(np.sum((x1 - x0) * (y1 - y0)) for x0, x1, y0, y1 in self.blocks))

    @property
    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        return 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)


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


def product_cover(p: PantsGeometry, n: int, restrict: bool = True) -> BoxCover:
    """Product of two depth-n cylinder covers as boxes in the unit square.

    Each word pair contributes the product of its unit-interval pieces;
    with ``restrict`` set, only pairs whose words start with different
    symbols are kept (the domain of the geodesic correspondence).

    The cover's blocks are the products P_s x P_t over first symbols
    s != t, where P_s holds the pieces whose word starts with s (a piece
    split at angle zero keeps its parent's symbol); unrestricted, one block
    pairs all pieces with all pieces.  A cover of more than
    ``PRODUCT_COVER_MAX_BOXES`` boxes is refused.
    """
    if not 1 <= n <= 9:
        raise GeometryError(f"product cover depth {n} outside [1, 9]")
    cov = cylinder_cover(p, n)
    parent, p_lo, p_hi = _unit_pieces(cov)
    first = cov.words[parent, 0]
    if restrict:
        groups = [np.flatnonzero(first == s) for s in range(4)]
        pairs = [(gs, gt) for s, gs in enumerate(groups) for t, gt in enumerate(groups) if s != t]
        sizes = np.bincount(cov.words[:, 0], minlength=4)
        n_pairs = int(cov.n_words**2 - np.sum(sizes**2))
    else:
        pairs = [(slice(None), slice(None))]
        n_pairs = cov.n_words**2
    cover = BoxCover(
        label=f"omega-product-{n}",
        depth=n,
        blocks=tuple(
            (p_lo[gs, None], p_hi[gs, None], p_lo[None, gt], p_hi[None, gt])
            for gs, gt in pairs
        ),
        n_pairs=n_pairs,
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
    """Rectifiable control: 2^n boxes of side 2^-n along the main diagonal."""
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
    if grid < 16:
        raise GeometryError(f"direction grid {grid} below 16")
    return float(np.mean(project_lengths(cover, lambda_grid(grid))))


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


def projection_profile(covers: dict[int, BoxCover], grid: int = 256, label: str = "") -> ProjectionProfile:
    depths = tuple(sorted(covers))
    lams = lambda_grid(grid)
    lengths = {d: project_lengths(covers[d], lams) for d in depths}
    if not label and depths:
        label = covers[depths[0]].label
    return ProjectionProfile(label=label, lambdas=lams, depths=depths, lengths=lengths)


# ---------------------------------------------------------------------------
# Transversal families


@dataclass(frozen=True, eq=False)
class TransversalFamilySpec:
    """Parametrized family of maps R^n -> R^m over an open parameter box.

    Evaluators are vectorized over points: for a parameter vector lam of
    shape (l,) and points of shape (N, n), ``P`` returns (N, m), ``DP``
    returns (N, m, l) and ``D2P`` returns (N, m, l, l).
    """

    name: str
    n_params: int  # l
    n_range: int  # m
    n_space: int  # n
    domain_lo: np.ndarray
    domain_hi: np.ndarray
    P: callable = field(repr=False, default=None)
    DP: callable = field(repr=False, default=None)
    D2P: callable = field(repr=False, default=None)

    def __post_init__(self):
        if not (self.n_range <= self.n_params and self.n_range < self.n_space):
            raise GeometryError("transversal family needs m <= l and m < n")

    def evaluator_consistency(self, points: np.ndarray, n_lambda: int = 5, h: float = 1e-6) -> float:
        """Max deviation of finite-difference DP from the analytic DP."""
        worst = 0.0
        for lam in _lambda_probe(self, n_lambda):
            analytic = self.DP(lam, points)
            for k in range(self.n_params):
                e = np.zeros(self.n_params)
                e[k] = h
                fd = (self.P(lam + e, points) - self.P(lam - e, points)) / (2.0 * h)
                worst = max(worst, float(np.max(np.abs(fd - analytic[:, :, k]))))
        return worst


def _lambda_probe(fam: TransversalFamilySpec, count: int) -> list[np.ndarray]:
    ts = (np.arange(count) + 0.5) / count
    return [fam.domain_lo + t * (fam.domain_hi - fam.domain_lo) for t in ts]


def direction_family() -> TransversalFamilySpec:
    """Projections of the plane onto the rotating direction (cos t, sin t)."""

    def pval(lam, x):
        return (x[:, 0] * math.cos(lam[0]) + x[:, 1] * math.sin(lam[0]))[:, None]

    def dp(lam, x):
        return (-x[:, 0] * math.sin(lam[0]) + x[:, 1] * math.cos(lam[0]))[:, None, None]

    def d2p(lam, x):
        return -pval(lam, x)[:, :, None, None]

    return TransversalFamilySpec(
        name="directions",
        n_params=1,
        n_range=1,
        n_space=2,
        domain_lo=np.array([0.0]),
        domain_hi=np.array([math.pi]),
        P=pval,
        DP=dp,
        D2P=d2p,
    )


def constant_family() -> TransversalFamilySpec:
    """Degenerate control: the first coordinate, independent of the parameter."""

    def pval(lam, x):
        return x[:, 0:1]

    def dp(lam, x):
        return np.zeros((x.shape[0], 1, 1))

    def d2p(lam, x):
        return np.zeros((x.shape[0], 1, 1, 1))

    return TransversalFamilySpec(
        name="constant",
        n_params=1,
        n_range=1,
        n_space=2,
        domain_lo=np.array([0.0]),
        domain_hi=np.array([math.pi]),
        P=pval,
        DP=dp,
        D2P=d2p,
    )


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


def default_point_sample(n_space: int, per_axis: int = 8) -> np.ndarray:
    """Regular grid in the unit cube, offset from the faces."""
    axes = [np.linspace(0.06, 0.94, per_axis)] * n_space
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def transversality_certify(
    fam: TransversalFamilySpec,
    points: np.ndarray | None = None,
    lam_grid: int = 256,
    sep: float | None = None,
    candidates=(0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
    report_tol: float = 1e-9,
) -> TransversalityReport:
    """Grid certification of the derivative bounds and the determinant gap.

    Estimates the derivative bounds as grid maxima and certifies the
    largest candidate C_T for which every sampled (lambda, x, y) with
    |T| <= C_T has det(D T D T^t) >= C_T^2 - report_tol.  For m = 1 the
    determinant reduces to the squared norm of the parameter gradient of
    T, which is what the report records.
    """
    if lam_grid < 32:
        raise GeometryError(f"lambda grid {lam_grid} below 32")
    if points is None:
        points = default_point_sample(fam.n_space)
    points = np.asarray(points, dtype=float)

    consistency = fam.evaluator_consistency(points[:: max(1, len(points) // 16)])
    if consistency > 1e-6:
        raise GeometryError(
            f"family evaluators are inconsistent: finite-difference vs analytic "
            f"derivative mismatch {consistency:.2e}"
        )

    n_pts = points.shape[0]
    ii, jj = np.triu_indices(n_pts, k=1)
    d = np.linalg.norm(points[ii] - points[jj], axis=-1)
    diam = float(d.max())
    if sep is None:
        sep = diam * 2.0**-10
    keep = d >= sep
    excluded = int(np.sum(~keep))
    ii, jj, dist = ii[keep], jj[keep], d[keep]

    lams = _lambda_probe(fam, lam_grid)
    c1 = c2 = c_l = 0.0
    t_norms = []
    dets = []
    d2t_norms = []
    for lam in lams:
        pv = fam.P(lam, points)
        dpv = fam.DP(lam, points)
        d2pv = fam.D2P(lam, points)
        c1 = max(c1, float(np.max(np.linalg.norm(dpv, axis=(1, 2)))))
        c2 = max(c2, float(np.max(np.linalg.norm(d2pv.reshape(n_pts, -1), axis=1))))
        tval = (pv[ii] - pv[jj]) / dist[:, None]
        dtv = (dpv[ii] - dpv[jj]) / dist[:, None, None]
        d2tv = (d2pv[ii] - d2pv[jj]) / dist[:, None, None, None]
        gram = np.einsum("pml,pnl->pmn", dtv, dtv)
        dets.append(np.linalg.det(gram))
        t_norms.append(np.linalg.norm(tval, axis=1))
        d2t_norms.append(np.linalg.norm(d2tv.reshape(len(ii), -1), axis=1))
    t_norms = np.concatenate(t_norms)
    dets = np.concatenate(dets)
    c_l = float(np.max(np.concatenate(d2t_norms)))

    certified_ct = None
    margin = None
    for ct in candidates:
        triggered = t_norms <= ct
        if not np.any(triggered):
            certified_ct, margin = ct, math.inf
            break
        worst = float(np.min(dets[triggered]) - ct * ct)
        if worst >= -report_tol:
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
        candidates=tuple(float(c) for c in candidates),
        n_points=n_pts,
        n_pairs=int(len(ii)),
        excluded_pairs=excluded,
        lam_grid=lam_grid,
        separation=float(sep),
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
    """Walk function (cur, draws, n_syms, n_keys=0) -> (syms, key): one chain
    step per row of draws (steps, m) from the states cur.  syms holds the
    symbols appended by the first n_syms steps; key is the state n_keys
    steps before the end times 3^n_keys plus the base-3 number of the last
    n_keys successor choices (the final state when n_keys = 0).  A choice
    counts the first two cumulative probabilities below the draw, so the
    third successor takes the remainder where a row's sum rounds below 1.
    """
    c0, c1 = np.cumsum(chain.transition_probs, axis=1)[:, :2].T.copy()
    succ = chain.skeleton.cols.ravel()
    last = chain.skeleton.cover.words[:, -1].astype(np.intp)

    def walk(cur, draws, n_syms, n_keys=0):
        syms = np.empty((n_syms, len(cur)), dtype=np.intp)
        split = len(draws) - n_keys
        for k, r in enumerate(draws):
            # an integer sum: the sum of two bool arrays would be their OR
            choice = (r > c0[cur]).view(np.int8) + (r > c1[cur]).view(np.int8)
            edge = 3 * cur + choice
            if k >= split:
                key = edge if k == split else 3 * key + choice
            cur = succ[edge]
            if k < n_syms:
                syms[k] = last[cur]
        return syms, cur if n_keys == 0 else key

    return walk


def _extend_words(chain: GibbsChain, idx: np.ndarray, rng, total_len: int) -> np.ndarray:
    """Word symbols for chain states extended to total_len by chain steps."""
    words = chain.skeleton.cover.words[idx].astype(np.uint8)
    if total_len <= chain.depth:
        return words[:, :total_len]
    steps = total_len - chain.depth
    syms, _ = _chain_walk(chain)(idx, rng.random((steps, len(idx))), steps)
    return np.concatenate([words, syms.T.astype(np.uint8)], axis=1)


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


def _prepend_symbols(p: PantsGeometry, z: np.ndarray, cols) -> np.ndarray:
    """Unit points z pulled back through the symbol rows cols, last row first."""
    for sym in cols[::-1]:
        z, _ = p.inverse_branch(sym, z)
        z /= np.abs(z)
    return z


def sample_complete_geodesic_points(
    p: PantsGeometry,
    mu: CylinderMeasure | GibbsChain,
    count: int,
    seed: int,
    word_len: int = 14,
    max_attempt_factor: int = 10,
) -> GeodesicPointSample:
    """Points of complete geodesics inside the octagon, flow-time uniform.

    Draws independent forward/backward words from the stationary Gibbs
    chain (backward word conditioned to start with a different symbol),
    realizes the geodesic from cylinder midpoints, clips it against the
    octagon and emits the point at a uniform arclength along the chord.
    Non-crossing realizations are resampled and counted.  Deterministic
    for a fixed seed.

    Each word is realized from its last symbol's arc midpoint by one
    normalized inverse branch per preceding symbol.  The branches through
    its last n + j symbols (n the depth) are tabulated once per call over
    the n_states * 3^j (n + j)-words, j the largest j <= steps with
    n_states * 3^j <= 2 * count.  Each round draws its randoms up front
    and runs in ``clip_chord``'s blocks; the output does not depend on j
    or the blocks.
    """
    if not 1 <= count <= 10**7:
        raise GeometryError(f"sample count {count} outside [1, 1e7]")
    chain = mu.chain if isinstance(mu, CylinderMeasure) else mu
    if chain.depth < 4:
        raise GeometryError("sampling needs a chain of depth >= 4")
    steps = max(word_len, chain.depth) - chain.depth
    rng = np.random.Generator(np.random.Philox(key=seed))
    pi_cum = np.cumsum(chain.stationary)
    pi_cum[-1] = 1.0
    draw = _stationary_draw(pi_cum)
    normals = p.interior_normals
    words = chain.skeleton.cover.words
    first = words[:, 0].copy()
    # intp symbols keep the coefficient gathers fast
    heads = words.T.astype(np.intp)
    j = 0  # the table holds at most two entries per point
    while j < steps and len(first) * 3 ** (j + 1) <= 2 * count:
        j += 1
    # table[s * 3^i + key]: the (n + i)-word of state s and the choices key,
    # realized as its first symbol's branch at its successor's entry
    table = _prepend_symbols(p, p.arc_point(np.arange(4), 0.0)[heads[-1]], heads[:-1])
    succ = chain.skeleton.cols.ravel()
    for i in range(j):
        src = (succ[:, None] * 3**i + np.arange(3**i)).ravel()
        table = _prepend_symbols(p, table[src], [np.repeat(heads[0], 3 ** (i + 1))])
    walk = _chain_walk(chain)

    def realize(idx, walk_draws):
        syms, key = walk(idx, walk_draws, max(steps - j - chain.depth, 0), j)
        return _prepend_symbols(p, table[key], list(heads[: steps - j, idx]) + list(syms))

    pts = np.empty(count, dtype=complex)
    lens = np.empty(count)
    fracs = np.empty(count)
    need = np.arange(count)
    resampled = attempts = 0
    while len(need):
        m = len(need)
        attempts += m
        if attempts > max_attempt_factor * count:
            raise GeometryError(
                f"geodesic sampler exceeded {max_attempt_factor}x attempt budget"
            )
        xi_idx = draw(rng.random(m))
        eta_idx = draw(rng.random(m))
        clash = np.flatnonzero(first[xi_idx] == first[eta_idx])
        while len(clash):
            eta_idx[clash] = draw(rng.random(len(clash)))
            clash = clash[first[xi_idx[clash]] == first[eta_idx[clash]]]
        xi_draws = rng.random((steps, m))
        eta_draws = rng.random((steps, m))
        u = rng.random(m)
        rejected = []
        n_blocks = -(-m // CLIP_BLOCK)
        for b in range(n_blocks):
            blk = slice(b * m // n_blocks, (b + 1) * m // n_blocks)
            l_fwd = lift_light(realize(xi_idx[blk], xi_draws[:, blk]))
            l_back = lift_light(realize(eta_idx[blk], eta_draws[:, blk]))
            lower, upper = _clip_block(normals, l_back, l_fwd)
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
    used_scales: np.ndarray
    fit_residual: float


def box_dimension(points: np.ndarray, scales=None, min_points: int = 100_000) -> BoxDimensionFit:
    """Box-counting dimension of a planar point cloud.

    Counts occupied boxes of each scale (dyadic by default) and fits the
    log-log slope, dropping the coarsest and finest scale from the fit.
    ``points`` is complex or real (N, 2), all finite.  Boxes are anchored
    at the coordinate minima, and the boxes of scale s are counted in a
    bitmap of nx * ny cells, nx = floor(x_max / s) + 1 (likewise ny); one
    of more than ``BOX_COUNT_MAX_CELLS`` cells is refused.
    """
    pts = np.asarray(points)
    if pts.shape[1:] != (() if np.iscomplexobj(pts) else (2,)):
        raise GeometryError(f"box dimension needs complex (N,) or real (N, 2) points, not {pts.shape}")
    x, y = (pts.real, pts.imag) if np.iscomplexobj(pts) else pts.astype(float).T
    if x.shape[0] < min_points:
        raise GeometryError(f"box dimension needs at least {min_points} points")
    bad = int(np.count_nonzero(~(np.isfinite(x) & np.isfinite(y))))
    if bad:
        raise GeometryError(f"box dimension needs finite points; {bad} are not")
    if scales is None:
        scales = 2.0 ** -np.arange(3, 9)
    scales = np.sort(np.asarray(scales, dtype=float))[::-1]
    if len(scales) < 4 or not np.all(scales > 0.0):
        raise GeometryError(f"box dimension needs at least 4 positive scales, got {scales}")
    # contiguous columns: axis reductions over an (N, 2) array are strided
    x, y = x - x.min(), y - y.min()
    x_max, y_max = x.max(), y.max()
    counts = []
    for s in scales.tolist():
        nx, ny = np.floor(x_max / s) + 1.0, np.floor(y_max / s) + 1.0
        if nx * ny > BOX_COUNT_MAX_CELLS:
            raise GeometryError(
                f"box scale {s!r} needs a {nx:.0f} x {ny:.0f} grid, above "
                f"BOX_COUNT_MAX_CELLS = {BOX_COUNT_MAX_CELLS}"
            )
        occ = np.zeros(int(nx * ny), dtype=bool)
        occ[np.floor(x / s).astype(np.intp) * int(ny) + np.floor(y / s).astype(np.intp)] = True
        counts.append(np.count_nonzero(occ))
    counts = np.asarray(counts)
    x = np.log(1.0 / scales)[1:-1]
    y = np.log(counts)[1:-1]
    if len(x) < 3:
        raise GeometryError("fewer than 3 usable scales after dropping the ends")
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return BoxDimensionFit(
        estimate=float(slope),
        scales=scales,
        counts=counts,
        used_scales=scales[1:-1],
        fit_residual=resid,
    )


# ---------------------------------------------------------------------------
# Point-cloud files


def write_point_cloud(path: str, points: np.ndarray) -> None:
    """Binary little-endian float64 (x, y) pairs behind an 8-byte magic."""
    pts = np.asarray(points)
    if np.iscomplexobj(pts):
        xy = np.stack([pts.real, pts.imag], axis=-1)
    else:
        xy = pts.astype(float)
    with open(path, "wb") as fh:
        fh.write(POINT_CLOUD_MAGIC)
        fh.write(xy.astype("<f8").tobytes())


def read_point_cloud(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != POINT_CLOUD_MAGIC:
            raise GeometryError(f"bad point cloud magic {magic!r}")
        raw = fh.read()
    xy = np.frombuffer(raw, dtype="<f8").reshape(-1, 2)
    return xy[:, 0] + 1j * xy[:, 1]
