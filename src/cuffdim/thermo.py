"""Transfer operators, pressure, limit-set dimension and the Gibbs chain.

The boundary map on the four Schottky arcs is an expanding Markov map
whose invariant Cantor set has Hausdorff dimension delta, the unique root
of the pressure function s -> P(-s log|phi'|), that is, the s at which the
transfer operator (L_s h)(z) = sum over tau != bar(j) of
|phi_tau'(z)|^s h(phi_tau(z)), for z on arc j, has spectral radius 1.

The inverse branches phi_tau are Moebius maps, analytic on a neighbourhood
of the arcs, so ``hausdorff_delta`` collocates L_s: m first-kind
Chebyshev nodes in angle on each arc, each node mapped through every
admissible branch and read back by barycentric interpolation on the
image arc.  The 12 admissible (arc, branch) blocks are built in one
pass over (12, m) arrays, and the matrix at s broadcasts the per-node
weights |phi_tau'|^s over a block view of the interpolation rows rather
than repeating them.  The leading eigenvalue lambda_m of the dense
4m x 4m matrix converges spectrally in m.  Level n uses
m = round(4 * 2^(n/2)) nodes (16, 32, 64, 128 at n = 4, 6, 8, 10) and
solves log lambda_m(s) = 0 by Newton's method from the left, where
lambda_m dominates, with lambda_m and its left and right vectors from
warm-started power iteration; the root is tracked across levels until it
stabilizes.  No LAPACK eigensolver runs: the tests keep one, with
scipy's Brent method, as oracle.

The depth-n Markov discretization stays for the Gibbs chain, the
cover-scaling estimate and the ladder cross-check: the transition
w -> w' (drop the first symbol, append one) on depth-n reduced words
carries the contracting inverse-branch derivative of w's first symbol,
evaluated at the midpoint of the target cylinder arc and raised to the
power s, and ``pressure`` is the log of its Perron eigenvalue.  Every
word has exactly three successors and three predecessors, so M x and
M' x are three-term numpy gathers and x M one bincount, and
``pressure_root`` runs the collocation's Newton iteration on them.  The
locus refines a sign change of delta - target by the Illinois method,
which needs no derivative.

All derivative bookkeeping is done on log scale: cuff lengths up to 20
produce branch derivatives spanning hundreds of orders of magnitude.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .hyperbolic import GeometryError
from .pants import PantsGeometry, build_pants

if TYPE_CHECKING:
    from .symbolic import CylinderCover

LOG3 = math.log(3.0)
POWER_RTOL = 1e-12  # power iteration stops at l1 residual <= POWER_RTOL * lambda
POWER_MAXITER = 100_000
COLLOCATION_MAXITER = 20_000  # power steps per collocation solve; the most seen was 2,697
PRESSURE_BRACKET = (0.001, 0.999)  # s range searched for the pressure root
NEWTON_XTOL = 1e-14  # Newton stops once its step is this small, at full power accuracy
NEWTON_MAXITER = 100
_ADMITTED = np.array([[t for t in range(4) if t != s ^ 1] for s in range(4)])  # (4, 3) next symbols


# ---------------------------------------------------------------------------
# Transition skeleton (shared by every s at a given depth)


@dataclass(frozen=True, eq=False)
class TransitionSkeleton:
    depth: int
    cover: CylinderCover
    cols: np.ndarray  # (N, 3) successor indices in lex order
    log_deriv: np.ndarray  # (N, 3) log of the inverse-branch derivative


def transition_skeleton(p: PantsGeometry, n: int) -> TransitionSkeleton:
    if not 1 <= n <= 10:
        raise GeometryError(f"transfer depth {n} outside [1, 10]")
    cached = p._cache.get(("skeleton", n))
    if cached is not None:
        return cached

    from .symbolic import cylinder_cover  # only skeletons need the symbolic layer

    cover = cylinder_cover(p, n)
    w = cover.words.astype(np.int64)
    nwords = w.shape[0]
    if n == 1:
        cols = _ADMITTED[w[:, 0]]
    else:
        rem = np.arange(nwords, dtype=np.int64) - w[:, 0] * 3 ** (n - 1)
        base = (w[:, 1] * 3 ** (n - 1) + (rem % 3 ** (n - 2)) * 3)[:, None]
        cols = base + np.arange(3)

    _, den = p.inverse_branch(w[:, :1], cover.midpoints[cols])
    log_deriv = -2.0 * np.log(np.abs(den))

    skel = TransitionSkeleton(depth=n, cover=cover, cols=cols, log_deriv=log_deriv)
    p._cache[("skeleton", n)] = skel
    return skel


def _gather(idx: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k w[k] * x[idx[k]] over the three rows of (3, N) tables, in order."""
    terms = x[idx]
    terms *= w
    y = terms[0]
    y += terms[1]
    y += terms[2]
    return y


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Depth-n transfer matrix M at exponent s, stored by its three terms.

    Row i holds ``weights[i, k]`` in column ``skeleton.cols[i, k]``.  The
    products sum their terms in ascending column (M x) or row (x M) order,
    the order a CSR product of the same matrix uses, so they agree with it
    bit for bit.
    """

    depth: int
    s: float
    weights: np.ndarray  # (N, 3) exp(s * log_deriv)
    skeleton: TransitionSkeleton

    # The gathers read contiguous (3, N) index and weight tables: strided
    # columns of the (N, 3) arrays make each product markedly slower.
    @functools.cached_property
    def _succ_terms(self) -> tuple[np.ndarray, np.ndarray]:
        return np.ascontiguousarray(self.skeleton.cols.T), np.ascontiguousarray(self.weights.T)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M x."""
        return _gather(*self._succ_terms, x)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """x M: bincount adds each column's three terms in ascending row order."""
        return np.bincount(self.skeleton.cols.ravel(), (self.weights * x[:, None]).ravel(), len(x))

    def dmatvec(self, x: np.ndarray) -> np.ndarray:
        """M' x, the product with the s-derivative of M."""
        return _gather(self._succ_terms[0], self._succ_terms[1] * self.skeleton.log_deriv.T, x)


def transfer_matrix(p: PantsGeometry, s: float, n: int) -> TransferMatrix:
    """Weighted depth-n transition matrix at exponent s."""
    if not 0.0 <= s <= 1.5:
        raise GeometryError(f"exponent s={s} outside [0, 1.5]")
    skel = transition_skeleton(p, n)
    return TransferMatrix(depth=n, s=s, weights=np.exp(s * skel.log_deriv), skeleton=skel)


# ---------------------------------------------------------------------------
# Perron data and pressure


def _perron(apply, n: int, x0=None, rtol=POWER_RTOL, maxiter=POWER_MAXITER):
    """Perron eigenvalue and eigenvector of an n x n operator, given as its
    product ``apply(x)``, by power iteration from x0 (uniform by default)
    until the l1 residual is at most rtol * lambda.  A NaN sum, or a sum
    at or below 0 that the residual settles on, raises at that step."""
    # np.add.reduce is what ndarray.sum runs, without its Python-level wrapper
    x = np.full(n, 1.0 / n) if x0 is None else x0 / np.add.reduce(x0)
    for step in range(1, maxiter + 1):
        y = apply(x)
        lam = np.add.reduce(y)
        res = np.add.reduce(np.abs(y - lam * x))
        if not res > rtol * -lam:  # a sum may dip below 0 and recover
            raise GeometryError(f"power sum {float(lam)!r} at step {step} is not positive")
        x = y / lam
        if res <= rtol * lam:
            return lam, x
    raise GeometryError(
        f"power iteration did not reach residual {rtol} in {maxiter} steps"
    )


def pressure(p: PantsGeometry, s: float, n: int) -> float:
    """Depth-n pressure of -s log|phi'|: log of the Perron eigenvalue."""
    tm = transfer_matrix(p, s, n)
    try:
        lam, _ = _perron(tm.matvec, len(tm.weights))
    except GeometryError as exc:
        raise GeometryError(f"cuffs {p.cuffs.as_tuple()} at depth {n}, s={s!r}: {exc}") from exc
    return math.log(lam)


# ---------------------------------------------------------------------------
# Dimension as the pressure root


@dataclass(frozen=True)
class DeltaResult:
    delta: float
    depth_used: int
    roots: tuple[tuple[int, float], ...]
    converged: bool
    last_gap: float
    pressure_residual: float
    nodes: int  # Chebyshev nodes per arc at depth_used

    def as_dict(self) -> dict:
        return {**asdict(self), "roots": {str(d): r for d, r in self.roots}}


def pressure_root(p: PantsGeometry, n: int) -> float:
    """Root of the depth-n pressure on PRESSURE_BRACKET, by Newton's method from its left end."""

    def at(s):
        tm = transfer_matrix(p, s, n)
        return tm.matvec, tm.rmatvec, tm.dmatvec

    nwords = len(transition_skeleton(p, n).cols)  # checks n before any solve
    where, site = f"cuffs {p.cuffs.as_tuple()}", f"at depth {n}"
    return _newton_root(at, nwords, PRESSURE_BRACKET[0], None, None, where, site, POWER_MAXITER)[0]


# ---------------------------------------------------------------------------
# Chebyshev collocation of the transfer operator


def collocation_nodes(n: int) -> int:
    """Chebyshev nodes per arc at collocation level n: round(4 * 2^(n/2))."""
    if not 1 <= n <= 10:
        raise GeometryError(f"collocation level {n} outside [1, 10]")
    return round(4.0 * 2.0 ** (0.5 * n))


def check_ladder(levels) -> tuple[int, ...]:
    """The collocation levels as a tuple: at least one, each valid, strictly increasing."""
    levels = tuple(levels)
    if not levels:
        raise GeometryError("hausdorff_delta needs at least one collocation level")
    for n in levels:
        collocation_nodes(n)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise GeometryError(f"collocation levels {levels} do not strictly increase")
    return levels


def check_tol(tol: float) -> None:
    """Refuse a ladder tolerance of ``hausdorff_delta`` that is not finite or below 1e-6."""
    if not tol < math.inf:
        raise GeometryError(f"tolerance {tol} is not finite")
    if tol < 1e-6:
        raise GeometryError(f"tolerance {tol} below the supported 1e-6")


@functools.lru_cache(maxsize=64)
def chebyshev_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """First-kind Chebyshev nodes on [-1, 1] and their barycentric weights,
    computed once per m as read-only arrays."""
    angles = (2 * np.arange(m) + 1) * (math.pi / (2 * m))
    signs = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    x, w = np.cos(angles), signs * np.sin(angles)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def barycentric_rows(t: np.ndarray, m: int) -> np.ndarray:
    """Rows that interpolate values at the m Chebyshev nodes to points t.
    A point on a node gets that node's unit row; the fix-up runs only when
    some point hits a node."""
    x, w = chebyshev_nodes(m)
    diff = np.asarray(t, dtype=float)[:, None] - x[None, :]
    exact = None if diff.all() else diff == 0.0
    if exact is not None:
        diff[exact] = 1.0
    rows = w / diff
    rows /= rows.sum(axis=1, keepdims=True)
    if exact is not None:
        hit = exact.any(axis=1)
        rows[hit] = exact[hit]
    return rows


@dataclass(frozen=True, eq=False)
class Collocation:
    """Geometry of the m-node collocation of L_s; only the weights vary with s.

    Row block j holds the nodes of arc j, column block tau the nodes of
    arc tau.  ``interp`` carries the barycentric rows of arc tau at the
    images phi_tau(z) of the arc-j nodes z, and is zero on the forbidden
    blocks tau = bar(j); ``log_weight`` is log|phi_tau'(z)| per node and
    target arc.
    """

    m: int
    interp: np.ndarray  # (4m, 4m)
    log_weight: np.ndarray  # (4m, 4)

    def matrix(self, s: float) -> np.ndarray:
        """interp with column block tau of row i scaled by |phi_tau'|^s: the
        weights broadcast over an (n, 4, m) view, and are not repeated m times."""
        n = 4 * self.m
        weights = np.exp(s * self.log_weight)[:, :, None]
        return (self.interp.reshape(n, 4, self.m) * weights).reshape(n, n)

    def products(self, s: float):
        """x -> A x, x -> x A and x -> A' x = (A o LW) x for A = matrix(s), LW the log weights."""
        a, m = self.matrix(s), self.m
        return a.dot, a.__rmatmul__, lambda r: np.einsum(
            "it,itk,tk->i", self.log_weight, a.reshape(-1, 4, m), r.reshape(4, m))


def collocation(p: PantsGeometry, m: int) -> Collocation:
    """The m-node collocation of p's transfer operator, cached on p.

    One pass builds the 12 admissible (arc j, branch tau) blocks,
    tau != bar(j): the nodes of every arc go through their branches as one
    (12, m) array, the image coordinates through one barycentric call, and
    the rows are scattered into the zero (4, m, 4, m) block array.
    """
    cached = p._cache.get(("collocation", m))
    if cached is not None:
        return cached
    x, _ = chebyshev_nodes(m)
    j, tau = np.nonzero((np.arange(4) ^ 1)[:, None] != np.arange(4))
    img, den = p.inverse_branch(tau[:, None], p.arc_point(j[:, None], x))
    t = p.arc_coordinate(tau[:, None], np.angle(img))
    interp = np.zeros((4, m, 4, m))
    interp[j, :, tau, :] = barycentric_rows(t.ravel(), m).reshape(12, m, m)
    log_weight = np.zeros((4, m, 4))
    log_weight[j, :, tau] = -2.0 * np.log(np.abs(den))
    col = Collocation(m, interp.reshape(4 * m, 4 * m), log_weight.reshape(4 * m, 4))
    p._cache[("collocation", m)] = col
    return col


class _NoBracket(GeometryError):
    """log lambda(s) has no root on PRESSURE_BRACKET that Newton can reach."""


def _newton_root(at, n: int, s: float, r, l, where: str, site: str, maxiter: int):
    """Root of log lambda, |log lambda| there, and the Perron vectors r, l of
    the n x n operator A(s) whose products x -> A x, x A, A' x are at(s), by
    Newton's method from s (or 0.001 if log lambda(s) <= 0).  The function
    is convex and decreasing, so the steps climb to the root, passing it
    only by a loose slope's error, short of where a second eigenvalue may
    come close.  Errors name the solve by ``where`` and ``site`` ("at 16 nodes", "at depth 5")."""
    lo, hi = PRESSURE_BRACKET
    f_prev = None
    for _ in range(NEWTON_MAXITER):
        rtol = 1e-6 if f_prev is None else max(1e-13, min(1e-6, 1e-4 * abs(f_prev)))
        apply, rapply, dapply = at(s)
        try:
            _, r = _perron(apply, n, r, rtol, maxiter)
            _, l = _perron(rapply, n, l, min(1e-3, math.sqrt(rtol)), maxiter)
        except GeometryError as exc:
            raise GeometryError(f"{where} {site}, s={s!r}: {exc}") from exc
        # the two-sided quotient is accurate to the product of the vectors' errors, so l, which
        # the slope <l, A' r> / (lambda <l, r>) also uses, needs only the root of r's tolerance
        lr = float(l @ r)
        lam = float(l @ apply(r)) / lr
        slope = float(l @ dapply(r)) / (lam * lr)
        if not (0.0 < lam < math.inf and math.isfinite(lr) and math.isfinite(slope)):
            raise GeometryError(
                f"{where} {site}, s={s!r}: two-sided quotient <l, A r> / <l, r> = "
                f"{lam!r} is not a positive finite eigenvalue (<l, r> = {lr!r}, slope {slope!r})"
            )
        f = math.log(lam)
        if f_prev is None and f <= 0.0 and s > lo:
            s = lo
            continue
        if f_prev is None and f <= 0.0:
            raise _NoBracket(
                f"log eigenvalue has its root below {lo} {site} for {where}: "
                f"{f:.4g} at s={s!r}"
            )
        step = -f / slope
        if rtol <= POWER_RTOL and abs(step) <= NEWTON_XTOL:
            return s, abs(f), r, l
        if s + step < lo:
            raise GeometryError(
                f"{where} {site}, s={s!r}: Newton step {step:.4g} leaves the bracket "
                f"below {lo} at s={s + step:.4g}"
            )
        if s + step >= hi:
            raise _NoBracket(
                f"log eigenvalue has its root above {hi} {site} for {where}: "
                f"{f:.4g} at s={s!r}, Newton step {step:.4g} predicts s={s + step:.4g}"
            )
        s, f_prev = s + step, f
    raise GeometryError(f"{where} {site}: Newton took {NEWTON_MAXITER} steps")


def hausdorff_delta(
    p: PantsGeometry, tol: float = 1e-4, depths: tuple[int, ...] = (4, 6, 8, 10)
) -> DeltaResult:
    """Limit-set dimension by Chebyshev collocation of the transfer operator.

    The levels in ``depths`` must strictly increase.  Level n collocates
    with m = round(4 * 2^(n/2)) first-kind Chebyshev nodes per arc (16,
    23, 32, 45, 64, 91, 128 at n = 4..10) and solves log lambda_m(s) = 0 by
    Newton's method from the left: from s = 0.001 at the first level, and
    from 0.01 below the previous root after it, with the Perron vectors
    carried to the new nodes.  A level whose root lies outside
    PRESSURE_BRACKET is skipped; only the last one raises, naming the end
    the root lies beyond.  A Newton step to the left of the bracket, or a
    two-sided quotient that is not a positive finite eigenvalue, raises at
    once.  Stops as soon as successive roots differ by less than ``tol``,
    which must be finite and at least 1e-6;
    the result carries the roots of the solved levels so the refinement
    tail is visible, and ``pressure_residual`` is |log lambda_m(delta)| at
    the last one.
    """
    check_tol(tol)
    depths = check_ladder(depths)  # before any solve, not only when a level is reached
    lo = PRESSURE_BRACKET[0]
    roots: list[tuple[int, float]] = []
    gap = math.inf
    r = l = None
    for k, n in enumerate(depths):
        m = collocation_nodes(n)
        if r is not None:  # interpolate per arc; normalization stands in for l's m_old/m
            rows = barycentric_rows(chebyshev_nodes(m)[0], len(r) // 4).T
            r, l = (r.reshape(4, -1) @ rows).ravel(), (l.reshape(4, -1) @ rows).ravel()
        s = max(lo, roots[-1][1] - 0.01) if roots else lo
        try:
            root, residual, r, l = _newton_root(
                collocation(p, m).products, 4 * m, s, r, l, f"cuffs {p.cuffs.as_tuple()}",
                f"at {m} nodes", COLLOCATION_MAXITER,
            )
        except _NoBracket:
            if k == len(depths) - 1:
                raise
            r = l = None
            continue
        roots.append((n, root))
        if len(roots) >= 2:
            gap = abs(roots[-1][1] - roots[-2][1])
            if gap < tol:
                break
    n_used, delta = roots[-1]
    return DeltaResult(
        delta, n_used, tuple(roots), gap < tol, gap, residual, collocation_nodes(n_used)
    )


def moran_cover_counts(p: PantsGeometry, eps_ladder) -> tuple[np.ndarray, np.ndarray]:
    """Minimal cylinder-cover counts of the limit set at each scale.

    A cylinder is minimal for scale eps when its arc is shorter than eps
    but its parent's is not; the count of minimal cylinders is a covering
    number N(eps) whose log-log slope against 1/eps estimates the
    dimension.  Cylinders are refined breadth-first, each node carrying
    the composed inverse-branch map so arc lengths come out of one exact
    chordal contraction formula per node.
    """
    eps = np.sort(np.asarray(eps_ladder, dtype=float))
    diff = np.zeros(len(eps) + 1, dtype=np.int64)
    arc_p = p.arc_point(np.arange(4), -1.0)
    arc_q = p.arc_point(np.arange(4), 1.0)
    arc_chord = np.abs(arc_q - arc_p)

    u = np.ones(4, complex)
    v = np.zeros(4, complex)
    last = np.arange(4)
    parent_len = np.full(4, 2.0 * math.pi)
    while len(u):
        x, y = arc_p[last], arc_q[last]
        den_x = np.abs(np.conj(v) * x + np.conj(u))
        den_y = np.abs(np.conj(v) * y + np.conj(u))
        chord = arc_chord[last] / (den_x * den_y)
        length = 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0))
        i_lo = np.searchsorted(eps, length, side="right")
        i_hi = np.searchsorted(eps, parent_len, side="right")
        np.add.at(diff, i_lo, 1)
        np.add.at(diff, i_hi, -1)
        active = length >= eps[0]
        u, v, last, length = u[active], v[active], last[active], length[active]
        if not len(u):
            break
        nu, nv = p.compose_branch(u, v, last)
        # a node's three children share its map and end in the symbols its last one admits
        u, v, parent_len = np.repeat(nu, 3), np.repeat(nv, 3), np.repeat(length, 3)
        last = _ADMITTED[last].ravel()
    return eps, np.cumsum(diff)[:-1]


def cover_scaling_delta(p: PantsGeometry, max_leaves: int = 250_000):
    """Dimension estimate from cover scaling, independent of the operator.

    Least-squares slope of log N(eps) against log(1/eps) over a dyadic
    ladder of scales, where N(eps) counts minimal covering cylinders.  The
    scale floor is chosen from a cheap low-depth root so the leaf count
    stays near ``max_leaves``.
    """
    rough = pressure_root(p, 5)
    k_max = max(10, int(math.log2(max_leaves) / rough))
    eps = 2.0 ** -np.arange(4, k_max + 1)
    eps, counts = moran_cover_counts(p, eps)
    good = counts > 0
    x = np.log(1.0 / eps[good])[2:]  # drop the coarsest transient scales
    y = np.log(counts[good])[2:]
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), {
        "eps": eps[good].tolist(),
        "counts": counts[good].tolist(),
        "intercept": float(intercept),
        "rough_root": rough,
    }


# ---------------------------------------------------------------------------
# The Gibbs chain


@dataclass(frozen=True, eq=False)
class GibbsChain:
    """Stationary Markov chain on depth-n words induced by the transfer matrix.

    Its stationary law, products of left and right Perron vector entries,
    is the Gibbs measure on the depth-n cylinders of ``skeleton.cover``:
    near the pressure root, the invariant Gibbs measure of the boundary map.
    """

    depth: int
    s: float
    skeleton: TransitionSkeleton
    transition_probs: np.ndarray  # (N, 3)
    stationary: np.ndarray  # (N,)


def gibbs_chain(p: PantsGeometry, s: float, n: int) -> GibbsChain:
    tm = transfer_matrix(p, s, n)
    lam, right = _perron(tm.matvec, len(tm.weights))
    _, left = _perron(tm.rmatvec, len(tm.weights))
    skel = tm.skeleton
    probs = tm.weights * right[skel.cols] / (lam * right[:, None])
    probs = probs / probs.sum(axis=1, keepdims=True)  # exact row normalization
    pi = left * right
    pi = pi / pi.sum()
    return GibbsChain(depth=n, s=s, skeleton=skel, transition_probs=probs, stationary=pi)


def entropy_identity_check(p: PantsGeometry, delta: float, n: int) -> float:
    """Relative residual of h - delta * chi for the depth-n Gibbs chain.

    h is the chain entropy rate and chi the Lyapunov integral of the
    boundary map; both are exact functionals of the stationary chain.
    """
    chain = gibbs_chain(p, delta, n)
    pi, probs = chain.stationary, chain.transition_probs
    h = -float(np.sum(pi[:, None] * probs * np.log(probs)))
    chi = -float(np.sum(pi[:, None] * probs * chain.skeleton.log_deriv))
    if chi <= 0:
        raise GeometryError("nonpositive Lyapunov integral: map is not expanding")
    return abs(h - delta * chi) / chi


# ---------------------------------------------------------------------------
# The dimension locus


LOCUS_DELTA_TOL = 1e-5  # ladder tolerance of every delta solve on the locus
LOCUS_C_RANGE = (0.05, 20.0)  # c range solve_locus scans
LOCUS_A_RANGE = (0.2, 12.0)  # a = b = c range solve_locus_symmetric scans
LOCUS_SCAN_POINTS = 8  # geometric scan points before the root refinement


def _illinois(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """Root of f between a and b, where fa = f(a) and fb = f(b) differ in sign, within
    xtol, by the Illinois method (Dowell & Jarratt, BIT 11, 1971): regula falsi that
    halves the kept end's value when two points in a row fall on one side.  A step onto
    or past an end bisects, as do the last n of 3n steps, n the bisections that reach
    xtol; so no point is evaluated twice, and a bracket left wider than xtol is refused."""
    n = math.ceil(math.log2(max(abs(b - a) / xtol, 1.0)))
    for step in range(3 * n):
        if abs(b - a) <= xtol:
            return b
        c = b - fb * (b - a) / (fb - fa)
        if step >= 2 * n or not min(a, b) < c < max(a, b):
            c = a + 0.5 * (b - a)
        fc = f(c)
        if fc == 0.0:
            return c
        # b moves to c; a takes the old b if c crossed the root, else a's value halves
        a, fa = (b, fb) if (fc < 0.0) != (fb < 0.0) else (a, 0.5 * fa)
        b, fb = c, fc
    if abs(b - a) > xtol:
        raise GeometryError(f"Illinois bracket [{a!r}, {b!r}] wider than {xtol} in {3 * n} steps")
    return b


@functools.lru_cache(maxsize=64)
def _delta_at(cuffs, depths, tol) -> DeltaResult:
    """delta at a locus point; cached so a caller can read back the root's."""
    return hausdorff_delta(build_pants(cuffs), tol=tol, depths=depths)


def _bracketed_solve(cuffs_at, xs, target: float, tol: float, depths, what: str) -> float:
    """Coarse scan for a sign change of delta(cuffs_at(x)) - target, then
    Illinois root refinement.

    Scan points where the dimension itself is not computable (degenerate
    geometry, power-iteration failure) are skipped; with no bracket the
    error names each distinct failure.  delta is solved at most once per
    point, so the rechecks reuse the solve the Illinois method made at the
    root.  The bracket may rest on unconverged scan values, but delta at
    the returned root must be converged.
    """
    if not 0.05 < target < 0.95:
        raise GeometryError(f"target {target} outside (0.05, 0.95)")
    if not 0.0 < tol < math.inf:
        raise GeometryError(f"locus tolerance {tol} on |delta - target| is not finite and positive")
    xs = [float(x) for x in xs]  # plain floats, so failures name the cuffs legibly
    seen = {}

    def g(x: float) -> float:
        if x not in seen:
            seen[x] = _delta_at(cuffs_at(x), depths, tol=LOCUS_DELTA_TOL)
        return seen[x].delta - target

    def accept(x: float) -> float:
        res = seen[x]
        if not res.converged:
            cuffs = tuple(float(c) for c in cuffs_at(x))
            raise GeometryError(
                f"{what}: delta at cuffs {cuffs} is unconverged over depths "
                f"{depths}: gap {res.last_gap:.2e} >= {LOCUS_DELTA_TOL}"
            )
        return float(x)

    vals, failures = [], {}
    for x in xs:
        try:
            vals.append(g(x))
        except GeometryError as exc:
            vals.append(None)
            failures[str(exc)] = None
    for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]):
        if v0 is None or v1 is None:
            continue
        if v0 == 0.0:
            return accept(x0)
        if v0 * v1 < 0:
            root = _illinois(g, x0, x1, v0, v1, 1e-10)
            err = abs(g(root))
            if err > tol:
                raise GeometryError(f"{what} converged but |delta-target|={err:.2e} > {tol}")
            return accept(root)
    scanned = ", ".join(
        f"{x:.3f}: " + ("failed" if v is None else f"delta={v + target:.4f}")
        for x, v in zip(xs, vals)
    )
    causes = "".join(f"; failed: {msg}" for msg in failures)
    raise GeometryError(f"no delta={target} bracket for {what}; scan: {scanned}{causes}")


def solve_locus(
    a: float, b: float, target: float, tol: float = 1e-3, depths: tuple[int, ...] = (6, 8)
) -> float:
    """Third cuff length c in LOCUS_C_RANGE with delta(a, b, c) = target.

    Monotonicity of delta in c is not assumed: a geometric scan of
    LOCUS_SCAN_POINTS brackets a sign change first, then the Illinois
    method refines it.  Raises ``GeometryError`` when delta at the
    root is unconverged.
    """
    cs = np.geomspace(*LOCUS_C_RANGE, LOCUS_SCAN_POINTS)
    return _bracketed_solve(
        lambda c: (a, b, c), cs, target, tol, depths, f"locus in c over {LOCUS_C_RANGE}"
    )


def solve_locus_symmetric(
    target: float, tol: float = 1e-3, depths: tuple[int, ...] = (6, 8)
) -> float:
    """Cuff length a in LOCUS_A_RANGE with delta(a, a, a) = target (one-parameter locus slice)."""
    xs = np.geomspace(*LOCUS_A_RANGE, LOCUS_SCAN_POINTS)
    return _bracketed_solve(
        lambda a: (a, a, a), xs, target, tol, depths, f"symmetric locus over {LOCUS_A_RANGE}"
    )
