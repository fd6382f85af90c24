"""The four benchmark workloads.

Each workload is a closed loop with one caller: ``ops()`` returns a fixed,
seeded list of calls that run one after another.  The amount of work is
fixed by ``--seconds`` (not by a deadline), so two commits run the same
inputs.  ``setup()`` imports the package and builds the fixtures; it is the
part ``setup_s`` times.  Oracles run after the timed section.

Layer functions are always reached through module attributes
(``self.thermo.hausdorff_delta``) so that the traced run's wrappers see
every call.  numpy is imported inside functions, never at module level,
so that ``setup_s`` includes its import.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
import time

# Chebyshev-collocation reference values (ROADMAP, open item 2).
A_HALF = 2.4350334764413515  # symmetric cuff with delta = 1/2 (tests/conftest.py)
DELTA_ORACLE = (
    ((2.0, 2.0, 2.0), 0.56996564952),
    ((1.0, 2.0, 3.0), 0.574266303640),
    ((5.0, 5.0, 5.0), 0.272613523608),
    ((A_HALF, A_HALF, A_HALF), 0.5),
)
DELTA_ORACLE_TOL = 1e-4
# Symmetric cuff with delta = 0.3, as solved by criterion 11's fixture.
A_03 = 4.511068895181121

CUFF_BOX = (0.3, 8.0)  # criterion 02's box
DEPTHS = (4, 6, 8)


def _import(*names):
    return [importlib.import_module(f"cuffdim.{n}") for n in names]


def r3_design(n: int, seed: int, jitter: float = 1.0 / 1024) -> list[tuple[float, float, float]]:
    """n cuff triples spread evenly over CUFF_BOX^3, nudged by the seed.

    Points of the R3 low-discrepancy sequence (additive recurrence on the
    plastic number) fill the cube evenly; the seed moves each coordinate by
    at most ``jitter`` of the box edge and shuffles the order.  A few
    triples sit in power-iteration stall pockets or on the edge between
    converging at depth 6 and needing depth 8, so redrawing the whole set
    per seed would make run-to-run spread measure the draw, not the program.
    """
    g = 1.32471795724474602596  # plastic number
    alpha = (1.0 / g, 1.0 / g**2, 1.0 / g**3)
    rng = random.Random(seed)
    lo, hi = CUFF_BOX
    out = []
    for i in range(n):
        u = [((0.5 + (i + 1) * a) % 1.0) + rng.uniform(-jitter, jitter) for a in alpha]
        out.append(tuple(lo + (hi - lo) * min(1.0, max(0.0, x)) for x in u))
    rng.shuffle(out)
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int, root: str, work_dir: str):
        self.seed, self.seconds, self.root, self.work_dir = seed, seconds, root, work_dir
        self.notes: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """One call of each op kind, untimed by the loop, so lazy imports,
        first-use caches and the allocator's large-block threshold are
        settled before the clock starts.  Its cost counts in ``setup_s``."""

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, records) -> list[str]:
        """Oracle failures after the timed section; empty when all hold."""
        return []

    def expected_errors(self) -> tuple:
        from cuffdim.hyperbolic import GeometryError

        return (GeometryError,)


# ---------------------------------------------------------------------------


class Dimension(Workload):
    """Fresh build + validate + hausdorff_delta per triple, cold caches."""

    name = "dimension"

    def setup(self):
        self.pants, self.thermo = _import("pants", "thermo")
        # 24 triples at 20 s.  The tail rank (n - 10) then falls among the
        # ~70 ms ops that converge at depth 6 instead of on the jump to the
        # depth-8 and unconverged ops, where it reads 78-130 ms run to run.
        self.triples = r3_design(max(8, round(1.2 * self.seconds)), self.seed)

    def _op(self, cuffs):
        p = self.pants.build_pants(cuffs)
        report = self.pants.validate_pants(p)
        res = self.thermo.hausdorff_delta(p, tol=1e-4, depths=DEPTHS)
        return {
            "validator_passed": report.passed,
            "converged": res.converged,
            "delta": res.delta,
            "residual": res.pressure_residual,
        }

    def warm(self):
        self._op(DELTA_ORACLE[0][0])

    def ops(self):
        return [("delta", lambda t=t: self._op(t)) for t in self.triples]

    def check(self, records):
        errors = []
        for rec in records:
            out = rec.outcome
            if rec.failure is None and not (0.0 < out["delta"] < 1.0 and out["residual"] < 1e-8):
                errors.append(f"delta {out['delta']} residual {out['residual']:.1e} out of range")
        for cuffs, ref in DELTA_ORACLE:
            res = self.thermo.hausdorff_delta(self.pants.build_pants(cuffs), tol=1e-4, depths=DEPTHS)
            err = abs(res.delta - ref)
            self.notes.setdefault("delta_oracle", {})[str(cuffs)] = err
            if not res.converged or err > DELTA_ORACLE_TOL:
                errors.append(f"delta oracle {cuffs}: converged={res.converged} |err|={err:.2e}")
        return errors


# ---------------------------------------------------------------------------


def box_intervals(cover, lam: float):
    """Each box's projection onto direction lam as (lo, hi), from its centre
    and half-width with the same operations as ``project_cover_length``."""
    c, s = math.cos(lam), math.sin(lam)
    mid = 0.5 * (cover.x0 + cover.x1) * c + 0.5 * (cover.y0 + cover.y1) * s
    hw = 0.5 * (cover.x1 - cover.x0) * abs(c) + 0.5 * (cover.y1 - cover.y0) * abs(s)
    return mid - hw, mid + hw


def corner_intervals(cover, lam: float):
    """Each box's projection as the min and max over its four corners."""
    import numpy as np

    c, s = math.cos(lam), math.sin(lam)
    corners = [x * c + y * s for x in (cover.x0, cover.x1) for y in (cover.y0, cover.y1)]
    return np.minimum.reduce(corners), np.maximum.reduce(corners)


def union_length_plain(lo, hi) -> float:
    """Length of a union of intervals by a plain sorted sweep."""
    pieces = []
    cur_lo = cur_hi = None
    for a, b in sorted(zip(lo.tolist(), hi.tolist())):
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                pieces.append(cur_hi - cur_lo)
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        pieces.append(cur_hi - cur_lo)
    return math.fsum(pieces)


def segment_length_exact(depth: int, lam: float) -> float:
    """Closed form for segment_cover(depth): boxes of side h on the diagonal."""
    h = 2.0 ** -depth
    c, s = math.cos(lam), math.sin(lam)
    return abs(c + s) * (1.0 - h) + h * (abs(c) + abs(s))


class Projection(Workload):
    """Every cover projected onto the full, ordered direction grid."""

    name = "projection"
    ORACLE_DIRECTIONS = 3

    def setup(self):
        (self.pants, self.projlab) = _import("pants", "projlab")
        rng = random.Random(self.seed)
        self.cuffs = tuple(rng.uniform(*CUFF_BOX) for _ in range(3))
        p = self.pants.build_pants(self.cuffs)
        pl = self.projlab
        self.covers = [pl.product_cover(p, n) for n in (4, 5, 6)]
        self.covers += [pl.four_corner_cover(8), pl.segment_cover(8)]
        self.grid = max(16, 8 * self.seconds)
        self.lams = pl.lambda_grid(self.grid).tolist()
        self.notes.update(cuffs=self.cuffs, grid=self.grid,
                          boxes={c.label: c.n_boxes for c in self.covers})

    def warm(self):
        for cover in self.covers:
            self.projlab.project_cover_length(cover, 0.5)

    def ops(self):
        return [
            (cover.label, lambda c=cover, l=lam: self.projlab.project_cover_length(c, l))
            for cover in self.covers
            for lam in self.lams
        ]

    def check(self, records):
        errors = []
        lengths = {}
        i = 0
        for cover in self.covers:
            lengths[cover.label] = [r.outcome for r in records[i:i + self.grid]]
            i += self.grid
        rng = random.Random(self.seed + 1)
        worst = worst_endpoint = 0.0
        for cover in self.covers:
            got = lengths[cover.label]
            for k in rng.sample(range(self.grid), self.ORACLE_DIRECTIONS):
                lo, hi = box_intervals(cover, self.lams[k])
                c_lo, c_hi = corner_intervals(cover, self.lams[k])
                end_err = float(max(abs(lo - c_lo).max(), abs(hi - c_hi).max()))
                worst_endpoint = max(worst_endpoint, end_err)
                if end_err > 1e-14:
                    errors.append(f"{cover.label} at lambda={self.lams[k]:.6f}: "
                                  f"interval endpoints off the box corners by {end_err:.2e}")
                err = abs(got[k] - union_length_plain(lo, hi))
                worst = max(worst, err)
                if err > 1e-12:
                    errors.append(f"{cover.label} at lambda={self.lams[k]:.6f}: |diff|={err:.2e}")
        self.notes["oracle_worst_endpoint_abs"] = worst_endpoint
        seg = self.covers[-1]
        for lam, got in zip(self.lams, lengths[seg.label]):
            err = abs(got - segment_length_exact(seg.depth, lam))
            worst = max(worst, err)
            if err > 1e-12:
                errors.append(f"{seg.label} closed form at lambda={lam:.6f}: |diff|={err:.2e}")
        self.notes["oracle_worst_abs"] = worst
        return errors


# ---------------------------------------------------------------------------


class Geodesics(Workload):
    """Gibbs chain, complete-geodesic sampler + box dimension, deep traces.

    The geometry is the paper's delta = 1/2 pants (criteria 09 and 11); the
    seed draws the Gibbs pairs and the sampler streams.  Criterion 11's
    box-dimension check 1 + 2 delta holds only for delta <= 1/2, and the
    extended-precision tracer fails for most geometries (see README), so a
    seeded geometry would make every metric bimodal across seeds.
    """

    name = "geodesics"
    SAMPLER_CALLS = 16
    SAMPLER_POINTS = 62_500  # 16 calls pool 10^6 points
    TRACE_N, TRACE_WORD, TRACE_PREC = 30, 48, 80

    def setup(self):
        self.pants, self.thermo, self.projlab, self.symbolic = _import(
            "pants", "thermo", "projlab", "symbolic")
        self.cuffs = (A_HALF, A_HALF, A_HALF)
        self.p = self.pants.build_pants(self.cuffs)
        self.delta = self.thermo.hausdorff_delta(self.p, tol=1e-4, depths=DEPTHS).delta
        self.n_traces = max(self.SAMPLER_CALLS, round(45 * self.seconds))
        self.pairs = self._gibbs_pairs(self.p, self.delta, self.n_traces, self.seed)
        self.chain = None

    def _gibbs_pairs(self, p, delta, count, key):
        """Criterion 03's recipe: stationary draws with distinct first
        symbols, extended to 48-symbol words by chain steps."""
        import numpy as np

        chain = self.thermo.gibbs_chain(p, delta, 6)
        rng = np.random.Generator(np.random.Philox(key=key % 2**64))
        pi_cum = np.cumsum(chain.stationary)
        pi_cum[-1] = 1.0
        first = chain.skeleton.cover.words[:, 0]
        xi = np.searchsorted(pi_cum, rng.random(count))
        eta = np.searchsorted(pi_cum, rng.random(count))
        clash = first[xi] == first[eta]
        while clash.any():
            eta[clash] = np.searchsorted(pi_cum, rng.random(int(clash.sum())))
            clash = first[xi] == first[eta]
        xw = self.projlab._extend_words(chain, xi, rng, self.TRACE_WORD)
        ew = self.projlab._extend_words(chain, eta, rng, self.TRACE_WORD)
        return [(tuple(map(int, a)), tuple(map(int, b))) for a, b in zip(xw, ew)]

    def _gibbs(self):
        self.chain = self.thermo.gibbs_chain(self.p, self.delta, 6)
        return {}

    def _sample(self, k):
        s = self.projlab.sample_complete_geodesic_points(
            self.p, self.chain, self.SAMPLER_POINTS, seed=(self.seed % 2**32) * 1000 + k)
        fit = self.projlab.box_dimension(s.points, min_points=self.SAMPLER_POINTS)
        return {"points": s.points, "box_dimension": fit.estimate}

    def _trace(self, xi, eta):
        sym = self.symbolic
        pair = sym.GeodesicPair(sym.Ray(xi), sym.Ray(eta))
        word = sym.cutting_sequence_trace(self.p, pair, self.TRACE_N, prec=self.TRACE_PREC)
        return {"mismatch": word != xi[:self.TRACE_N], "length": len(word)}

    def warm(self):
        self._gibbs()
        self._sample(0)
        self._trace(*self.pairs[0])
        self.chain = None

    def ops(self):
        out = [("gibbs_chain", self._gibbs)]
        per = len(self.pairs) // self.SAMPLER_CALLS
        for k in range(self.SAMPLER_CALLS):
            out.append(("sampler", lambda k=k: self._sample(k)))
            chunk = self.pairs[k * per:(k + 1) * per] if k < self.SAMPLER_CALLS - 1 else self.pairs[k * per:]
            out += [("trace", lambda x=x, e=e: self._trace(x, e)) for x, e in chunk]
        return out

    def check(self, records):
        import numpy as np

        errors = []
        bad = [r for r in records if r.kind == "trace" and r.failure is not None]
        if bad:
            errors.append(f"{len(bad)} traces differ from their xi prefix")
        pooled = [r.outcome["points"] for r in records if r.kind == "sampler" and r.failure is None]
        n_points = sum(len(x) for x in pooled)
        self.notes["pooled_points"] = n_points
        if n_points >= 10**6:
            est = self.projlab.box_dimension(np.concatenate(pooled)).estimate
            self.notes["pooled_box_dimension"] = est
            self.notes["target_1_plus_2delta"] = 1.0 + 2.0 * self.delta
            if abs(est - (1.0 + 2.0 * self.delta)) >= 0.15:
                errors.append(f"pooled box dimension {est:.3f} vs 1+2delta {1 + 2 * self.delta:.3f}")
        self.notes["trace_probe_delta_0.3"] = self._trace_probe()
        return errors

    def _trace_probe(self, count: int = 10) -> dict:
        """Known failure population, outside the timed ops: deep traces on
        criterion 11's delta = 0.3 pants.  Recorded, not asserted."""
        p = self.pants.build_pants((A_03, A_03, A_03))
        delta = self.thermo.hausdorff_delta(p, tol=1e-4, depths=DEPTHS).delta
        tally = {"ok": 0, "escaped": 0, "wrong": 0}
        for xi, eta in self._gibbs_pairs(p, delta, count, self.seed):
            pair = self.symbolic.GeodesicPair(self.symbolic.Ray(xi), self.symbolic.Ray(eta))
            w = self.symbolic.cutting_sequence_trace(p, pair, self.TRACE_N, prec=self.TRACE_PREC)
            key = "ok" if w == xi[:self.TRACE_N] else "escaped" if w == xi[:len(w)] else "wrong"
            tally[key] += 1
        return tally


# ---------------------------------------------------------------------------

CLI_COMMANDS = ("delta", "delta-scan", "locus", "octagon", "cover", "trace",
                "favard", "certify", "sample-cs")


class Cli(Workload):
    """``python -m cuffdim`` subprocesses, one at a time, nine commands.

    Each pass gets a fresh directory and ledger: delta on the four oracle
    triples misses and appends, then one repeated triple hits.
    """

    name = "cli"
    SUMMARY_KEYS = {"command", "params", "results", "residuals", "wall_ms", "version"}

    def setup(self):
        (self.cli,) = _import("cli")
        self.passes = max(1, round(self.seconds / 10))
        rng = random.Random(self.seed)
        self.plan = [self._pass_plan(rng, k) for k in range(self.passes)]

    def _pass_plan(self, rng, k, tag="pass"):
        d = os.path.join(self.work_dir, f"{tag}{k}")
        os.makedirs(d, exist_ok=True)
        triples = [t for t, _ in DELTA_ORACLE]
        rng.shuffle(triples)
        other = ",".join(repr(x) for x in rng.choice(triples))
        out = lambda name: os.path.join(d, name)  # noqa: E731
        cmds = [["delta", "--cuffs", ",".join(map(repr, t)), "--depths", "4,6,8"]
                for t in triples + [rng.choice(triples)]]
        lo, hi = rng.uniform(1.0, 2.0), rng.uniform(3.0, 5.0)
        cmds += [
            ["delta-scan", "--symmetric", f"{lo:.4f}:{hi:.4f}:3", "--depth", "6", "--out", out("scan.csv")],
            ["locus", "--target", f"{rng.uniform(0.4, 0.6):.4f}", "--symmetric", "--depths", "4,6,8"],
            ["octagon", "--cuffs", other, "--out", out("oct.svg")],
            ["cover", "--cuffs", other, "--depth", "6", "--out", out("cover.csv")],
            ["trace", "--cuffs", "2,2,2", "--xi-period", "ab", "--eta-period", "BA", "-n", "12"],
            ["favard", "--cuffs", other, "--depths", "2:4", "--grid", "32", "--out", out("fav.csv")],
            ["certify", "--family", "directions", "--grid", "64", "--out", out("cert.json")],
            ["sample-cs", "--cuffs", other, "--count", "20000", "--seed", str(self.seed + k),
             "--out", out("cloud.bin")],
        ]
        return {"dir": d, "ledger": out("ledger.jsonl"), "cmds": cmds}

    def child_env(self, ledger: str) -> dict:
        env = dict(os.environ, CUFFDIM_LEDGER=ledger)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def _run_child(self, argv, plan):
        t0 = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-m", "cuffdim", *argv], cwd=plan["dir"],
            env=self.child_env(plan["ledger"]), capture_output=True, text=True, timeout=170,
        )
        process_s = time.perf_counter() - t0
        lines = res.stdout.strip().splitlines()
        summary = json.loads(lines[-1]) if res.returncode == 0 and lines else None
        out = {"exit": res.returncode, "summary": summary, "process_s": process_s,
               "argv": argv, "dir": plan["dir"]}
        if summary and argv[0] == "delta":
            out["converged"] = summary["results"].get("converged")
            out["validator_passed"] = summary["results"].get("validator_passed")
        return out

    def ops(self):
        return [
            (argv[0], lambda a=argv, pl=plan: self._run_child(a, pl))
            for plan in self.plan for argv in plan["cmds"]
        ]

    def in_process_ops(self, tag: str):
        """The same commands through ``cuffdim.cli.run`` in this process."""
        import contextlib
        import io

        def call(argv, plan):
            old = os.environ.get("CUFFDIM_LEDGER")
            os.environ["CUFFDIM_LEDGER"] = plan["ledger"]
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    return {"exit": self.cli.run(argv)}
            finally:
                if old is None:
                    os.environ.pop("CUFFDIM_LEDGER", None)
                else:
                    os.environ["CUFFDIM_LEDGER"] = old

        rng = random.Random(self.seed)
        plans = [self._pass_plan(rng, k, tag) for k in range(self.passes)]
        return [(argv[0], lambda a=argv, pl=plan: call(a, pl))
                for plan in plans for argv in plan["cmds"]]

    def check(self, records):
        errors = []
        oracle = {",".join(map(repr, t)): ref for t, ref in DELTA_ORACLE}
        for plan_i, plan in enumerate(self.plan):
            recs = [r for r in records if r.outcome and r.outcome.get("dir") == plan["dir"]]
            deltas = {}
            for r in recs:
                s = r.outcome["summary"]
                if s is None:
                    continue
                if set(s) != self.SUMMARY_KEYS or s["command"] != r.kind:
                    errors.append(f"{r.kind}: summary keys {sorted(s)}")
                    continue
                if r.kind == "delta":
                    cuffs = r.outcome["argv"][2]
                    val = s["results"]["delta"]
                    if s["results"]["converged"] and abs(val - oracle[cuffs]) > DELTA_ORACLE_TOL:
                        errors.append(f"cli delta {cuffs}: {val} vs {oracle[cuffs]}")
                    if s["results"]["cached"]:
                        if deltas.get(cuffs) != val:
                            errors.append(f"cli ledger hit for {cuffs} differs from its miss")
                    deltas.setdefault(cuffs, val)
                if r.kind == "trace" and s["results"]["word"] != "ab" * 6:
                    errors.append(f"cli trace word {s['results']['word']}")
            hits = sum(1 for r in recs if r.kind == "delta" and r.outcome["summary"]
                       and r.outcome["summary"]["results"]["cached"])
            if hits != 1:
                errors.append(f"pass {plan_i}: {hits} ledger hits, expected 1")
            for argv in plan["cmds"]:
                if "--out" in argv and not os.path.exists(argv[argv.index("--out") + 1]):
                    errors.append(f"{argv[0]}: artifact missing")
        return errors


WORKLOADS = {w.name: w for w in (Dimension, Projection, Geodesics, Cli)}
