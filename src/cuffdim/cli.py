"""Command-line front end and result ledger.

Every command prints a single JSON summary line to standard output with
the fixed top-level shape {command, params, results, residuals, wall_ms,
version}.  ``run`` exits 1, with the artifact written, when a results key
in FAILED_IF_FALSE is false or ``failed_rows`` is above 0; invalid inputs
exit 2 with a JSON error on standard error and nothing written.  File
artifacts (CSV, SVG, JSON, point clouds) are written with deterministic
bytes so repeated runs with the same seed can be compared directly; wall
times never enter artifact files except the delta-scan CSV, whose schema
carries a wall_ms column.

Computed dimensions are cached in an append-only JSON-lines ledger keyed
by the whole request: canonicalized parameters (rounded to 1e-9), the
depth ladder and the name of the delta solver, so only the same request
is served.  The ledger path comes from the CUFFDIM_LEDGER environment
variable, defaulting to ./cuffdim-ledger.jsonl.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
# the delta commands need only these three layers; the other commands
# import symbolic and projlab inside their handlers
from .hyperbolic import GeometryError
from .pants import build_pants, octagon_svg, validate_pants
from .thermo import (LOCUS_DELTA_TOL, _delta_at, check_ladder, check_tol, gibbs_chain,
                     hausdorff_delta, solve_locus, solve_locus_symmetric)

LEDGER_FILE = "cuffdim-ledger.jsonl"
# named in every delta ledger key, so values from another solver are misses
DELTA_SOLVER = "chebyshev-collocation-newton"
# fewest points sample-cs fits a box dimension to; the fit's finest scale,
# 2^-7, has about 11,000 occupied boxes at cuffs (2,2,2) for fewer to fill
SAMPLE_CS_MIN_COUNT = 20_000
# most rows of one delta-scan; each row is one delta solve of a few milliseconds
DELTA_SCAN_MAX_ROWS = 10_000


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Ledger


def ledger_path() -> str:
    return os.environ.get("CUFFDIM_LEDGER", LEDGER_FILE)


def _canonical_key(command: str, params: dict) -> str:
    def canon(v):
        if isinstance(v, float):
            return round(v, 9)
        if isinstance(v, (list, tuple)):
            return [canon(x) for x in v]
        return v

    payload = {k: canon(v) for k, v in sorted(params.items())}
    return json.dumps({"command": command, "params": payload}, sort_keys=True)


def ledger_entries(path: str):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                print(
                    json.dumps({"warning": f"ledger line {lineno} is corrupt, skipped"}),
                    file=sys.stderr,
                )
    return entries


def ledger_append(path: str, key: str, value: dict) -> None:
    line = json.dumps({"key": key, "value": value, "version": __version__}, sort_keys=True, allow_nan=False)
    with open(path, "a", encoding="utf-8") as fh:
        try:
            import fcntl

            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        except (ImportError, OSError):
            pass
        fh.write(line + "\n")


def ledger_lookup_or_compute(command: str, params: dict, compute):
    """The first stored value for the canonical key, computing and appending on miss."""
    path = ledger_path()
    key = _canonical_key(command, params)
    hit = next((e for e in ledger_entries(path) if e.get("key") == key), None)
    if hit is not None:
        return hit["value"], True
    value = compute()
    ledger_append(path, key, value)
    return value, False


# ---------------------------------------------------------------------------
# Argument helpers


def parse_cuffs(text: str) -> tuple[float, float, float]:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise GeometryError(f"--cuffs wants three comma-separated lengths, got {text!r}")
    return tuple(parts)


def parse_depths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise GeometryError(f"--depths wants comma-separated integers, got {text!r}") from None


def parse_levels(text: str) -> tuple[int, ...]:
    """Collocation levels, checked as a ladder before any solve or ledger lookup."""
    return check_ladder(parse_depths(text))


def parse_range(text: str) -> tuple[float, float, int]:
    """lo:hi:count range specification, for np.linspace."""
    try:
        lo, hi, count = text.split(":")
        spec = float(lo), float(hi), int(count)
    except ValueError:
        spec = (0.0, 0.0, 0)
    if spec[2] < 1 or not (math.isfinite(spec[0]) and math.isfinite(spec[1])):
        raise GeometryError(f"range spec {text!r} is not lo:hi:count with finite ends and count >= 1")
    return spec


def _check_range(option: str, value: int, lo: int, hi: int) -> None:
    """Refuse an integer option outside [lo, hi], naming the option and the range."""
    if not lo <= value <= hi:
        raise GeometryError(f"{option} {value} outside [{lo}, {hi}]")


def parse_depth_span(text: str) -> tuple[int, ...]:
    if ":" not in text:
        return parse_depths(text)
    try:
        lo, hi = (int(x) for x in text.split(":"))
        span = tuple(range(lo, hi + 1))
    except ValueError:
        span = ()
    if not span:
        raise GeometryError(f"--depths span {text!r} is not lo:hi with integers lo <= hi")
    return span


# ---------------------------------------------------------------------------
# Commands


def _pants(cuffs):
    """The pants of a cuff triple and its validator report."""
    p = build_pants(cuffs)
    return p, validate_pants(p)


def _cmd_delta(args) -> tuple[dict, dict]:
    cuffs = parse_cuffs(args.cuffs)
    depths = parse_levels(args.depths)
    check_tol(args.tol)  # before the ledger, as the levels are

    def compute():
        p, report = _pants(cuffs)
        value = hausdorff_delta(p, tol=args.tol, depths=depths).as_dict()
        del value["last_gap"]  # infinite after a single level, and not JSON
        return {**value, "validator_passed": report.passed}

    params = {"cuffs": list(cuffs), "tol": args.tol, "depths": list(depths), "solver": DELTA_SOLVER}
    value, cached = ledger_lookup_or_compute("delta", params, compute)
    return {**value, "cached": cached}, {"pressure_residual": value["pressure_residual"]}


def _cmd_delta_scan(args) -> tuple[dict, dict]:
    # the ladder (max(4, depth - 2), depth) needs depth >= 5; levels stop at 10
    _check_range("--depth", args.depth, 5, 10)
    check_tol(args.tol)
    if args.symmetric:
        specs = [parse_range(args.symmetric)]
    elif args.a and args.b and args.c:
        specs = [parse_range(args.a), parse_range(args.b), parse_range(args.c)]
    else:
        raise GeometryError("delta-scan wants --symmetric or all of --a/--b/--c")
    n_rows = math.prod(count for _, _, count in specs)
    if n_rows > DELTA_SCAN_MAX_ROWS:
        raise GeometryError(f"delta-scan of {n_rows} rows above DELTA_SCAN_MAX_ROWS = {DELTA_SCAN_MAX_ROWS}")
    axes = [np.linspace(*spec).tolist() for spec in specs]
    grid = [(a, a, a) for a in axes[0]] if args.symmetric else list(itertools.product(*axes))
    depth = args.depth
    ladder = check_ladder((max(4, depth - 2), depth))
    rows = [["a", "b", "c", "depth", "delta", "pressure_residual", "converged",
             "validator_passed", "error", "wall_ms"]]
    worst, failed = 0.0, 0
    for a, b, c in grid:
        t0 = time.perf_counter()
        valid = False
        try:
            p, report = _pants((a, b, c))
            valid = report.passed
            res = hausdorff_delta(p, tol=args.tol, depths=ladder)
        except GeometryError as exc:
            fields, converged, error = ["", ""], False, str(exc)
        else:
            worst = max(worst, res.pressure_residual)
            fields = [fmt17(res.delta), fmt17(res.pressure_residual)]
            converged, error = res.converged, ""
        ms = 1000.0 * (time.perf_counter() - t0)
        failed += not (converged and valid)
        rows.append([fmt17(a), fmt17(b), fmt17(c), depth, *fields, str(converged).lower(),
                     str(valid).lower(), error, fmt17(ms)])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    results = {"rows": len(grid), "out": args.out, "failed_rows": failed}
    return results, {"max_pressure_residual": worst}


def _cmd_locus(args) -> tuple[dict, dict]:
    # delta at the root is read back from the cache of the locus solve's _delta_at
    depths = parse_levels(args.depths)
    if args.symmetric:
        a = solve_locus_symmetric(args.target, tol=args.tol, depths=depths)
        solved, cuffs = {"a": a}, (a, a, a)
    elif args.a is None or args.b is None:
        raise GeometryError("locus wants --symmetric or both --a and --b")
    else:
        c = solve_locus(args.a, args.b, args.target, tol=args.tol, depths=depths)
        solved, cuffs = {"c": c}, (args.a, args.b, c)
    delta = _delta_at(cuffs, depths, tol=LOCUS_DELTA_TOL).delta
    return (
        {**solved, "delta": delta, "target": args.target, "validator_passed": _pants(cuffs)[1].passed},
        {"delta_error": abs(delta - args.target)},
    )


def _cmd_octagon(args) -> tuple[dict, dict]:
    p, report = _pants(parse_cuffs(args.cuffs))
    svg = octagon_svg(p, report=report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    residuals = {c.name: c.residual for c in report.checks}
    return {"out": args.out, "validator_passed": report.passed}, residuals


def _cmd_cover(args) -> tuple[dict, dict]:
    from .symbolic import cover_to_csv, cylinder_cover

    p, report = _pants(parse_cuffs(args.cuffs))
    cov = cylinder_cover(p, args.depth)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(cover_to_csv(cov))
    results = {"out": args.out, "depth": args.depth, "n_words": cov.n_words,
               "max_arc_length": float(cov.lengths.max()), "validator_passed": report.passed}
    return results, {}


def _cmd_trace(args) -> tuple[dict, dict]:
    from .symbolic import GeodesicPair, Ray, cutting_sequence_trace, word_to_string

    p, report = _pants(parse_cuffs(args.cuffs))
    pair = GeodesicPair(
        Ray.from_string(args.xi, args.xi_period or None),
        Ray.from_string(args.eta, args.eta_period or None),
    )
    word = cutting_sequence_trace(p, pair, args.n)
    return {"word": word_to_string(word), "length": len(word), "validator_passed": report.passed}, {}


def _cmd_favard(args) -> tuple[dict, dict]:
    from .projlab import _check_favard_grid, four_corner_cover, product_cover, projection_profile, segment_cover

    depths = parse_depth_span(args.depths)
    _check_favard_grid(args.grid)  # refused before any cover is built
    checks = {}
    if args.fixture == "omega":
        p, report = _pants(parse_cuffs(args.cuffs))
        checks["validator_passed"] = report.passed
        covers = {n: product_cover(p, n) for n in depths}
    elif args.fixture == "four-corner":
        covers = {n: four_corner_cover(n) for n in depths}
    elif args.fixture == "segment":
        covers = {n: segment_cover(n) for n in depths}
    else:
        raise GeometryError(f"unknown fixture {args.fixture!r}")
    prof = projection_profile(covers, grid=args.grid)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(prof.to_csv())
    favards = {str(d): prof.favard(d) for d in depths}
    return {"out": args.out, "favard": favards, "fixture": args.fixture, **checks}, {}


def _cmd_certify(args) -> tuple[dict, dict]:
    from .projlab import FAMILIES, transversality_certify

    family = FAMILIES.get(args.family)
    if family is None:
        raise GeometryError(f"unknown family {args.family!r}; have {sorted(FAMILIES)}")
    report = transversality_certify(family(), lam_grid=args.grid)
    payload = report.as_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload, {"evaluator_consistency": report.consistency_residual}


def _cmd_sample_cs(args) -> tuple[dict, dict]:
    from .projlab import box_dimension, sample_complete_geodesic_points, write_point_cloud

    if args.count < SAMPLE_CS_MIN_COUNT:
        raise GeometryError(
            f"sample-cs count {args.count} outside [{SAMPLE_CS_MIN_COUNT}, 1e7]: "
            f"the box-dimension fit needs {SAMPLE_CS_MIN_COUNT} points"
        )
    # the sampler needs depth >= 4; the chain's transfer depth stops at 10
    _check_range("--chain-depth", args.chain_depth, 4, 10)
    p, report = _pants(parse_cuffs(args.cuffs))
    s, checks = args.s, {"validator_passed": report.passed}
    if s is None:
        res = hausdorff_delta(p, tol=1e-5, depths=(args.chain_depth - 2, args.chain_depth))
        s = res.delta
        checks.update(converged=res.converged, depth_used=res.depth_used)
    chain = gibbs_chain(p, s, args.chain_depth)
    sample = sample_complete_geodesic_points(p, chain, args.count, args.seed, word_len=args.word_len)
    write_point_cloud(args.out, sample.points)
    fit = box_dimension(sample.points, min_points=SAMPLE_CS_MIN_COUNT)
    results = {
        "out": args.out,
        "count": args.count,
        "seed": args.seed,
        "s": s,
        "box_dimension": fit.estimate,
        "counts": fit.counts.tolist(),
        "scales": fit.scales.tolist(),
        "resampled": sample.resampled,
        **checks,
    }
    if args.dim_json:
        payload = {k: results[k] for k in ("box_dimension", "counts", "scales", "count", "seed", "s")}
        with open(args.dim_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results, {"fit_residual": fit.fit_residual}


# ---------------------------------------------------------------------------
# Driver


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cuffdim",
        description="pairs of pants, limit-set dimension and projection experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("delta", help="limit-set dimension for one cuff triple")
    d.add_argument("--cuffs", required=True)
    d.add_argument("--tol", type=float, default=1e-4)
    d.add_argument("--depths", default="4,6,8,10")

    ds = sub.add_parser("delta-scan", help="dimension over a cuff grid, CSV output")
    ds.add_argument("--a")
    ds.add_argument("--b")
    ds.add_argument("--c")
    ds.add_argument("--symmetric", help="lo:hi:count scan along a=b=c")
    ds.add_argument("--depth", type=int, default=6)
    ds.add_argument("--tol", type=float, default=1e-4)
    ds.add_argument("--out", required=True)

    lo = sub.add_parser("locus", help="solve for a cuff hitting a target dimension")
    lo.add_argument("--target", type=float, required=True)
    lo.add_argument("--a", type=float)
    lo.add_argument("--b", type=float)
    lo.add_argument("--symmetric", action="store_true")
    lo.add_argument("--tol", type=float, default=1e-3)
    lo.add_argument("--depths", default="6,8")

    oc = sub.add_parser("octagon", help="render the octagon as SVG")
    oc.add_argument("--cuffs", required=True)
    oc.add_argument("--out", required=True)

    cv = sub.add_parser("cover", help="cylinder cover as CSV")
    cv.add_argument("--cuffs", required=True)
    cv.add_argument("--depth", type=int, required=True)
    cv.add_argument("--out", required=True)

    tr = sub.add_parser("trace", help="cutting sequence of a symbolic geodesic pair")
    tr.add_argument("--cuffs", required=True)
    tr.add_argument("--xi", default="")
    tr.add_argument("--eta", default="")
    tr.add_argument("--xi-period", default="")
    tr.add_argument("--eta-period", default="")
    tr.add_argument("-n", type=int, default=30)

    fv = sub.add_parser("favard", help="projected-length profile CSV over depths")
    fv.add_argument("--cuffs", default="2,2,2")
    fv.add_argument("--depths", default="2:6")
    fv.add_argument("--grid", type=int, default=256)
    fv.add_argument("--fixture", default="omega", choices=["omega", "four-corner", "segment"])
    fv.add_argument("--out", required=True)

    ce = sub.add_parser("certify", help="transversality certification report")
    ce.add_argument("--family", default="directions")
    ce.add_argument("--grid", type=int, default=256)
    ce.add_argument("--out", default="")

    sc = sub.add_parser("sample-cs", help="sample complete-geodesic points, estimate dimension")
    sc.add_argument("--cuffs", required=True)
    sc.add_argument("--count", type=int, default=100_000)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--chain-depth", type=int, default=6)
    sc.add_argument("--s", type=float, default=None)
    sc.add_argument("--word-len", type=int, default=14)
    sc.add_argument("--out", required=True)
    sc.add_argument("--dim-json", default="")

    return ap


# a results key that fails the command (exit 1, artifact written) when false
FAILED_IF_FALSE = ("validator_passed", "converged", "certified")

HANDLERS = {
    "delta": _cmd_delta,
    "delta-scan": _cmd_delta_scan,
    "locus": _cmd_locus,
    "octagon": _cmd_octagon,
    "cover": _cmd_cover,
    "trace": _cmd_trace,
    "favard": _cmd_favard,
    "certify": _cmd_certify,
    "sample-cs": _cmd_sample_cs,
}


def run(argv) -> int:
    """Parse and execute one command; returns the process exit status."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        results, residuals = HANDLERS[args.command](args)
    except (GeometryError, OSError) as exc:
        kind = "GeometryError" if isinstance(exc, GeometryError) else "OSError"
        print(json.dumps({"error": {"type": kind, "message": str(exc)}}), file=sys.stderr)
        return 2
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    params = {
        k: v
        for k, v in vars(args).items()
        if k != "command" and v is not None and v != ""
    }
    summary = {
        "command": args.command,
        "params": params,
        "results": results,
        "residuals": residuals,
        "wall_ms": wall_ms,
        "version": __version__,
    }
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    failed = not all(results.get(k, True) for k in FAILED_IF_FALSE) or results.get("failed_rows", 0) > 0
    return 1 if failed else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
