"""Command-line front end and result ledger.

Every command prints a single JSON summary line to standard output with
the fixed top-level shape {command, params, results, residuals, wall_ms,
version}; invalid inputs produce a machine-readable JSON error on
standard error and a nonzero exit.  File artifacts (CSV, SVG, JSON,
point clouds) are written with deterministic bytes so repeated runs with
the same seed can be compared directly; wall times never enter artifact
files except the delta-scan CSV, whose schema carries a wall_ms column.

Computed dimensions are cached in an append-only JSON-lines ledger keyed
by canonicalized parameters (rounded to 1e-9) and the name of the delta
solver; entries at higher depth supersede lower ones.  The ledger path
comes from the CUFFDIM_LEDGER environment variable, defaulting to
./cuffdim-ledger.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .hyperbolic import GeometryError
from .pants import build_pants, octagon_svg, validate_pants
from .projlab import (
    FAMILIES,
    box_dimension,
    four_corner_cover,
    product_cover,
    projection_profile,
    sample_complete_geodesic_points,
    segment_cover,
    transversality_certify,
    write_point_cloud,
)
from .symbolic import Ray, GeodesicPair, cover_to_csv, cutting_sequence_trace, cylinder_cover, word_to_string
from .thermo import _delta_at, gibbs_measure, hausdorff_delta, solve_locus, solve_locus_symmetric

LEDGER_FILE = "cuffdim-ledger.jsonl"
# named in every delta ledger key, so values from another solver are misses
DELTA_SOLVER = "chebyshev-collocation"


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


def ledger_lookup(path: str, key: str):
    best = None
    for e in ledger_entries(path):
        if e.get("key") != key:
            continue
        if best is None or e.get("depth", 0) > best.get("depth", 0):
            best = e
    return best


def ledger_append(path: str, key: str, depth: int, value: dict) -> None:
    line = json.dumps(
        {"key": key, "depth": depth, "value": value, "version": __version__},
        sort_keys=True,
    )
    with open(path, "a", encoding="utf-8") as fh:
        try:
            import fcntl

            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        except (ImportError, OSError):
            pass
        fh.write(line + "\n")


def ledger_lookup_or_compute(command: str, params: dict, depth: int, compute, satisfied=None):
    """Cached value for the canonical key, computing and appending on miss.

    ``satisfied`` decides whether the best stored entry serves the request;
    by default an entry serves any request at its depth or below.
    """
    path = ledger_path()
    key = _canonical_key(command, params)
    hit = ledger_lookup(path, key)
    if hit is not None:
        ok = satisfied(hit) if satisfied is not None else hit.get("depth", 0) >= depth
        if ok:
            return hit["value"], True
    value = compute()
    ledger_append(path, key, depth, value)
    return value, False


# ---------------------------------------------------------------------------
# Argument helpers


def parse_cuffs(text: str) -> tuple[float, float, float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise GeometryError(f"--cuffs wants three comma-separated lengths, got {text!r}")
    return tuple(parts)


def parse_depths(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def parse_range(text: str) -> np.ndarray:
    """lo:hi:count range specification."""
    parts = text.split(":")
    if len(parts) != 3:
        raise GeometryError(f"range spec {text!r} is not lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    return np.linspace(lo, hi, count)


def parse_depth_span(text: str) -> tuple[int, ...]:
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi) + 1))
    return parse_depths(text)


# ---------------------------------------------------------------------------
# Commands


def _cmd_delta(args) -> tuple[dict, dict, int]:
    cuffs = parse_cuffs(args.cuffs)
    depths = parse_depths(args.depths)

    def compute():
        p = build_pants(cuffs)
        report = validate_pants(p)
        res = hausdorff_delta(p, tol=args.tol, depths=depths)
        return {
            "delta": res.delta,
            "depth_used": res.depth_used,
            "pressure_residual": res.pressure_residual,
            "roots": {str(d): r for d, r in res.roots},
            "converged": res.converged,
            "nodes": res.nodes,
            "validator_passed": report.passed,
        }

    # the key excludes the depth ladder: entries are superseded by depth
    params = {"cuffs": list(cuffs), "tol": args.tol, "solver": DELTA_SOLVER}
    value, cached = ledger_lookup_or_compute(
        "delta",
        params,
        max(depths),
        compute,
        satisfied=lambda entry: entry["value"].get("converged", False)
        or entry.get("depth", 0) >= max(depths),
    )
    value = dict(value)
    value["cached"] = cached
    ok = value.get("validator_passed", True) and value.get("converged", True)
    status = 0 if ok else 1
    return value, {"pressure_residual": value["pressure_residual"]}, status


def _cmd_delta_scan(args) -> tuple[dict, dict, int]:
    if args.symmetric:
        grid = [(a, a, a) for a in parse_range(args.symmetric)]
    else:
        if not (args.a and args.b and args.c):
            raise GeometryError("delta-scan wants --symmetric or all of --a/--b/--c")
        grid = [
            (a, b, c)
            for a in parse_range(args.a)
            for b in parse_range(args.b)
            for c in parse_range(args.c)
        ]
    depth = args.depth
    rows = ["a,b,c,depth,delta,pressure_residual,wall_ms"]
    worst = 0.0
    for a, b, c in grid:
        t0 = time.perf_counter()
        p = build_pants((a, b, c))
        res = hausdorff_delta(p, tol=args.tol, depths=(max(4, depth - 2), depth))
        ms = 1000.0 * (time.perf_counter() - t0)
        worst = max(worst, res.pressure_residual)
        rows.append(
            f"{fmt17(a)},{fmt17(b)},{fmt17(c)},{depth},"
            f"{fmt17(res.delta)},{fmt17(res.pressure_residual)},{fmt17(ms)}"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return (
        {"rows": len(grid), "out": args.out},
        {"max_pressure_residual": worst},
        0,
    )


def _cmd_locus(args) -> tuple[dict, dict, int]:
    # delta at the root is read back from the cache of the locus solve's _delta_at
    depths = parse_depths(args.depths)
    if args.symmetric:
        a = solve_locus_symmetric(args.target, tol=args.tol, depths=depths)
        delta = _delta_at((a, a, a), depths, tol=1e-5)
        return (
            {"a": a, "delta": delta, "target": args.target},
            {"delta_error": abs(delta - args.target)},
            0,
        )
    if args.a is None or args.b is None:
        raise GeometryError("locus wants --symmetric or both --a and --b")
    c = solve_locus(args.a, args.b, args.target, tol=args.tol, depths=depths)
    delta = _delta_at((args.a, args.b, c), depths, tol=1e-5)
    return (
        {"c": c, "delta": delta, "target": args.target},
        {"delta_error": abs(delta - args.target)},
        0,
    )


def _cmd_octagon(args) -> tuple[dict, dict, int]:
    p = build_pants(parse_cuffs(args.cuffs))
    report = validate_pants(p)
    svg = octagon_svg(p, report=report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    residuals = {c.name: c.residual for c in report.checks}
    return (
        {"out": args.out, "validator_passed": report.passed},
        residuals,
        0 if report.passed else 1,
    )


def _cmd_cover(args) -> tuple[dict, dict, int]:
    p = build_pants(parse_cuffs(args.cuffs))
    cov = cylinder_cover(p, args.depth)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(cover_to_csv(cov))
    return (
        {
            "out": args.out,
            "depth": args.depth,
            "n_words": cov.n_words,
            "max_arc_length": float(cov.lengths.max()),
        },
        {},
        0,
    )


def _cmd_trace(args) -> tuple[dict, dict, int]:
    p = build_pants(parse_cuffs(args.cuffs))
    pair = GeodesicPair(
        Ray.from_string(args.xi, args.xi_period or None),
        Ray.from_string(args.eta, args.eta_period or None),
    )
    word = cutting_sequence_trace(p, pair, args.n, prec=args.prec)
    return (
        {"word": word_to_string(word), "length": len(word)},
        {},
        0,
    )


def _cmd_favard(args) -> tuple[dict, dict, int]:
    depths = parse_depth_span(args.depths)
    if args.fixture == "omega":
        p = build_pants(parse_cuffs(args.cuffs))
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
    return ({"out": args.out, "favard": favards, "fixture": args.fixture}, {}, 0)


def _cmd_certify(args) -> tuple[dict, dict, int]:
    family = FAMILIES.get(args.family)
    if family is None:
        raise GeometryError(f"unknown family {args.family!r}; have {sorted(FAMILIES)}")
    report = transversality_certify(family(), lam_grid=args.grid)
    payload = report.as_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    residuals = {"evaluator_consistency": report.consistency_residual}
    return payload, residuals, 0 if report.certified else 1


def _cmd_sample_cs(args) -> tuple[dict, dict, int]:
    p = build_pants(parse_cuffs(args.cuffs))
    if args.s is None:
        s = hausdorff_delta(p, tol=1e-5, depths=(args.chain_depth - 2, args.chain_depth)).delta
    else:
        s = args.s
    mu = gibbs_measure(p, s, args.chain_depth)
    sample = sample_complete_geodesic_points(
        p, mu, args.count, args.seed, word_len=args.word_len
    )
    write_point_cloud(args.out, sample.points)
    fit = box_dimension(sample.points, min_points=min(args.count, 100_000))
    results = {
        "out": args.out,
        "count": args.count,
        "seed": args.seed,
        "s": s,
        "box_dimension": fit.estimate,
        "counts": fit.counts.tolist(),
        "scales": fit.scales.tolist(),
        "resampled": sample.resampled,
    }
    if args.dim_json:
        payload = {k: results[k] for k in ("box_dimension", "counts", "scales", "count", "seed", "s")}
        with open(args.dim_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results, {"fit_residual": fit.fit_residual}, 0


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
    tr.add_argument("--prec", type=int, default=None, help="no effect: traces run in doubles")

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
        results, residuals, status = HANDLERS[args.command](args)
    except GeometryError as exc:
        print(
            json.dumps({"error": {"type": "GeometryError", "message": str(exc)}}),
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(
            json.dumps({"error": {"type": "OSError", "message": str(exc)}}),
            file=sys.stderr,
        )
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
    print(json.dumps(summary, sort_keys=True))
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))
