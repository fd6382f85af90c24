"""cuffdim benchmark: time-to-solution over four workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dimension --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json; ``--trace 1``
runs the same inputs once untraced and once traced and prints every
per-layer metric.  The last line of standard output is one JSON object
{correct, attempted, failed, metrics}; the lines before it name each
metric with its unit and give the run record (machine, versions, commit,
seed, failure reasons, oracle notes).  Files go to ``.bench_out/`` in the
checkout.  Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One caller, and numeric libraries held to one thread of the two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, HERE)
import measure  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CLI_COMMANDS  # noqa: E402

SETUP_SAMPLES = 5  # this process plus four probe processes


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_ops(ops, expected):
    """Run the ops in order; classify after the clock stops."""
    raw = []
    t_start = time.perf_counter()
    for kind, fn in ops:
        t0 = time.perf_counter()
        try:
            out, exc = fn(), None
        except Exception as e:  # every op failure is counted, never dropped
            out, exc = None, e
        raw.append((kind, time.perf_counter() - t0, out, exc))
    wall = time.perf_counter() - t_start
    records = []
    for kind, dt, out, exc in raw:
        records.append(measure.OpRecord(kind, dt, measure.failure_reason(out, exc, expected), out))
    return records, wall


def timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    wl.warm()
    return time.perf_counter() - t0


def probe_setup(args, work_dir: str) -> float:
    """Set-up time of a fresh process (import included) for the same inputs."""
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--setup-probe", work_dir],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if res.returncode != 0:
        raise RuntimeError(f"setup probe failed: {res.stderr.strip()[-400:]}")
    return float(res.stdout.strip().splitlines()[-1])


def end_to_end(wl, records, wall, setup_samples) -> tuple[dict, dict]:
    times = [r.seconds for r in records]
    ok = sum(1 for r in records if r.failure is None)
    tail, pct, beyond = measure.tail_percentile(times)
    metrics = {
        "setup_s": measure.median(setup_samples),
        "wall_s": wall,
        "ops_per_s": ok / wall,
        "op_p50_ms": 1000.0 * measure.median(times),
        "op_tail_ms": 1000.0 * tail,
        "ok_frac": ok / len(records),
        "peak_rss_mb": measure.peak_rss_mb(children=wl.name == "cli"),
    }
    extra = {
        "failed_frac": 1.0 - metrics["ok_frac"],
        "op_tail_percentile": pct,
        "op_tail_ops_beyond": beyond,
        "setup_samples_s": setup_samples,
    }
    if wl.name == "cli":
        extra["process_floor_s"] = process_floor(records)
    return metrics, extra


def process_floor(records) -> float:
    gaps = [r.outcome["process_s"] - r.outcome["summary"]["wall_ms"] / 1000.0
            for r in records if r.outcome and r.outcome.get("summary")]
    return measure.median(gaps) if gaps else float("nan")


def cli_layers(wl, records) -> dict:
    """Process-level per-layer numbers of the cli workload."""
    m = {}
    for cmd in CLI_COMMANDS:
        rs = [r for r in records if r.kind == cmd]
        m[f"cli.{cmd}.process_s"] = measure.median([r.outcome["process_s"] for r in rs])
        walls = [r.outcome["summary"]["wall_ms"] for r in rs if r.outcome["summary"]]
        m[f"cli.{cmd}.handler_ms"] = measure.median(walls) if walls else 0.0
    deltas = [r for r in records if r.kind == "delta" and r.outcome["summary"]]
    m["cli.ledger.hit_frac"] = (
        sum(1 for r in deltas if r.outcome["summary"]["results"]["cached"]) / len(deltas)
        if deltas else 0.0)
    m["cli.process_floor_s"] = process_floor(records)
    env = wl.child_env(os.path.join(wl.work_dir, "import-ledger.jsonl"))
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cuffdim.cli"], env=env,
                       check=True, timeout=170, cwd=wl.work_dir)
        samples.append(time.perf_counter() - t0)
    m["cli.import_s"] = measure.median(samples)
    return m


def traced_pass(wl, expected, out_base: str) -> tuple[dict, set]:
    """Per-layer metrics from a traced set-up and op loop, and the names of
    the functions that were called.

    ``trace.overhead_s`` compares it with an untraced pass prepared the same
    way in the same process, since the first pass of a process runs in a
    colder state (allocator, caches) than later ones.  ``cli`` runs both
    passes in process through ``cuffdim.cli.run``.
    """
    if wl.name == "cli":
        make_ops = wl.in_process_ops
    else:
        def make_ops(tag):
            wl.setup()
            return wl.ops()

    _, untraced_wall = run_ops(make_ops("untraced"), expected)
    tracer = spans.Tracer()
    try:
        tracer.install()
        _, traced_wall = run_ops(make_ops("traced"), expected)
    finally:
        tracer.uninstall()
    tracer.dump(out_base + "-spans.jsonl")
    metrics = spans.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, {sp.name for sp in tracer.spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", default="", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cuffdim", "__init__.py")):
        print(f"benchmark: no package source under {ROOT}/src; nothing to run",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.setup_probe:
        wl = WORKLOADS[args.workload](args.seed, args.seconds, ROOT, args.setup_probe)
        print(repr(timed_setup(wl)))
        return 0

    spec = load_spec()
    out_dir = os.path.join(ROOT, ".bench_out")
    work_dir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _run(args, spec, out_dir, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, spec, out_dir, work_dir) -> int:
    wl = WORKLOADS[args.workload](args.seed, args.seconds, ROOT, work_dir)
    setup_samples = [timed_setup(wl)]
    expected = wl.expected_errors()
    for k in range(SETUP_SAMPLES - 1):
        setup_samples.append(probe_setup(args, os.path.join(work_dir, f"probe{k}")))

    records, wall = run_ops(wl.ops(), expected)
    e2e, extra = end_to_end(wl, records, wall, setup_samples)
    errors = wl.check(records)
    crashes = sorted({r.failure for r in records if r.failure and r.failure.startswith("crash:")})
    errors += [f"unexpected exception {c}" for c in crashes]

    out_base = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": measure.machine_record(ROOT),
        "attempted": len(records),
        "failed": sum(1 for r in records if r.failure),
        "failure_reasons": Counter(r.failure for r in records if r.failure),
        "untraced": {**e2e, **extra},
        "oracle_errors": errors,
        "notes": wl.notes,
    }

    if args.trace:
        layers, called = traced_pass(wl, expected, out_base)
        if wl.name == "cli":
            layers.update(cli_layers(wl, records))
        record["tracing_overhead_s"] = layers["trace.overhead_s"]
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
        from_spans = set(spans.layer_metrics([]))
        record["per_layer_not_called"] = sorted(
            n for n in values
            if n not in layers or (n in from_spans and ".".join(n.split(".")[:2]) not in called))
    else:
        record["tracing_overhead_s"] = "measured by the --trace 1 run"
        wanted = spec["end_to_end"]
        values = {m["name"]: e2e[m["name"]] for m in wanted}

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    with open(out_base + ".json", "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1, default=str)

    for name, v in metrics.items():
        print(f"{args.workload}: {name} = {v['value']:.6g} {v['unit']}")
    for name in ("failed_frac", "op_tail_percentile", "op_tail_ops_beyond", "process_floor_s"):
        if name in extra:
            print(f"{args.workload}: {name} = {extra[name]:.6g}")
    if record.get("per_layer_not_called"):
        print(f"{args.workload}: reported as 0, layer not called by this workload: "
              + ", ".join(record["per_layer_not_called"]))
    for err in errors:
        print(f"{args.workload}: ORACLE FAILED: {err}")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": not errors,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
