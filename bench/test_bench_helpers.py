"""Tests for the benchmark's own helpers (run with pytest from the repo root)."""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond():
    value, pct, beyond = measure.tail_percentile(range(1, 101))
    assert (value, pct, beyond) == (90, 90.0, 10)
    value, pct, beyond = measure.tail_percentile(list(range(11, 0, -1)))
    assert (value, beyond) == (1, 10)
    assert pct == pytest.approx(100.0 / 11)


def test_tail_percentile_with_too_few_samples_reports_the_shortfall():
    assert measure.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        measure.tail_percentile([])


def test_self_time_subtracts_the_union_of_children():
    s = [
        spans.Span("parent", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 3.0, 0),
        spans.Span("b", 2.0, 5.0, 0),  # overlaps a: counted once
        spans.Span("c", 9.0, 12.0, 0),  # clipped to the parent's end
        spans.Span("grandchild", 1.5, 2.0, 1),  # only charged to a
    ]
    selfs = spans.self_times(s)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[4] == pytest.approx(0.5)


class _Expected(ValueError):
    pass


@pytest.mark.parametrize(
    "outcome, exc, reason",
    [
        ({"exit": 0, "converged": True, "validator_passed": True}, None, None),
        (None, _Expected("limit"), "geometry_error"),
        (None, TypeError("bug"), "crash:TypeError"),
        ({"exit": 2}, None, "exit_2"),
        ({"validator_passed": False, "converged": True}, None, "validator"),
        ({"validator_passed": True, "converged": False}, None, "unconverged"),
        ({"mismatch": True}, None, "mismatch"),
        (0.73, None, None),
    ],
)
def test_failure_classification(outcome, exc, reason):
    assert measure.failure_reason(outcome, exc, expected=(_Expected,)) == reason


def _snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "cuffdim" or name.startswith("cuffdim."):
            for attr, val in vars(mod).items():
                snap[(name, attr)] = val
                if isinstance(val, dict):
                    for k, v in val.items():
                        snap[(name, attr, k)] = v
    return snap


def test_tracer_patches_every_binding_and_restores_them():
    import cuffdim.cli
    import cuffdim.projlab
    import cuffdim.thermo

    before = _snapshot()
    tracer = spans.Tracer()
    try:
        assert tracer.install() > 50
        original = before[("cuffdim.thermo", "hausdorff_delta")]
        assert cuffdim.thermo.hausdorff_delta is not original
        assert cuffdim.cli.hausdorff_delta is cuffdim.thermo.hausdorff_delta
        assert cuffdim.hausdorff_delta is cuffdim.thermo.hausdorff_delta
        assert cuffdim.projlab.clip_chord.__wrapped__ is before[("cuffdim.hyperbolic", "clip_chord")]
        assert cuffdim.projlab.FAMILIES["directions"].__wrapped__ is before[("cuffdim.projlab", "direction_family")]
        assert cuffdim.thermo._perron is before[("cuffdim.thermo", "_perron")]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_calls_nest_and_feed_layer_metrics():
    import cuffdim.pants
    import cuffdim.symbolic
    import cuffdim.thermo

    tracer = spans.Tracer()
    try:
        tracer.install()
        p = cuffdim.pants.build_pants((2.0, 2.0, 2.0))
        cuffdim.thermo.pressure(p, 0.5, 2)
        cuffdim.thermo.pressure(p, 0.5, 2)
        cuffdim.symbolic.cylinder_cover(p, 3)
        cuffdim.symbolic.cylinder_cover(p, 3)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names.count("thermo.pressure") == 2
    tm = names.index("thermo.transfer_matrix")
    assert tracer.spans[tracer.spans[tm].parent].name == "thermo.pressure"
    m = spans.layer_metrics(tracer.spans)
    assert m["thermo.pressure.calls"] == 2
    assert m["pants.build_pants.calls"] == 1
    assert m["symbolic.cylinder_cover.hit_frac"] == pytest.approx(1 / 3)  # depth 2 once, depth 3 twice
    assert all(v >= 0.0 for k, v in m.items() if k.endswith(".self_s"))


def test_benchmark_json_names_every_metric_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    produced = set(spans.layer_metrics([]))
    produced |= {f"cli.{c}.{k}" for c in workloads.CLI_COMMANDS for k in ("process_s", "handler_ms")}
    produced |= {"cli.import_s", "cli.process_floor_s", "cli.ledger.hit_frac", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_plain_union_matches_the_segment_closed_form():
    from cuffdim.projlab import segment_cover

    cover = segment_cover(5)
    for lam in (0.0, 0.4, math.pi / 2, 2.0, 3 * math.pi / 4, 3.0):
        assert workloads.union_length_plain(*workloads.box_intervals(cover, lam)) == pytest.approx(
            workloads.segment_length_exact(5, lam), abs=1e-12)
        corner_lo, _ = workloads.corner_intervals(cover, lam)
        assert abs(workloads.box_intervals(cover, lam)[0] - corner_lo).max() < 1e-14


def test_design_is_seeded_and_stays_in_the_box():
    a = workloads.r3_design(16, seed=3)
    assert a == workloads.r3_design(16, seed=3)
    lo, hi = workloads.CUFF_BOX
    assert all(lo <= x <= hi for t in a for x in t)
    assert len(set(a)) == 16
