"""Command-line interface: JSON summaries, artifacts, ledger semantics."""

import csv
import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import cuffdim
from cuffdim import cli, projlab, thermo
from cuffdim.cli import _canonical_key, run
from cuffdim.projlab import read_point_cloud


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CUFFDIM_LEDGER", str(tmp_path / "ledger.jsonl"))
    return tmp_path


def run_json(capsys, argv) -> tuple[int, dict]:
    status = run(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(out[-1])


def test_delta_command_summary_schema(workdir, capsys):
    # level 4 -> 6 moves the root by 1.4e-9: converged at 1e-3, exit 0
    status, summary = run_json(
        capsys, ["delta", "--cuffs", "2,2,2", "--tol", "1e-3", "--depths", "4,6"]
    )
    assert status == 0
    assert set(summary) == {"command", "params", "results", "residuals", "wall_ms", "version"}
    res = summary["results"]
    assert abs(res["delta"] - 0.56998) < 1e-3
    assert res["depth_used"] == 6
    assert res["converged"] is True
    assert res["validator_passed"] is True
    assert res["cached"] is False


def test_delta_cache_hit_is_fast_and_identical(workdir, capsys):
    _, first = run_json(capsys, ["delta", "--cuffs", "2,2,2", "--tol", "1e-4"])
    t0 = time.perf_counter()
    status, second = run_json(capsys, ["delta", "--cuffs", "2,2,2", "--tol", "1e-4"])
    elapsed_ms = 1000.0 * (time.perf_counter() - t0)
    assert status == 0
    assert second["results"]["cached"] is True
    assert elapsed_ms < 50.0
    for key in ("delta", "depth_used", "roots"):
        assert first["results"][key] == second["results"][key]


def test_ledger_supersede_and_recompute_determinism(workdir, capsys):
    _, low = run_json(
        capsys, ["delta", "--cuffs", "1,1,1", "--tol", "1e-4", "--depths", "4"]
    )
    assert low["results"]["converged"] is False
    # a deeper request is not served by the shallow entry
    _, high = run_json(
        capsys, ["delta", "--cuffs", "1,1,1", "--tol", "1e-4", "--depths", "4,6"]
    )
    assert high["results"]["cached"] is False
    assert high["results"]["depth_used"] == 6
    # the shallow request is served its own entry: the key holds the ladder,
    # so the deep entry supersedes nothing
    status, again = run_json(
        capsys, ["delta", "--cuffs", "1,1,1", "--tol", "1e-4", "--depths", "4"]
    )
    assert status == 1
    assert again["results"]["cached"] is True
    assert again["results"]["delta"] == low["results"]["delta"]
    assert again["results"]["depth_used"] == 4
    # deleting the ledger forces a bit-identical recomputation
    os.remove(os.environ["CUFFDIM_LEDGER"])
    _, fresh = run_json(
        capsys, ["delta", "--cuffs", "1,1,1", "--tol", "1e-4", "--depths", "4,6"]
    )
    assert fresh["results"]["delta"] == high["results"]["delta"]
    assert fresh["results"]["roots"] == high["results"]["roots"]


def test_unconverged_delta_exits_one_but_reports_and_records(workdir, capsys):
    argv = ["delta", "--cuffs", "1,1,1", "--tol", "1e-4", "--depths", "4"]
    status, summary = run_json(capsys, argv)
    assert status == 1
    assert summary["results"]["converged"] is False
    assert summary["results"]["validator_passed"] is True
    with open(os.environ["CUFFDIM_LEDGER"]) as fh:
        entries = [json.loads(line) for line in fh]
    assert len(entries) == 1
    assert entries[0]["value"]["converged"] is False
    # the ledger hit reports the same unconverged result and exit status
    status, again = run_json(capsys, argv)
    assert status == 1
    assert again["results"]["cached"] is True
    assert again["results"]["delta"] == summary["results"]["delta"]


def test_delta_scan_reports_each_row_and_goes_on(workdir, capsys, monkeypatch):
    # (20, 0.0001, 0.01) cannot be built; (20, 0.01, 0.01) is unconverged over (4, 6)
    argv = ["delta-scan", "--a", "20:20:1", "--b", "0.0001:0.01:2", "--c", "0.01:0.01:1",
            "--depth", "6", "--out", "scan.csv"]
    status, summary = run_json(capsys, argv)
    assert status == 1
    assert summary["results"]["failed_rows"] == 2
    with open("scan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["a", "b", "c", "depth", "delta", "pressure_residual",
                             "converged", "validator_passed", "error", "wall_ms"]
    assert rows[0]["delta"] == "" and rows[0]["converged"] == "false"
    assert rows[0]["validator_passed"] == "false"
    assert rows[0]["error"].startswith("pants construction failed for cuffs (20.0, 0.0001, 0.01)")
    assert 0.0 < float(rows[1]["delta"]) < 1.0
    assert rows[1]["converged"] == "false" and rows[1]["error"] == ""
    status, summary = run_json(
        capsys, ["delta-scan", "--symmetric", "1:3:3", "--depth", "6", "--out", "ok.csv"]
    )
    assert status == 0 and summary["results"]["failed_rows"] == 0
    with open("ok.csv", newline="") as fh:
        assert {row["validator_passed"] for row in csv.DictReader(fh)} == {"true"}
    # a converged row whose octagon fails validation fails the scan, as in delta
    monkeypatch.setattr(cli, "validate_pants", lambda p: SimpleNamespace(passed=False))
    status, summary = run_json(
        capsys, ["delta-scan", "--symmetric", "2:2:1", "--depth", "6", "--out", "bad.csv"]
    )
    assert status == 1 and summary["results"]["failed_rows"] == 1
    with open("bad.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["converged"] == "true" and row["validator_passed"] == "false"
    assert row["error"] == ""


IMPORT_PROBE = """
import sys
import cuffdim, cuffdim.cli
from cuffdim import build_pants, hausdorff_delta, product_cover, project_cover_length
from cuffdim.symbolic import GeodesicPair, Ray, cutting_sequence_trace
p = build_pants((2.0, 2.0, 2.0))
project_cover_length(product_cover(p, 6), 0.3)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
hausdorff_delta(p, depths=(4, 6))
print("scipy.sparse" in sys.modules, "scipy.optimize" in sys.modules)
cuffdim.gibbs_chain(p, 0.57, 6)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
xi = (0, 2, 1, 3) * 12
pair = GeodesicPair(Ray(xi), Ray((2,) + xi[1:]))
assert cutting_sequence_trace(p, pair, 30, prec=80) == xi[:30]
print(sorted(m for m in sys.modules if m.split(".")[0] == "mpmath"))
"""


def test_import_path_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(cuffdim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    before, after, after_chain, mp_modules = res.stdout.strip().splitlines()
    assert before == "[]"
    # a delta solve is dense collocation: no sparse matrix, no scipy root finder
    assert after == "False False"
    # the depth-n transfer matrix of a Gibbs chain is a numpy gather
    assert after_chain == "[]"
    # a deep trace runs in doubles, whatever precision it is asked for
    assert mp_modules == "[]"


NO_SCIPY_PROBE = """
import runpy
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"blocked: {name}")
        return None


sys.meta_path.insert(0, BlockScipy())
from cuffdim import build_pants, gibbs_chain, sample_complete_geodesic_points
from cuffdim.thermo import cover_scaling_delta, pressure_root

p = build_pants((2.0, 2.0, 2.0))
root = pressure_root(p, 6)
assert abs(root - 0.5699656) < 1e-3, root
sample = sample_complete_geodesic_points(p, gibbs_chain(p, root, 6), 2000, seed=3)
assert sample.points.shape == (2000,)
slope, _ = cover_scaling_delta(p, max_leaves=20_000)
assert abs(slope - root) < 0.1, slope
sys.argv = ["cuffdim", "sample-cs", "--cuffs", "2,2,2", "--count", "20000", "--seed", "1",
            "--out", "cloud.bin"]
try:
    runpy.run_module("cuffdim", run_name="__main__", alter_sys=True)
except SystemExit as exit_:
    assert exit_.code == 0, exit_.code
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_needs_no_scipy(workdir):
    # every scipy import fails; the depth-n operator paths and sample-cs still run
    src = os.path.dirname(os.path.dirname(cuffdim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    res = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "[]"
    assert len(read_point_cloud(str(workdir / "cloud.bin"))) == 20000


def test_ledger_serves_only_the_same_ladder(workdir, capsys):
    # a converged depth-10 entry was served to --depths 4,6 with exit 0,
    # where that ladder's own delta, 0.9428538016, is unconverged
    deep = ["delta", "--cuffs", "0.3,0.3,0.3", "--depths", "8,10"]
    shallow = ["delta", "--cuffs", "0.3,0.3,0.3", "--depths", "4,6"]
    status, first = run_json(capsys, deep)
    assert status == 0 and first["results"]["converged"] is True
    status, summary = run_json(capsys, shallow)
    assert status == 1
    assert summary["results"]["cached"] is False
    assert summary["results"]["converged"] is False
    assert abs(summary["results"]["delta"] - 0.9428538016) < 1e-9
    # each request hits its own entry, and entries carry no depth field
    assert run_json(capsys, deep)[1]["results"]["cached"] is True
    assert run_json(capsys, shallow)[1]["results"]["cached"] is True
    with open(os.environ["CUFFDIM_LEDGER"]) as fh:
        entries = [json.loads(line) for line in fh]
    assert len(entries) == 2
    assert all(set(e) == {"key", "value", "version"} for e in entries)


def test_ledger_ignores_depth_ladder_entries(workdir, capsys):
    # an entry keyed without the solver was written by the depth ladder
    old_key = _canonical_key("delta", {"cuffs": [2.0, 2.0, 2.0], "tol": 1e-4})
    stale = {"delta": 0.123, "depth_used": 10, "pressure_residual": 0.0,
             "roots": {"10": 0.123}, "converged": True, "validator_passed": True}
    with open(os.environ["CUFFDIM_LEDGER"], "w") as fh:
        fh.write(json.dumps({"key": old_key, "depth": 10, "value": stale}) + "\n")
    status, summary = run_json(capsys, ["delta", "--cuffs", "2,2,2", "--tol", "1e-4"])
    assert status == 0
    assert summary["results"]["cached"] is False
    assert abs(summary["results"]["delta"] - 0.5699656495) < 1e-9


def test_locus_reads_delta_at_root_from_the_solve(workdir, capsys, monkeypatch):
    calls = []
    orig = thermo.hausdorff_delta

    def spy(*args, **kwargs):
        calls.append(args[0].cuffs.as_tuple())
        return orig(*args, **kwargs)

    monkeypatch.setattr(thermo, "hausdorff_delta", spy)
    monkeypatch.setattr(cli, "hausdorff_delta", spy)
    thermo._delta_at.cache_clear()
    status, summary = run_json(
        capsys, ["locus", "--target", "0.5", "--symmetric", "--depths", "4,6,8"]
    )
    assert status == 0
    assert abs(summary["results"]["delta"] - 0.5) < 1e-9
    # 15 scan and Illinois points; the reported delta is the root's, not a 16th solve
    assert len(calls) == len(set(calls)) == 15


def test_ledger_corrupt_line_skipped(workdir, capsys):
    path = os.environ["CUFFDIM_LEDGER"]
    run_json(capsys, ["delta", "--cuffs", "2,2,2", "--tol", "1e-4"])
    with open(path, "a") as fh:
        fh.write("{this is not json\n")
    status, summary = run_json(capsys, ["delta", "--cuffs", "2,2,2", "--tol", "1e-4"])
    err = capsys.readouterr().err
    assert status == 0
    assert summary["results"]["cached"] is True


def test_invalid_config_gives_json_error_on_stderr(workdir, capsys):
    # malformed numbers, empty spans and counts name the offending value
    cases = [
        (["delta", "--cuffs", "2,2"], "'2,2'"),
        (["delta", "--cuffs", "x,1,1"], "'x,1,1'"),
        (["delta", "--cuffs", "2,2,2", "--depths", "4,x"], "'4,x'"),
        (["delta-scan", "--symmetric", "1:2:x", "--out", "s.csv"], "'1:2:x'"),
        (["delta-scan", "--symmetric", "1:2:0", "--out", "s.csv"], "'1:2:0'"),
        # a non-finite end wrote a row whose error named a=nan, and exited 1
        (["delta-scan", "--symmetric", "nan:1:2", "--out", "s.csv"], "'nan:1:2' is not lo:hi:count with finite ends"),
        (["delta-scan", "--symmetric", "1:inf:2", "--out", "s.csv"], "'1:inf:2'"),
        (["delta-scan", "--symmetric=-inf:1:1", "--out", "s.csv"], "'-inf:1:1'"),
        (["delta-scan", "--a", "1:2:2", "--b", "1:2:2", "--c", "1:nan:2", "--out", "s.csv"], "'1:nan:2'"),
        # numpy's linspace raised its _ArrayMemoryError with a traceback and exit 1
        (["delta-scan", "--symmetric", "1:2:1000000000000", "--out", "s.csv"],
         "delta-scan of 1000000000000 rows above DELTA_SCAN_MAX_ROWS = 10000"),
        (["delta-scan", "--a", "1:2:100", "--b", "1:2:10", "--c", "1:2:11", "--out", "s.csv"],
         "delta-scan of 11000 rows"),
        (["certify", "--grid", "16385", "--out", "cert.json"], "lambda grid 16385 outside [32, 16384]"),
        (["favard", "--depths", "5:2", "--out", "f.csv"], "'5:2'"),
        (["sample-cs", "--cuffs", "2,2,2", "--count", "0", "--out", "c.bin"], "1e7"),
        # below the box-dimension fit's floor; test_sample_cs_command runs 20000
        (["sample-cs", "--cuffs", "2,2,2", "--count", "5", "--out", "c.bin"], "20000"),
        (["sample-cs", "--cuffs", "2,2,2", "--count", "19999", "--out", "c.bin"], "20000"),
        # numpy's Philox refused the key with a traceback and exit 1
        (["sample-cs", "--cuffs", "2,2,2", "--seed", "-1", "--count", "20000", "--out", "c.bin"],
         "seed -1 outside [0, 2^128)"),
        # an unbounded word length drew 16 bytes per point and step
        (["sample-cs", "--cuffs", "2,2,2", "--word-len", "65", "--count", "20000", "--out", "c.bin"],
         "word length 65 outside [1, 64]"),
        (["favard", "--fixture", "segment", "--depths", "2:2", "--grid", "0", "--out", "f.csv"],
         "grid 0 below 16"),
        (["favard", "--fixture", "segment", "--depths", "2:2", "--grid", "-4", "--out", "f.csv"],
         "grid -4 below 16"),
        (["trace", "--cuffs", "2,2,2", "--xi-period", "ab", "--eta-period", "BA", "-n", "-3"],
         "trace length -3"),
        (["locus", "--symmetric", "--target", "0.5", "--depths", "4,99"],
         "collocation level 99 outside [1, 10]"),
        # admitted cuffs whose construction underflows exited 1 with a traceback
        (["delta", "--cuffs", "1e-300,1e-300,1e-300"], "cuffs (1e-300, 1e-300, 1e-300)"),
        (["octagon", "--cuffs", "5e-324,1,1", "--out", "oct.svg"], "cuffs (5e-324, 1.0, 1.0)"),
        # Newton stepped below the bracket at 16 nodes, to s = -4.57, where a
        # negative two-sided eigenvalue quotient raised a bare ValueError
        (["delta", "--cuffs", "0.0003,0.001,20", "--depths", "4,6"],
         "cuffs (0.0003, 0.001, 20.0) at 16 nodes"),
        # a ladder that repeats or descends reported converged with gap 0 or a
        # coarser root
        (["delta", "--cuffs", "0.2,1,12", "--depths", "4,4"],
         "collocation levels (4, 4) do not strictly increase"),
        (["delta", "--cuffs", "2,2,2", "--depths", "8,4"], "levels (8, 4)"),
        (["locus", "--symmetric", "--target", "0.5", "--depths", "6,6"], "levels (6, 6)"),
        # delta-scan --depth 4 built the ladder (4, 4) and 11 a level past 10,
        # and the errors named levels rather than the option
        (["delta-scan", "--symmetric", "2:2:1", "--depth", "4", "--out", "s.csv"],
         "--depth 4 outside [5, 10]"),
        (["delta-scan", "--symmetric", "2:2:1", "--depth", "3", "--out", "s.csv"],
         "--depth 3 outside [5, 10]"),
        (["delta-scan", "--symmetric", "2:2:1", "--depth", "11", "--out", "s.csv"],
         "--depth 11 outside [5, 10]"),
        # --chain-depth 3 ran a delta solve and built a chain before it failed
        (["sample-cs", "--cuffs", "2,2,2", "--chain-depth", "3", "--count", "20000", "--out", "c.bin"],
         "--chain-depth 3 outside [4, 10]"),
        (["sample-cs", "--cuffs", "2,2,2", "--chain-depth", "11", "--count", "20000", "--out", "c.bin"],
         "--chain-depth 11 outside [4, 10]"),
        # numpy's _ArrayMemoryError asked for 8 TiB, with a traceback and exit 1
        (["favard", "--fixture", "segment", "--depths", "40:40", "--grid", "16", "--out", "f.csv"],
         "segment depth 40 outside [1, 20]"),
        (["favard", "--fixture", "segment", "--depths", "21:21", "--grid", "16", "--out", "f.csv"],
         "segment depth 21 outside [1, 20]"),
        (["favard", "--fixture", "segment", "--depths", "0:0", "--grid", "16", "--out", "f.csv"],
         "segment depth 0 outside [1, 20]"),
    ]
    for argv, named in cases:
        status = run(argv)
        captured = capsys.readouterr()
        assert status == 2, argv
        assert captured.out == ""
        err = json.loads(captured.err.strip())
        assert err["error"]["type"] == "GeometryError"
        assert named in err["error"]["message"]
        assert not (workdir / argv[-1]).exists()


def test_favard_refuses_a_grid_past_the_edge_before_any_cover(workdir, capsys):
    # the grid was checked only below 16, after the covers were built: one
    # past the edge at depth 8 would project 57 million boxes per direction
    top = projlab.FAVARD_MAX_GRID
    t0 = time.perf_counter()
    status = run(["favard", "--depths", "8:8", "--grid", str(top + 1), "--out", "f.csv"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert status == 2
    assert elapsed < 1.0
    err = json.loads(captured.err.strip())
    assert err["error"]["type"] == "GeometryError"
    assert f"direction grid {top + 1} above FAVARD_MAX_GRID = {top}" in err["error"]["message"]
    assert f"grid must lie in [16, {top}]" in err["error"]["message"]
    assert not (workdir / "f.csv").exists()


def test_delta_refuses_levels_outside_one_to_ten_before_the_ledger(workdir, capsys):
    # 4 -> 6 converges, so level 99 was never solved: the command exited 0
    # and left a ledger entry at depth 99 that a later --depths 99 was served
    ledger = workdir / "ledger.jsonl"
    for depths, bad in (("4,6,99", 99), ("0,4", 0)):
        assert run(["delta", "--cuffs", "2,2,2", "--depths", depths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip())["error"]
        assert err == {"type": "GeometryError", "message": f"collocation level {bad} outside [1, 10]"}
    assert not ledger.exists()
    # the levels are checked before the ledger is read
    assert run(["delta", "--cuffs", "2,2,2", "--depths", "4,6"]) == 0
    capsys.readouterr()
    assert run(["delta", "--cuffs", "2,2,2", "--depths", "99"]) == 2
    assert "collocation level 99" in capsys.readouterr().err
    assert len(ledger.read_text().splitlines()) == 1


def test_delta_refuses_a_ladder_that_does_not_increase_before_the_ledger(workdir, capsys):
    # --depths 4,4 stored delta = 0.35147774 as converged, and a later default
    # run was served it, where the converged value is 0.35149650
    ledger = workdir / "ledger.jsonl"
    for depths in ("4,4", "8,4"):
        assert run(["delta", "--cuffs", "0.2,1,12", "--depths", depths]) == 2
        assert "do not strictly increase" in capsys.readouterr().err
    assert not ledger.exists()
    status, summary = run_json(capsys, ["delta", "--cuffs", "0.2,1,12"])
    assert status == 0 and summary["results"]["cached"] is False
    assert abs(summary["results"]["delta"] - 0.35149650) < 1e-8


def test_octagon_svg_artifact(workdir, capsys):
    status, summary = run_json(
        capsys, ["octagon", "--cuffs", "1,1,1", "--out", "oct.svg"]
    )
    assert status == 0
    svg = (workdir / "oct.svg").read_text()
    assert svg.startswith("<?xml")
    assert "validation:" in svg
    # deterministic emission
    run_json(capsys, ["octagon", "--cuffs", "1,1,1", "--out", "oct2.svg"])
    assert (workdir / "oct2.svg").read_bytes() == (workdir / "oct.svg").read_bytes()


def test_cover_csv_artifact(workdir, capsys):
    status, summary = run_json(
        capsys, ["cover", "--cuffs", "2,2,2", "--depth", "3", "--out", "cover.csv"]
    )
    assert status == 0
    lines = (workdir / "cover.csv").read_text().strip().splitlines()
    assert lines[0] == "word,lo_angle,hi_angle"
    assert len(lines) == 1 + 36
    assert summary["results"]["n_words"] == 36


def test_trace_command(workdir, capsys):
    status, summary = run_json(
        capsys,
        ["trace", "--cuffs", "2,2,2", "--xi-period", "ab", "--eta-period", "BA", "-n", "6"],
    )
    assert status == 0
    assert summary["results"]["word"] == "ababab"


def test_trace_command_deep_periodic(workdir, capsys):
    # 40 symbols is past what pushing the endpoints forward in doubles reaches
    status, summary = run_json(
        capsys,
        ["trace", "--cuffs", "2,2,2", "--xi-period", "ab", "--eta-period", "BA", "-n", "40"],
    )
    assert status == 0
    assert summary["results"]["word"] == "ab" * 20
    assert summary["results"]["length"] == 40


def test_favard_four_corner_csv(workdir, capsys):
    status, summary = run_json(
        capsys,
        [
            "favard",
            "--fixture",
            "four-corner",
            "--depths",
            "1:4",
            "--grid",
            "64",
            "--out",
            "fav.csv",
        ],
    )
    assert status == 0
    favs = [summary["results"]["favard"][str(d)] for d in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(favs, favs[1:]))
    lines = (workdir / "fav.csv").read_text().strip().splitlines()
    assert lines[0] == "depth,lambda,length"
    assert len(lines) == 1 + 4 * 64


def test_certify_command_and_artifact(workdir, capsys):
    status, summary = run_json(
        capsys, ["certify", "--family", "directions", "--grid", "256", "--out", "cert.json"]
    )
    assert status == 0
    report = json.loads((workdir / "cert.json").read_text())
    assert report["certified"] is True
    assert report["C_T"] == pytest.approx(0.7)
    status2, _ = run_json(capsys, ["certify", "--family", "constant", "--grid", "64"])
    assert status2 == 1


def test_sample_cs_command(workdir, capsys):
    status, summary = run_json(
        capsys,
        [
            "sample-cs",
            "--cuffs",
            "2,2,2",
            "--count",
            "20000",
            "--seed",
            "5",
            "--out",
            "cloud.bin",
            "--dim-json",
            "dim.json",
        ],
    )
    assert status == 0
    pts = read_point_cloud(str(workdir / "cloud.bin"))
    assert len(pts) == 20000
    dim = json.loads((workdir / "dim.json").read_text())
    assert 1.0 < dim["box_dimension"] < 2.2
    # byte-identical rerun with the same seed
    run_json(
        capsys,
        ["sample-cs", "--cuffs", "2,2,2", "--count", "20000", "--seed", "5", "--out", "cloud2.bin"],
    )
    assert (workdir / "cloud2.bin").read_bytes() == (workdir / "cloud.bin").read_bytes()


CUFF_COMMANDS = {
    "cover": (["cover", "--depth", "4", "--out", "cover.csv"], "cover.csv"),
    "trace": (["trace", "--xi-period", "ab", "--eta-period", "BA", "-n", "12"], None),
    "favard": (["favard", "--depths", "2:3", "--grid", "16", "--out", "fav.csv"], "fav.csv"),
    "sample-cs": (["sample-cs", "--count", "20000", "--seed", "1", "--out", "cloud.bin"], "cloud.bin"),
}


@pytest.mark.parametrize("cuffs, status", [("2,2,2", 0), ("20,20,20", 1)])
def test_a_failed_validator_exits_one_with_the_artifact_written(workdir, capsys, cuffs, status):
    # at (20)^3 these four commands exited 0, with no word of the validator
    for argv, artifact in CUFF_COMMANDS.values():
        got, summary = run_json(capsys, argv + ["--cuffs", cuffs])
        assert got == status, argv
        assert summary["results"]["validator_passed"] is (status == 0)
        assert artifact is None or (workdir / artifact).exists()


def test_sample_cs_exits_one_on_an_unconverged_exponent(workdir, capsys):
    # at (0.2)^3 the depth (4, 6) solve gives s = 0.96709, where delta = 0.96443
    argv = CUFF_COMMANDS["sample-cs"][0] + ["--cuffs", "0.2,0.2,0.2", "--dim-json", "dim.json"]
    status, summary = run_json(capsys, argv)
    assert status == 1
    results = summary["results"]
    assert results["converged"] is False and results["depth_used"] == 6
    assert results["validator_passed"] is True
    assert (workdir / "cloud.bin").exists()
    assert set(json.loads((workdir / "dim.json").read_text())) == {
        "box_dimension", "counts", "scales", "count", "seed", "s"}
    # a given exponent runs no solve, and reports none
    status, summary = run_json(capsys, argv + ["--s", "0.9"])
    assert status == 0
    assert "converged" not in summary["results"] and "depth_used" not in summary["results"]


def test_locus_reports_the_validator_at_its_root(workdir, capsys):
    status, summary = run_json(capsys, ["locus", "--target", "0.5", "--symmetric", "--depths", "4,6"])
    assert status == 0 and summary["results"]["validator_passed"] is True


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_a_non_finite_or_negative_tolerance_is_refused_before_any_row_or_ledger(workdir, capsys, tol):
    # --tol inf exited 0 with converged: true and printed Infinity, which is not JSON
    for argv in (["delta", "--cuffs", "0.2,1,12", "--depths", "4,6"],
                 ["delta-scan", "--symmetric", "2:2:1", "--out", "scan.csv"],
                 ["locus", "--target", "0.5", "--symmetric", "--depths", "4,6"]):
        assert run(argv + [f"--tol={tol}"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip())["error"]
        assert err["type"] == "GeometryError" and "tolerance" in err["message"]
    assert not (workdir / "scan.csv").exists()
    assert not (workdir / "ledger.jsonl").exists()


def test_unknown_family_rejected(workdir, capsys):
    status = run(["certify", "--family", "nope"])
    assert status == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "unknown family" in err["error"]["message"]
