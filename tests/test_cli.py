"""Command-line interface: JSON summaries, artifacts, ledger semantics."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import cuffdim
from cuffdim import cli, thermo
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
    # now the deep entry serves the shallow request too
    _, again = run_json(
        capsys, ["delta", "--cuffs", "1,1,1", "--tol", "1e-4", "--depths", "4"]
    )
    assert again["results"]["cached"] is True
    assert again["results"]["delta"] == high["results"]["delta"]
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
    before, after, mp_modules = res.stdout.strip().splitlines()
    assert before == "[]"
    # a delta solve is dense collocation: no sparse matrix, no scipy root finder
    assert after == "False False"
    # a deep trace runs in doubles, whatever precision it is asked for
    assert mp_modules == "[]"


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
    # 14 scan and Brent points; the reported delta is the root's, not a 15th solve
    assert len(calls) == len(set(calls)) == 14


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
    status = run(["delta", "--cuffs", "2,2"])
    captured = capsys.readouterr()
    assert status == 2
    err = json.loads(captured.err.strip())
    assert err["error"]["type"] == "GeometryError"


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


def test_unknown_family_rejected(workdir, capsys):
    status = run(["certify", "--family", "nope"])
    assert status == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "unknown family" in err["error"]["message"]
