"""Acceptance suite: one test per criterion, each printing a PASS line.

Shared solves (the dimension-1/2 symmetric pants and the 0.7/0.3 locus
pants) are computed once in module fixtures; their cost is attributed to
the criterion that first needs them.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from cuffdim.cli import run as cli_run
from cuffdim.pants import build_pants, validate_pants
from cuffdim.projlab import (
    box_dimension,
    constant_family,
    direction_family,
    favard_estimate,
    four_corner_cover,
    lambda_grid,
    product_cover,
    project_lengths,
    sample_complete_geodesic_points,
    segment_cover,
    transversality_certify,
    _extend_words,
)
from cuffdim.symbolic import (
    GeodesicPair,
    Ray,
    cutting_sequence_trace,
    periodic_suspension_sum,
    word_to_element,
)
from cuffdim.thermo import (
    LOG3,
    cover_scaling_delta,
    entropy_identity_check,
    gibbs_chain,
    hausdorff_delta,
    pressure,
    pressure_root,
    solve_locus_symmetric,
)

from conftest import random_reduced_word


def _report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {detail}")


@pytest.fixture(scope="module")
def half_dim_pants():
    a_star = solve_locus_symmetric(0.5, tol=1e-3, depths=(6, 8))
    p = build_pants((a_star, a_star, a_star))
    return a_star, p


@pytest.fixture(scope="module")
def pants_dim_07():
    a = solve_locus_symmetric(0.7, tol=1e-3, depths=(6, 8))
    return build_pants((a, a, a))


@pytest.fixture(scope="module")
def pants_dim_03():
    a = solve_locus_symmetric(0.3, tol=1e-3, depths=(6, 8))
    return build_pants((a, a, a))


def test_criterion_01_pressure_pin():
    p = build_pants((2.0, 2.0, 2.0))
    t0 = time.perf_counter()
    val = pressure(p, 0.0, 6)
    elapsed = time.perf_counter() - t0
    assert abs(val - LOG3) < 1e-9
    assert elapsed < 1.0
    _report(1, f"pressure(0, depth 6) = log 3 + {val - LOG3:.2e} in {elapsed:.3f}s")


def test_criterion_02_construction_soundness():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = {}
    for _ in range(50):
        cuffs = tuple(rng.uniform(0.3, 8.0, size=3))
        report = validate_pants(build_pants(cuffs))
        assert report.passed, f"{cuffs}: {report.summary()}"
        for c in report.checks:
            worst[c.name] = max(worst.get(c.name, 0.0), c.residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert worst["right_angles"] <= 1e-8
    assert worst["side_lengths"] <= 1e-8
    assert worst["cuff_recovery"] <= 1e-8
    _report(
        2,
        f"50 random triples validated in {elapsed:.2f}s; worst residuals "
        f"angles {worst['right_angles']:.1e}, sides {worst['side_lengths']:.1e}, "
        f"cuffs {worst['cuff_recovery']:.1e}",
    )


def test_criterion_03_symbolic_geometric_agreement(pants222):
    t0 = time.perf_counter()
    delta = hausdorff_delta(pants222, tol=1e-4, depths=(4, 6)).delta
    chain = gibbs_chain(pants222, delta, 6)
    rng = np.random.Generator(np.random.Philox(key=20240))
    pi_cum = np.cumsum(chain.stationary)
    pi_cum[-1] = 1.0
    first = chain.skeleton.cover.words[:, 0]
    matched = 0
    for _ in range(100):
        xi_idx = int(np.searchsorted(pi_cum, rng.random()))
        eta_idx = int(np.searchsorted(pi_cum, rng.random()))
        while first[eta_idx] == first[xi_idx]:
            eta_idx = int(np.searchsorted(pi_cum, rng.random()))
        xi = tuple(
            int(s)
            for s in _extend_words(chain, np.array([xi_idx]), rng, 48)[0]
        )
        eta = tuple(
            int(s)
            for s in _extend_words(chain, np.array([eta_idx]), rng, 48)[0]
        )
        pair = GeodesicPair(Ray(xi), Ray(eta))
        traced = cutting_sequence_trace(pants222, pair, 30, prec=80)
        assert traced == xi[:30], "traced word differs from the forward prefix"
        matched += 1
    elapsed = time.perf_counter() - t0
    assert matched == 100
    assert elapsed < 60.0
    _report(3, f"100/100 Gibbs pairs traced 30 symbols exactly in {elapsed:.1f}s")


def test_criterion_04_suspension_trace_formula(pants222):
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    words = []
    while len(words) < 20:
        k = int(rng.integers(1, 5))
        w = random_reduced_word(rng, k)
        if w[0] == (w[-1] ^ 1) or w in words:
            continue
        words.append(w)
    worst = 0.0
    for w in words:
        total = periodic_suspension_sum(pants222, w)
        ell = word_to_element(pants222, w).translation_length
        rel = abs(total - ell) / max(ell, 1.0)
        worst = max(worst, rel)
        assert rel <= 1e-6, (w, total, ell)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"20 period sums match translation lengths, worst rel {worst:.1e}, {elapsed:.1f}s")


def test_criterion_05_delta_convergence_and_cross_validation(pants222):
    t0 = time.perf_counter()
    r7 = pressure_root(pants222, 7)
    r9 = pressure_root(pants222, 9)
    assert abs(r7 - r9) < 5e-3
    slope, _ = cover_scaling_delta(pants222)
    assert abs(slope - r9) < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        5,
        f"roots depth 7/9 differ {abs(r7 - r9):.1e}; cover-scaling slope "
        f"{slope:.4f} vs delta {r9:.4f} in {elapsed:.1f}s",
    )


def test_criterion_06_thermodynamic_identity(pants222, pants111, pants123):
    t0 = time.perf_counter()
    residuals = []
    for p in (pants222, pants111, pants123):
        delta = hausdorff_delta(p, tol=1e-5, depths=(6, 8)).delta
        resid = entropy_identity_check(p, delta, 8)
        assert resid < 5e-3
        residuals.append(resid)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(6, f"entropy identity residuals {[f'{r:.1e}' for r in residuals]} in {elapsed:.1f}s")


def test_criterion_07_half_dimension_locus(half_dim_pants):
    t0 = time.perf_counter()
    a_star, p = half_dim_pants
    d8 = hausdorff_delta(p, tol=1e-5, depths=(6, 8)).delta
    assert abs(d8 - 0.5) < 1e-3
    d10 = pressure_root(p, 10)
    assert abs(d10 - 0.5) < 5e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        7,
        f"a* = {a_star:.6f}: delta(depth 8) = 0.5 + {d8 - 0.5:.1e}, "
        f"depth 10 recheck 0.5 + {d10 - 0.5:.1e} in {elapsed:.1f}s",
    )


def test_criterion_08_transversality_certificate():
    t0 = time.perf_counter()
    rep = transversality_certify(direction_family(), lam_grid=256)
    assert rep.certified and rep.c_t == pytest.approx(0.7)
    assert rep.margin is not None and rep.margin > 0.0
    assert rep.c_l <= 1.0 + 1e-6
    neg = transversality_certify(constant_family(), lam_grid=256)
    assert not neg.certified
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        8,
        f"direction family certified C_T=0.7 (margin {rep.margin:.4f}, "
        f"C_L={rep.c_l:.6f}); constant family fails; {elapsed:.1f}s",
    )


def test_criterion_09_projection_decay(half_dim_pants):
    t0 = time.perf_counter()
    _, p = half_dim_pants
    favs = {n: favard_estimate(product_cover(p, n), grid=256) for n in range(2, 7)}
    vals = [favs[n] for n in range(2, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    ratio = favs[6] / favs[2]
    assert ratio < 0.6
    fc = [favard_estimate(four_corner_cover(n), grid=256) for n in range(2, 7)]
    assert all(a > b for a, b in zip(fc, fc[1:]))
    seg = [favard_estimate(segment_cover(n), grid=256) for n in range(2, 7)]
    assert max(seg) / min(seg) < 1.10
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        9,
        f"Favard strictly decreasing, F(6)/F(2) = {ratio:.3f} < 0.6; "
        f"four-corner decays; segment spread {max(seg)/min(seg):.3f}; {elapsed:.1f}s",
    )


def test_criterion_10_positive_measure_stabilization(pants_dim_07):
    t0 = time.perf_counter()
    lams = lambda_grid(256)
    l4 = project_lengths(product_cover(pants_dim_07, 4), lams)
    l6 = project_lengths(product_cover(pants_dim_07, 6), lams)
    frac = float(np.mean(l6 >= 0.8 * l4))
    assert frac >= 0.9
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(10, f"depth-6 length >= 0.8 x depth-4 on {100 * frac:.1f}% of directions; {elapsed:.1f}s")


def test_criterion_11_dimension_of_complete_geodesics(half_dim_pants, pants_dim_03):
    _, p_half = half_dim_pants
    t0 = time.perf_counter()
    chain = gibbs_chain(p_half, 0.5, 6)
    sample = sample_complete_geodesic_points(p_half, chain, 1_000_000, seed=71)
    fit = box_dimension(sample.points)
    assert abs(fit.estimate - 2.0) < 0.15
    elapsed_half = time.perf_counter() - t0
    assert elapsed_half < 900.0

    t0 = time.perf_counter()
    d3 = hausdorff_delta(pants_dim_03, tol=1e-5, depths=(6, 8)).delta
    chain3 = gibbs_chain(pants_dim_03, d3, 6)
    sample3 = sample_complete_geodesic_points(pants_dim_03, chain3, 1_000_000, seed=71)
    fit3 = box_dimension(sample3.points)
    assert abs(fit3.estimate - (1.0 + 2.0 * d3)) < 0.15
    elapsed_03 = time.perf_counter() - t0
    assert elapsed_03 < 900.0
    _report(
        11,
        f"box dimension {fit.estimate:.3f} vs 2 (delta=1/2) and "
        f"{fit3.estimate:.3f} vs {1 + 2 * d3:.2f} (delta~0.3); "
        f"{elapsed_half:.0f}s + {elapsed_03:.0f}s",
    )


def _emit_artifacts(outdir: str) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    files = []

    def out(name):
        path = os.path.join(outdir, name)
        files.append(path)
        return path

    assert cli_run(["octagon", "--cuffs", "1.5,2.5,3.5", "--out", out("oct.svg")]) == 0
    assert cli_run(["cover", "--cuffs", "2,2,2", "--depth", "4", "--out", out("cover.csv")]) == 0
    assert cli_run(["certify", "--family", "directions", "--grid", "128", "--out", out("cert.json")]) == 0
    assert (
        cli_run(
            ["favard", "--fixture", "four-corner", "--depths", "1:4", "--grid", "64", "--out", out("fav.csv")]
        )
        == 0
    )
    assert (
        cli_run(
            [
                "sample-cs",
                "--cuffs",
                "2,2,2",
                "--count",
                "100000",
                "--seed",
                "9",
                "--out",
                out("cloud.bin"),
                "--dim-json",
                out("dim.json"),
            ]
        )
        == 0
    )
    assert (
        cli_run(
            ["delta-scan", "--symmetric", "1:3:3", "--depth", "5", "--out", out("scan.csv")]
        )
        == 0
    )
    return files


def _strip_wall_ms(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    head = lines[0].split(",")
    keep = [i for i, name in enumerate(head) if name != "wall_ms"]
    return "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines)


def test_criterion_12_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CUFFDIM_LEDGER", str(tmp_path / "ledger.jsonl"))
    run_a = _emit_artifacts(str(tmp_path / "a"))
    run_b = _emit_artifacts(str(tmp_path / "b"))
    capsys.readouterr()
    compared = 0
    for fa, fb in zip(run_a, run_b):
        with open(fa, "rb") as fh:
            data_a = fh.read()
        with open(fb, "rb") as fh:
            data_b = fh.read()
        if fa.endswith("scan.csv"):
            # wall-clock column is the one permitted nondeterministic field
            assert _strip_wall_ms(data_a.decode()) == _strip_wall_ms(data_b.decode())
        else:
            assert data_a == data_b, f"{os.path.basename(fa)} differs between runs"
        compared += 1
    assert compared == 7
    _report(12, f"{compared} artifact files byte-identical across repeated runs")
