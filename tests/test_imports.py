"""Import graph: each caller loads only the layers it uses.

Every probe runs in a fresh interpreter and reads the loaded modules from
``sys.modules`` at its end; a command runs as ``python -m cuffdim`` does.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cuffdim

LAYERS = ("hyperbolic", "pants", "symbolic", "thermo", "projlab", "cli")
DELTA_LAYERS = {"hyperbolic", "pants", "thermo"}
CLI_LAYERS = DELTA_LAYERS | {"cli"}

# every name the package namespace exported when it imported all five layers
EXPORTED = {
    "hyperbolic": ("GeometryError", "MoebiusTransform"),
    "pants": (
        "ALPHA", "ABAR", "BETA", "BBAR", "CuffLengths", "PantsGeometry", "PantsReport", "bar", "build_pants", "octagon_svg",
        "validate_pants",
    ),
    "symbolic": (
        "CylinderCover", "GeodesicPair", "Ray", "cutting_sequence_trace", "cylinder_cover",
        "is_reduced", "periodic_suspension_sum", "word_from_string", "word_to_element",
        "word_to_string",
    ),
    "thermo": (
        "DeltaResult", "GibbsChain", "TransferMatrix", "cover_scaling_delta",
        "entropy_identity_check", "gibbs_chain", "hausdorff_delta",
        "pressure", "pressure_root", "solve_locus", "solve_locus_symmetric",
        "transfer_matrix",
    ),
    "projlab": (
        "BoxCover", "TransversalFamilySpec", "TransversalityReport", "box_dimension",
        "constant_family", "direction_family", "favard_estimate", "four_corner_cover",
        "product_cover", "project_cover_length", "projection_profile", "read_point_cloud",
        "sample_complete_geodesic_points", "segment_cover", "transversality_certify",
        "write_point_cloud",
    ),
}

PROBE = """
import json
import runpy
import sys

{body}
print(json.dumps(sorted(sys.modules)))
"""

COMMAND = """
sys.argv = ["cuffdim", *{argv!r}]
try:
    runpy.run_module("cuffdim", run_name="__main__", alter_sys=True)
except SystemExit as exit_:
    assert exit_.code == 0, exit_.code
"""


def loaded_modules(body: str, cwd) -> list[str]:
    src = os.path.dirname(os.path.dirname(cuffdim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["CUFFDIM_LEDGER"] = str(cwd / "ledger.jsonl")
    res = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)], env=env, capture_output=True,
        text=True, timeout=300, cwd=cwd,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def command(*argv: str) -> str:
    return COMMAND.format(argv=argv)


PATHS = {
    "import": ("import cuffdim", set()),
    "import-delta-layers": ("import cuffdim.pants, cuffdim.thermo", DELTA_LAYERS),
    "import-cli": ("import cuffdim.cli", CLI_LAYERS),
    "delta": (command("delta", "--cuffs", "2,2,2", "--depths", "4,6"), CLI_LAYERS),
    "delta-scan": (
        command("delta-scan", "--symmetric", "2:2:1", "--depth", "5", "--out", "s.csv"),
        CLI_LAYERS,
    ),
    "locus": (command("locus", "--symmetric", "--target", "0.5", "--depths", "4,6"), CLI_LAYERS),
    "octagon": (command("octagon", "--cuffs", "2,2,2", "--out", "o.svg"), CLI_LAYERS),
    "cover": (
        command("cover", "--cuffs", "2,2,2", "--depth", "3", "--out", "c.csv"),
        CLI_LAYERS | {"symbolic"},
    ),
    "trace": (
        command("trace", "--cuffs", "2,2,2", "--xi-period", "ab", "--eta-period", "BA", "-n", "6"),
        CLI_LAYERS | {"symbolic"},
    ),
    "favard": (
        command("favard", "--fixture", "segment", "--depths", "2:2", "--grid", "16", "--out", "f.csv"),
        set(LAYERS),
    ),
    "certify": (command("certify", "--grid", "32"), set(LAYERS)),
    "sample-cs": (
        command("sample-cs", "--cuffs", "2,2,2", "--count", "20000", "--out", "c.bin"),
        set(LAYERS),
    ),
}


@pytest.mark.parametrize("path", PATHS)
def test_each_path_loads_only_its_layers(path, tmp_path):
    body, layers = PATHS[path]
    modules = loaded_modules(body, tmp_path)
    assert {m.split(".", 1)[1] for m in modules if m.startswith("cuffdim.")} == layers
    assert not [m for m in modules if m.split(".")[0] in ("scipy", "mpmath")]


def test_every_exported_name_resolves_to_its_home_object():
    listed = dir(cuffdim)
    for home, names in EXPORTED.items():
        mod = importlib.import_module(f"cuffdim.{home}")
        for name in names:
            assert getattr(cuffdim, name) is getattr(mod, name), name
            assert name in listed, name
            scope = {}
            exec(f"from cuffdim import {name}", scope)
            assert scope[name] is getattr(mod, name), name
    exported = {n for names in EXPORTED.values() for n in names}
    scope = {}
    exec("from cuffdim import *", scope)
    assert exported <= set(scope)
    # names resolve on every access and are never stored in the namespace
    assert not set(vars(cuffdim)) & exported


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cuffdim.no_such_name
    retired = ("BoundaryPoint", "DiskPoint", "Geodesic", "hyp_distance", "OctagonSide", "Arc")
    for gone in ("boundary_expansion", "geodesic_from_pair", *retired):
        assert not hasattr(cuffdim, gone)
    with pytest.raises(ImportError):
        exec("from cuffdim import no_such_name", {})
