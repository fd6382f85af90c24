"""Hyperbolic pairs of pants, limit-set dimension and projection experiments.

The package builds the right-angled octagon of a pair of pants from its
three cuff lengths, exposes the expanding boundary map on the four
Schottky arcs, computes the limit-set dimension as the root of a
transfer-operator pressure, samples the Gibbs chain, and runs planar
projection experiments (Favard decay, transversality certification,
box-counting dimension of complete-geodesic point clouds).

The namespace is lazy: ``import cuffdim`` loads no layer module, and
``cuffdim.<name>`` imports the name's home layer on first access (PEP 562).
Names are looked up in their layer on every access and never stored here,
so ``vars(cuffdim)`` holds only the submodules imported so far.  A δ caller
(``build_pants`` + ``hausdorff_delta``) loads ``hyperbolic``, ``pants`` and
``thermo``; ``symbolic`` and ``projlab`` load only when a caller uses them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "hyperbolic": "GeometryError MoebiusTransform",
    "pants": (
        "ALPHA ABAR BETA BBAR CuffLengths PantsGeometry PantsReport bar build_pants"
        " octagon_svg validate_pants"
    ),
    "symbolic": (
        "CylinderCover GeodesicPair Ray cutting_sequence_trace cylinder_cover"
        " is_reduced periodic_suspension_sum word_from_string word_to_element"
        " word_to_string"
    ),
    "thermo": (
        "DeltaResult GibbsChain TransferMatrix cover_scaling_delta"
        " entropy_identity_check gibbs_chain hausdorff_delta pressure"
        " pressure_root solve_locus solve_locus_symmetric transfer_matrix"
    ),
    "projlab": (
        "BoxCover TransversalFamilySpec TransversalityReport box_dimension"
        " constant_family direction_family favard_estimate four_corner_cover"
        " product_cover project_cover_length projection_profile read_point_cloud"
        " sample_complete_geodesic_points segment_cover transversality_certify"
        " write_point_cloud"
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
