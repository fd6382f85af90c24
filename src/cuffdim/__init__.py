"""Hyperbolic pairs of pants, limit-set dimension and projection experiments.

The package builds the right-angled octagon of a pair of pants from its
three cuff lengths, exposes the expanding boundary map on the four
Schottky arcs, computes the limit-set dimension as the root of a
transfer-operator pressure, samples the Gibbs measure, and runs planar
projection experiments (Favard decay, transversality certification,
box-counting dimension of complete-geodesic point clouds).
"""

__version__ = "0.1.0"

from .hyperbolic import (
    BoundaryPoint,
    DiskPoint,
    Geodesic,
    GeometryError,
    IsometryInfo,
    MoebiusTransform,
    classify_isometry,
    geodesic_from_endpoints,
    hyp_distance,
    signed_side,
)
from .pants import (
    ALPHA,
    ABAR,
    BETA,
    BBAR,
    Arc,
    CuffLengths,
    OctagonSide,
    PantsGeometry,
    PantsReport,
    bar,
    build_pants,
    expansion_map_step,
    octagon_svg,
    schottky_arcs,
    validate_pants,
)
from .symbolic import (
    CylinderCover,
    GeodesicPair,
    Ray,
    boundary_expansion,
    cutting_sequence_trace,
    cylinder_cover,
    geodesic_from_pair,
    is_reduced,
    periodic_suspension_sum,
    suspension_time,
    word_from_string,
    word_to_element,
    word_to_string,
)
from .thermo import (
    CylinderMeasure,
    DeltaResult,
    TransferMatrix,
    cover_scaling_delta,
    entropy_identity_check,
    gibbs_chain,
    gibbs_measure,
    hausdorff_delta,
    pressure,
    pressure_root,
    solve_locus,
    solve_locus_symmetric,
    transfer_matrix,
)
from .projlab import (
    BoxCover,
    TransversalFamilySpec,
    TransversalityReport,
    box_dimension,
    constant_family,
    direction_family,
    favard_estimate,
    four_corner_cover,
    product_cover,
    project_cover_length,
    projection_profile,
    read_point_cloud,
    sample_complete_geodesic_points,
    segment_cover,
    transversality_certify,
    write_point_cloud,
)
