"""Central tolerance configuration.

Every numeric tolerance used by the geometric and dynamical routines lives
in one record so precision studies can turn a single knob.  The defaults
are the values asserted by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # Moebius algebra
    unit_det: float = 1e-12          # |u|^2 - |v|^2 = 1 after renormalization
    parabolic_trace: float = 1e-9    # |tr| within this of 2 reports parabolic

    # incidence and geodesic predicates
    on_geodesic: float = 1e-12       # signed_side reports 0 inside this band
    endpoint_gap: float = 1e-12      # minimal angular separation of endpoints

    # octagon validation
    right_angle: float = 1e-8
    side_length: float = 1e-8
    cuff_recovery: float = 1e-8
    gluing: float = 1e-9
    vertex_match: float = 1e-10

    # eigenproblem
    power_rtol: float = 1e-12
    power_maxiter: int = 100_000


DEFAULT = Tolerances()
