"""Scan the limit-set dimension along the symmetric cuff line.

The boundary map on the four Schottky arcs is an expanding Markov map;
its invariant Cantor set has dimension delta(a, b, c), computed here as
the root of the transfer-operator pressure.  Along a = b = c the
dimension sweeps the whole interval (0, 1): small cuffs hold geodesics
easily (dimension near 1), long cuffs let almost everything escape.
The scan also cross-checks the root against an independent box-counting
estimate and locates the cuff length where the dimension is exactly 1/2.
"""

import numpy as np

from cuffdim import build_pants, cover_scaling_delta, hausdorff_delta
from cuffdim.thermo import solve_locus_symmetric

print(f"{'a = b = c':>10} {'delta':>10} {'box-count':>10} {'gap':>9}")
for a in np.geomspace(0.4, 8.0, 10):
    pants = build_pants((a, a, a))
    res = hausdorff_delta(pants, tol=1e-4, depths=(5, 7))
    slope, _ = cover_scaling_delta(pants, max_leaves=60_000)
    print(f"{a:10.4f} {res.delta:10.6f} {slope:10.6f} {abs(res.delta - slope):9.1e}")

a_half = solve_locus_symmetric(0.5, tol=1e-3)
print(f"\ndimension 1/2 at a = b = c = {a_half:.8f}")
check = hausdorff_delta(build_pants((a_half,) * 3), tol=1e-5, depths=(8, 10))
print(f"recheck at level {check.depth_used} ({check.nodes} nodes per arc): delta = {check.delta:.8f}")
