"""Sample the set of complete geodesics and estimate its dimension.

Points lying on geodesics that never leave the surface form a set of
dimension 1 + 2*delta.  The sampler draws forward and backward symbolic
endpoints from the Gibbs chain, realizes the geodesic, clips it against
the octagon and emits a flow-time-uniform point on the chord.  At the
dimension-1/2 cuffs the cloud fills two dimensions (while still being
Lebesgue negligible in the limit); at delta near 0.3 it is visibly
thinner, matching 1 + 2*delta.
"""

import os

from cuffdim import build_pants, gibbs_chain, hausdorff_delta, sample_complete_geodesic_points
from cuffdim.projlab import box_dimension, ks_uniform_statistic, write_point_cloud
from cuffdim.thermo import solve_locus_symmetric

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

for target in (0.5, 0.3):
    a = solve_locus_symmetric(target, tol=1e-3)
    pants = build_pants((a, a, a))
    delta = hausdorff_delta(pants, tol=1e-5, depths=(6, 8)).delta
    chain = gibbs_chain(pants, delta, 6)
    sample = sample_complete_geodesic_points(pants, chain, 400_000, seed=17)
    fit = box_dimension(sample.points)
    ks = ks_uniform_statistic(sample.time_fractions)
    print(f"delta = {delta:.4f} (a = {a:.4f}):")
    print(f"  box-counting dimension {fit.estimate:.4f} vs 1 + 2 delta = {1 + 2 * delta:.4f}")
    print(f"  occupied boxes per scale: {fit.counts.tolist()}")
    print(f"  flow-time uniformity (KS statistic): {ks:.4f}")
    path = os.path.join(OUT, f"complete_geodesics_delta{target:g}.bin")
    write_point_cloud(path, sample.points)
    print(f"  wrote {path}\n")
