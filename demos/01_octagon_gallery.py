"""Build right-angled octagons for a few cuff triples and render them.

Every pair of pants is determined by its three boundary lengths.  Cutting
along two seams unfolds it into a right-angled octagon in the hyperbolic
disk; the four seam sides extend to complete geodesics that cut off the
four Schottky arcs on the circle.  This script builds a small gallery,
prints each validation report, and writes one SVG per triple.
"""

import os

from cuffdim import build_pants, octagon_svg, validate_pants
from cuffdim.pants import SYMBOL_NAMES

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

for cuffs in [(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (0.6, 1.7, 3.1), (5.0, 2.0, 0.8)]:
    pants = build_pants(cuffs)
    report = validate_pants(pants)
    print(f"\ncuffs {cuffs}: axis separation {pants.axis_gap:.6f}")
    print(report.summary())
    for name, (lo, hi), length in zip(SYMBOL_NAMES, pants.arcs, pants.arc_len):
        print(f"  arc {name}: [{lo:.4f}, {hi:.4f}] length {length:.4f}")
    name = "octagon_" + "_".join(f"{c:g}" for c in cuffs) + ".svg"
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        fh.write(octagon_svg(pants, report=report))
    print(f"  wrote {path}")
