"""Cutting sequences, cylinder arcs and the suspension-time trace formula.

A geodesic that never leaves the surface crosses an infinite chain of
octagon copies; the labels of the crossed seam sides form its cutting
sequence, which coincides with the boundary expansion of its forward
endpoint.  Closed geodesics make this quantitative: the time a periodic
orbit spends in the octagon over one period equals the translation
length of the group element spelled by its word.
"""

import numpy as np

from cuffdim import (
    GeodesicPair,
    Ray,
    build_pants,
    classify_isometry,
    cutting_sequence_trace,
    cylinder_cover,
    geodesic_from_pair,
    periodic_suspension_sum,
    word_from_string,
    word_to_element,
    word_to_string,
)

pants = build_pants((2.0, 2.0, 2.0))

print("cylinder cover growth (4 * 3^(n-1) arcs):")
for n in (1, 2, 4, 6, 8):
    cov = cylinder_cover(pants, n)
    print(f"  depth {n}: {cov.n_words:5d} arcs, longest {cov.lengths.max():.3e}")

print("\nperiodic words: time in the octagon vs translation length")
for word_str in ("a", "ab", "aB", "abb", "abaB", "bbAb"):
    word = word_from_string(word_str)
    total = periodic_suspension_sum(pants, word)
    ell = classify_isometry(word_to_element(pants, word)).translation_length
    print(f"  ({word_str})^inf: period sum {total:.10f}  length {ell:.10f}")

print("\ntracing a random geodesic and recovering its forward word:")
rng = np.random.default_rng(5)
symbols, prev = [], None
for _ in range(40):
    opts = [s for s in range(4) if s != prev]
    s = int(rng.choice(opts))
    symbols.append(s)
    prev = s ^ 1
xi = tuple(symbols)
eta_first = [s for s in range(4) if s != xi[0]][0]
eta = (eta_first,) + xi[:39] if xi[0] != (eta_first ^ 1) else (eta_first,)
pair = GeodesicPair(Ray(xi), Ray((eta_first,)))
geo = geodesic_from_pair(pants, pair, depth=40)
traced = cutting_sequence_trace(pants, geo, 12)
print(f"  intended: {word_to_string(xi[:12])}")
print(f"  traced:   {word_to_string(traced)}   (double precision, 12 symbols)")
traced_deep = cutting_sequence_trace(pants, pair, 30, prec=80)
print(f"  deep:     {word_to_string(traced_deep)}   (shift-renormalized, 30 symbols)")
print(f"  match:    {traced_deep == xi[:30]}")
