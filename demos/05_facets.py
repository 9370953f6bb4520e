"""Which of these inequalities are facets of the local polytope?

A tight (facet) inequality has its saturating deterministic vertices
spanning an affine space of dimension exactly one below the polytope
itself.  Everything here is certified by exact integer rank computations.
"""

import gynibell as gb
from gynibell import gyni, upb

cases = [
    ("three-party guessing game", gyni.gyni_expression(3).expression),
    ("five-party guessing game", gyni.gyni_expression(5).expression),
    ("weak-UPB inequality on 2x2x3", gb.bell_from_set(upb.wupb_example())),
    ("four-partite inequality", upb.four_partite_tight_inequality()),
    ("minimal-family inequality (4,3)", upb.niset_cerf_inequality(4, 3)),
]

for name, expr in cases:
    report = gb.facet_check(expr, expr.classical_bound)
    verdict = "FACET" if report.is_tight else "not a facet"
    print(
        f"{name:34s} {verdict:12s} "
        f"rank {report.affine_rank:4d} / dim {report.polytope_dimension:4d} "
        f"({report.saturating_vertex_count} saturating vertices)"
    )

print("\n(the generalized five-qubit shift inequality is also not a facet;")
print(" its rank over 6144 saturating vertices takes a few seconds, see the test suite)")
