"""From orthogonal product vectors to Bell inequalities with no quantum edge.

Collect the distinct local vectors of an orthogonal product set at each
site, group mutually orthogonal ones into subsets, and read every vector as
a conditional probability: subset index = measurement setting, position
inside the subset = outcome.  Summing those probabilities gives a Bell
expression whose classical and quantum maxima are exactly 1; when the set
is unextendible, some no-signaling box still beats 1.
"""

import gynibell as gb
from gynibell import upb

sh = upb.shifts()
print("Shifts set (three qubits, second basis = Hadamard):")
for m in range(len(sh)):
    xs, aa = sh.labels(m)
    print(f"  vector {m}: settings {xs} outcomes {aa}")

expr = gb.bell_from_set(sh)
print(f"\nclassical bound: {gb.classical_max(expr).value}")
print(f"no-signaling maximum: {gb.ns_max(expr).value}  (violation!)")

print("\nverdicts across the family catalogue:")
for name, pvs in [
    ("shifts", sh),
    ("gen_shifts(k=2)", upb.gen_shifts(2)),
    ("gen_shifts(k=3)", upb.gen_shifts(3)),
    ("niset_cerf(3,2)", upb.niset_cerf(3, 2)),
    ("niset_cerf(3,3)", upb.niset_cerf(3, 3)),
    ("niset_cerf(4,3)", upb.niset_cerf(4, 3)),
    ("wupb_example()", upb.wupb_example()),
]:
    verdict = gb.is_upb(pvs)
    print(f"  {name:18s} size {len(pvs):2d}  UPB={verdict.is_upb}  weak-UPB={gb.is_wupb(pvs)}")

print("\ndropping one Shifts vector makes the rest extendible:")
partial = upb.build_local_subsets(sh.vectors[1:], (2, 2, 2))
verdict = gb.is_upb(partial)
print(f"  UPB = {verdict.is_upb}; explicit orthogonal product vector returned "
      f"and re-verified: {verdict.extension_witness is not None}")

print("\nthe two-qutrit TILES vectors cannot be grouped unambiguously:")
try:
    upb.build_local_subsets(upb.tiles(), (3, 3))
except upb.AmbiguousSubsetsError as err:
    print(f"  {err}")
