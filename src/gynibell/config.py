"""Global numeric knobs.

There is a single floating-point tolerance for the whole package: every
numeric comparison (the measured witness table's normalization, orthogonality
of product vectors, PPT eigenvalue cutoffs, Hermiticity, ...) reads
:data:`TOLERANCE`, and no function takes a per-call override.  Exact-rational
code paths never consult it.  The four work limits, :data:`STRATEGY_CAP`,
:data:`ASSIGNMENT_CAP`, :data:`LP_MAX_PIVOTS` and
:data:`NS_LP_MAX_ORBIT_SUMS`, are global in the same way: each is read from
this module on every call that checks it, so setting the attribute takes
effect at once.
"""

from __future__ import annotations

#: Tolerance for all floating-point comparisons.
TOLERANCE = 1e-9

#: Cap on the number of deterministic strategies enumerated per scenario.
STRATEGY_CAP = 10_000_000

#: Cap on the number of nodes (partial vector-to-site assignments) the
#: unextendibility search visits.
ASSIGNMENT_CAP = 10_000_000

#: Hard ceiling on simplex pivots before the solver gives up.
LP_MAX_PIVOTS = 500_000

#: Size guard for no-signaling LPs: most orbit sums (Collins-Gisin
#: coordinates times orbits of table entries) the model build counts.
NS_LP_MAX_ORBIT_SUMS = 4_000_000
