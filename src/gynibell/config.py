"""Global numeric knobs.

There is a single floating-point tolerance for the whole package: every
numeric comparison (the measured witness table's normalization, orthogonality
of product vectors, PPT eigenvalue cutoffs, Hermiticity, ...) reads
:data:`TOLERANCE`, and no function takes a per-call override.  Exact-rational code paths never consult
it.  The simplex pivot ceiling :data:`LP_MAX_PIVOTS` is global in the same
way.
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
