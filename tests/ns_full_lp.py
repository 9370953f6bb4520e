"""The no-signaling LP in full probability coordinates, as a reference for
``polytope.ns_max``, which poses its LP in Collins-Gisin coordinates.

``ns_equality_rows`` writes one normalization row per input and one
no-signaling row per party, context of the other inputs, input x_i != 0 and
outcome of the other parties, as integer arrays built from mixed-radix
strides; ``test_polytope`` checks them against the per-tuple rows of
``ns_oracle.ns_rows``.  ``ns_lp_max`` solves the LP over the table entries
themselves on those rows, collapsed onto the orbits of the expression's
symmetries (each permutation from ``Symmetry.table_permutation``) by
``collapse``, one row at a time in Python numbers, with the exact simplex.
It shares no model-building, orbit-sum or dedupe code with ``ns_max``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from gynibell import lp, polytope


def ns_equality_rows(scenario) -> lp.Rows:
    """First one normalization row per input, then per party with two or
    more inputs, per context of the other inputs, per input x_i != 0 of the
    party, per outcome of the other parties (contexts and outcomes
    ascending): the party's outcome marginal at input 0 minus the one at
    x_i is zero."""
    nx, na = scenario.n_inputs, scenario.n_outputs
    t = np.arange(nx * na)
    blocks = [lp.Rows(t // na, t, np.ones_like(t), np.ones(nx, dtype=np.int64))]
    for p, (m, d) in enumerate(zip(scenario.inputs, scenario.outputs)):
        if m < 2:
            continue
        x_stride = math.prod(scenario.inputs[p + 1 :])
        a_stride = math.prod(scenario.outputs[p + 1 :])
        # the other parties' inputs and outcomes, with the party's at 0
        xb = np.flatnonzero(np.arange(nx) // x_stride % m == 0)
        ab = np.flatnonzero(np.arange(na) // a_stride % d == 0)
        # axes: context, x_i - 1, other outcomes, (input 0, input x_i), a_i
        shape = (len(xb), m - 1, len(ab), 1, 1)
        x = xb.reshape(-1, 1, 1, 1, 1) + np.arange(1, m).reshape(-1, 1, 1, 1) * [[0], [x_stride]]
        cols = x * na + ab.reshape(-1, 1, 1) + np.arange(d) * a_stride
        n_rows = math.prod(shape)
        parts = np.broadcast_arrays(np.arange(n_rows).reshape(shape), cols, [[1], [-1]])
        row, col, val = (a.ravel() for a in parts)
        blocks.append(lp.Rows(row, col, val, np.zeros(n_rows, dtype=np.int64)))
    offsets = np.cumsum([0] + [len(rows) for rows in blocks])
    return lp.Rows(
        np.concatenate([rows.row + first for rows, first in zip(blocks, offsets)]),
        np.concatenate([rows.col for rows in blocks]),
        np.concatenate([rows.val for rows in blocks]),
        np.concatenate([rows.rhs for rows in blocks]),
    )


def collapse(rows, orbit):
    """``(coeffs, rhs)`` pairs summed per orbit; a row is dropped when empty
    (its right-hand side must be zero) or when it equals an earlier row
    after division by its leading coefficient."""
    seen = set()
    out = []
    for coeffs, rhs in rows:
        acc = {}
        for j, v in coeffs.items():
            acc[orbit[j]] = acc.get(orbit[j], 0) + v
        items = tuple(sorted((o, v) for o, v in acc.items() if v))
        if not items:
            assert rhs == 0
            continue
        lead = items[0][1]
        key = (tuple((o, Fraction(v, lead)) for o, v in items), Fraction(rhs, lead))
        if key not in seen:
            seen.add(key)
            out.append((dict(items), rhs))
    return out


def ns_lp_max(expression):
    """The no-signaling maximum and an optimal table (a list of
    ``Fraction``s), from the LP over the table entries, collapsed onto the
    orbits of the expression's symmetries."""
    scen = expression.scenario
    perms = [sym.table_permutation(scen) for sym in expression.party_symmetries]
    orbit = polytope._orbits_of_permutations(scen.table_size, perms).tolist()
    rows = ns_equality_rows(scen)
    pairs = [({}, b) for b in rows.rhs.tolist()]
    for i, j, v in zip(rows.row.tolist(), rows.col.tolist(), rows.val.tolist()):
        pairs[i][0][j] = v
    objective = [Fraction(0)] * (max(orbit) + 1)
    na = scen.n_outputs
    for (x, a), c in expression.coeffs.items():
        objective[orbit[x * na + a]] += c
    res = lp.solve(lp.make_problem(objective, collapse(pairs, orbit)))
    assert res.status == "optimal"
    return res.value, [res.solution[o] for o in orbit]
