"""The Collins-Gisin map from coordinates to probability tables.

A party with m inputs and d outcomes has the coordinates q_{x,a}, one per
input x and outcome a < d - 1, plus a constant; its map sends them to
P(a|x) = q_{x,a} below the last outcome and 1 - sum_a q_{x,a} at it (Collins
and Gisin, J. Phys. A 37, 1775 (2004)).  The map T of a scenario is the
Kronecker product of its parties' maps, the first party most significant,
in the coordinate layout of :func:`gynibell.polytope.cg_coordinates_of_strategies`;
every normalized no-signaling table is T q with a constant q_0 = 1.  Every
entry of T is 0, 1 or -1.  :func:`orbit_sums` gives T's rows summed over
orbits of table entries, as dense integer blocks of consecutive rows, the
model of :func:`gynibell.polytope.ns_max`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Scenario

#: most entries one block of the orbit-sum build holds: the Kronecker
#: entries of one prefix of parties' coordinates paired with every entry of
#: the other parties, or that block's counts
_ORBIT_SUM_BLOCK = 1 << 16


def party_maps(scenario: Scenario) -> list:
    """Per party, its map T_p from Collins-Gisin coordinates to
    probabilities as (width, column, table term, negative) arrays of the
    nonzero entries, each +1 or -1.  Column 0 is the constant and column
    ``1 + x (d - 1) + a`` the coordinate q_{x,a} of an outcome a < d - 1:
    P(a|x) = q_{x,a} for a < d - 1 and 1 - sum_a q_{x,a} for the last
    outcome (the layout of
    :func:`gynibell.polytope.cg_coordinates_of_strategies`).  The
    table term of (x, a) is its mixed-radix share of the table index
    ``x_idx * n_outputs + a_idx``."""
    na = scenario.n_outputs
    maps = []
    for p, (m, d) in enumerate(zip(scenario.inputs, scenario.outputs)):
        x_stride = math.prod(scenario.inputs[p + 1 :]) * na
        a_stride = math.prod(scenario.outputs[p + 1 :])
        x, a = np.indices((m, d - 1)).reshape(2, -1)
        coord = 1 + np.arange(x.size)
        last = np.full(x.size, d - 1)
        col = np.concatenate((np.zeros(m, dtype=np.intp), coord, coord))
        term = np.concatenate((np.arange(m), x, x)) * x_stride
        term += np.concatenate((np.full(m, d - 1), a, last)) * a_stride
        negative = np.arange(col.size) >= m + x.size
        maps.append((1 + x.size, col, term, negative))
    return maps


def kron_entries(maps):
    """The nonzero entries of the Kronecker product of party maps: columns
    in mixed radix (first party most significant), table terms summed,
    signs multiplied."""
    col, term, negative = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.zeros(1, bool)
    for width, c, t, neg in maps:
        col = (col[:, None] * width + c).ravel()
        term = (term[:, None] + t).ravel()
        negative = (negative[:, None] ^ neg).ravel()
    return col, term, negative


def orbit_sums(scenario: Scenario, orbit: np.ndarray, n_orbits: int):
    """The rows R[k, O] = sum over the table entries i of orbit O of
    T[i, k], where T, the Kronecker product of the parties' maps, sends
    Collins-Gisin coordinates to the table: one row per coordinate (the
    constant first), one column per orbit.

    A generator of blocks of consecutive rows, each a dense int64
    (rows x orbits) array: a block fixes the coordinates of a prefix of
    parties, pairs that prefix's entries with every entry of the other
    parties and counts each (row, orbit) with one ``np.bincount``, the
    entries being +1 or -1, the negative ones in the second half of the
    counts.  The prefix is the shortest whose block holds at most
    ``_ORBIT_SUM_BLOCK`` entries, so a caller that reduces each block as it
    comes holds one block's arrays at a time."""
    maps = party_maps(scenario)
    widths = [w for w, *_ in maps]
    nnz = [c.size for _, c, _, _ in maps]
    most = [int(np.bincount(c).max()) for _, c, _, _ in maps]

    def block_entries(j):
        return max(math.prod(most[:j]) * math.prod(nnz[j:]), 2 * math.prod(widths[j:]) * n_orbits)

    j = next((j for j in range(len(maps)) if block_entries(j) <= _ORBIT_SUM_BLOCK), len(maps))
    head_col, head_term, head_neg = kron_entries(maps[:j])
    tail_col, tail_term, tail_neg = kron_entries(maps[j:])
    tail_rows = math.prod(widths[j:])
    size = tail_rows * n_orbits
    tail_slot = tail_col * n_orbits
    order = np.argsort(head_col, kind="stable")
    starts = np.searchsorted(head_col[order], np.arange(math.prod(widths[:j]) + 1)).tolist()
    for s, e in zip(starts, starts[1:]):
        at = order[s:e, None]
        slot = orbit[head_term[at] + tail_term]
        slot += tail_slot
        slot += size * (head_neg[at] ^ tail_neg)
        counts = np.bincount(slot.ravel(), minlength=2 * size)
        del slot
        yield (counts[:size] - counts[size:]).reshape(tail_rows, n_orbits)
