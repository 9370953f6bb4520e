"""Independent per-tuple oracles for the no-signaling model.

``ns_rows`` writes the no-signaling and normalization equality rows one
input and outcome tuple at a time, as ``({column: Fraction}, rhs)`` pairs,
and ``ns_violations`` sums each party's outcome marginal entry by entry.
Neither imports the LP module, nor uses the mixed-radix strides, integer
arrays or common denominators of the library code they check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import gynibell as gb
from gynibell.core import NsViolation, Scenario

#: binary N = 2..5, parties that differ in both cardinalities, a party with
#: a single input, a party with a single outcome
SCENARIOS = [
    *(gb.binary_scenario(n) for n in range(2, 6)),
    Scenario((2, 3, 2, 3), (3, 2, 3, 2)),
    Scenario((1, 2), (3, 2)),
    Scenario((2, 2), (1, 3)),
]


def _insert(values, party, value):
    out = list(values)
    out.insert(party, value)
    return tuple(out)


def ns_rows(scen: Scenario) -> list:
    """One normalization row per input, then per party, per context of the
    other inputs, per input x_i != 0 of the party and per outcome of the
    other parties: marginal at input 0 minus marginal at x_i equals 0."""
    na = scen.n_outputs
    rows = []
    for xs in scen.input_tuples():
        x_idx = scen.encode_input(xs)
        rows.append(({x_idx * na + a: Fraction(1) for a in range(na)}, 1))
    for party in range(scen.parties):
        others = [p for p in range(scen.parties) if p != party]
        for xo in itertools.product(*(range(scen.inputs[p]) for p in others)):
            xb = scen.encode_input(_insert(xo, party, 0))
            for x_i in range(1, scen.inputs[party]):
                xa = scen.encode_input(_insert(xo, party, x_i))
                for ao in itertools.product(*(range(scen.outputs[p]) for p in others)):
                    coeffs = {}
                    for a_i in range(scen.outputs[party]):
                        a_idx = scen.encode_outcome(_insert(ao, party, a_i))
                        coeffs[xb * na + a_idx] = coeffs.get(xb * na + a_idx, 0) + 1
                        coeffs[xa * na + a_idx] = coeffs.get(xa * na + a_idx, 0) - 1
                    rows.append((coeffs, 0))
    return rows


def ns_violations(box) -> list:
    """Every (party, other inputs, (0, x_i), other outcomes) whose marginal
    differs from the one at input 0, sorted by party, x_i, other inputs,
    other outcomes."""
    scen = box.scenario
    out = []
    for party in range(scen.parties):
        margs = []
        for x_i in range(scen.inputs[party]):
            marg = {}
            for xs in scen.input_tuples():
                if xs[party] != x_i:
                    continue
                for aa in scen.outcome_tuples():
                    key = (xs[:party] + xs[party + 1 :], aa[:party] + aa[party + 1 :])
                    marg[key] = marg.get(key, 0) + box.prob(xs, aa)
            margs.append(marg)
        for x_i in range(1, scen.inputs[party]):
            out += [
                NsViolation(party, xo, (0, x_i), ao)
                for xo, ao in sorted(margs[x_i])
                if margs[x_i][xo, ao] != margs[0][xo, ao]
            ]
    return out
