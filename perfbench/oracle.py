"""Independent float oracle for no-signaling optima.

Builds the no-signaling LP in its own variable layout and solves it with
HiGHS through ``scipy.optimize.linprog``; nothing here touches
``gynibell.lp``.  Only the scenario's public index helpers are used, to read
the expression's ``(input index, outcome index)`` keys.
"""

from __future__ import annotations

import itertools

import numpy as np


def ns_value(expression) -> float:
    from scipy.optimize import linprog

    scen = expression.scenario
    inputs = list(itertools.product(*(range(m) for m in scen.inputs)))
    outcomes = list(itertools.product(*(range(d) for d in scen.outputs)))
    var = {(xs, aa): k for k, (xs, aa) in enumerate(itertools.product(inputs, outcomes))}
    n = len(var)

    rows = []
    for xs in inputs:
        row = np.zeros(n)
        for aa in outcomes:
            row[var[(xs, aa)]] = 1.0
        rows.append((row, 1.0))
    # marginal of the other parties may not depend on party i's input
    for i, m in enumerate(scen.inputs):
        others = [range(d) for j, d in enumerate(scen.outputs) if j != i]
        for xs in inputs:
            if xs[i] == 0:
                continue
            ref = xs[:i] + (0,) + xs[i + 1:]
            for rest in itertools.product(*others):
                row = np.zeros(n)
                for ai in range(scen.outputs[i]):
                    aa = rest[:i] + (ai,) + rest[i:]
                    row[var[(xs, aa)]] += 1.0
                    row[var[(ref, aa)]] -= 1.0
                rows.append((row, 0.0))

    cost = np.zeros(n)
    for (x, a), c in expression.coeffs.items():
        cost[var[(scen.decode_input(x), scen.decode_outcome(a))]] -= float(c)
    a_eq = np.array([r for r, _ in rows])
    b_eq = np.array([b for _, b in rows])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS oracle failed: {res.message}")
    return -res.fun
