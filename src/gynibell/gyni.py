"""The guess-your-neighbour's-input (GYNI) game family.

N players on a ring each receive a private bit and must all output their
right-hand neighbour's bit; the expression awards weight q(x) to the single
all-correct outcome for each input string x.  The closed-form classical
bound is max_x [q(x) + q(complement of x)], and the quantum bound coincides
with it: the winning projectors of any two input strings other than a
string and its complement are orthogonal, so the Bell operator splits into
orthogonal blocks whose norms are bounded by the per-block coefficient
sums.  That structural argument is checked combinatorially by
:func:`orthogonality_certificate`; no state optimization is ever run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    BellExpression,
    InputDistribution,
    Symmetry,
    binary_scenario,
    expression_invariant_under,
)

_ONE = Fraction(1)


def _hatted(n_parties: int) -> int:
    """Number of leading bits entering the parity promise."""
    return n_parties if n_parties % 2 == 1 else n_parties - 1


def parity_promise(n_parties: int) -> InputDistribution:
    """Uniform distribution over input strings whose first n-hat bits have
    even parity (n-hat = N for odd N, N-1 for even N)."""
    if n_parties < 2:
        raise ValueError("need at least two parties")
    scen = binary_scenario(n_parties)
    nhat = _hatted(n_parties)
    weight = Fraction(1, 2 ** (n_parties - 1))
    q = {}
    for xs in itertools.product((0, 1), repeat=n_parties):
        if sum(xs[:nhat]) % 2 == 0:
            q[scen.encode_input(xs)] = weight
    return InputDistribution(scen, q)


def uniform_promise(n_parties: int) -> InputDistribution:
    scen = binary_scenario(n_parties)
    weight = Fraction(1, 2**n_parties)
    return InputDistribution(scen, {x: weight for x in range(scen.n_inputs)})


def classical_bound_formula(q: InputDistribution) -> Fraction:
    """max over x of q(x) + q(bitwise complement of x), exactly."""
    scen = q.scenario
    return max(
        q.prob(x) + q.prob(scen.encode_input(tuple(1 - b for b in scen.decode_input(x))))
        for x in range(scen.n_inputs)
    )


def _shift_left(xs: tuple[int, ...]) -> tuple[int, ...]:
    """Outcome tuple demanded by GYNI: a_i = x_{i+1}, cyclically."""
    return xs[1:] + xs[:1]


@dataclass(frozen=True)
class GyniGame:
    n_parties: int
    promise: InputDistribution
    expression: BellExpression


def _parity_translations(n_parties: int) -> list[Symmetry]:
    """XOR relabelings preserving the parity promise: flip inputs by a string
    c of even n-hat parity, flipping each party's outcome by its neighbour's
    bit so that winning configurations map to winning configurations."""
    nhat = _hatted(n_parties)
    gens = []
    basis = [tuple(int(p in (0, i)) for p in range(n_parties)) for i in range(1, nhat)]
    basis += [tuple(int(p == i) for p in range(n_parties)) for i in range(nhat, n_parties)]
    identity = tuple(range(n_parties))
    for c in basis:
        in_maps = tuple((c[p], 1 - c[p]) if c[p] else (0, 1) for p in range(n_parties))
        shifted = _shift_left(c)
        out_maps = tuple(
            (shifted[p], 1 - shifted[p]) if shifted[p] else (0, 1)
            for p in range(n_parties)
        )
        gens.append(Symmetry(identity, in_maps, out_maps))
    return gens


def _rotation(n_parties: int) -> Symmetry:
    perm = tuple((p + 1) % n_parties for p in range(n_parties))
    ident_in = tuple((0, 1) for _ in range(n_parties))
    return Symmetry(perm, ident_in, ident_in)


def gyni_expression(n_parties: int, q: InputDistribution | None = None) -> GyniGame:
    """The probability-weighted GYNI expression: coefficient q(x) on the term
    P(a = left-shift of x | x), classical bound filled from the closed form.

    Relabeling symmetries of the expression (XOR translations of the parity
    promise, plus the party rotation when it applies) are attached after an
    exact invariance check, so downstream LPs may collapse orbits."""
    if q is None:
        q = parity_promise(n_parties)
    scen = q.scenario
    if scen.parties != n_parties or any(m != 2 for m in scen.inputs):
        raise ValueError("promise must be over binary inputs for each party")
    coeffs = {}
    for x in q.support():
        xs = scen.decode_input(x)
        coeffs[(x, scen.encode_outcome(_shift_left(xs)))] = q.prob(x)
    expr = BellExpression(
        scen,
        coeffs,
        classical_bound=classical_bound_formula(q),
        label=f"gyni-{n_parties}",
    )
    candidates = _parity_translations(n_parties) + [_rotation(n_parties)]
    syms = tuple(s for s in candidates if expression_invariant_under(expr, s))
    expr = BellExpression(
        scen, coeffs, expr.classical_bound, expr.label, party_symmetries=syms
    )
    return GyniGame(n_parties, q, expr)


def gyni_sum_expression(n_parties: int, q: InputDistribution | None = None) -> BellExpression:
    """Unit-coefficient variant: one term per supported input string.

    For the parity promise no supported string is another's complement, so
    all terms are pairwise orthogonal and the classical bound is exactly 1
    (the weighted bound rescaled by 2^(N-1))."""
    if q is None:
        q = parity_promise(n_parties)
    game = gyni_expression(n_parties, q)
    support = q.support()
    weight = q.prob(support[0])
    if any(q.prob(x) != weight for x in support):
        raise ValueError("sum form requires a promise uniform on its support")
    coeffs = {key: _ONE for key in game.expression.coeffs}
    return BellExpression(
        game.expression.scenario,
        coeffs,
        classical_bound=game.expression.classical_bound / weight,
        label=f"gyni-{n_parties}-sum",
        party_symmetries=game.expression.party_symmetries,
    )


# ---------------------------------------------------------------------------
# structural quantum-bound certificate


def orthogonality_certificate(expression: BellExpression) -> bool:
    """Certify structurally that the quantum bound equals the classical one.

    Two terms are orthogonal when some party receives the same input in
    both but must answer differently; no deterministic (or projective)
    strategy can then satisfy both.  Two sufficient patterns are accepted,
    as alternatives, so the cheaper one is tested first:

    * the expression is a GYNI game: binary scenario, outcome tuple equal
      to the cyclic left shift of the input tuple, coefficients a
      probability distribution.  Its only non-orthogonal pairs are then
      complement pairs (x, complement x), so that pattern needs no pair of
      terms compared: the terms of distinct inputs x and y answer x_{p+1}
      and y_{p+1} at party p, so unless they are orthogonal, agreeing at
      party p forces agreement at party p + 1, cyclically at every party,
      and they would be equal.  Non-orthogonal terms agree at no party.
      The Bell operator splits into orthogonal blocks of norm at most q(x)
      + q(complement x), reproducing the classical bound max_x [q(x) +
      q(complement x)];
    * every pair of terms is orthogonal and all coefficients are 1, which
      pins both bounds at exactly 1 (the unextendible-product-basis shape).
      The pairs are compared at once, by one broadcast comparison of every
      pair of terms' input and outcome tuples, party by party.

    Anything else returns False.  Negative coefficients invalidate both
    arguments and raise."""
    if any(c < 0 for c in expression.coeffs.values()):
        raise ValueError("certificate requires nonnegative coefficients")
    scen = expression.scenario
    terms = list(expression.terms())
    shape = (len(terms), scen.parties)
    xs = np.array([x for x, _, _ in terms], dtype=np.int64).reshape(shape)
    aa = np.array([a for _, a, _ in terms], dtype=np.int64).reshape(shape)
    coeffs = [c for _, _, c in terms]

    binary = all(m == 2 for m in scen.inputs) and all(d == 2 for d in scen.outputs)
    if binary and np.array_equal(aa, np.roll(xs, -1, axis=1)) and sum(coeffs) == 1:
        return True

    same_input = xs[:, None, :] == xs[None, :, :]
    orthogonal = (same_input & (aa[:, None, :] != aa[None, :, :])).any(axis=2)
    return bool(orthogonal[np.triu_indices(len(terms), 1)].all()) and all(c == 1 for c in coeffs)
