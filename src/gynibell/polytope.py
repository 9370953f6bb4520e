"""Correlation polytopes: local, no-signaling and time-ordered bilocal.

Everything here is exact.  Optima over the local polytope come from full
enumeration of deterministic vertices, valued by position in the order
:mod:`gynibell.core` defines, so only the argmax is built as a strategy.
Optima over the no-signaling set and the TOBL set come from the rational
simplex in :mod:`gynibell.lp`.  The no-signaling LP is posed in
Collins-Gisin coordinates, one equality row per coordinate but the
constant; the TOBL LP over the table entries and the weights of its
deterministic components.  Either model's equality rows are one
:class:`lp.Rows` of integer numpy arrays (row, column, value, right-hand
side) from the model build to the solver.  Both collapse onto symmetry
orbits the same way: the orbit sums are counted exactly into dense integer
blocks (TOBL's with the right-hand side as one more column; the
no-signaling right-hand sides are zero); the first of each set of rows
equal up to a nonzero factor is kept by looking up the bytes of the
normalized dense rows in one Python set (:func:`_new_rows`); and
:func:`_dense_rows` turns the kept rows into one :class:`lp.Rows`.  The
TOBL invariance checks are sparse, since the 404 uncollapsed rows over
1600 variables hold 14272 nonzeros: they look up the keys of the permuted
rows in the set of the rows' own keys.
Every optimizer hands back a certificate (an optimal box, a convex
decomposition, or a separating inequality) that is re-verified with exact
arithmetic before being returned.

The polytope dimension has a closed form.  Affine ranks for facet
(tightness) checks run in subset marginal coordinates: the linear map
sending a table to the collection of "all parties in a subset produce fixed
non-last outcomes" marginals is a bijection on the affine hull of normalized
no-signaling tables (the table is reconstructed by inclusion-exclusion over
last outcomes), so affine ranks of vertex sets agree with the
full-coordinate ranks while the matrices stay small enough for exact
elimination.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _cg_map, config, lp
from ._rank import _INT64_SAFE, affine_rank
from .core import (
    BellExpression,
    Box,
    DeterministicStrategy,
    Scenario,
    Symmetry,
    _index_tables,
    bell_value,
    checked_strategy_count,
    expression_invariant_under,
    integer_numerators,
    is_nonsignaling,
    strategy_at,
)
from .lp import Rows

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# local polytope


class ClassicalOptimum(NamedTuple):
    value: Fraction
    strategy: DeterministicStrategy


#: most entries an intermediate array of one block of the strategy valuation
#: holds (blocks are runs of the leading party's response functions)
_VALUE_BLOCK = 1 << 16


def _responses(m: int, d: int) -> np.ndarray:
    """(d**m, m) response functions of one party, row s being the s-th
    tuple of ``itertools.product(range(d), repeat=m)``."""
    return np.indices((d,) * m).reshape(m, -1).T


def _response_indicators(m: int, d: int) -> np.ndarray:
    """(d**m, m*d) 0/1 int8 matrix: entry (s, x*d + a) is 1 iff response
    function s answers a to input x."""
    resp = _responses(m, d)
    out = np.zeros((len(resp), m, d), dtype=np.int8)
    out[np.arange(len(resp))[:, None], np.arange(m), resp] = 1
    return out.reshape(len(resp), m * d)


def _strategy_values(expression: BellExpression, cap: int | None = None):
    """Every deterministic strategy's value as an integer numerator over one
    common denominator: returns ``(den, blocks)``, where ``blocks`` yields
    ``(start, values)`` for consecutive runs of strategies in enumeration
    order (:func:`core.strategy_at`), strategy ``start + i``
    having value ``values[i] / den``.

    The coefficients go into a dense (x_1 a_1, ..., x_N a_N) tensor that is
    contracted party by party with each party's 0/1 response indicators, one
    block of the leading party's response functions at a time.  The values
    are int64 while the numerators' absolute sum, which bounds every partial
    sum, stays below ``_INT64_SAFE``, and Python integers otherwise.  The
    cap is checked before any array is built."""
    scen = expression.scenario
    checked_strategy_count(scen, cap)
    coeffs = [(k, Fraction(c)) for k, c in expression.coeffs.items()]
    nums, den = integer_numerators([c for _, c in coeffs])
    dtype = object if sum(map(abs, nums)) >= _INT64_SAFE else np.int64
    xs = np.unravel_index([x for (x, _), _ in coeffs], scen.inputs)
    aa = np.unravel_index([a for (_, a), _ in coeffs], scen.outputs)
    tensor = np.zeros([m * d for m, d in zip(scen.inputs, scen.outputs)], dtype=dtype)
    tensor[tuple(x * d + a for x, a, d in zip(xs, aa, scen.outputs))] = nums
    indicators = [
        _response_indicators(m, d).astype(dtype) for m, d in zip(scen.inputs, scen.outputs)
    ]
    lead, rest = indicators[0], indicators[1:]
    tensor = tensor.reshape(lead.shape[1], -1)
    # a block of one leading response function fills at most this many entries
    width = max(
        math.prod(ind.shape[0] for ind in rest[:k])
        * math.prod(ind.shape[1] for ind in rest[k:])
        for k in range(len(rest) + 1)
    )
    step = max(1, _VALUE_BLOCK // width)

    def blocks():
        tail = math.prod(ind.shape[0] for ind in rest)
        for s in range(0, lead.shape[0], step):
            vals = lead[s : s + step] @ tensor
            for ind in rest:
                vals = ind @ vals.reshape(-1, ind.shape[1], vals.shape[-1] // ind.shape[1])
            yield s * tail, vals.reshape(-1)

    return den, blocks()


def classical_max(expression: BellExpression, cap: int | None = None) -> ClassicalOptimum:
    """Exact maximum over deterministic strategies, with an argmax strategy
    (the first one in enumeration order that attains the maximum).  Every
    strategy is valued at once by :func:`_strategy_values`, in integers;
    only the argmax is built as a :class:`DeterministicStrategy`."""
    den, blocks = _strategy_values(expression, cap)
    best = at = None
    for start, vals in blocks:
        i = int(np.argmax(vals))
        if best is None or vals[i] > best:
            best, at = int(vals[i]), start + i
    return ClassicalOptimum(Fraction(best, den), strategy_at(expression.scenario, at))


# ---------------------------------------------------------------------------
# subset-marginal ("collapsed") coordinates for rank computations


def cg_dimension(scenario: Scenario) -> int:
    """Number of subset-marginal coordinates, constant included."""
    return math.prod(1 + m * (d - 1) for m, d in zip(scenario.inputs, scenario.outputs))


# ---------------------------------------------------------------------------
# equality rows as integer arrays


def _coo(parts):
    """Concatenated row, column and value arrays of (row, column, value)
    triples of arrays that broadcast together."""
    return map(np.concatenate, zip(*(
        [a.ravel() for a in np.broadcast_arrays(*part)] for part in parts
    )))


def _sorted_rows(row, col, val, rhs) -> Rows:
    """The entries ordered by row, then column: one stable sort of
    ``row * (largest column + 1) + col``."""
    order = np.argsort(row * (int(col.max(initial=0)) + 1) + col, kind="stable")
    return Rows(row[order], col[order], val[order], rhs)


def _byte_keys(a: np.ndarray) -> list:
    """The bytes of each row of a 2-D integer array as int64, one ``bytes``
    per row.  Object arrays raise: their bytes are pointers, not values."""
    if a.dtype == object:
        raise TypeError("row keys need integer arrays, not object arrays")
    a = np.ascontiguousarray(a, dtype=np.int64)
    return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel().tolist()


def _row_keys(rows: Rows):
    """Yields the key of every nonempty row: the row up to a nonzero
    factor, as the bytes of its columns, then of its coefficients and
    right-hand side divided by their gcd and by the sign of its first
    coefficient, so rows of different lengths have keys of different
    lengths."""
    starts = np.searchsorted(rows.row, np.arange(len(rows) + 1))  # row i: starts[i]:starts[i + 1]
    length = starts[1:] - starts[:-1]
    ids = np.flatnonzero(length)
    first = starts[ids]
    scale = np.gcd(np.gcd.reduceat(rows.val, first), rows.rhs[ids]) * np.sign(rows.val[first])
    val = rows.val // np.repeat(scale, length[ids])
    rhs = rows.rhs[ids] // scale
    for n in np.flatnonzero(np.bincount(length[ids])).tolist():
        group = np.flatnonzero(length[ids] == n)
        at = first[group, None] + np.arange(n)
        yield from _byte_keys(np.column_stack((rows.col[at], val[at], rhs[group])))


#: most entries of a dense block that :func:`_new_rows` normalizes and keys
#: at a time
_KEY_BLOCK = 1 << 13


def _new_rows(block: np.ndarray, seen: set) -> list:
    """Ids, ascending, of the nonzero rows of a dense integer block whose
    key, the bytes of the row divided by its gcd and by the sign of its
    first nonzero entry, is not in ``seen`` yet; their keys join ``seen``.
    The rows are normalized and keyed a chunk of at most ``_KEY_BLOCK``
    entries at a time, so beside the block only one chunk's copy and keys
    and the kept rows' keys are held."""
    step = max(1, _KEY_BLOCK // max(1, block.shape[1]))
    keep = []
    for s in range(0, len(block), step):
        chunk = block[s : s + step]
        ids = np.flatnonzero(chunk.any(axis=1))
        rows = chunk[ids]
        lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
        rows //= (np.gcd.reduce(rows, axis=1) * np.sign(lead))[:, None]
        for i, key in zip((ids + s).tolist(), _byte_keys(rows)):
            if key not in seen:
                seen.add(key)
                keep.append(i)
    return keep


def _dense_rows(blocks, rhs_den: int = 1) -> Rows:
    """One :class:`lp.Rows` from blocks of consecutive rows, each a dense
    int64 (rows x columns) array of coefficients and an int64 array of
    right-hand side numerators, all over ``rhs_den``.  A row with no
    coefficient and a nonzero right-hand side cannot hold and raises."""
    parts, rhs, n_rows = [], [], 0
    for coeffs, b in blocks:
        row, col = np.nonzero(coeffs)
        parts.append((row + n_rows, col, coeffs[row, col]))
        rhs.append(b)
        n_rows += len(coeffs)
    row, col, val = map(np.concatenate, zip(*parts))
    rhs = np.concatenate(rhs)
    if rhs[np.bincount(row, minlength=n_rows) == 0].any():
        raise lp.LPError("inconsistent collapsed row")
    return Rows(row, col, val, rhs, rhs_den)


def _orbits_of_permutations(n: int, perms) -> np.ndarray:
    """Orbit id per index 0..n-1 under the group the permutations generate,
    numbered in order of each orbit's smallest index.

    Label propagation: each index holds the least index known to share its
    orbit, takes the least of that and its images' labels, then its label's
    label, until no label changes; the labels are then constant along every
    cycle of every generator, so on every orbit."""
    perms = [np.asarray(perm) for perm in perms]
    label = np.arange(n)
    while True:
        new = label
        for perm in perms:
            new = np.minimum(new, new[perm])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    return (np.cumsum(label == np.arange(n)) - 1)[label]


def _table_objective(expression: BellExpression) -> dict:
    """The expression's coefficients keyed by table index
    ``x_idx * n_outputs + a_idx``: the objective's nonzero entries."""
    na = expression.scenario.n_outputs
    return {x * na + a: c for (x, a), c in expression.coeffs.items()}


def _solve_collapsed(objective, den, rows, perms):
    """Maximize ``objective / den`` (an object array of integer numerators,
    one per variable) over the equality rows ``rows`` (variables >= 0) on
    the variables that are constant on the orbits of the verified symmetry
    permutations ``perms``; returns the LP result on the orbits and the
    orbit of every variable, so the expanded solution is the result's
    solution read at ``orbit``.

    Every permutation must fix both the objective and the feasible set:
    group averaging then maps any optimum to an orbit-constant one, so the
    collapsed optimum equals the full one.  The collapsed rows are the
    orbit sums, added exactly into one dense int64 (rows x (orbits + 1))
    block by one ``np.add.at``, the right-hand side last, of which only
    the first of each set equal up to a nonzero factor is kept
    (:func:`_new_rows`), as it stands and in order.  When every orbit is
    one variable the LP is posed on the rows as built, none compared.
    """
    n = len(objective)
    orbit = _orbits_of_permutations(n, perms)
    n_orbits = int(orbit.max()) + 1
    if n_orbits < n:
        width = n_orbits + 1
        dense = np.zeros((len(rows), width), dtype=np.int64)
        dense[:, -1] = rows.rhs
        np.add.at(dense.reshape(-1), rows.row * width + orbit[rows.col], rows.val)
        kept = dense[_new_rows(dense, set())]
        rows = _dense_rows([(kept[:, :-1], kept[:, -1])], rows.rhs_den)
    collapsed = np.zeros(n_orbits, dtype=object)
    np.add.at(collapsed, orbit, objective)
    res = lp.solve(lp.make_problem(collapsed.tolist(), rows, den))
    if res.status != "optimal":
        raise lp.LPError(f"TOBL LP returned {res.status}")
    return res, orbit


# ---------------------------------------------------------------------------
# no-signaling LP in Collins-Gisin coordinates


def _cg_rows(scenario: Scenario, orbit: np.ndarray, n_orbits: int):
    """The orbit sums of :func:`_cg_map.orbit_sums` split: the constant
    coordinate's row, t0 summed per orbit, as a dense object array, and
    the other rows, of which only the first of each set equal up to a
    nonzero factor is kept, as it stands and in order (right-hand sides
    zero, so the coefficients alone are keyed).  Rows equal under a
    symmetry lie in different blocks, so one set of the kept rows' keys
    (:func:`_new_rows`) serves every block, and only a block's kept rows
    reach :func:`_dense_rows`: one dense block is held at a time.  On
    identity orbits no row is dropped or compared, since T has full column
    rank."""
    blocks = _cg_map.orbit_sums(scenario, orbit, n_orbits)
    first = next(blocks)
    t0 = np.array(first[0].tolist(), dtype=object)
    dedupe = n_orbits < scenario.table_size
    seen = set()

    def kept():
        for block in itertools.chain([first[1:]], blocks):
            if dedupe:
                block = block[_new_rows(block, seen)]
            yield block, np.zeros(len(block), dtype=np.int64)

    return t0, _dense_rows(kept())


class _NsModel(NamedTuple):
    """The no-signaling LP of a scenario and a declared symmetry group,
    everything the expression does not enter: the orbit label of every
    table entry (in the smallest unsigned dtype), the orbit count, the
    constant column t0 and the other Collins-Gisin rows of
    :func:`_cg_rows`.  Its arrays are read-only, since models are shared
    between calls."""

    orbit: np.ndarray
    n_orbits: int
    t0: np.ndarray
    rows: Rows


#: most no-signaling models :func:`_ns_model` keeps, least recently used
#: dropped first
_NS_MODELS_KEPT = 8


def _check_ns_size(scenario: Scenario, n_orbits: int) -> None:
    """The size guard: coordinates times orbits, the orbit sums the model
    build counts, at most ``config.NS_LP_MAX_ORBIT_SUMS``."""
    dim = cg_dimension(scenario)
    if dim * n_orbits > config.NS_LP_MAX_ORBIT_SUMS:
        raise ValueError(f"no-signaling LP too large: {dim} coordinates x {n_orbits} orbits")


@functools.lru_cache(maxsize=_NS_MODELS_KEPT)
def _ns_model(scenario: Scenario, symmetries: tuple) -> _NsModel:
    """The no-signaling model of a scenario whose table the relabelings
    ``symmetries`` permute, built at the first call for the pair and kept
    while it is among the last ``_NS_MODELS_KEPT`` pairs asked for.  The
    orbits are those of the group the symmetries generate, every entry its
    own without any; the size guard is checked before any orbit sum is
    built."""
    n = scenario.table_size
    if symmetries:
        orbit = _orbits_of_permutations(
            n, [np.add.outer(*_index_tables(sym, scenario)).ravel() for sym in symmetries]
        )
        n_orbits = int(orbit.max()) + 1
    else:
        orbit, n_orbits = np.arange(n), n
    _check_ns_size(scenario, n_orbits)
    t0, rows = _cg_rows(scenario, orbit, n_orbits)
    model = _NsModel(orbit.astype(np.min_scalar_type(n_orbits - 1)), n_orbits, t0, rows)
    for a in (model.orbit, t0, rows.row, rows.col, rows.val, rows.rhs):
        a.flags.writeable = False
    return model


class NsOptimum(NamedTuple):
    value: Fraction
    box: Box


def ns_max(expression: BellExpression) -> NsOptimum:
    """Exact maximum over the no-signaling polytope, plus an optimal box.

    Every normalized no-signaling table is P = T q for Collins-Gisin
    coordinates q with a constant q_0 = 1 (Collins and Gisin, J. Phys. A 37,
    1775 (2004)), T the Kronecker product of one map per party; the
    polytope is the set of such tables with P >= 0.  The LP posed is the
    dual of max c . T q over those, with one multiplier z_i >= 0 per table
    entry: max -t0 . z subject to T'^T z = -T'^T c, where t0 is T's
    constant column, T' the rest and c the objective, one row per
    coordinate but the constant (Pironio, J. Math. Phys. 46, 062112
    (2005)).  The bound is c . t0 minus its optimum, and the verified
    duals are the coordinates q of an optimal table.  The LP is posed and
    read in integers: its right-hand sides are numerators over the lcm of
    the objective's denominators, and the box entries are computed from the
    duals' numerators, one ``Fraction`` per distinct entry value.

    When the expression carries relabeling symmetries they are verified
    exactly and z is taken constant on the orbits of the table entries:
    the feasible set and, on it, the objective are invariant, so group
    averaging leaves the optimum unchanged.  The columns are then orbit
    sums of T's rows, rows equal up to a factor are dropped, and the
    optimal box is the orbit average of T q.  The size guard bounds the
    orbit sums the build counts, coordinates times orbits, and is checked
    before any of them is built.  The optimal box is always re-checked
    exactly: nonnegative, normalized, no-signaling, and achieving the
    claimed value.

    The model, orbits and rows, depends only on the scenario and the
    declared symmetries, and is kept per pair (:func:`_ns_model`); the
    invariance checks, the size guard, the LP and every recheck run on
    each call.
    """
    scen = expression.scenario
    syms = tuple(expression.party_symmetries)
    for sym in syms:
        if not expression_invariant_under(expression, sym):
            raise ValueError("declared symmetry does not fix the expression")
    orbit, n_orbits, t0, rows = _ns_model(scen, syms)
    _check_ns_size(scen, n_orbits)  # a kept model was checked against an older bound

    # the objective per orbit (equal on every entry of an orbit), as
    # integer numerators over den
    objective = _table_objective(expression)
    nums, den = integer_numerators(objective.values())
    c = np.zeros(n_orbits, dtype=object)
    c[orbit[list(objective)]] = nums
    rhs = np.zeros(len(rows), dtype=object)
    np.add.at(rhs, rows.row, rows.val * c[rows.col])
    rows = Rows(rows.row, rows.col, rows.val, -rhs, den)
    res = lp.solve(lp.make_problem((-t0).tolist(), rows))
    if res.status != "optimal":
        raise lp.LPError(f"no-signaling LP returned {res.status}")
    vnum, vden = res.value_ints
    value = Fraction(int(t0 @ c) * vden - vnum * den, den * vden)

    # orbit sums of T q, q = (1, duals), over ynum / yden; each entry of
    # an orbit is the orbit's average, keyed in lowest terms, and each
    # distinct value is one Fraction
    ynum, yden = res.dual_ints
    total = t0 * yden
    np.add.at(total, rows.col, rows.val * np.array(ynum, dtype=object)[rows.row])
    slots = {}
    slot = []
    for s, k in zip(total.tolist(), np.bincount(orbit, minlength=n_orbits).tolist()):
        g = math.gcd(s, k * yden)
        slot.append(slots.setdefault((s // g, k * yden // g), len(slots)))
    values = [Fraction(*key) for key in slots]
    box = Box._from_values(scen, values, np.array(slot)[orbit].tolist())
    report = is_nonsignaling(box)
    if not report.is_nonsignaling:
        raise lp.LPError("optimal box failed the no-signaling recheck")
    achieved = bell_value(expression, box)
    if achieved != value:
        raise lp.LPError("optimal box does not achieve the LP value")
    return NsOptimum(value, box)


# ---------------------------------------------------------------------------
# local membership


class LocalMembership(NamedTuple):
    is_local: bool
    weights: tuple | None           # (strategy, weight) pairs, weight > 0
    separating: tuple | None        # (BellExpression, local bound, value at box)


def _strategy_table_indices(scenario: Scenario, cap: int | None = None) -> np.ndarray:
    """(strategies x input tuples) int64 array: row k holds the table indices
    ``x_idx * n_outputs + a_idx`` where the k-th deterministic strategy
    (enumeration order) is 1, one per input, in input order, as
    :func:`core.strategy_entries` gives them.  Built from the response functions
    with mixed-radix strides; the cap is checked first."""
    checked_strategy_count(scenario, cap)
    n, na = scenario.parties, scenario.n_outputs
    idx = np.zeros((1,) * (2 * n), dtype=np.int64)
    for p, (m, d) in enumerate(zip(scenario.inputs, scenario.outputs)):
        resp = _responses(m, d)
        in_stride = math.prod(scenario.inputs[p + 1 :]) * na
        out_stride = math.prod(scenario.outputs[p + 1 :])
        shape = [1] * (2 * n)
        shape[p], shape[n + p] = resp.shape
        idx = idx + (resp * out_stride + np.arange(m) * in_stride).reshape(shape)
    return idx.reshape(-1, scenario.n_inputs)


@functools.lru_cache(maxsize=16)
def _table_keys(scenario: Scenario) -> tuple:
    """The ``(x_idx, a_idx)`` coefficient key of every table index, built
    once per scenario: the separating inequalities of one scenario share
    them instead of each holding its own."""
    return tuple(divmod(t, scenario.n_outputs) for t in range(scenario.table_size))


def local_membership(box: Box, cap: int | None = None) -> LocalMembership:
    """Decide membership in the local polytope by exact feasibility LP.

    Local boxes come with an exact convex decomposition over deterministic
    vertices; non-local ones with a separating inequality (a Farkas
    combination of the table rows) whose bound :func:`classical_max`, every
    vertex valued, must confirm.  In the LP each vertex is held as the table
    indices where it is 1, one per input (:func:`_strategy_table_indices`).
    """
    scen = box.scenario
    entries = _strategy_table_indices(scen, cap)
    n = entries.shape[0]
    # row t sums the weights of the vertices holding table index t, in
    # ascending order (a stable sort); the last row sums every weight
    flat = entries.ravel()
    order = np.argsort(flat, kind="stable")
    table = box.exact_table()
    rhs, den = integer_numerators(table + [1])
    rows = Rows(
        np.concatenate((flat[order], np.full(n, scen.table_size))),
        np.concatenate((order // scen.n_inputs, np.arange(n))),
        np.ones(flat.size + n, dtype=np.int64),
        np.array(rhs, dtype=object),
        den,
    )
    res = lp.feasible_point(rows, n)
    if res.status == "optimal":
        support = [(k, res.solution[k]) for k in range(n) if res.solution[k]]
        # exact reconstruction check
        rebuilt = [_ZERO] * scen.table_size
        for k, w in support:
            for t in entries[k].tolist():
                rebuilt[t] += w
        if rebuilt != table:
            raise lp.LPError("membership decomposition failed recheck")
        weights = tuple((strategy_at(scen, k), w) for k, w in support)
        return LocalMembership(True, weights, None)

    farkas = res.farkas
    keys = _table_keys(scen)
    coeffs = {keys[t]: farkas[t] for t in range(scen.table_size) if farkas[t]}
    bound = -farkas[scen.table_size]
    separating = BellExpression(scen, coeffs, label="separating inequality")
    value_at_box = bell_value(separating, box)
    if not classical_max(separating, cap).value <= bound:
        raise lp.LPError("separating inequality failed vertex recheck")
    if not value_at_box > bound:
        raise lp.LPError("separating inequality does not separate the box")
    return LocalMembership(False, None, (separating, bound, value_at_box))


# ---------------------------------------------------------------------------
# TOBL (time-ordered bilocal) optimization, 3 parties, binary


#: responders h: input -> output, as tuples (h(0), h(1))
_RESPONDERS = list(itertools.product((0, 1), repeat=2))

#: one-way pairs (f, g): the leader outputs f(x_lead), the follower
#: g[2 * x_lead + x_follow]
_PAIRS = list(itertools.product(_RESPONDERS, itertools.product((0, 1), repeat=4)))


_BIPARTITIONS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

#: the weight variables' indices: (bipartition, direction, responder, one-way pair)
_WEIGHT_SHAPE = (len(_BIPARTITIONS), 2, len(_RESPONDERS), len(_PAIRS))


def _couplings(fwd: np.ndarray, bwd: np.ndarray):
    """One bipartition's coupling of its two directions' (responder,
    one-way pair) weight numerators: the triples (h, p1, p2) with both
    nonzero, in order, as the rows of one array, and each triple's weight
    fwd[h, p1] * bwd[h, p2] / marg[h] as ``num / div``, in numerators."""
    triples = np.array([
        (h, p1, p2)
        for h, p1 in np.argwhere(fwd).tolist()
        for p2 in np.flatnonzero(bwd[h]).tolist()
    ]).T
    h, p1, p2 = triples
    return triples, fwd[h, p1] * bwd[h, p2], fwd.sum(axis=1)[h]


@dataclass(frozen=True, eq=False)
class ToblOptimum:
    """A TOBL optimum, its box, and the shared-weight model certifying it,
    held as the nonzero one-way weights: ``one_way`` their flat indices in
    the ``_WEIGHT_SHAPE`` array, ``numerators`` their integer numerators
    over ``den``.  ``model``, bipartition ``(i, (j, k))`` -> list of ``((h,
    fwd pair, bwd pair), Fraction weight)``, is built on first read, equal
    weights, keys and entries one object.  Optima compare by identity."""

    value: Fraction
    box: Box
    one_way: np.ndarray
    numerators: np.ndarray
    den: int

    @functools.cached_property
    def model(self) -> dict:
        weights = np.zeros(math.prod(_WEIGHT_SHAPE), dtype=object)
        weights[self.one_way] = self.numerators.tolist()
        shared = {}

        def share(v):
            return shared.setdefault(v, v)

        model = {}
        for (i, j, k), (fwd, bwd) in zip(_BIPARTITIONS, weights.reshape(_WEIGHT_SHAPE)):
            triples, num, div = _couplings(fwd, bwd)
            dens = (div * self.den).tolist()
            model[(i, (j, k))] = [
                share((share((_RESPONDERS[h], _PAIRS[p1], _PAIRS[p2])), share(Fraction(w, q))))
                for h, p1, p2, w, q in zip(*triples.tolist(), num.tolist(), dens)
            ]
        return model


class _ToblLayout:
    """Variable layout and component geometry of the TOBL LP: the table
    entries, then one weight variable per index (bipartition, direction,
    responder, one-way pair) of ``shape``, in C order, so the weights are
    ``solution[n_table:]`` reshaped to ``shape``."""

    def __init__(self, scen: Scenario):
        self.scen = scen
        self.na = scen.n_outputs
        self.n_table = scen.table_size
        self.shape = _WEIGHT_SHAPE
        self.n_vars = self.n_table + math.prod(self.shape)
        # supports[index]: the table indices, one per input tuple, where the
        # weight variable's component puts mass 1; keys[bip, direction]: the
        # block's supports' outcomes, each as one number in radix n_outputs,
        # sorted by order (variables counted from the block's first)
        self.supports = self._support_table()
        self.outcomes = self.supports % self.na
        self.radix = self.na ** np.arange(scen.n_inputs - 1, -1, -1)
        keys = (self.outcomes * self.radix).sum(axis=-1).reshape(self.shape[:2] + (-1,))
        self.order = np.argsort(keys, axis=-1)
        self.keys = np.take_along_axis(keys, self.order, axis=-1)

    def _support_table(self) -> np.ndarray:
        """``shape`` + (input tuples,) array: the table indices where each
        weight variable's deterministic component (h, f, g) puts mass 1, one
        per input tuple.  For bipartition i|jk the lone party answers
        h(x_i); in direction 0 the leader j answers f(x_j) and the follower
        k answers g(2 x_j + x_k), in direction 1 the roles of j and k swap.
        Built from mixed-radix strides over the input tuples."""
        scen = self.scen
        xs = np.array(list(scen.input_tuples()))
        stride = [math.prod(scen.outputs[p + 1 :]) for p in range(3)]
        base = np.arange(scen.n_inputs) * self.na
        hs = np.array(_RESPONDERS)
        fs = np.array([f for f, _ in _PAIRS])
        gs = np.array([g for _, g in _PAIRS])
        blocks = []
        for i, j, k in _BIPARTITIONS:
            lone = hs[:, xs[:, i]] * stride[i]
            for lead, follow in ((j, k), (k, j)):
                pair = (
                    fs[:, xs[:, lead]] * stride[lead]
                    + gs[:, 2 * xs[:, lead] + xs[:, follow]] * stride[follow]
                )
                blocks.append(base + lone[:, None, :] + pair[None, :, :])
        return np.reshape(blocks, self.shape + (scen.n_inputs,))

    def rows(self) -> Rows:
        """Normalization rows, then per bipartition: per direction one row
        per table entry (the direction's mixture reproduces the entry), then
        one row per responder h (both directions give h the same weight)."""
        nx, n_table = self.scen.n_inputs, self.n_table
        per_bip = 2 * n_table + len(_RESPONDERS)
        t = np.arange(n_table)
        bip, direction, h, _ = np.indices(self.shape)
        var = n_table + np.arange(bip.size).reshape(self.shape)
        base = nx + bip * per_bip  # the first row of the weight's bipartition
        mix = base + direction * n_table  # the row of table entry 0 in its mixture
        parts = [
            (t // self.na, t, 1),
            (mix[:, :, 0, 0, None] + t, t, -1),
            (mix[..., None] + self.supports, var[..., None], 1),
            (base + 2 * n_table + h, var, 1 - 2 * direction),
        ]
        rhs = np.zeros(nx + len(_BIPARTITIONS) * per_bip, dtype=np.int64)
        rhs[:nx] = 1
        return _sorted_rows(*_coo(parts), rhs)

    def variable_permutation(self, sym: Symmetry) -> np.ndarray:
        """The permutation a relabeling induces on the LP variables.

        Table entries permute by :meth:`Symmetry.index_tables` ``X, A``.
        Blocks of one bipartition and direction map to blocks structurally:
        the image lone party fixes the bipartition, the image leader the
        direction.  Within a block a weight variable's support fixes its
        component (h, f, g), so each variable maps to the variable of the
        image block whose support is the permuted one (outcome ``A[a]`` at
        input ``X[x]`` for ``a`` at ``x``), keyed as ``keys`` and found by
        one ``searchsorted`` per block.  Distinct blocks can share a
        support, which is why the block is not read off the support.
        """
        xs, aa = map(np.array, _index_tables(sym, self.scen))
        image = (aa[self.outcomes] * self.radix[xs // self.na]).sum(axis=-1)
        image_of = [sym.party_perm.index(q) for q in range(3)]
        per_block = self.keys.shape[-1]
        perm = [np.add.outer(xs, aa).ravel()]
        for bip, (_, *leaders) in enumerate(_BIPARTITIONS):
            bip2 = image_of[bip]  # bipartition b has lone party b
            for direction, leader in enumerate(leaders):
                direction2 = _BIPARTITIONS[bip2].index(image_of[leader]) - 1
                keys, order = self.keys[bip2, direction2], self.order[bip2, direction2]
                wanted = image[bip, direction].ravel()
                at = np.searchsorted(keys, wanted).clip(max=per_block - 1)
                first = self.n_table + (2 * bip2 + direction2) * per_block
                perm.append(np.where(keys[at] == wanted, first + order[at], -1))
        perm = np.concatenate(perm)
        if (np.sort(perm) != np.arange(self.n_vars)).any():
            raise lp.LPError("induced variable map is not a permutation")
        return perm


def _rows_invariant_under(rows: Rows, perm, keys: set) -> bool:
    """Exact check that permuting variable indices maps every row, taken up
    to a nonzero factor, onto one of the rows (constraint set invariance):
    every permuted row's key from :func:`_row_keys` is in ``keys``, the
    set of the rows' own keys."""
    permuted = _sorted_rows(rows.row, np.asarray(perm)[rows.col], rows.val, rows.rhs)
    return keys.issuperset(_row_keys(permuted))


def tobl_max(expression: BellExpression) -> ToblOptimum:
    """Exact maximum over tripartite time-ordered bilocal correlations.

    For each bipartition i|jk the table must admit two simultaneous
    decompositions over shared weights: one where j measures first (its
    outcome depends only on x_j, k may depend on both inputs) and one where
    k measures first.  A shared-weight distribution over triples
    (h, one-way j->k, one-way j<-k) is equivalent to a pair of per-direction
    weight vectors whose marginals over the lone party's responder h agree:
    from matching marginals a coupling w1(h,.) * w2(h,.) / m(h) always
    exists, and it is constructed and re-verified exactly below, so the
    reported optimum is certified by an explicit member of the shared-weight
    model.

    Relabeling symmetries carried by the expression are used to collapse the
    LP onto orbit-constant variables after exact invariance checks (on both
    the objective and the constraint multiset); an expression with
    ``party_symmetries=()`` gets the uncollapsed LP.  The expanded solution
    is verified against the full model either way.
    """
    scen = expression.scenario
    if scen.parties != 3 or scen.inputs != (2, 2, 2) or scen.outputs != (2, 2, 2):
        raise ValueError("tobl_max supports the 3-party binary scenario only")
    layout = _ToblLayout(scen)
    rows = layout.rows()
    objective = _table_objective(expression)
    # the objective's numerators over obj_den, one per variable, and the set
    # of the rows' keys, built at the first symmetry that fixes the
    # expression, for the invariance checks
    obj_nums = np.zeros(layout.n_vars, dtype=object)
    obj_nums[list(objective)], obj_den = integer_numerators(objective.values())
    keys, perms = None, []
    for sym in expression.party_symmetries:
        if not expression_invariant_under(expression, sym):
            continue
        perm = layout.variable_permutation(sym)
        if keys is None:
            keys = set(_row_keys(rows))
        if (obj_nums[perm] == obj_nums).all() and _rows_invariant_under(rows, perm, keys):
            perms.append(perm)

    res, orbit = _solve_collapsed(obj_nums, obj_den, rows, perms)

    # full-model feasibility recheck of the (possibly expanded) solution, in
    # integers over the solution's common denominator
    xnum, den = res.solution_ints
    nums = np.array(xnum, dtype=object)[orbit]
    lhs = np.zeros(len(rows), dtype=object)
    np.add.at(lhs, rows.row, rows.val * nums[rows.col])
    if (lhs * rows.rhs_den != rows.rhs.astype(object) * den).any():
        raise lp.LPError("TOBL solution failed the full-model recheck")

    value = res.value
    box = Box(scen, list(map(res.solution.__getitem__, orbit[: layout.n_table].tolist())))
    if bell_value(expression, box) != value:
        raise lp.LPError("TOBL optimal box does not achieve the LP value")

    # verify the shared-weight model per bipartition, in the solution's
    # numerators: the coupling weight of (h, p1, p2) is
    # fwd[h, p1] * bwd[h, p2] / (marg[h] * den)
    tnums = nums[: layout.n_table]
    weights = nums[layout.n_table :].reshape(layout.shape)
    for bip, (fwd, bwd) in enumerate(weights):
        if (fwd.sum(axis=1) != bwd.sum(axis=1)).any():
            raise lp.LPError("mismatched responder marginals in TOBL solution")
        (h, p1, p2), num, div = _couplings(fwd, bwd)
        # both induced mixtures must reproduce the table exactly, over the
        # common denominator den * scale
        scale = math.lcm(*set(div.tolist()))
        mixture = np.zeros((2, layout.n_table), dtype=object)
        supports = np.stack((layout.supports[bip, 0, h, p1], layout.supports[bip, 1, h, p2]))
        np.add.at(mixture, (np.arange(2)[:, None, None], supports), (num * (scale // div))[:, None])
        if (mixture != tnums * scale).any():
            raise lp.LPError("TOBL coupling failed the mixture recheck")
    one_way = np.flatnonzero(weights)
    nonzero = weights.ravel()[one_way]  # kept in the smallest integer types
    small = [a.astype(np.min_scalar_type(a.max())) for a in (one_way, nonzero)]
    return ToblOptimum(value, box, *small, den)


# ---------------------------------------------------------------------------
# dimension and facet (tightness) checks


def cg_coordinates_of_strategies(scenario: Scenario, positions) -> np.ndarray:
    """Subset-marginal coordinates (constant first) of the deterministic
    strategies at the given enumeration positions, as int8: every entry is
    0 or 1, so a caller that sums or multiplies them widens the dtype first.

    The positions unravel to each party's response-function index; a
    party's block is one gather at those indices from a table over its
    response functions (row ``s``: a constant 1, then for each input x and
    outcome a < d - 1 whether response function ``s`` answers a to x), and
    the blocks expand row by row into their product."""
    positions = np.asarray(positions, dtype=np.intp)
    counts = [d**m for m, d in zip(scenario.inputs, scenario.outputs)]
    mats = np.ones((len(positions), 1), dtype=np.int8)
    for (m, d), index in zip(
        zip(scenario.inputs, scenario.outputs), np.unravel_index(positions, counts)
    ):
        marks = _response_indicators(m, d).reshape(d**m, m, d)[:, :, : d - 1]
        table = np.hstack([np.ones((d**m, 1), dtype=np.int8), marks.reshape(d**m, -1)])
        width = mats.shape[1] * table.shape[1]
        mats = np.einsum("bi,bj->bij", mats, table[index]).reshape(len(index), width)
    return mats


def affine_rank_of_strategies(scenario: Scenario, positions) -> int:
    """Exact affine rank of the deterministic vertices at the given
    enumeration positions, in subset-marginal coordinates (the same rank as
    the raw table on vertex sets, and a much smaller matrix)."""
    return affine_rank(cg_coordinates_of_strategies(scenario, positions))


def polytope_dimension(scenario: Scenario) -> int:
    """Dimension of the local polytope, prod_i (m_i (d_i - 1) + 1) - 1
    (Pironio, J. Math. Phys. 46, 062112 (2005)): the deterministic vertices
    span every subset-marginal coordinate but the constant."""
    return cg_dimension(scenario) - 1


@dataclass(frozen=True)
class FacetReport:
    """Outcome of a tightness check against the local polytope."""

    is_tight: bool
    saturating_vertex_count: int
    affine_rank: int
    polytope_dimension: int
    bound_attained: bool

    def to_json(self) -> dict:
        return asdict(self)


def facet_check(
    expression: BellExpression, bound: Fraction, cap: int | None = None
) -> FacetReport:
    """Certify or refute tightness: the inequality is a facet of the local
    polytope iff the bound is attained and the saturating vertices have
    affine rank exactly one below the polytope dimension.

    The supplied bound must equal the exact classical maximum (recomputed
    here; a mismatch raises).  Every strategy is valued at once by
    :func:`_strategy_values`; the saturating ones are those whose integer
    value equals ``bound * den``, and their enumeration positions go to the
    rank, so no :class:`DeterministicStrategy` object is built."""
    scen = expression.scenario
    bound = Fraction(bound)
    den, blocks = _strategy_values(expression, cap)
    target = bound * den  # an integer numerator, or no strategy attains it
    tops, hits = [], []
    for start, vals in blocks:
        tops.append(int(vals.max()))
        if target.denominator == 1:
            hits.append(start + np.flatnonzero(vals == target.numerator))
    best = Fraction(max(tops), den)
    if best != bound:
        raise ValueError(
            f"supplied bound {bound} is not the classical maximum {best}"
        )
    saturating = np.concatenate(hits)
    dim = polytope_dimension(scen)
    rank = affine_rank_of_strategies(scen, saturating)
    return FacetReport(
        is_tight=bool(saturating.size) and rank == dim - 1,
        saturating_vertex_count=saturating.size,
        affine_rank=rank,
        polytope_dimension=dim,
        bound_attained=bool(saturating.size),
    )
