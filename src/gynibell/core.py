"""Scenarios, probability boxes, deterministic strategies and Bell expressions.

A *scenario* fixes the number of parties and the per-party input/output
cardinalities.  A *box* is a full conditional probability table ``P(a|x)``
over a scenario, in exact rationals.  Input and outcome tuples are
flattened to mixed-radix integers, party-major with party 0 most
significant, which gives deterministic serialization and O(1) table lookups.
Deterministic strategies are enumerated in one order, fixed here: the
product of each party's response tables, so position k is the
mixed-radix number whose digits index those tables.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

from . import config

# ---------------------------------------------------------------------------
# rationals


def _parse_fraction(s: str) -> Fraction:
    """Parse the ``"p"`` or ``"p/q"`` form that ``str`` gives a ``Fraction``;
    ``p`` and ``q`` are integer literals, so ``"0.5"`` is rejected."""
    num, slash, den = s.strip().partition("/")
    return Fraction(int(num), int(den) if slash else 1)


def integer_numerators(values) -> tuple[list[int], int]:
    """The rationals ``values`` as Python-integer numerators over their
    least common denominator, in order, and that denominator (1 for no
    values)."""
    den = math.lcm(*(v.denominator for v in values))
    return [int(v.numerator) * (den // v.denominator) for v in values], den


# ---------------------------------------------------------------------------
# mixed-radix indexing


def encode_tuple(values: tuple[int, ...], radices: tuple[int, ...]) -> int:
    idx = 0
    for v, r in zip(values, radices):
        idx = idx * r + v
    return idx


def decode_tuple(idx: int, radices: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(radices)
    for i in range(len(radices) - 1, -1, -1):
        out[i] = idx % radices[i]
        idx //= radices[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class Scenario:
    """Party count plus per-party input and output cardinalities."""

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        if len(self.inputs) != len(self.outputs):
            raise ValueError("inputs and outputs must have one entry per party")
        if len(self.inputs) < 1:
            raise ValueError("at least one party required")
        if any(m < 1 for m in self.inputs) or any(d < 1 for d in self.outputs):
            raise ValueError("all cardinalities must be >= 1")

    @property
    def parties(self) -> int:
        return len(self.inputs)

    @property
    def n_inputs(self) -> int:
        return math.prod(self.inputs)

    @property
    def n_outputs(self) -> int:
        return math.prod(self.outputs)

    @property
    def table_size(self) -> int:
        return self.n_inputs * self.n_outputs

    def encode_input(self, xs: tuple[int, ...]) -> int:
        return encode_tuple(xs, self.inputs)

    def decode_input(self, idx: int) -> tuple[int, ...]:
        return decode_tuple(idx, self.inputs)

    def encode_outcome(self, aa: tuple[int, ...]) -> int:
        return encode_tuple(aa, self.outputs)

    def decode_outcome(self, idx: int) -> tuple[int, ...]:
        return decode_tuple(idx, self.outputs)

    def input_tuples(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(m) for m in self.inputs))

    def outcome_tuples(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.outputs))

    def strategy_count(self) -> int:
        return math.prod(d**m for m, d in zip(self.inputs, self.outputs))

    def to_json(self) -> dict:
        return {"inputs": list(self.inputs), "outputs": list(self.outputs)}

    @staticmethod
    def from_json(obj: dict) -> "Scenario":
        return Scenario(tuple(obj["inputs"]), tuple(obj["outputs"]))


def binary_scenario(n_parties: int) -> Scenario:
    return Scenario((2,) * n_parties, (2,) * n_parties)


# ---------------------------------------------------------------------------
# boxes

#: the per-entry index of every live box, keyed by its type code and the
#: hash of its contents; an index lives as long as a box holds it
_INDEXES = weakref.WeakValueDictionary()


def _shared_index(index: array.array) -> array.array:
    """``index``, or the equal index a live box already holds: boxes with
    one pattern of equal entries (the optimum of a query asked again) keep
    one index between them."""
    key = (index.typecode, hash(index.tobytes()))
    shared = _INDEXES.get(key)
    if shared == index:
        return shared
    _INDEXES[key] = index
    return index


class Box:
    """Conditional probability table P(a|x) over a scenario, in exact
    rationals (each entry an ``int`` or a ``Fraction``; :meth:`exact`
    converts other numbers); normalization is an identity of fractions.
    The table is dense: entry ``(x_idx, a_idx)`` lives at
    ``table[x_idx * n_outputs + a_idx]``.  It is stored as its distinct
    entry objects and one small integer per entry: an optimal box repeats a
    few shared values many times (16384 entries and a handful of values at
    GYNI N = 7), so it holds a byte per entry instead of a pointer, and
    boxes with equal indexes share one.
    """

    __slots__ = ("scenario", "_values", "_index")

    def __init__(self, scenario: Scenario, table):
        tab = list(table)
        distinct = dict(zip(map(id, tab), tab))
        slot = {key: k for k, key in enumerate(distinct)}
        self._store(scenario, tuple(distinct.values()), map(slot.__getitem__, map(id, tab)))

    @classmethod
    def _from_values(cls, scenario: Scenario, values, index) -> "Box":
        """The box whose entry ``t`` is ``values[index[t]]``: a table known
        by its distinct values and per-entry index, stored as given with
        no search for the distinct values."""
        box = cls.__new__(cls)
        box._store(scenario, tuple(values), index)
        return box

    def _store(self, scenario: Scenario, values: tuple, index) -> None:
        n = len(values)
        code = "B" if n <= 1 << 8 else "H" if n <= 1 << 16 else "Q"
        self.scenario = scenario
        self._values = values
        self._index = array.array(code, index)
        if len(self._index) != scenario.table_size:
            raise ValueError("table size mismatch")
        if not all(isinstance(v, (int, Fraction)) for v in values):
            raise ValueError("box entries must be int or Fraction; Box.exact converts")
        self.validate()
        self._index = _shared_index(self._index)

    # -- constructors

    @staticmethod
    def exact(scenario: Scenario, entries) -> "Box":
        """Build an exact box from a dense list or an {(x_idx, a_idx): Fraction} dict."""
        if isinstance(entries, dict):
            tab = [Fraction(0)] * scenario.table_size
            nx, na = scenario.n_inputs, scenario.n_outputs
            for (x, a), v in entries.items():
                if not (0 <= x < nx and 0 <= a < na):
                    raise ValueError(f"box entry key ({x},{a}) out of range")
                tab[x * na + a] = Fraction(v)
            return Box(scenario, tab)
        return Box(scenario, [Fraction(v) for v in entries])

    # -- access

    @property
    def _table(self) -> list:
        return list(map(self._values.__getitem__, self._index))

    def value(self, x_idx: int, a_idx: int) -> Fraction:
        return self._values[self._index[x_idx * self.scenario.n_outputs + a_idx]]

    def prob(self, xs: tuple[int, ...], aa: tuple[int, ...]):
        return self.value(self.scenario.encode_input(xs), self.scenario.encode_outcome(aa))

    def exact_table(self) -> list[Fraction]:
        return self._table

    # -- invariants

    def _numerators(self) -> tuple[list[int], int]:
        """The entries as integer numerators over their least common
        denominator, in table order, and that denominator; each distinct
        value is converted once."""
        per_value, den = integer_numerators(self._values)
        return list(map(per_value.__getitem__, self._index)), den

    def validate(self) -> None:
        """Each row is nonnegative and sums to 1, in integer numerators over
        the table's common denominator; the first failing row raises.  Each
        distinct value is converted once and each row summed from its slice
        of the index, so no per-entry list is built."""
        na = self.scenario.n_outputs
        per_value, den = integer_numerators(self._values)
        negative = {k for k, v in enumerate(per_value) if v < 0}
        for x in range(self.scenario.n_inputs):
            row = self._index[x * na : (x + 1) * na]
            if negative and not negative.isdisjoint(row):
                raise ValueError(f"negative probability at input {x}")
            if sum(map(per_value.__getitem__, row)) != den:
                raise ValueError(f"row {x} does not sum to 1")

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        return self.scenario == other.scenario and self._table == other._table

    def __repr__(self):
        return f"Box(parties={self.scenario.parties})"

    # -- serialization

    def to_json(self) -> dict:
        na = self.scenario.n_outputs
        table = {f"{t // na}:{t % na}": str(v) for t, v in enumerate(self._table) if v}
        return {"scenario": self.scenario.to_json(), "mode": "exact", "table": table}

    @staticmethod
    def from_json(obj: dict) -> "Box":
        scen = Scenario.from_json(obj["scenario"])
        mode = obj.get("mode", "exact")
        if mode != "exact":
            raise ValueError(f"box mode {mode!r} is not supported: boxes are exact")
        entries = {}
        for key, val in obj["table"].items():
            x, a = key.split(":")
            entries[(int(x), int(a))] = _parse_fraction(val)
        return Box.exact(scen, entries)


def mix_boxes(boxes: list[Box], weights: list[Fraction]) -> Box:
    """Exact convex combination of boxes on a common scenario: one
    nonnegative weight per box, the weights summing to 1 (checked through
    the mixture's normalization)."""
    if not boxes:
        raise ValueError("empty mixture")
    scen = boxes[0].scenario
    if any(b.scenario != scen for b in boxes):
        raise ValueError("mixture requires boxes on one scenario")
    weights = list(map(Fraction, weights))
    if len(weights) != len(boxes):
        raise ValueError(f"mixture needs one weight per box: {len(weights)} for {len(boxes)}")
    if any(w < 0 for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    table = [Fraction(0)] * scen.table_size
    for b, w in zip(boxes, weights):
        for i, v in enumerate(b._table):
            if v:
                table[i] += w * v
    return Box(scen, table)


# ---------------------------------------------------------------------------
# deterministic strategies


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per-party response functions, stored as tuples indexed by input."""

    responses: tuple[tuple[int, ...], ...]

    def outcome_for(self, xs: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(r[x] for r, x in zip(self.responses, xs))


def checked_strategy_count(scenario: Scenario, cap: int | None = None) -> int:
    """Number of deterministic strategies; ValueError if it exceeds ``cap``
    (default :data:`config.STRATEGY_CAP`)."""
    cap = config.STRATEGY_CAP if cap is None else cap
    count = scenario.strategy_count()
    if count > cap:
        raise ValueError(f"strategy enumeration cap exceeded: {count} > {cap}")
    return count


def _response_tables(scenario: Scenario) -> list[list[tuple[int, ...]]]:
    """Each party's response functions, as tuples indexed by input, in
    lexicographic order."""
    return [
        list(itertools.product(range(d), repeat=m))
        for m, d in zip(scenario.inputs, scenario.outputs)
    ]


def strategy_at(scenario: Scenario, position: int) -> DeterministicStrategy:
    """The deterministic strategy at ``position`` of the enumeration order
    (:func:`enumerate_deterministic_strategies`): the position's mixed-radix
    digits, party 0 most significant, index each party's response table."""
    if not 0 <= position < scenario.strategy_count():
        raise ValueError(f"strategy position {position} out of range")
    tables = _response_tables(scenario)
    picks = decode_tuple(position, tuple(map(len, tables)))
    return DeterministicStrategy(tuple(t[k] for t, k in zip(tables, picks)))


def enumerate_deterministic_strategies(
    scenario: Scenario, cap: int | None = None
) -> list[DeterministicStrategy]:
    """All deterministic strategies, duplicate-free, in lexicographic order
    of the response tables (the order :func:`strategy_at` indexes).  The cap
    on their number is checked before any is built."""
    checked_strategy_count(scenario, cap)
    return [DeterministicStrategy(c) for c in itertools.product(*_response_tables(scenario))]


def strategy_entries(scenario: Scenario, strategy: DeterministicStrategy) -> list[int]:
    """Table indices ``x_idx * n_outputs + a_idx`` where the strategy's box
    is 1, one per input, in input order."""
    na = scenario.n_outputs
    return [
        scenario.encode_input(xs) * na + scenario.encode_outcome(strategy.outcome_for(xs))
        for xs in scenario.input_tuples()
    ]


def box_from_strategy(scenario: Scenario, strategy: DeterministicStrategy) -> Box:
    """The 0/1-valued exact box with P(a|x)=1 iff a_i = f_i(x_i) for all i."""
    table = [Fraction(0)] * scenario.table_size
    for t in strategy_entries(scenario, strategy):
        table[t] = Fraction(1)
    return Box(scenario, table)


# ---------------------------------------------------------------------------
# no-signaling check


class NsViolation(NamedTuple):
    party: int
    other_inputs: tuple[int, ...]
    input_pair: tuple[int, int]
    other_outcomes: tuple[int, ...]


class NsReport(NamedTuple):
    is_nonsignaling: bool
    violations: list


def is_nonsignaling(box: Box) -> NsReport:
    """Check the per-party no-signaling equalities, reporting any violations.

    For every party i, every context of the other inputs and every pair of
    inputs (0, x_i) for i, the marginal over party i's outcome must agree
    exactly, in integer numerators over the table's common denominator.  At
    each outcome ``lo`` of the parties after i, the marginal is the sum of
    ``d`` strided slices of the table, with one entry per input and outcome
    of the parties before i; contexts x_i = 0 and x_i = k are compared as
    whole slices.  Only a failing party's violations are listed: by party,
    then x_i, then context, then outcome of the other parties.
    """
    scen = box.scenario
    nums, _ = box._numerators()
    nx, na = scen.n_inputs, scen.n_outputs
    violations = []
    for party, (m, d) in enumerate(zip(scen.inputs, scen.outputs)):
        if m < 2:
            continue
        x_stride = math.prod(scen.inputs[party + 1 :])
        lows = math.prod(scen.outputs[party + 1 :])
        highs = na // (d * lows)
        margs = []
        for lo in range(lows):
            marg = nums[lo :: d * lows]
            for a in range(1, d):
                marg = list(map(operator.add, marg, nums[lo + a * lows :: d * lows]))
            margs.append(marg)
        run = x_stride * highs  # the contexts x_i = 0 of a block of inputs
        if all(
            marg[b : b + run] == marg[b + k * run : b + (k + 1) * run]
            for marg in margs
            for b in range(0, nx * highs, m * run)
            for k in range(1, m)
        ):
            continue

        def at(x, ao):  # the marginal at input x and outcome ao of the others
            return margs[ao % lows][x * highs + ao // lows]

        violations += [
            NsViolation(party, _without(scen.decode_input(xb), party), (0, x_i),
                        decode_tuple(ao, _without(scen.outputs, party)))
            for x_i in range(1, m)
            for xb in range(nx)
            if not xb // x_stride % m
            for ao in range(na // d)
            if at(xb, ao) != at(xb + x_i * x_stride, ao)
        ]
    return NsReport(not violations, violations)


# ---------------------------------------------------------------------------
# Bell expressions


@dataclass(frozen=True)
class BellExpression:
    """Sparse coefficient table over (input, outcome) index pairs.

    ``coeffs`` maps ``(x_idx, a_idx)`` to a rational coefficient.
    ``party_symmetries`` optionally carries relabeling symmetries of the
    expression (see :class:`Symmetry`); solvers exploit them after an exact
    invariance check.
    """

    scenario: Scenario
    coeffs: dict
    classical_bound: Fraction | None = None
    label: str = ""
    party_symmetries: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("coefficient map must be non-empty")
        nx, na = self.scenario.n_inputs, self.scenario.n_outputs
        for (x, a) in self.coeffs:
            if not (0 <= x < nx and 0 <= a < na):
                raise ValueError(f"coefficient key ({x},{a}) out of range")

    def terms(self):
        """Iterate (x_tuple, a_tuple, coefficient) sorted by index."""
        scen = self.scenario
        for (x, a) in sorted(self.coeffs):
            yield scen.decode_input(x), scen.decode_outcome(a), self.coeffs[(x, a)]

    def to_json(self) -> dict:
        out = {
            "scenario": self.scenario.to_json(),
            "coeffs": {f"{x}:{a}": str(Fraction(v)) for (x, a), v in sorted(self.coeffs.items())},
        }
        if self.classical_bound is not None:
            out["classical_bound"] = str(self.classical_bound)
        if self.label:
            out["label"] = self.label
        return out

    @staticmethod
    def from_json(obj: dict) -> "BellExpression":
        scen = Scenario.from_json(obj["scenario"])
        coeffs = {}
        for key, val in obj["coeffs"].items():
            x, a = key.split(":")
            coeffs[(int(x), int(a))] = _parse_fraction(val)
        bound = obj.get("classical_bound")
        return BellExpression(
            scen,
            coeffs,
            classical_bound=None if bound is None else _parse_fraction(bound),
            label=obj.get("label", ""),
        )


def bell_value(expression: BellExpression, box: Box) -> Fraction:
    """Exact value of sum of coefficient * P(a|x)."""
    if expression.scenario != box.scenario:
        raise ValueError("expression and box live on different scenarios")
    total = Fraction(0)
    for (x, a), c in expression.coeffs.items():
        total += c * box.value(x, a)
    return total


def relabel_outcomes(
    expression: BellExpression, party: int, x_value: int, perm: tuple[int, ...]
) -> BellExpression:
    """Relabel party's outcomes under one of its inputs; used to map between
    equivalent forms of the same inequality."""
    scen = expression.scenario
    new_coeffs = {}
    for (x, a), c in expression.coeffs.items():
        aa = list(scen.decode_outcome(a))
        if scen.decode_input(x)[party] == x_value:
            aa[party] = perm[aa[party]]
        new_coeffs[(x, scen.encode_outcome(aa))] = c
    return BellExpression(scen, new_coeffs, expression.classical_bound, expression.label)


# ---------------------------------------------------------------------------
# relabeling symmetries


@dataclass(frozen=True)
class Symmetry:
    """A relabeling automorphism: permute parties, then relabel each party's
    inputs and outputs.

    Acting on an index pair, party ``p`` of the image takes the data of party
    ``party_perm[p]`` of the original, with input ``x`` renamed to
    ``input_maps[p][x]`` and outcome ``a`` to ``output_maps[p][a]``.
    Relabelings of this shape map the no-signaling polytope, the local
    polytope and the quantum set onto themselves.  Each of ``party_perm``
    and the maps must be a permutation (``ValueError`` otherwise).
    """

    party_perm: tuple[int, ...]
    input_maps: tuple[tuple[int, ...], ...]
    output_maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not len(self.party_perm) == len(self.input_maps) == len(self.output_maps):
            raise ValueError("a symmetry needs one input map and one outcome map per party")
        for perm in (self.party_perm, *self.input_maps, *self.output_maps):
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(f"symmetry map {perm} is not a permutation")

    def index_terms(self, scen: Scenario) -> list[tuple[int, ...]]:
        """The relabeling as per-axis index terms.  The table's axes are the
        parties' inputs, then the parties' outcomes; where axis ``k`` holds
        value ``v``, the image table index ``x_idx * n_outputs + a_idx``
        gains ``terms[k][v]``.  Maps not sized to the scenario raise."""
        n = scen.parties
        axes = ((self.input_maps, scen.inputs, scen.n_outputs), (self.output_maps, scen.outputs, 1))
        if len(self.party_perm) != n or any(
            len(maps[p]) != radices[p] or radices[self.party_perm[p]] != radices[p]
            for maps, radices, _ in axes
            for p in range(n)
        ):
            raise ValueError("symmetry maps do not match the scenario")
        image_of = [self.party_perm.index(q) for q in range(n)]
        terms = []
        for maps, radices, stride in axes:
            strides = [0] * n
            for p in range(n - 1, -1, -1):
                strides[p] = stride
                stride *= radices[p]
            terms += [tuple(strides[p] * m for m in maps[p]) for p in image_of]
        return terms

    def index_tables(self, scen: Scenario) -> list[list[int]]:
        """The relabeling as two tables, ``[X, A]``: table entry
        ``x_idx * n_outputs + a_idx`` maps to ``X[x_idx] + A[a_idx]``.  Each
        sums :meth:`index_terms` over its axes, the last axis fastest."""
        terms, n = self.index_terms(scen), scen.parties
        return [
            functools.reduce(lambda im, t: [v + i for v in t for i in im], reversed(axes), [0])
            for axes in (terms[:n], terms[n:])
        ]

    def table_permutation(self, scen: Scenario) -> list[int]:
        """Image of every flattened table index, in table order."""
        xs, aa = self.index_tables(scen)
        return [x + a for x in xs for a in aa]


@functools.lru_cache(maxsize=64)
def _index_tables(sym: Symmetry, scen: Scenario) -> tuple:
    """:meth:`Symmetry.index_tables` as two tuples, built once per symmetry
    and scenario: the invariance check and the orbit search of a solve
    share them, and a solve asked again builds none."""
    return tuple(map(tuple, sym.index_tables(scen)))


def apply_symmetry_to_expression(expression: BellExpression, sym: Symmetry) -> BellExpression:
    scen = expression.scenario
    (xs, aa), na = sym.index_tables(scen), scen.n_outputs
    coeffs = {divmod(xs[x] + aa[a], na): c for (x, a), c in expression.coeffs.items()}
    return BellExpression(scen, coeffs, expression.classical_bound, expression.label)


def apply_symmetry_to_box(box: Box, sym: Symmetry) -> Box:
    """Push a box through a relabeling; preserves validity and no-signaling."""
    table = [Fraction(0)] * box.scenario.table_size
    for v, image in zip(box._table, sym.table_permutation(box.scenario)):
        table[image] = v
    return Box(box.scenario, table)


def expression_invariant_under(expression: BellExpression, sym: Symmetry) -> bool:
    """Exact check that the symmetry maps the expression onto itself: every
    coefficient equals the one at its image (0 where none is given).  The
    symmetry permutes the table, so a cycle through a given coefficient
    holds only given ones and this covers the whole table.  List equality
    tries identity first, and equal coefficients often are one object."""
    (xs, aa), na = _index_tables(sym, expression.scenario), expression.scenario.n_outputs
    get = expression.coeffs.get
    images = [get(divmod(xs[x] + aa[a], na), 0) for x, a in expression.coeffs]
    return images == list(expression.coeffs.values())


# ---------------------------------------------------------------------------
# box transformations


def _without(values: tuple, k: int) -> tuple:
    return values[:k] + values[k + 1 :]


def _with(values: tuple, k: int, v) -> tuple:
    return values[:k] + (v,) + values[k:]


def _reduced_scenario(scen: Scenario, party: int) -> Scenario:
    """The scenario without ``party``."""
    if not (0 <= party < scen.parties):
        raise ValueError("party index out of range")
    return Scenario(_without(scen.inputs, party), _without(scen.outputs, party))


def _check_value(value: int, count: int, what: str) -> None:
    """An input or outcome value of one party must be one of its ``count``."""
    if not (0 <= value < count):
        raise ValueError(f"{what} value out of range")


def postselect(box: Box, party: int, x_value: int, a_value: int) -> Box:
    """Condition on (input, outcome) at one party and drop it.

    Rows of the reduced table are renormalized by the conditional marginal;
    conditioning on a zero-probability event raises, and so does a party,
    input or outcome out of range (``ValueError``).
    """
    scen = box.scenario
    new = _reduced_scenario(scen, party)
    _check_value(x_value, scen.inputs[party], "input")
    _check_value(a_value, scen.outputs[party], "outcome")

    def row(xo):
        x_idx = scen.encode_input(_with(xo, party, x_value))
        values = [
            box.value(x_idx, scen.encode_outcome(_with(ao, party, a_value)))
            for ao in new.outcome_tuples()
        ]
        norm = sum(values)
        if norm == 0:
            raise ZeroDivisionError(
                f"postselection on zero-probability event at party {party}"
            )
        return [Fraction(v) / norm for v in values]

    return Box(new, [v for xo in new.input_tuples() for v in row(xo)])


def drop_party(box: Box, party: int, x_value: int = 0) -> Box:
    """Marginalize a party away, summing its outcome at a fixed input.

    Only well defined when the box does not signal from that party; callers
    wanting a safety net should run :func:`is_nonsignaling` first.  A party
    or input out of range raises ``ValueError``.
    """
    scen = box.scenario
    new = _reduced_scenario(scen, party)
    _check_value(x_value, scen.inputs[party], "input")
    x_rows = [scen.encode_input(_with(xo, party, x_value)) for xo in new.input_tuples()]
    return Box(new, [
        sum((box.value(x_idx, scen.encode_outcome(_with(ao, party, a)))
             for a in range(scen.outputs[party])), Fraction(0))
        for x_idx in x_rows
        for ao in new.outcome_tuples()
    ])


def lift_box(box: Box) -> Box:
    """Append a party that deterministically echoes its input.

    Requires a binary-input/binary-output box; the added party is
    independent of the original ones, so no-signaling is preserved.
    """
    scen = box.scenario
    last = scen.parties
    new = binary_scenario(last + 1)
    if _reduced_scenario(new, last) != scen:
        raise ValueError("lift_box requires a binary-input/binary-output box")
    zero = Fraction(0)
    return Box(new, [
        box.value(scen.encode_input(_without(xs, last)), scen.encode_outcome(_without(aa, last)))
        if aa[last] == xs[last] else zero
        for xs in new.input_tuples()
        for aa in new.outcome_tuples()
    ])


# ---------------------------------------------------------------------------
# input distributions


@dataclass(frozen=True)
class InputDistribution:
    """Probability density over the joint inputs of a scenario."""

    scenario: Scenario
    q: dict  # x_idx -> Fraction

    def __post_init__(self):
        if not all(0 <= x < self.scenario.n_inputs for x in self.q):
            raise ValueError("input index out of range")
        if any(v < 0 for v in self.q.values()):
            raise ValueError("negative input probability")
        if sum(self.q.values()) != 1:
            raise ValueError("input distribution must sum to 1")

    def prob(self, x_idx: int) -> Fraction:
        return self.q.get(x_idx, Fraction(0))

    def support(self) -> list[int]:
        return sorted(x for x, v in self.q.items() if v)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario.to_json(),
            "q": {str(x): str(Fraction(v)) for x, v in sorted(self.q.items()) if v},
        }

    @staticmethod
    def from_json(obj: dict) -> "InputDistribution":
        scen = Scenario.from_json(obj["scenario"])
        q = {int(k): _parse_fraction(v) for k, v in obj["q"].items()}
        return InputDistribution(scen, q)
