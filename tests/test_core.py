import array
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import gynibell as gb
import ns_oracle
from gynibell import config, core, gyni, polytope
from gynibell.core import (
    Scenario,
    apply_symmetry_to_box,
    apply_symmetry_to_expression,
    drop_party,
    relabel_outcomes,
    strategy_entries,
)


def test_scenario_counts():
    s = Scenario((2, 2, 2, 3), (2, 2, 2, 2))
    assert s.parties == 4
    assert s.n_inputs == 24
    assert s.n_outputs == 16
    assert s.strategy_count() == 4 * 4 * 4 * 8 == 512


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario((), ())
    with pytest.raises(ValueError):
        Scenario((2, 0), (2, 2))
    with pytest.raises(ValueError):
        Scenario((2,), (2, 2))


@pytest.mark.parametrize(
    "inputs, outputs", [((2.0, 2), (2, 2)), ((2, 2), (True, 2)), ((2, "2"), (2, 2))]
)
def test_scenario_refuses_non_integer_cardinalities(inputs, outputs):
    with pytest.raises(ValueError, match="must be integers"):
        Scenario(inputs, outputs)


def test_mixed_radix_round_trip():
    s = Scenario((2, 3, 2), (2, 2, 4))
    for xs in s.input_tuples():
        assert s.decode_input(s.encode_input(xs)) == xs
    for aa in s.outcome_tuples():
        assert s.decode_outcome(s.encode_outcome(aa)) == aa
    # party 0 is most significant
    assert s.encode_input((1, 0, 0)) == 6


def test_strategy_enumeration_counts():
    assert len(gb.enumerate_deterministic_strategies(gb.binary_scenario(2))) == 16
    assert len(gb.enumerate_deterministic_strategies(gb.binary_scenario(3))) == 64
    s = Scenario((2, 2, 2, 3), (2, 2, 2, 2))
    assert len(gb.enumerate_deterministic_strategies(s)) == 512


def test_strategy_enumeration_cap(monkeypatch):
    monkeypatch.setattr(config, "STRATEGY_CAP", 1000)
    with pytest.raises(ValueError, match="1048576"):
        gb.enumerate_deterministic_strategies(gb.binary_scenario(10))


def test_strategy_enumeration_lexicographic_and_unique():
    strategies = gb.enumerate_deterministic_strategies(gb.binary_scenario(2))
    tables = [s.responses for s in strategies]
    assert tables == sorted(tables)
    assert len(set(tables)) == len(tables)


@pytest.mark.parametrize("s", [gb.binary_scenario(2), Scenario((2, 3, 1), (3, 2, 2))])
def test_strategy_at_indexes_the_enumeration(s):
    """Both name the strategies of an ``itertools.product`` oracle built
    here, in its order; positions outside it raise."""
    per_party = [list(itertools.product(range(d), repeat=m)) for m, d in zip(s.inputs, s.outputs)]
    oracle = [gb.DeterministicStrategy(c) for c in itertools.product(*per_party)]
    assert gb.enumerate_deterministic_strategies(s) == oracle
    assert [core.strategy_at(s, k) for k in range(len(oracle))] == oracle
    for bad in (-1, len(oracle)):
        with pytest.raises(ValueError, match="out of range"):
            core.strategy_at(s, bad)


def test_box_from_strategy_all_zero():
    s = gb.binary_scenario(3)
    st = gb.DeterministicStrategy(((0, 0), (0, 0), (0, 0)))
    box = gb.box_from_strategy(s, st)
    for xs in s.input_tuples():
        assert box.prob(xs, (0, 0, 0)) == 1


def test_box_from_strategy_identity_responders():
    s = gb.binary_scenario(2)
    st = gb.DeterministicStrategy(((0, 1), (0, 1)))
    box = gb.box_from_strategy(s, st)
    for xs in s.input_tuples():
        for aa in s.outcome_tuples():
            assert box.prob(xs, aa) == (1 if aa == xs else 0)


def test_deterministic_boxes_are_nonsignaling():
    s = gb.binary_scenario(3)
    for st in gb.enumerate_deterministic_strategies(s)[::7]:
        box = gb.box_from_strategy(s, st)
        assert gb.is_nonsignaling(box).is_nonsignaling
        # rows normalized exactly
        box.validate()


def test_signaling_box_detected():
    # party 2 outputs party 1's input: blatant signaling
    s = gb.binary_scenario(2)
    entries = {}
    for x1 in range(2):
        for x2 in range(2):
            entries[(s.encode_input((x1, x2)), s.encode_outcome((0, x1)))] = 1
    box = gb.Box.exact(s, entries)
    report = gb.is_nonsignaling(box)
    assert not report.is_nonsignaling
    # violations are keyed by the signaling party (whose input we vary)
    assert any(v.party == 0 for v in report.violations)


def _random_boxes(scen, rng):
    """A deterministic box with int entries, then mixtures of three random
    deterministic boxes (no-signaling), with mass moved between two outcomes
    of random inputs in all but the first (which signals in general)."""
    nx, na = scen.n_inputs, scen.n_outputs

    def entries():
        responses = tuple(
            tuple(rng.randrange(d) for _ in range(m)) for m, d in zip(scen.inputs, scen.outputs)
        )
        return strategy_entries(scen, gb.DeterministicStrategy(responses))

    table = [0] * scen.table_size
    for t in entries():
        table[t] = 1
    yield gb.Box(scen, table)
    for moves in (0, 1, 1, 2, 2):
        table = [Fraction(0)] * scen.table_size
        for w in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)):
            for t in entries():
                table[t] += w
        for _ in range(moves):
            x = rng.randrange(nx)
            a = rng.choice([a for a in range(na) if table[x * na + a]])
            b = rng.choice([b for b in range(na) if b != a])
            moved = table[x * na + a] * Fraction(rng.randint(1, 3), 4)
            table[x * na + a] -= moved
            table[x * na + b] += moved
        yield gb.Box(scen, table)


def _relay_box(scen):
    """The deterministic box in which every party answers the sum of the
    other parties' inputs modulo its outcome count: party i signals to
    every other party with more than one outcome, from every context."""
    table = [0] * scen.table_size
    for xs in scen.input_tuples():
        aa = tuple((sum(xs) - x) % d for x, d in zip(xs, scen.outputs))
        table[scen.encode_input(xs) * scen.n_outputs + scen.encode_outcome(aa)] = 1
    return gb.Box(scen, table)


@pytest.mark.parametrize("scenario", ns_oracle.SCENARIOS)
def test_is_nonsignaling_matches_oracle(scenario, exact_dtypes):
    """Verdict and the full, ordered violation list equal the per-tuple
    oracle on seeded no-signaling and perturbed boxes, and on a box that
    signals from every party that can; their small denominators keep the
    check on int64 numerators."""
    rng = random.Random(scenario.table_size)
    verdicts = set()
    for box in _random_boxes(scenario, rng):
        report = gb.is_nonsignaling(box)
        oracle = ns_oracle.ns_violations(box)
        assert report.violations == oracle
        assert report.is_nonsignaling == (not oracle)
        verdicts.add(report.is_nonsignaling)
    assert verdicts == {True, False}
    report = gb.is_nonsignaling(_relay_box(scenario))
    assert report.violations == ns_oracle.ns_violations(_relay_box(scenario))
    assert {v.party for v in report.violations} == {
        p for p, (m, d) in enumerate(zip(scenario.inputs, scenario.outputs))
        if m > 1 and scenario.n_outputs > d
    }
    assert exact_dtypes and set(exact_dtypes) == {np.int64}


def test_is_nonsignaling_past_int64_matches_oracle(exact_dtypes):
    """A mixture of three deterministic boxes with weights 1/3**45,
    (1 + 2**64)/3**45 and the rest has a common denominator past int64, so
    the check runs on Python integers: it passes, as the oracle does.  With
    the first two weights swapped in one row where they are two entries, it
    signals, and its ordered violations equal the oracle's, although every
    marginal moved by 2**64 numerators, which int64 arithmetic would not
    see."""
    scen = Scenario((2, 3, 2, 3), (3, 2, 3, 2))
    rng = random.Random(45)
    boxes = [
        gb.box_from_strategy(scen, core.strategy_at(scen, rng.randrange(scen.strategy_count())))
        for _ in range(3)
    ]
    tiny = Fraction(1, 3**45)
    weights = [tiny, (1 + 2**64) * tiny]
    mixture = gb.mix_boxes(boxes, weights + [1 - sum(weights)])
    table = mixture.exact_table()
    assert math.lcm(*(v.denominator for v in table)) > 2**63 > polytope._INT64_SAFE
    report = gb.is_nonsignaling(mixture)
    assert report == (True, []) and ns_oracle.ns_violations(mixture) == []
    na = scen.n_outputs
    a, b = next(
        (x * na + table[x * na : (x + 1) * na].index(w) for w in weights)
        for x in range(scen.n_inputs)
        if all(w in table[x * na : (x + 1) * na] for w in weights)
    )
    table[a], table[b] = table[b], table[a]
    signaling = gb.Box(scen, table)
    report = gb.is_nonsignaling(signaling)
    assert not report.is_nonsignaling
    assert report.violations == ns_oracle.ns_violations(signaling)
    assert exact_dtypes == [object, object]


def test_gyni_strategy_wins_exactly_y_and_complement():
    # fix the guessed string and respond accordingly on both inputs:
    # the strategy scores on y and on its complement, nowhere else
    game = gyni.gyni_expression(3, gyni.uniform_promise(3))
    y = (0, 1, 1)
    ybar = (1, 0, 0)
    responses = []
    for i in range(3):
        target = y[(i + 1) % 3]
        resp = [0, 0]
        resp[y[i]] = target
        resp[ybar[i]] = 1 - target
        responses.append(tuple(resp))
    st = gb.DeterministicStrategy(tuple(responses))
    box = gb.box_from_strategy(game.expression.scenario, st)
    assert gb.bell_value(game.expression, box) == Fraction(2, 8)
    scen = game.expression.scenario
    wins = [
        xs
        for xs in scen.input_tuples()
        if box.prob(xs, tuple(xs[1:] + xs[:1])) == 1
    ]
    assert set(wins) == {y, ybar}


def test_bell_value_linearity_on_mixtures():
    rng = random.Random(7)
    s = gb.binary_scenario(2)
    strategies = gb.enumerate_deterministic_strategies(s)
    game = gyni.gyni_expression(2)
    e = game.expression
    for _ in range(10):
        picks = rng.sample(range(len(strategies)), 3)
        raw = [Fraction(rng.randint(1, 5)) for _ in picks]
        total = sum(raw)
        weights = [w / total for w in raw]
        boxes = [gb.box_from_strategy(s, strategies[k]) for k in picks]
        mixed = gb.mix_boxes(boxes, weights)
        expect = sum(
            (w * gb.bell_value(e, b) for w, b in zip(weights, boxes)), Fraction(0)
        )
        assert gb.bell_value(e, mixed) == expect


def test_mix_boxes_needs_one_nonnegative_weight_per_box():
    s = gb.binary_scenario(2)
    boxes = [gb.box_from_strategy(s, st) for st in gb.enumerate_deterministic_strategies(s)[:3]]
    half = Fraction(1, 2)
    with pytest.raises(ValueError, match="one weight per box: 2 for 3"):
        gb.mix_boxes(boxes, [half, half])
    with pytest.raises(ValueError, match="one weight per box: 1 for 2"):
        gb.mix_boxes(boxes[:2], [half])
    # sums to 1, so only the sign check rejects it
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        gb.mix_boxes(boxes[:2], [Fraction(3, 2), -half])
    mixed = gb.mix_boxes(boxes, [half, Fraction(1, 3), Fraction(1, 6)])
    # the third strategy answers (0, 1) at input (0, 0)
    assert mixed.value(0, 0) == half + Fraction(1, 3)


def _invalid_box_raises(scen, table, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gb.Box(scen, table)


def test_box_validate_messages_and_first_failing_row():
    """Rows of different denominators, with equal entries as separate
    objects: the first failing row raises, and a negative entry is reported
    before the row's sum."""
    s = gb.binary_scenario(2)

    def rows(*dens):  # row x: 1/den at outcome 0, the rest at outcome 1
        table = []
        for den in dens:
            table += [Fraction(1, den), Fraction(den - 1, den), Fraction(0), Fraction(0)]
        return table

    table = rows(2, 3, 4, 2)
    assert table[0] is not table[1] and table[0] == table[1]
    gb.Box(s, table).validate()
    table[9] = Fraction(3, 4) + Fraction(1, 12)  # row 2 sums to 13/12
    table[13] = Fraction(1)  # row 3 sums to 3/2
    _invalid_box_raises(s, table, "row 2 does not sum to 1")
    table[5], table[6] = Fraction(4, 3), Fraction(-2, 3)  # row 1 sums to 1
    _invalid_box_raises(s, table, "negative probability at input 1")
    table = rows(2, 3, 4, 2)
    table[8], table[11] = Fraction(-1, 4), Fraction(1, 5)  # negative and sum off
    _invalid_box_raises(s, table, "negative probability at input 2")


def test_box_validate_on_seven_parties():
    """The GYNI N = 7 NS box (128 x 128 entries) with rows tampered far in."""
    box = gb.ns_max(gyni.gyni_expression(7).expression).box
    s, na = box.scenario, box.scenario.n_outputs
    assert s.parties == 7
    base = box.exact_table()
    t77 = 77 * na + next(a for a in range(na) if base[77 * na + a])
    t100, u100 = [100 * na + a for a in range(na) if base[100 * na + a]][:2]
    table = list(base)
    table[t77] += Fraction(1, 1024)
    table[t100] = -table[t100]
    _invalid_box_raises(s, table, "row 77 does not sum to 1")
    table = list(base)
    moved = table[t100] * 2  # row 100 still sums to 1
    table[t100] -= moved
    table[u100] += moved
    table[120 * na] += 1
    _invalid_box_raises(s, table, "negative probability at input 100")


def test_bell_value_scenario_mismatch():
    e = gyni.gyni_expression(3).expression
    box = gb.box_from_strategy(
        gb.binary_scenario(2),
        gb.DeterministicStrategy(((0, 0), (0, 0))),
    )
    with pytest.raises(ValueError):
        gb.bell_value(e, box)


def _product_box(tables):
    """Exact product box from per-party single-party tables."""
    parties = len(tables)
    s = gb.binary_scenario(parties)
    entries = {}
    for xs in s.input_tuples():
        for aa in s.outcome_tuples():
            p = Fraction(1)
            for i in range(parties):
                p *= tables[i][xs[i]][aa[i]]
            entries[(s.encode_input(xs), s.encode_outcome(aa))] = p
    return gb.Box.exact(s, entries)


def test_postselect_product_box_leaves_rest_unchanged():
    t = [
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]],
        [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1), Fraction(0)]],
        [[Fraction(3, 5), Fraction(2, 5)], [Fraction(1, 2), Fraction(1, 2)]],
    ]
    box = _product_box(t)
    reduced = gb.postselect(box, 2, 0, 1)
    expected = _product_box(t[:2])
    assert reduced == expected


def test_postselect_rows_renormalize():
    game = gyni.gyni_expression(3)
    ns = gb.ns_max(game.expression)
    reduced = gb.postselect(ns.box, 0, 0, 0)
    reduced.validate()
    s = reduced.scenario
    for x in range(s.n_inputs):
        assert sum(reduced.value(x, a) for a in range(s.n_outputs)) == 1


def test_postselect_divides_int_entries_exactly():
    """A box of Python ints postselects to the exact reduced box."""
    s = gb.binary_scenario(2)
    st = gb.DeterministicStrategy(((0, 1), (1, 0)))
    table = [0] * s.table_size
    for t in strategy_entries(s, st):
        table[t] = 1
    reduced = gb.postselect(gb.Box(s, table), 0, 1, 1)
    assert reduced == gb.box_from_strategy(gb.binary_scenario(1), gb.DeterministicStrategy(((1, 0),)))


def test_postselect_zero_probability_errors():
    s = gb.binary_scenario(2)
    st = gb.DeterministicStrategy(((0, 0), (0, 0)))
    box = gb.box_from_strategy(s, st)
    with pytest.raises(ZeroDivisionError):
        gb.postselect(box, 0, 0, 1)


def test_postselect_commutes_with_marginal_for_independent_party(ns_optima):
    t = [
        [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)]],
        [[Fraction(1, 3), Fraction(2, 3)], [Fraction(2, 5), Fraction(3, 5)]],
        [[Fraction(3, 5), Fraction(2, 5)], [Fraction(1, 2), Fraction(1, 2)]],
    ]
    box = _product_box(t)
    a = drop_party(gb.postselect(box, 2, 1, 0), 1)
    b = gb.postselect(drop_party(box, 1), 1, 1, 0)
    assert a == b
    # a party index out of range raises for both transforms alike
    pair = _product_box(t[:2])
    for party in (-1, 2):
        with pytest.raises(ValueError, match="party index out of range"):
            drop_party(pair, party)
        with pytest.raises(ValueError, match="party index out of range"):
            gb.postselect(pair, party, 0, 0)
    # so does an input or outcome value outside the party's range; unchecked,
    # an outcome 2 of a binary party is read from the next outcome digit
    gyni3 = ns_optima[3].box
    for what, call in (
        ("outcome", lambda: gb.postselect(gyni3, 2, 0, 2)),
        ("outcome", lambda: gb.postselect(gyni3, 0, 0, -1)),
        ("input", lambda: gb.postselect(gyni3, 1, 2, 0)),
        ("input", lambda: gb.postselect(gyni3, 0, -1, 0)),
        ("input", lambda: drop_party(gyni3, 1, 2)),
        ("input", lambda: drop_party(gyni3, 0, -1)),
    ):
        with pytest.raises(ValueError, match=f"{what} value out of range"):
            call()


def test_lift_box_preserves_ns_and_echoes_input():
    game = gyni.gyni_expression(3)
    ns = gb.ns_max(game.expression)
    lifted = gb.lift_box(ns.box)
    assert lifted.scenario.parties == 4
    assert gb.is_nonsignaling(lifted).is_nonsignaling
    s = lifted.scenario
    for xs in s.input_tuples():
        for aa in s.outcome_tuples():
            if aa[3] != xs[3]:
                assert lifted.prob(xs, aa) == 0


def test_lift_box_requires_binary():
    s = Scenario((2, 3), (2, 2))
    entries = {}
    for x in range(s.n_inputs):
        entries[(x, 0)] = Fraction(1)
    box = gb.Box.exact(s, entries)
    with pytest.raises(ValueError):
        gb.lift_box(box)


def test_box_json_round_trip():
    game = gyni.gyni_expression(3)
    ns = gb.ns_max(game.expression)
    obj = ns.box.to_json()
    back = gb.Box.from_json(obj)
    assert back == ns.box


def test_expression_json_round_trip():
    e = gyni.gyni_expression(3).expression
    back = gb.BellExpression.from_json(e.to_json())
    assert back.scenario == e.scenario
    assert back.coeffs == e.coeffs
    assert back.classical_bound == e.classical_bound


def test_box_keeps_its_entries_and_stores_each_distinct_one_once():
    scen = gb.binary_scenario(2)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    table = [half, half, 0, 0, quarter, quarter, quarter, quarter] * 2
    box = gb.Box(scen, table)
    got = box.exact_table()
    assert got == table and all(a is b for a, b in zip(got, table))
    assert box.value(1, 2) is quarter and box.value(0, 2) == 0
    assert box == gb.Box(scen, [Fraction(v) for v in table])
    # 16384 entries of one value: one byte per entry
    big = gb.binary_scenario(7)
    uniform = gb.Box(big, [Fraction(1, 128)] * big.table_size)
    assert uniform._index.itemsize == 1 and len(uniform._values) == 1
    assert uniform.exact_table() == [Fraction(1, 128)] * big.table_size


def test_box_from_distinct_values_and_index():
    """The private constructor from distinct values and a per-entry index
    stores them as given and runs the same checks as ``Box(...)``."""
    scen = gb.binary_scenario(2)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    index = [0, 0, 1, 1, 2, 2, 2, 2] * 2
    box = gb.Box._from_values(scen, [half, 0, quarter], index)
    assert box == gb.Box(scen, [[half, 0, quarter][k] for k in index])
    assert box._values == (half, 0, quarter) and list(box._index) == index
    assert box.value(1, 2) is quarter
    # boxes with equal indexes share one, whatever their values
    fresh = [Fraction(1, 2), 0, Fraction(1, 4)]
    again = gb.Box(scen, [fresh[k] for k in index])
    assert again._index is box._index
    other = gb.Box._from_values(scen, [0, half, quarter], index)
    assert other._index is box._index and other != box
    swapped = gb.Box._from_values(scen, [half, 0, quarter], [k if k > 1 else 1 - k for k in index])
    assert swapped._index is not box._index and swapped == other
    with pytest.raises(ValueError, match="row 0 does not sum to 1"):
        gb.Box._from_values(scen, [half, quarter], [0, 1, 1, 1] + [0, 0, 1, 1] * 3)
    with pytest.raises(ValueError, match="int or Fraction"):
        gb.Box._from_values(scen, [0.5, 0.25], [0, 0, 1, 1] * 4)
    with pytest.raises(ValueError, match="table size mismatch"):
        gb.Box._from_values(scen, [quarter], [0] * 4)


def test_box_from_values_takes_its_index_as_bytes():
    """An index given as bytes, in items of the size ``_index_typecode``
    gives for the value count, makes the box the same index given as a
    list makes, and the two share one index; two-byte items serve more
    than 256 values, and bytes of the wrong item size miscount the
    entries."""
    scen = gb.binary_scenario(2)
    values = [Fraction(1, 2), 0, Fraction(1, 4)]
    index = [0, 0, 1, 1, 2, 2, 2, 2] * 2
    listed = gb.Box._from_values(scen, values, index)
    packed = gb.Box._from_values(scen, values, array.array("B", index).tobytes())
    assert core._index_typecode(len(values)) == "B"
    assert packed == listed and packed._index is listed._index
    wide = Scenario((1,), (300,))
    values = [Fraction(k, 45150) for k in range(1, 301)]
    assert core._index_typecode(len(values)) == "H"
    packed = gb.Box._from_values(wide, values, array.array("H", range(300)).tobytes())
    assert packed == gb.Box._from_values(wide, values, range(300))
    assert packed._index.itemsize == 2
    with pytest.raises(ValueError, match="table size mismatch"):
        gb.Box._from_values(wide, values, bytes(range(256)) + bytes(44))


def test_bell_value_matches_the_fraction_sum():
    """On seeded random boxes and expressions with Fraction, int, zero and
    negative coefficients, the value summed in integer numerators equals
    the Fraction sum of coefficient * P(a|x)."""
    rng = random.Random(11)
    for scen in ns_oracle.SCENARIOS:
        keys = [(x, a) for x in range(scen.n_inputs) for a in range(scen.n_outputs)]
        for box in _random_boxes(scen, rng):
            picked = rng.sample(keys, rng.randint(1, min(len(keys), 48)))
            coeffs = {}
            for k in picked:
                coeffs[k] = rng.choice([Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                                        rng.randint(-3, 3)])
            e = gb.BellExpression(scen, coeffs)
            expect = sum((c * box.value(x, a) for (x, a), c in coeffs.items()), Fraction(0))
            got = gb.bell_value(e, box)
            assert got == expect and type(got) is Fraction


def test_box_rejects_non_rational_entries():
    s = Scenario((1,), (2,))
    with pytest.raises(ValueError, match="int or Fraction"):
        gb.Box(s, [0.5, 0.5])
    with pytest.raises(ValueError, match="int or Fraction"):
        gb.Box(s, [Fraction(1), 0.0])
    half = gb.Box.exact(s, [0.5, 0.5])
    assert half.exact_table() == [Fraction(1, 2)] * 2
    assert gb.Box.from_json(half.to_json()) == half
    assert gb.Box.from_json(gb.Box(s, [1, 0]).to_json()) == gb.Box(s, [1, 0])


def test_input_distribution_json_round_trip():
    q = gyni.parity_promise(4)
    back = gb.InputDistribution.from_json(q.to_json())
    assert back.scenario == q.scenario
    assert back.q == {k: v for k, v in q.q.items() if v}


def test_input_distribution_validation():
    s = gb.binary_scenario(2)
    with pytest.raises(ValueError):
        gb.InputDistribution(s, {0: Fraction(1, 2)})
    with pytest.raises(ValueError):
        gb.InputDistribution(s, {0: Fraction(3, 2), 1: Fraction(-1, 2)})


def test_symmetry_preserves_box_validity_and_ns():
    game = gyni.gyni_expression(3)
    ns = gb.ns_max(game.expression)
    for sym in game.expression.party_symmetries:
        image = apply_symmetry_to_box(ns.box, sym)
        image.validate()
        assert gb.is_nonsignaling(image).is_nonsignaling
        # the optimal box value is invariant when the expression is
        assert gb.bell_value(game.expression, image) == ns.value


def _relabeled_index(scen, sym, t):
    """Image of table index ``t``, relabeling the input and outcome tuples
    entry by entry as the :class:`Symmetry` docstring states."""
    x, a = divmod(t, scen.n_outputs)
    xs, aa = scen.decode_input(x), scen.decode_outcome(a)
    ys = tuple(sym.input_maps[p][xs[q]] for p, q in enumerate(sym.party_perm))
    bs = tuple(sym.output_maps[p][aa[q]] for p, q in enumerate(sym.party_perm))
    return scen.encode_input(ys) * scen.n_outputs + scen.encode_outcome(bs)


def _assert_matches_oracle(expression, sym):
    """Dense and sparse images both follow the oracle; the dense one is a
    bijection."""
    scen = expression.scenario
    perm = sym.table_permutation(scen)
    oracle = [_relabeled_index(scen, sym, t) for t in range(scen.table_size)]
    assert perm == oracle
    assert sorted(perm) == list(range(scen.table_size))
    na = scen.n_outputs
    assert apply_symmetry_to_expression(expression, sym).coeffs == {
        divmod(oracle[x * na + a], na): c for (x, a), c in expression.coeffs.items()
    }


def test_table_permutation_matches_oracle_binary(binary3_relabelings):
    e = gyni.gyni_sum_expression(3)
    for sym in binary3_relabelings:
        _assert_matches_oracle(e, sym)


def test_table_permutation_matches_oracle_mixed():
    """Random valid relabelings of a scenario whose parties differ in both
    cardinalities: parties 0 and 2 may swap, and so may parties 1 and 3."""
    scen = Scenario((2, 3, 2, 3), (3, 2, 3, 2))
    rng = random.Random(11)
    keys = [(rng.randrange(scen.n_inputs), rng.randrange(scen.n_outputs)) for _ in range(40)]
    e = gb.BellExpression(scen, {key: Fraction(k + 1) for k, key in enumerate(keys)})
    kinds = list(zip(scen.inputs, scen.outputs))
    perms = [
        p for p in itertools.permutations(range(4))
        if all(kinds[q] == kinds[i] for i, q in enumerate(p))
    ]
    assert len(perms) == 4
    for _ in range(100):
        perm = rng.choice(perms)
        ins = tuple(tuple(rng.sample(range(m), m)) for m in scen.inputs)
        outs = tuple(tuple(rng.sample(range(d), d)) for d in scen.outputs)
        _assert_matches_oracle(e, gb.Symmetry(perm, ins, outs))


def _oracle_image(scen, sym, xs, aa):
    """The image input and outcome tuples of one table entry, party by
    party, as the :class:`Symmetry` docstring states."""
    ys = tuple(sym.input_maps[p][xs[q]] for p, q in enumerate(sym.party_perm))
    bs = tuple(sym.output_maps[p][aa[q]] for p, q in enumerate(sym.party_perm))
    return ys, bs


def _oracle_invariant(expression, sym):
    """Invariance by the nonzero coefficients and their decoded images."""
    scen = expression.scenario
    own = {k: c for k, c in expression.coeffs.items() if c}
    image = {}
    for (x, a), c in own.items():
        ys, bs = _oracle_image(scen, sym, core.decode_tuple(x, scen.inputs),
                               core.decode_tuple(a, scen.outputs))
        image[(core.encode_tuple(ys, scen.inputs), core.encode_tuple(bs, scen.outputs))] = c
    return image == own


def test_index_tables_and_invariance_match_oracle_mixed_radix():
    """On inputs (2, 3, 2) and outputs (3, 2, 2), random relabelings: the
    index tables, the table permutation and the invariance verdict equal a
    decode_tuple oracle, for orbit-constant (invariant) expressions and for
    random ones (mostly not invariant)."""
    scen = Scenario((2, 3, 2), (3, 2, 2))
    na = scen.n_outputs
    rng = random.Random(5)
    verdicts = []
    for _ in range(60):
        sym = gb.Symmetry(
            (0, 1, 2),
            tuple(tuple(rng.sample(range(m), m)) for m in scen.inputs),
            tuple(tuple(rng.sample(range(d), d)) for d in scen.outputs),
        )
        xs_table, aa_table = sym.index_tables(scen)
        for x in range(scen.n_inputs):
            ys, _ = _oracle_image(scen, sym, core.decode_tuple(x, scen.inputs), (0, 0, 0))
            assert xs_table[x] == core.encode_tuple(ys, scen.inputs) * na
        for a in range(na):
            _, bs = _oracle_image(scen, sym, (0, 0, 0), core.decode_tuple(a, scen.outputs))
            assert aa_table[a] == core.encode_tuple(bs, scen.outputs)
        perm = sym.table_permutation(scen)
        assert perm == [_relabeled_index(scen, sym, t) for t in range(scen.table_size)]
        # an orbit-constant expression: one random value per orbit of perm
        orbit_value, coeffs = {}, {}
        for t in range(scen.table_size):
            cycle, u = [t], perm[t]
            while u != t:
                cycle.append(u)
                u = perm[u]
            value = orbit_value.setdefault(min(cycle), Fraction(rng.randint(-2, 2), 3))
            if value:
                coeffs[divmod(t, na)] = value
        coeffs = coeffs or {(0, 0): Fraction(0)}
        keys = [(rng.randrange(scen.n_inputs), rng.randrange(na)) for _ in range(12)]
        for e in (
            gb.BellExpression(scen, coeffs),
            gb.BellExpression(scen, {k: Fraction(rng.randint(-2, 2)) for k in keys}),
        ):
            verdict = core.expression_invariant_under(e, sym)
            assert verdict == _oracle_invariant(e, sym)
            verdicts.append(verdict)
    assert verdicts[::2] == [True] * 60
    assert False in verdicts[1::2]


def test_symmetry_refuses_maps_that_are_not_permutations():
    """Party 0's input map (0, 0) sent every GYNI-3 coefficient restricted to
    x_0 = 0 onto itself, so the false symmetry passed the invariance check;
    a map that is not a permutation is refused where it is built."""
    ident = ((0, 1),) * 3
    for perm, ins, outs in (
        ((0, 1, 2), ((0, 0), (0, 1), (0, 1)), ident),
        ((0, 1, 2), ident, ((1, 1), (0, 1), (0, 1))),
        ((0, 0, 2), ident, ident),
        ((0, 1, 3), ident, ident),
        ((0, 1, 2), ident[:2], ident),
    ):
        with pytest.raises(ValueError):
            gb.Symmetry(perm, ins, outs)


def test_index_terms_refuses_maps_that_do_not_match_the_scenario():
    binary = gb.binary_scenario(3)
    mixed = Scenario((2, 3), (2, 2))
    ident = ((0, 1),) * 3
    for scen, sym in (
        (binary, gb.Symmetry((0, 1, 2), ((0, 1, 2),) + ident[1:], ident)),
        (binary, gb.Symmetry((0, 1, 2), ident, ((0,),) + ident[1:])),
        (binary, gb.Symmetry((0, 1), ident[:2], ident[:2])),
        (mixed, gb.Symmetry((1, 0), ((0, 1), (0, 1, 2)), ((0, 1), (0, 1)))),
        (mixed, gb.Symmetry((1, 0), ((0, 1, 2), (0, 1)), ((0, 1), (0, 1)))),
    ):
        for call in (sym.index_terms, sym.index_tables, sym.table_permutation):
            with pytest.raises(ValueError, match="do not match the scenario"):
                call(scen)


def test_relabel_outcomes_involution():
    e = gyni.gyni_sum_expression(3)
    twice = relabel_outcomes(relabel_outcomes(e, 1, 1, (1, 0)), 1, 1, (1, 0))
    assert twice.coeffs == e.coeffs
