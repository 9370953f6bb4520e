import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import gynibell as gb
import ns_full_lp
import ns_oracle
from gynibell import _cg_map, _rank, config, gyni, lp, polytope, upb
from gynibell import core
from gynibell.core import Scenario
from gynibell.polytope import affine_rank_of_strategies

F = Fraction


# ---------------------------------------------------------------------------
# classical maxima


def test_classical_max_gyni3(gyni_games):
    opt = gb.classical_max(gyni_games[3].expression)
    assert opt.value == F(1, 4)
    # returned strategy attains the bound
    box = gb.box_from_strategy(gyni_games[3].expression.scenario, opt.strategy)
    assert gb.bell_value(gyni_games[3].expression, box) == F(1, 4)


def test_classical_max_unit_for_upb_expressions():
    for e in (
        gb.bell_from_set(upb.shifts()),
        gb.bell_from_set(upb.gen_shifts(2)),
        gb.bell_from_set(upb.wupb_example()),
        upb.four_partite_tight_inequality(),
        upb.niset_cerf_inequality(4, 3),
    ):
        assert gb.classical_max(e).value == 1


def test_classical_max_uniform_promise():
    game = gyni.gyni_expression(3, gyni.uniform_promise(3))
    assert gb.classical_max(game.expression).value == F(2, 8)


def _strategy_values(expression, cap=None):
    """Every strategy's value from ``polytope._strategy_values``, as
    Fractions in enumeration order."""
    den, blocks = polytope._strategy_values(expression, cap)
    return [F(v, den) for _, vals in blocks for v in vals.tolist()]


def _random_expression(scen, rng, scale):
    coeffs = {
        (x, a): F(rng.randint(-scale, scale), rng.randint(1, 12))
        for x in range(scen.n_inputs)
        for a in range(scen.n_outputs)
        if rng.random() < 0.7
    }
    return core.BellExpression(scen, coeffs or {(0, 0): F(1)})


def _strategies_oracle(scen):
    """Every deterministic strategy in enumeration order, built here: each
    party's response tuples from ``itertools.product``, then their product."""
    per_party = [
        list(itertools.product(range(d), repeat=m)) for m, d in zip(scen.inputs, scen.outputs)
    ]
    return [core.DeterministicStrategy(c) for c in itertools.product(*per_party)]


_VALUATION_CASES = [
    ((2, 3, 2), (3, 2, 2), 9),
    ((3, 2), (2, 4), 9),
    ((1, 2, 2), (2, 3, 1), 9),
    ((2, 3, 2), (3, 2, 2), 2**62),  # numerators past the int64 guard
]


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("inputs, outputs, scale", _VALUATION_CASES)
def test_strategy_values_match_fraction_oracle(monkeypatch, inputs, outputs, scale, block):
    """Every strategy's integer value equals the pure-Fraction value of its
    deterministic box, in enumeration order, also one leading response
    function per block; past the guard the values are Python integers."""
    if block is not None:
        monkeypatch.setattr(polytope, "_VALUE_BLOCK", block)
    scen = Scenario(inputs, outputs)
    rng = random.Random(sum(inputs) * 100 + sum(outputs) + scale % 97)
    strategies = _strategies_oracle(scen)
    assert core.enumerate_deterministic_strategies(scen) == strategies
    assert [core.strategy_at(scen, k) for k in range(len(strategies))] == strategies
    for _ in range(3):
        expr = _random_expression(scen, rng, scale)
        expect = [core.bell_value(expr, core.box_from_strategy(scen, s)) for s in strategies]
        assert _strategy_values(expr) == expect
        dtypes = {vals.dtype for _, vals in polytope._strategy_values(expr)[1]}
        assert dtypes == {np.dtype(object) if scale >= 2**62 else np.dtype(np.int64)}

        opt = gb.classical_max(expr)
        assert opt.value == max(expect)
        assert opt.strategy == strategies[expect.index(max(expect))]
        report = gb.facet_check(expr, opt.value)
        saturating = [k for k, v in enumerate(expect) if v == opt.value]
        assert report.saturating_vertex_count == len(saturating)
        assert report.affine_rank == affine_rank_of_strategies(scen, saturating)


@pytest.mark.parametrize("block", [None, 1])
def test_classical_max_returns_first_of_tied_strategies(gyni_games, monkeypatch, block):
    """Ties for the maximum go to the first strategy in enumeration order,
    also when they fall in different blocks."""
    if block is not None:
        monkeypatch.setattr(polytope, "_VALUE_BLOCK", block)
    scen = Scenario((2, 3, 2), (3, 2, 2))
    strategies = _strategies_oracle(scen)
    flat = core.BellExpression(scen, {(5, 7): F(0)})
    assert gb.classical_max(flat) == (0, strategies[0])
    rng = random.Random(8)
    for _ in range(5):
        keys = rng.sample([(x, a) for x in range(12) for a in range(12)], 6)
        expr = core.BellExpression(scen, {k: F(rng.choice((-1, 1))) for k in keys})
        values = _strategy_values(expr)
        assert values.count(max(values)) > 1
        assert gb.classical_max(expr).strategy == strategies[values.index(max(values))]
    e = gyni_games[3].expression
    values = _strategy_values(e)
    first = _strategies_oracle(e.scenario)[values.index(e.classical_bound)]
    assert gb.classical_max(e).strategy == first


def test_strategy_cap_checked_before_any_array(gyni_games, monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("array built before the cap check")

    for name in ("zeros", "indices", "unravel_index"):
        monkeypatch.setattr(np, name, no_arrays)
    e = gyni_games[3].expression  # 64 strategies
    for call in (
        lambda: polytope._strategy_values(e, cap=63),
        lambda: gb.classical_max(e, cap=63),
        lambda: gb.facet_check(e, e.classical_bound, cap=63),
    ):
        with pytest.raises(ValueError, match="cap exceeded: 64 > 63"):
            call()


# ---------------------------------------------------------------------------
# no-signaling optimization


def test_ns_max_gyni3_full_and_symmetric_agree(gyni_games):
    e = gyni_games[3].expression
    full = gb.ns_max(dataclasses.replace(e, party_symmetries=()))
    sym = gb.ns_max(e)
    assert full.value == sym.value == F(1, 3)
    assert gb.is_nonsignaling(full.box).is_nonsignaling
    assert gb.bell_value(e, sym.box) == F(1, 3)


def test_ns_max_gyni4_full_and_symmetric_agree(gyni_games):
    e = gyni_games[4].expression
    full = gb.ns_max(dataclasses.replace(e, party_symmetries=()))
    assert full.value == gb.ns_max(e).value == F(1, 6)


def test_ns_optimal_box_terms_all_equal_third(ns_optima):
    # the bound is reachable only with every winning term at 1/3
    box = ns_optima[3].box
    e = gb.gyni_expression(3).expression
    for (x, a) in e.coeffs:
        assert box.value(x, a) == F(1, 3)


def test_ns_dominates_classical_on_suite_expressions(gyni_games, ns_optima):
    for n in range(3, 7):
        assert ns_optima[n].value >= gb.classical_max(gyni_games[n].expression).value


def test_ns_max_exceeds_one_for_upb_inequalities():
    # unextendibility makes the inequality violable by no-signaling boxes
    for pvs in (upb.shifts(), upb.wupb_example()):
        e = gb.bell_from_set(pvs)
        assert gb.ns_max(e).value > 1


def test_ns_max_is_one_for_completable_set():
    # a product basis that extends to a full basis with independent subsets
    # gives a trivial inequality: no no-signaling violation at all
    zero, one = upb.basis_ket(2, 0), upb.basis_ket(2, 1)
    e, ebar = upb.hadamard_pair()
    vectors = [(zero, zero), (zero, one), (one, e), (one, ebar)]
    pvs = upb.build_local_subsets(vectors, (2, 2))
    expr = gb.bell_from_set(pvs)
    assert gb.classical_max(expr).value == 1
    assert gb.ns_max(expr).value == 1


def test_ns_max_dominates_every_feasible_box(ns_optima):
    """The LP optimum must be an upper bound for explicitly constructed
    no-signaling boxes: random local mixtures blended with the optimal box."""
    rng = random.Random(31)
    scen = gb.binary_scenario(3)
    strategies = gb.enumerate_deterministic_strategies(scen)
    for trial in range(5):
        coeffs = {}
        for x in range(scen.n_inputs):
            a = rng.randrange(scen.n_outputs)
            coeffs[(x, a)] = F(rng.randint(1, 4), 4)
        e = gb.BellExpression(scen, coeffs)
        opt = gb.ns_max(e)
        picks = rng.sample(strategies, 3)
        parts = [gb.box_from_strategy(scen, s) for s in picks] + [ns_optima[3].box]
        raw = [F(rng.randint(1, 5)) for _ in parts]
        weights = [w / sum(raw) for w in raw]
        mixture = gb.mix_boxes(parts, weights)
        assert gb.is_nonsignaling(mixture).is_nonsignaling
        assert opt.value >= gb.bell_value(e, mixture)
        assert opt.value >= gb.classical_max(e).value


def test_ns_max_symmetry_that_empties_a_block():
    """Flipping party 0's input fixes an expression that ignores x_0; every
    no-signaling row of party 0 then vanishes in the collapse."""
    scen = gb.binary_scenario(2)
    coeffs = {(x, scen.encode_outcome((x % 2, 0))): F(1, 4) for x in range(scen.n_inputs)}
    flip = gb.Symmetry((0, 1), ((1, 0), (0, 1)), ((0, 1), (0, 1)))
    e = gb.BellExpression(scen, coeffs, party_symmetries=(flip,))
    assert core.expression_invariant_under(e, flip)
    assert gb.ns_max(e).value == gb.ns_max(dataclasses.replace(e, party_symmetries=())).value


def test_ns_max_rejects_false_symmetry():
    e = gyni.gyni_expression(3).expression
    bogus = gb.Symmetry((1, 0, 2), ((0, 1),) * 3, ((0, 1),) * 3)
    from dataclasses import replace

    with pytest.raises(ValueError):
        gb.ns_max(replace(e, party_symmetries=(bogus,)))


def _random_promise_game(rng):
    """A GYNI N = 3 game whose promise is a seeded random distribution."""
    scen = gb.binary_scenario(3)
    raw = [rng.randint(0, 8) for _ in range(scen.n_inputs)]
    raw[0] += not sum(raw)
    q = core.InputDistribution(scen, {x: F(v, sum(raw)) for x, v in enumerate(raw) if v})
    return gyni.gyni_expression(3, q).expression


def _reference_cases():
    """A seeded random expression on each oracle scenario of at most 256
    entries (the full-probability LP of binary N = 5 alone runs for over a
    minute), five seeded random-promise N = 3 games, the four-partite
    inequality, and GYNI N = 3..7 with their symmetries."""
    rng = random.Random(19)
    cases = [
        _random_expression(scen, rng, 9)
        for scen in ns_oracle.SCENARIOS
        if scen.table_size <= 256
    ]
    cases += [_random_promise_game(rng) for _ in range(5)]
    cases.append(upb.four_partite_tight_inequality())
    return cases + [gyni.gyni_expression(n).expression for n in range(3, 8)]


def test_ns_max_matches_full_probability_lp():
    """The Collins-Gisin LP gives the value of the LP over the table entries
    on their normalization and no-signaling rows, also collapsed under
    symmetry; each optimal box shares its equal entries."""
    for e in _reference_cases():
        opt = gb.ns_max(e)
        assert opt.value == ns_full_lp.ns_lp_max(e)[0]
        assert len(set(opt.box._values)) == len(opt.box._values)


def test_ns_max_on_binary_n5_without_symmetry_takes_the_float_basis(monkeypatch):
    """The 242-row, 1024-column Collins-Gisin LP of a seeded random
    expression on binary N = 5 with no symmetry: the float pass's basis
    verifies, so no exact pivot runs (the cold exact simplex takes 10-20 s
    on it and gives the same value).  Without the refinement step its
    basic values round to a point that breaks a row."""
    e = _random_expression(gb.binary_scenario(5), random.Random(2), 12)
    results, solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: results.append(solve(problem)) or results[-1])
    assert gb.ns_max(e).value == F(9451, 231)
    (res,) = results
    assert (len(res.dual), len(res.solution), res.pivots) == (242, 1024, 0)


def test_ns_max_size_guard_before_rows(monkeypatch):
    """The guard bounds the orbit sums the model build counts, Collins-Gisin
    coordinates times orbits, and is checked before any is counted:
    GYNI-8 without symmetry has 3**8 coordinates and 65536 entries, each its
    own orbit, known before any orbit search; with symmetry the orbits are
    found first (GYNI-4: 81 coordinates, 32 orbits)."""
    e = dataclasses.replace(gyni.gyni_expression(8).expression, party_symmetries=())

    def never(*args):
        raise AssertionError("orbits or orbit sums built before the size guard")

    monkeypatch.setattr(polytope, "_orbits_of_permutations", never)
    monkeypatch.setattr(_cg_map, "orbit_sums", never)
    with pytest.raises(ValueError, match="too large: 6561 coordinates x 65536 orbits"):
        gb.ns_max(e)
    monkeypatch.undo()

    e4 = gyni.gyni_expression(4).expression
    monkeypatch.setattr(config, "NS_LP_MAX_ORBIT_SUMS", 81 * 32 - 1)
    with monkeypatch.context() as m:
        m.setattr(_cg_map, "orbit_sums", never)
        with pytest.raises(ValueError, match="too large: 81 coordinates x 32 orbits"):
            gb.ns_max(e4)
    monkeypatch.setattr(config, "NS_LP_MAX_ORBIT_SUMS", 81 * 32)
    assert gb.ns_max(e4).value == F(1, 6)


def _pairs(rows):
    """An ``lp.Rows`` as ``({column: coefficient}, rhs)`` pairs of Python
    numbers, after checking that its entries are sorted by row, then
    column, and nonzero."""
    key = rows.row * (int(rows.col.max(initial=0)) + 1) + rows.col
    assert (np.diff(key) > 0).all() and rows.val.all()
    starts = np.searchsorted(rows.row, np.arange(len(rows) + 1)).tolist()
    cols, vals = rows.col.tolist(), rows.val.tolist()
    return [
        (dict(zip(cols[s:e], vals[s:e])), b)
        for s, e, b in zip(starts, starts[1:], rows.rhs.tolist())
    ]


def _dense_map(scenario):
    """The Collins-Gisin map T as a dense (table entries x coordinates)
    integer matrix, read off the orbit sums on identity orbits."""
    n = scenario.table_size
    sums = polytope._concat(list(_cg_map.orbit_sums(scenario, np.arange(n), n)))
    t = np.zeros((n, len(sums)), dtype=np.int64)
    t[sums.col, sums.row] = sums.val
    return t


@pytest.mark.parametrize("scenario", ns_oracle.SCENARIOS)
def test_ns_equality_rows_match_oracle(scenario):
    """The reference model's integer rows, in order, equal the per-tuple
    Fraction rows; the Collins-Gisin map has full column rank, one more than
    the dimension of the affine space those rows cut out, so the tables T q
    with q_0 = 1 are all of it."""
    rows = ns_full_lp.ns_equality_rows(scenario)
    assert _pairs(rows) == ns_oracle.ns_rows(scenario)
    a = np.zeros((len(rows), scenario.table_size))
    a[rows.row, rows.col] = rows.val
    t = _dense_map(scenario)
    dim = polytope.cg_dimension(scenario)
    assert t.shape == (scenario.table_size, dim)
    assert np.linalg.matrix_rank(t) == dim == scenario.table_size - np.linalg.matrix_rank(a) + 1


@pytest.mark.parametrize("scenario", ns_oracle.SCENARIOS)
def test_cg_map_sends_strategies_to_their_tables(scenario):
    """T maps a deterministic strategy's Collins-Gisin coordinates (the
    rows of ``cg_coordinates_of_strategies``) to its 0/1 table; 300 seeded
    strategies, or all of them when there are fewer."""
    count = scenario.strategy_count()
    positions = sorted(random.Random(count).sample(range(count), min(count, 300)))
    coords = polytope.cg_coordinates_of_strategies(scenario, positions)
    tables = [
        gb.box_from_strategy(scenario, core.strategy_at(scenario, k)).exact_table()
        for k in positions
    ]
    assert coords.dtype == np.int8
    assert (coords.astype(np.int64) @ _dense_map(scenario).T).tolist() == tables


@pytest.mark.parametrize("scenario", ns_oracle.SCENARIOS)
def test_cg_map_gives_normalized_nonsignaling_tables(scenario):
    """For seeded random integer coordinates q, T q meets every per-tuple
    no-signaling row, and every normalization row with q_0 in place of 1."""
    rng = np.random.default_rng(scenario.table_size)
    t = _dense_map(scenario)
    oracle = ns_oracle.ns_rows(scenario)
    for _ in range(3):
        q = rng.integers(-5, 6, size=t.shape[1])
        p = (t @ q).tolist()
        for coeffs, rhs in oracle:
            assert sum(c * p[j] for j, c in coeffs.items()) == rhs * q[0]


def _orbits_oracle(n, perms):
    """Orbit ids by graph search, numbered by each orbit's smallest index."""
    orbit = [-1] * n
    count = 0
    for start in range(n):
        if orbit[start] < 0:
            orbit[start] = count
            stack = [start]
            while stack:
                i = stack.pop()
                for perm in perms:
                    if orbit[perm[i]] < 0:
                        orbit[perm[i]] = count
                        stack.append(perm[i])
            count += 1
    return orbit


def _collapse_oracle(rows, orbit):
    """``(coeffs, rhs)`` pairs summed per orbit; a row is dropped when empty
    or when it equals an earlier row after division by its leading
    coefficient."""
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
        key = (tuple((o, F(v, lead)) for o, v in items), F(rhs, lead))
        if key not in seen:
            seen.add(key)
            out.append((dict(items), rhs))
    return out


def _cg_orbit_sums_oracle(scen, orbit):
    """``(coeffs, 0)`` pairs, one per Collins-Gisin coordinate, accumulated
    one table entry at a time: outcome a < d - 1 of input x has coefficient
    1 on coordinate 1 + x (d - 1) + a; the last outcome 1 on the constant
    and -1 on every 1 + x (d - 1) + a'; an entry's coefficients are the
    products over parties, summed per orbit."""
    widths = [1 + m * (d - 1) for m, d in zip(scen.inputs, scen.outputs)]
    sums = [{} for _ in range(math.prod(widths))]
    for xs in scen.input_tuples():
        for aa in scen.outcome_tuples():
            o = orbit[scen.encode_input(xs) * scen.n_outputs + scen.encode_outcome(aa)]
            per_party = [
                [(1 + x * (d - 1) + a, 1)] if a < d - 1
                else [(0, 1)] + [(1 + x * (d - 1) + b, -1) for b in range(d - 1)]
                for x, a, d in zip(xs, aa, scen.outputs)
            ]
            for combo in itertools.product(*per_party):
                k = 0
                for (coord, _), width in zip(combo, widths):
                    k = k * width + coord
                sums[k][o] = sums[k].get(o, 0) + math.prod(v for _, v in combo)
    return [({o: v for o, v in sorted(row.items()) if v}, 0) for row in sums]


@pytest.mark.parametrize("n", range(3, 7))
def test_collapse_rows_match_fraction_oracle_gyni(n):
    """Orbits by label propagation equal a graph search's; the orbit sums of
    the Collins-Gisin map equal the per-entry oracle's; the constant row is
    t0 and the LP keeps the other rows a row-by-row Fraction dedupe keeps."""
    e = gyni.gyni_expression(n).expression
    scen = e.scenario
    perms = [sym.table_permutation(scen) for sym in e.party_symmetries]
    orbit = polytope._orbits_of_permutations(scen.table_size, perms)
    assert orbit.tolist() == _orbits_oracle(scen.table_size, perms)
    n_orbits = int(orbit.max()) + 1
    oracle = _cg_orbit_sums_oracle(scen, orbit.tolist())
    sums = polytope._concat(list(_cg_map.orbit_sums(scen, orbit, n_orbits)))
    assert _pairs(sums) == oracle
    t0, rows = polytope._cg_rows(scen, orbit, n_orbits)
    assert t0.tolist() == [oracle[0][0].get(o, 0) for o in range(n_orbits)]
    assert _pairs(rows) == _collapse_oracle(oracle[1:], list(range(n_orbits)))
    assert len(rows) < len(oracle) - 1


_N_RESPONDERS, _N_PAIRS = len(polytope._RESPONDERS), len(polytope._PAIRS)


def _tobl_var(layout, bip_idx, direction, h_idx, pair_idx):
    """The column of a TOBL weight variable: after the table entries, by
    bipartition, then direction, then responder, then one-way pair."""
    block = 2 * bip_idx + direction
    return layout.n_table + (block * _N_RESPONDERS + h_idx) * _N_PAIRS + pair_idx


def _tobl_rows_oracle(layout):
    """The TOBL rows one ``(coeffs, rhs)`` pair at a time: normalization;
    per bipartition and direction, mixture minus table entry; per
    bipartition and responder, forward minus backward weight."""
    na = layout.na
    rows = [({x * na + a: 1 for a in range(na)}, 1) for x in range(layout.scen.n_inputs)]
    for bip_idx in range(3):
        for direction in (0, 1):
            mix = [{t: -1} for t in range(layout.n_table)]
            for h_idx in range(_N_RESPONDERS):
                for pair_idx in range(_N_PAIRS):
                    var = _tobl_var(layout, bip_idx, direction, h_idx, pair_idx)
                    for t in layout.supports[bip_idx, direction, h_idx, pair_idx].tolist():
                        mix[t][var] = 1
            rows += [(coeffs, 0) for coeffs in mix]
        for h_idx in range(_N_RESPONDERS):
            coeffs = {}
            for pair_idx in range(_N_PAIRS):
                coeffs[_tobl_var(layout, bip_idx, 0, h_idx, pair_idx)] = 1
                coeffs[_tobl_var(layout, bip_idx, 1, h_idx, pair_idx)] = -1
            rows.append((coeffs, 0))
    return rows


def test_tobl_rows_and_collapse_match_fraction_oracle():
    e = gb.gyni_sum_expression(3)
    layout = polytope._ToblLayout(e.scenario)
    rows = layout.rows()
    oracle = _tobl_rows_oracle(layout)
    assert _pairs(rows) == oracle
    perms = [layout.variable_permutation(sym) for sym in e.party_symmetries]
    assert perms and all(polytope._rows_invariant_under(rows, p) for p in perms)
    swap = list(range(layout.n_vars))
    swap[0], swap[layout.n_table - 1] = layout.n_table - 1, 0
    assert not polytope._rows_invariant_under(rows, swap)
    orbit = polytope._orbits_of_permutations(layout.n_vars, perms)
    assert orbit.tolist() == _orbits_oracle(layout.n_vars, perms)
    assert _pairs(polytope._collapse_rows(rows, orbit)) == _collapse_oracle(oracle, orbit.tolist())


def _ns_identity(scenario):
    """The Collins-Gisin rows on identity orbits as built (every coordinate
    but the constant) and as the LP keeps them."""
    n = scenario.table_size
    orbit = polytope._orbits_of_permutations(n, [])
    assert orbit.tolist() == list(range(n))
    sums = polytope._concat(list(_cg_map.orbit_sums(scenario, orbit, n)))
    return polytope._select(sums, np.arange(1, len(sums))), polytope._cg_rows(scenario, orbit, n)[1]


def _tobl_identity():
    layout = polytope._ToblLayout(gb.binary_scenario(3))
    rows = layout.rows()
    return rows, polytope._collapse_rows(rows, polytope._orbits_of_permutations(layout.n_vars, []))


@pytest.mark.parametrize(
    "model, n_rows",
    [
        (lambda: _ns_identity(upb.four_partite_tight_inequality().scenario), 107),
        (lambda: _ns_identity(gb.binary_scenario(3)), 26),
        (lambda: _ns_identity(gb.binary_scenario(4)), 80),
        (lambda: _ns_identity(gb.binary_scenario(5)), 242),
        (_tobl_identity, 404),
    ],
    ids=["four-partite", "binary3", "binary4", "binary5", "tobl"],
)
def test_collapse_on_identity_orbits_returns_the_rows(model, n_rows):
    """With no permutations every variable is its own orbit, and no row of
    the uncollapsed models repeats another up to a factor: the LP gets the
    Collins-Gisin rows (one per coordinate but the constant) and the TOBL
    rows as built, row, column, value and right-hand side arrays equal,
    dtype included."""
    built, kept = model()
    assert len(built) == n_rows
    for field in dataclasses.fields(lp.Rows):
        a, b = getattr(kept, field.name), getattr(built, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


def test_collapse_rows_keeps_first_of_proportional_rows():
    """With x0 ~ x2 and x1 ~ x3: row 1 is row 0 negated, row 3 is row 2
    halved, row 4 vanishes with a zero right-hand side.  Rows 0 and 2 are
    kept as they stand; a vanished row with a nonzero right-hand side
    raises."""
    rows = lp.Rows(
        row=np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4]),
        col=np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 2]),
        val=np.array([-1, 1, 1, -1, 2, 2, 1, 1, 1, -1]),
        rhs=np.array([0, 0, 2, 1, 0]),
    )
    orbit = np.array([0, 1, 0, 1])
    kept = [({0: -1, 1: 1}, 0), ({0: 2, 1: 2}, 2)]
    assert _pairs(polytope._collapse_rows(rows, orbit)) == kept
    with pytest.raises(lp.LPError, match="inconsistent collapsed row"):
        polytope._collapse_rows(dataclasses.replace(rows, rhs=np.array([0, 0, 2, 1, 1])), orbit)


# ---------------------------------------------------------------------------
# membership


def test_deterministic_box_is_its_own_decomposition():
    s = gb.binary_scenario(2)
    strategies = gb.enumerate_deterministic_strategies(s)
    box = gb.box_from_strategy(s, strategies[5])
    res = gb.local_membership(box)
    assert res.is_local
    assert len(res.weights) == 1
    assert res.weights[0][1] == 1


def test_gyni3_ns_box_not_local(ns_optima):
    res = gb.local_membership(ns_optima[3].box)
    assert not res.is_local
    expr, bound, value = res.separating
    assert value > bound
    # the separating inequalities of one scenario share their keys
    again = gb.local_membership(ns_optima[3].box).separating[0]
    assert again.coeffs == expr.coeffs
    assert all(a is b for a, b in zip(again.coeffs, expr.coeffs))


def test_uniform_mixture_is_local():
    s = gb.binary_scenario(2)
    strategies = gb.enumerate_deterministic_strategies(s)
    boxes = [gb.box_from_strategy(s, st) for st in strategies]
    w = F(1, len(boxes))
    mixed = gb.mix_boxes(boxes, [w] * len(boxes))
    assert gb.local_membership(mixed).is_local


def test_separating_inequality_is_rechecked_on_every_vertex(ns_optima, monkeypatch):
    """A Farkas result whose bound a local vertex exceeds is refused: here
    the real certificate with its bound lowered by 1."""
    feasible_point = lp.feasible_point

    def lowered(rows, n):
        res = feasible_point(rows, n)
        farkas = res.farkas[:-1] + (res.farkas[-1] + 1,)
        return dataclasses.replace(res, farkas=farkas)

    monkeypatch.setattr(lp, "feasible_point", lowered)
    with pytest.raises(lp.LPError, match="separating inequality failed vertex recheck"):
        gb.local_membership(ns_optima[3].box)


@pytest.mark.parametrize(
    "scen", [gb.binary_scenario(3), Scenario((2, 3, 2), (3, 2, 2))], ids=["binary3", "mixed"]
)
def test_strategy_table_indices_match_strategy_entries(scen):
    strategies = core.enumerate_deterministic_strategies(scen)
    idx = polytope._strategy_table_indices(scen)
    assert idx.tolist() == [core.strategy_entries(scen, s) for s in strategies]
    # a vertex decomposes into itself, named as the enumeration names it
    res = gb.local_membership(gb.box_from_strategy(scen, strategies[-2]))
    assert res.weights == ((strategies[-2], 1),)


# ---------------------------------------------------------------------------
# TOBL


def test_tobl_sandwich(tobl_result):
    e = gb.gyni_sum_expression(3)
    classical = gb.classical_max(e).value
    ns = gb.ns_max(e).value
    assert classical == 1
    assert ns == F(4, 3)
    assert classical <= tobl_result.value <= ns
    assert tobl_result.value == F(7, 6)


def test_tobl_box_is_nonsignaling(tobl_result):
    assert gb.is_nonsignaling(tobl_result.box).is_nonsignaling


def test_tobl_postselected_box_is_local(tobl_result):
    # time-ordered bilocal boxes collapse to local ones under postselection
    box = tobl_result.box
    reduced = gb.postselect(box, 2, 0, 0)
    assert gb.local_membership(reduced).is_local


def test_tobl_model_weights_normalized(tobl_result):
    for bip, triples in tobl_result.model.items():
        total = sum((w for _, w in triples), F(0))
        assert total == 1
        assert all(w > 0 for _, w in triples)


def test_tobl_model_shares_equal_entries(tobl_result):
    """Equal weights, keys and (key, weight) entries are one object each."""
    entries = [e for triples in tobl_result.model.values() for e in triples]
    for objects in (entries, [key for key, _ in entries], [w for _, w in entries]):
        assert len(set(map(id, objects))) == len(set(objects)) < len(objects)


def test_tobl_recheck_rejects_a_tampered_optimum(monkeypatch):
    """Half the weight of a one-way pair in use moves to the next pair of the
    same bipartition, direction and responder: the responder marginals still
    agree, the mixture rows do not."""
    expr = gb.gyni_sum_expression(3)
    layout = polytope._ToblLayout(expr.scenario)
    solve = polytope._solve_collapsed

    def tampered(*args):
        value, solution = solve(*args)
        weights = np.array(solution[layout.n_table :], dtype=object).reshape(layout.shape)
        h, p = np.argwhere(weights[0, 0])[0]
        q = (p + 1) % len(polytope._PAIRS)
        moved = weights[0, 0, h, p] / 2
        weights[0, 0, h, p] -= moved
        weights[0, 0, h, q] += moved
        return value, solution[: layout.n_table] + weights.ravel().tolist()

    monkeypatch.setattr(polytope, "_solve_collapsed", tampered)
    with pytest.raises(lp.LPError, match="full-model recheck"):
        gb.tobl_max(expr)


def test_tobl_mixture_recheck_rejects_wrong_supports(monkeypatch):
    """Supports that disagree with the solved rows (one block's pairs rolled
    by one after the solve) fail the integer mixture recheck; the full-model
    recheck and the responder marginals still pass."""
    layouts = []
    init = polytope._ToblLayout.__init__

    def recording_init(self, scen):
        init(self, scen)
        layouts.append(self)

    solve = polytope._solve_collapsed

    def solve_then_roll(*args):
        out = solve(*args)
        (layout,) = layouts
        layout.supports[0, 0] = np.roll(layout.supports[0, 0], 1, axis=1)
        return out

    monkeypatch.setattr(polytope._ToblLayout, "__init__", recording_init)
    monkeypatch.setattr(polytope, "_solve_collapsed", solve_then_roll)
    with pytest.raises(lp.LPError, match="mixture recheck"):
        gb.tobl_max(gb.gyni_sum_expression(3))


def test_tobl_variable_permutation_maps_supports(binary3_relabelings):
    """Each weight variable goes to the block of the image lone party and
    the image leader, onto the permuted support, for all 384 relabelings;
    the map permutes all 1600 variables."""
    layout = polytope._ToblLayout(gb.binary_scenario(3))
    assert layout.n_vars == 1600
    supports = layout.supports.reshape(-1, layout.scen.n_inputs).tolist()

    def lone_and_leader(v):  # v counts weight variables, bipartition slowest
        bip_idx, direction = divmod(v // (_N_RESPONDERS * _N_PAIRS), 2)
        lone, j, k = polytope._BIPARTITIONS[bip_idx]
        return lone, (j, k)[direction]

    for sym in binary3_relabelings:
        table = sym.table_permutation(layout.scen)
        perm = layout.variable_permutation(sym)
        assert sorted(perm) == list(range(layout.n_vars))
        assert perm[: layout.n_table] == table
        for v, support in enumerate(supports):
            w = perm[layout.n_table + v] - layout.n_table
            assert sorted(supports[w]) == sorted(table[t] for t in support)
            # image party p holds the data of party party_perm[p]
            assert tuple(sym.party_perm[p] for p in lone_and_leader(w)) == lone_and_leader(v)


def _component_entries(layout, bip_idx, direction, h, f, g):
    """Table indices where the deterministic component puts mass 1, one per
    input tuple, encoded one tuple at a time."""
    i, j, k = polytope._BIPARTITIONS[bip_idx]
    scen = layout.scen
    out = []
    for xs in scen.input_tuples():
        aa = [0, 0, 0]
        aa[i] = h[xs[i]]
        if direction == 0:
            aa[j] = f[xs[j]]
            aa[k] = g[2 * xs[j] + xs[k]]
        else:
            aa[k] = f[xs[k]]
            aa[j] = g[2 * xs[k] + xs[j]]
        out.append(scen.encode_input(xs) * layout.na + scen.encode_outcome(tuple(aa)))
    return tuple(out)


def test_tobl_supports_match_encoded_components():
    """The strided supports and the variable lookup equal the ones built by
    encoding every input and outcome tuple of every component."""
    layout = polytope._ToblLayout(gb.binary_scenario(3))
    supports = [
        _component_entries(layout, bip_idx, direction, h, f, g)
        for bip_idx in range(3)
        for direction in (0, 1)
        for h in polytope._RESPONDERS
        for f, g in polytope._PAIRS
    ]
    assert layout.supports.shape == layout.shape + (layout.scen.n_inputs,)
    assert list(map(tuple, layout.supports.reshape(len(supports), -1).tolist())) == supports
    assert len(supports) == 1536
    for bip_idx, direction, h_idx, pair_idx in itertools.product(
        range(3), (0, 1), range(_N_RESPONDERS), range(_N_PAIRS)
    ):
        var = _tobl_var(layout, bip_idx, direction, h_idx, pair_idx)
        support = supports[var - layout.n_table]
        assert layout.var_of[(bip_idx, direction, support)] == var
    assert len(layout.var_of) == len(supports)


def test_tobl_rejects_wrong_scenario():
    e = gb.gyni_sum_expression(4)
    with pytest.raises(ValueError):
        gb.tobl_max(e)


# ---------------------------------------------------------------------------
# dimension and rank


@pytest.mark.parametrize(
    "scenario",
    [
        Scenario((1,), (2,)),
        gb.binary_scenario(2),
        gb.binary_scenario(3),
        Scenario((2, 2), (2, 3)),
        Scenario((2, 2, 2), (2, 2, 3)),
        Scenario((2, 2, 2, 3), (2, 2, 2, 2)),
        Scenario((2, 2), (1, 3)),  # a party with a single outcome
        Scenario((1, 2), (3, 2)),  # a party with a single input
    ],
)
def test_polytope_dimension_matches_oracle(scenario):
    """The closed form against the exact affine rank of every vertex."""
    oracle = affine_rank_of_strategies(scenario, np.arange(scenario.strategy_count()))
    assert gb.polytope_dimension(scenario) == oracle


def test_dimension_examples():
    assert gb.polytope_dimension(gb.binary_scenario(3)) == 26
    assert gb.polytope_dimension(Scenario((1,), (2,))) == 1
    assert gb.polytope_dimension(Scenario((2, 2, 2, 3), (2, 2, 2, 2))) == 107


def _full_coordinates_of_strategies(scenario, strategies):
    """Dense 0/1 full-table rows of strategy objects, one input tuple at a
    time: the reference that the subset-marginal ranks are tested against."""
    na = scenario.n_outputs
    out = np.zeros((len(strategies), scenario.table_size), dtype=np.int64)
    for r, s in enumerate(strategies):
        for xs in scenario.input_tuples():
            x_idx = scenario.encode_input(xs)
            a_idx = scenario.encode_outcome(s.outcome_for(xs))
            out[r, x_idx * na + a_idx] = 1
    return out


@pytest.mark.parametrize(
    "scenario",
    [gb.binary_scenario(2), Scenario((2, 2), (2, 3)), gb.binary_scenario(3)],
)
def test_affine_rank_collapsed_equals_full_coordinates(scenario):
    """The subset-marginal coordinates are an affine bijection on the span of
    the deterministic vertices, so ranks agree with raw-table ranks."""
    rng = random.Random(3)
    strategies = gb.enumerate_deterministic_strategies(scenario)
    for trial in range(5):
        subset = rng.sample(range(len(strategies)), rng.randint(2, min(30, len(strategies))))
        full = _full_coordinates_of_strategies(scenario, [strategies[k] for k in subset])
        assert affine_rank_of_strategies(scenario, subset) == _rank.affine_rank(full)


def _cg_block_matrices_by_loop(scenario, strategies):
    """Subset-marginal coordinates filled one (party, input, outcome) column
    at a time from each strategy's response tuples: the reference for the
    gathered blocks."""
    mats = None
    for p, (m, d) in enumerate(zip(scenario.inputs, scenario.outputs)):
        pairs = [(x, a) for x in range(m) for a in range(d - 1)]
        block = np.empty((len(strategies), 1 + len(pairs)), dtype=np.int64)
        block[:, 0] = 1
        for kk, (x, a) in enumerate(pairs):
            block[:, 1 + kk] = [1 if s.responses[p][x] == a else 0 for s in strategies]
        if mats is None:
            mats = block
        else:
            mats = np.einsum("bi,bj->bij", mats, block).reshape(len(strategies), -1)
    return mats


def test_cg_coordinates_match_the_column_loop():
    """On the 6144 saturating vertices of the gen_shifts(3) inequality and on
    every vertex of a mixed scenario, the coordinates gathered from
    enumeration positions equal the column loop's over strategy objects."""
    e = gb.bell_from_set(upb.gen_shifts(3))
    den, blocks = polytope._strategy_values(e)
    target = e.classical_bound * den
    hits = np.concatenate([s + np.flatnonzero(v == target) for s, v in blocks])
    mixed = Scenario((2, 3, 2), (3, 2, 2))
    cases = [(e.scenario, hits), (mixed, np.arange(mixed.strategy_count()))]
    for scen, positions in cases:
        strategies = [core.strategy_at(scen, k) for k in positions.tolist()]
        expect = _cg_block_matrices_by_loop(scen, strategies)
        assert expect.shape == (len(strategies), polytope.cg_dimension(scen))
        assert np.array_equal(polytope.cg_coordinates_of_strategies(scen, positions), expect)
    assert len(hits) == 6144


def test_facet_gyni3(gyni_games):
    e = gyni_games[3].expression
    report = gb.facet_check(e, e.classical_bound)
    assert report.is_tight
    assert report.affine_rank == 25
    assert report.polytope_dimension == 26
    assert report.bound_attained
    assert report.saturating_vertex_count == 32


def test_facet_gyni3_rank_on_python_integer_rows(gyni_games, monkeypatch):
    """With the int64 guard at 1 the saturating set is reduced on
    Python-integer rows; the facet rank must still be 25."""
    e = gyni_games[3].expression
    values = _strategy_values(e)
    hits = [i for i, v in enumerate(values) if v == e.classical_bound]
    points = polytope.cg_coordinates_of_strategies(e.scenario, hits)
    monkeypatch.setattr(_rank, "_INT64_SAFE", 1)
    acc = _rank.ExactRankAccumulator(points.shape[1])
    for row in points[1:] - points[0]:
        acc.add_row(row)
    assert acc.big and acc.rank == 25
    report = gb.facet_check(e, e.classical_bound)
    assert (report.is_tight, report.affine_rank) == (True, 25)


def test_facet_rejects_wrong_bound(gyni_games):
    e = gyni_games[3].expression
    with pytest.raises(ValueError):
        gb.facet_check(e, F(1, 3))


def test_facet_report_json(gyni_games):
    e = gyni_games[3].expression
    obj = gb.facet_check(e, e.classical_bound).to_json()
    assert set(obj) == {
        "is_tight",
        "saturating_vertex_count",
        "affine_rank",
        "polytope_dimension",
        "bound_attained",
    }


def test_local_polytope_vertex_count():
    scen = gb.binary_scenario(2)
    strategies = gb.enumerate_deterministic_strategies(scen)
    assert len(strategies) == 16
    assert len({tuple(gb.box_from_strategy(scen, s).exact_table()) for s in strategies}) == 16
