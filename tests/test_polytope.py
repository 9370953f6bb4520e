import dataclasses
import gc
import itertools
import math
import random
import tracemalloc
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

from conftest import requires_slow

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


def _strategy_values(expression):
    """Every strategy's value from ``polytope._strategy_values``, as
    Fractions in enumeration order."""
    den, blocks = polytope._strategy_values(expression)
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
    monkeypatch.setattr(config, "STRATEGY_CAP", 63)
    e = gyni_games[3].expression  # 64 strategies
    for call in (
        lambda: polytope._strategy_values(e),
        lambda: gb.classical_max(e),
        lambda: gb.facet_check(e, e.classical_bound),
    ):
        with pytest.raises(ValueError, match="cap exceeded: 64 > 63"):
            call()


def test_strategy_cap_read_on_each_call(gyni_games, monkeypatch):
    """The limit is read when the count is checked, not bound at import."""
    e = gyni_games[3].expression  # 64 strategies
    monkeypatch.setattr(config, "STRATEGY_CAP", 63)
    with pytest.raises(ValueError, match="cap exceeded: 64 > 63"):
        gb.classical_max(e)
    monkeypatch.setattr(config, "STRATEGY_CAP", 64)
    assert gb.classical_max(e).value == e.classical_bound


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


def test_tobl_max_rejects_false_symmetry(monkeypatch):
    """A declared symmetry that does not fix the expression raises, as in
    ns_max, before any model is built; one whose variable permutation fails
    the model checks raises LPError instead of being dropped."""
    e = gyni.gyni_sum_expression(3)
    bogus = gb.Symmetry((1, 0, 2), ((0, 1),) * 3, ((0, 1),) * 3)

    def never(*args, **kwargs):
        raise AssertionError("TOBL model built for a false symmetry")

    with monkeypatch.context() as m:
        m.setattr(polytope, "_ToblLayout", never)
        with pytest.raises(ValueError, match="declared symmetry does not fix the expression"):
            gb.tobl_max(dataclasses.replace(e, party_symmetries=(bogus,)))
    monkeypatch.setattr(polytope, "_rows_invariant_under", lambda *args: False)
    with pytest.raises(lp.LPError, match="does not fix the TOBL model"):
        gb.tobl_max(e)


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


@requires_slow
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ns_max_matches_full_probability_lp_on_binary_n5(seed):
    """Seeded random binary N = 5 expressions without symmetry: the
    Collins-Gisin LP gives the value of the LP over the 1024 table entries,
    which takes 6-10 s each."""
    e = _random_expression(gb.binary_scenario(5), random.Random(seed), 12)
    assert gb.ns_max(e).value == ns_full_lp.ns_lp_max(e)[0]


def test_ns_max_on_binary_n5_without_symmetry_takes_the_float_basis(monkeypatch):
    """The 242-row, 1024-column Collins-Gisin LP of a seeded random
    expression on binary N = 5 with no symmetry: the float pass's basis
    verifies, so no exact pivot runs (the cold exact simplex takes 10-20 s
    on it and gives the same value).  The exact lifting solves its basic
    values and duals in one step."""
    e = _random_expression(gb.binary_scenario(5), random.Random(2), 12)
    results, solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: results.append(solve(problem)) or results[-1])
    assert gb.ns_max(e).value == F(9451, 231)
    (res,) = results
    assert (len(res.dual), len(res.solution), res.pivots) == (242, 1024, 0)


def test_ns_max_on_binary_n5_seeds_certifies_guided(monkeypatch):
    """Seeds 1..12 of the random binary N = 5 expressions without symmetry:
    each float basis verifies, so no exact pivot runs.  The cold path is
    barred, so a miss fails here at once instead of taking 10-20 s.  Seeds 4,
    9 and 10 missed while the candidate rounded float values with the
    residual taken in one float sum; the exact lifting has no such bound."""

    def cold(std):
        raise AssertionError("the float basis did not verify")

    monkeypatch.setattr(lp, "_Simplex", cold)
    results, solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: results.append(solve(problem)) or results[-1])
    for seed in range(1, 13):
        e = _random_expression(gb.binary_scenario(5), random.Random(seed), 12)
        value = gb.ns_max(e).value
        assert (results[-1].status, results[-1].pivots) == ("optimal", 0)
        assert gb.classical_max(e).value <= value


@requires_slow
def test_ns_max_on_binary_n6_without_symmetry_certifies_guided(monkeypatch):
    """The 728-row, 4096-column Collins-Gisin LP of a seeded random
    expression on binary N = 6 with no symmetry: the float pass stops at an
    optimal basis (7-18 s), whose basic values have denominators near
    10**27, and the exact lifting solves it, so no exact pivot runs."""

    def cold(std):
        raise AssertionError("the float basis did not verify")

    monkeypatch.setattr(lp, "_Simplex", cold)
    e = _random_expression(gb.binary_scenario(6), random.Random(1), 12)
    results, solve = [], lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: results.append(solve(problem)) or results[-1])
    assert gb.ns_max(e).value == F(688927, 9240)
    (res,) = results
    assert (len(res.dual), len(res.solution), res.pivots) == (728, 4096, 0)


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


def _benchmark_queries():
    """The no-signaling queries of the benchmark's ``ns-symmetric`` workload
    (parity GYNI N = 3..7, uniform GYNI N = 3, 4) and the 20 random-promise
    N = 3 games of its ``lp-raw`` workload at seed 1: 6 models with
    symmetries (uniform N = 3 declares the symmetries of parity N = 3) and
    one, binary N = 3 without, that the 20 games share."""
    rng = random.Random(1)
    return (
        [gyni.gyni_expression(n).expression for n in range(3, 8)]
        + [gyni.gyni_expression(n, gyni.uniform_promise(n)).expression for n in (3, 4)]
        + [_random_promise_game(rng) for _ in range(20)]
    )


def test_ns_max_warm_calls_equal_cold_calls():
    """A call on a kept model gives the value and box of a call that built
    it, for every query, the games sharing one model included."""
    queries = _benchmark_queries()
    cold = []
    for e in queries:
        polytope._ns_model.cache_clear()
        cold.append(gb.ns_max(e))
    polytope._ns_model.cache_clear()
    first = [gb.ns_max(e) for e in queries]
    assert polytope._ns_model.cache_info().misses == 7 <= polytope._NS_MODELS_KEPT
    warm = [gb.ns_max(e) for e in queries]
    assert polytope._ns_model.cache_info().misses == 7
    for c, f, w in zip(cold, first, warm):
        assert c.value == f.value == w.value and c.box == f.box == w.box


def test_ns_max_checks_invariance_on_a_kept_model():
    """A kept model for the scenario and symmetries does not spare the
    invariance check of an expression that a declared symmetry moves."""
    e = gyni.gyni_expression(4).expression
    gb.ns_max(e)
    (key, c), *rest = e.coeffs.items()
    moved = dataclasses.replace(e, coeffs={key: 2 * c, **dict(rest)})
    assert moved.party_symmetries == e.party_symmetries
    assert polytope._ns_model.cache_info().currsize == 1
    with pytest.raises(ValueError, match="declared symmetry does not fix the expression"):
        gb.ns_max(moved)


def test_ns_max_size_guard_on_a_kept_model(monkeypatch):
    """The size guard reads the bound on every call: lowered after the
    model is kept, it refuses the next call, which builds nothing."""
    e4 = gyni.gyni_expression(4).expression
    assert gb.ns_max(e4).value == F(1, 6)

    def never(*args):
        raise AssertionError("model built again")

    monkeypatch.setattr(polytope, "_orbits_of_permutations", never)
    monkeypatch.setattr(_cg_map, "orbit_sums", never)
    monkeypatch.setattr(config, "NS_LP_MAX_ORBIT_SUMS", 81 * 32 - 1)
    hits = polytope._ns_model.cache_info().hits
    with pytest.raises(ValueError, match="too large: 81 coordinates x 32 orbits"):
        gb.ns_max(e4)
    assert polytope._ns_model.cache_info().hits == hits + 1
    monkeypatch.setattr(config, "NS_LP_MAX_ORBIT_SUMS", 81 * 32)
    assert gb.ns_max(e4).value == F(1, 6)


@pytest.mark.parametrize("symmetric", [True, False])
def test_kept_ns_model_is_read_only(symmetric):
    """Every array of a kept model refuses writes, and the orbit labels are
    in the smallest unsigned dtype that holds them."""
    e = gyni.gyni_expression(4).expression
    if not symmetric:
        e = dataclasses.replace(e, party_symmetries=())
    gb.ns_max(e)
    model = polytope._ns_model(e.scenario, e.party_symmetries)
    assert model.orbit.dtype == np.min_scalar_type(model.n_orbits - 1) == np.uint8
    rows = model.rows
    for a in (model.orbit, model.t0, rows.row, rows.col, rows.val, rows.rhs):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_ns_model_cache_drops_the_oldest_model():
    """Past ``_NS_MODELS_KEPT`` models the least recently used one goes:
    asked again it is built again, while the others are still kept."""
    rng = random.Random(5)
    scenarios = [Scenario((2, m), (2, d)) for m in (1, 2, 3) for d in (1, 2, 3)]
    exprs = [_random_expression(s, rng, 9) for s in scenarios[: polytope._NS_MODELS_KEPT + 1]]
    for e in exprs:
        gb.ns_max(e)
    info = polytope._ns_model.cache_info()
    assert info.currsize == polytope._NS_MODELS_KEPT and info.misses == len(exprs)
    gb.ns_max(exprs[1])
    assert polytope._ns_model.cache_info().misses == len(exprs)
    gb.ns_max(exprs[0])
    assert polytope._ns_model.cache_info().misses == len(exprs) + 1


def test_ns_max_builds_tables_and_numerators_once(monkeypatch):
    """At GYNI-7 a call that builds the model makes each declared
    symmetry's index tables once, shared by the invariance check and the
    orbit search, and a call on the kept model makes none; neither call
    converts the optimal box to per-entry numerators: the no-signaling
    recheck gathers the per-value numerators through the box's index."""
    e = gyni.gyni_expression(7).expression
    core._index_tables.cache_clear()  # the constructor's invariance checks made them
    tables, numerators = [], []
    index_tables, to_numerators = core.Symmetry.index_tables, core.Box._numerators
    monkeypatch.setattr(
        core.Symmetry, "index_tables", lambda s, scen: tables.append(s) or index_tables(s, scen)
    )
    monkeypatch.setattr(core.Box, "_numerators", lambda b: numerators.append(b) or to_numerators(b))
    gb.ns_max(e)
    assert sorted(tables, key=e.party_symmetries.index) == list(e.party_symmetries)
    assert numerators == []
    tables.clear()
    gb.ns_max(e)
    assert tables == [] and numerators == []


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


def _orbit_sum_rows(scenario, orbit, n_orbits):
    """Every dense block of ``_cg_map.orbit_sums``, one after another, as
    one ``lp.Rows`` with zero right-hand sides."""
    dense = np.concatenate(list(_cg_map.orbit_sums(scenario, orbit, n_orbits)))
    row, col = np.nonzero(dense)
    return lp.Rows(row, col, dense[row, col], np.zeros(len(dense), dtype=np.int64))


def _dense_map(scenario):
    """The Collins-Gisin map T as a dense (table entries x coordinates)
    integer matrix, read off the orbit sums on identity orbits."""
    n = scenario.table_size
    sums = _orbit_sum_rows(scenario, np.arange(n), n)
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


@pytest.mark.parametrize("n", range(3, 8))
def test_collapse_rows_match_fraction_oracle_gyni(n):
    """Orbits by label propagation equal a graph search's; the orbit sums of
    the Collins-Gisin map equal the per-entry oracle's; the constant row is
    t0 and the LP keeps the other rows a row-by-row Fraction dedupe keeps.
    N = 7 builds its orbit sums in 9 blocks, so rows equal across blocks
    are dropped too."""
    e = gyni.gyni_expression(n).expression
    scen = e.scenario
    perms = [sym.table_permutation(scen) for sym in e.party_symmetries]
    orbit = polytope._orbits_of_permutations(scen.table_size, perms)
    assert orbit.tolist() == _orbits_oracle(scen.table_size, perms)
    n_orbits = int(orbit.max()) + 1
    oracle = _cg_orbit_sums_oracle(scen, orbit.tolist())
    sums = _orbit_sum_rows(scen, orbit, n_orbits)
    assert _pairs(sums) == oracle
    t0, rows = polytope._cg_rows(scen, orbit, n_orbits)
    assert t0.tolist() == [oracle[0][0].get(o, 0) for o in range(n_orbits)]
    assert _pairs(rows) == ns_full_lp.collapse(oracle[1:], list(range(n_orbits)))
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
    keys = set(polytope._row_keys(rows))
    assert perms and all(polytope._rows_invariant_under(rows, p, keys) for p in perms)
    swap = list(range(layout.n_vars))
    swap[0], swap[layout.n_table - 1] = layout.n_table - 1, 0
    assert not polytope._rows_invariant_under(rows, swap, keys)
    orbit = polytope._orbits_of_permutations(layout.n_vars, perms)
    assert orbit.tolist() == _orbits_oracle(layout.n_vars, perms)
    posed = _posed_rows(layout.n_vars, rows, perms)
    assert _pairs(posed) == ns_full_lp.collapse(oracle, orbit.tolist())


class _Posed(Exception):
    pass


def _posed_rows(n, rows, perms):
    """The rows ``polytope._solve_collapsed`` poses to the LP for the
    permutations ``perms`` of ``n`` variables, the solve stopped there."""

    def stop(objective, rows, den):
        raise _Posed(rows)

    with pytest.MonkeyPatch.context() as m, pytest.raises(_Posed) as posed:
        m.setattr(lp, "make_problem", stop)
        polytope._solve_collapsed(np.zeros(n, dtype=object), 1, rows, perms)
    return posed.value.args[0]


def _ns_identity(scenario):
    """The Collins-Gisin rows on identity orbits as built (every coordinate
    but the constant) and as the LP keeps them."""
    n = scenario.table_size
    orbit = polytope._orbits_of_permutations(n, [])
    assert orbit.tolist() == list(range(n))
    sums = _orbit_sum_rows(scenario, orbit, n)
    at = sums.row > 0
    built = lp.Rows(sums.row[at] - 1, sums.col[at], sums.val[at], sums.rhs[1:])
    return built, polytope._cg_rows(scenario, orbit, n)[1]


def _tobl_identity():
    layout = polytope._ToblLayout(gb.binary_scenario(3))
    rows = layout.rows()
    return rows, _posed_rows(layout.n_vars, rows, [])


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
    the uncollapsed models is empty or repeats another up to a factor (the
    reference collapse keeps them all): the LP gets the Collins-Gisin rows
    (one per coordinate but the constant) and the TOBL rows as built, row,
    column, value and right-hand side arrays equal, dtype included."""
    built, kept = model()
    assert len(built) == n_rows
    pairs = _pairs(built)
    assert ns_full_lp.collapse(pairs, range(int(built.col.max()) + 1)) == pairs
    assert kept.rhs_den == built.rhs_den == 1
    for field in ("row", "col", "val", "rhs"):
        a, b = getattr(kept, field), getattr(built, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def test_identity_orbits_key_no_row(monkeypatch):
    """With no symmetry every variable is its own orbit, and no row is
    keyed or compared: with ``_new_rows`` barred, ``ns_max`` still solves a
    random N = 3 game (the full-probability LP's value) and the four-partite
    inequality, and ``_solve_collapsed`` with no permutations still solves
    the uncollapsed TOBL LP of the GYNI-3 sum form (the paper's 7/6)."""
    game = _random_expression(gb.binary_scenario(3), random.Random(4), 12)
    four = upb.four_partite_tight_inequality()
    assert not game.party_symmetries and not four.party_symmetries
    expected = [ns_full_lp.ns_lp_max(game)[0], gb.ns_max(four).value]
    polytope._ns_model.cache_clear()  # so the barred calls build their models

    def barred(block, seen):
        raise AssertionError("rows keyed on identity orbits")

    monkeypatch.setattr(polytope, "_new_rows", barred)
    assert [gb.ns_max(game).value, gb.ns_max(four).value] == expected
    layout = polytope._ToblLayout(gb.binary_scenario(3))
    coeffs = polytope._table_objective(gb.gyni_sum_expression(3))
    objective = np.zeros(layout.n_vars, dtype=object)
    objective[list(coeffs)], den = core.integer_numerators(coeffs.values())
    res, orbit = polytope._solve_collapsed(objective, den, layout.rows(), [])
    assert (res.status, res.value, len(res.solution)) == ("optimal", F(7, 6), layout.n_vars)
    assert orbit.tolist() == list(range(layout.n_vars))


def test_collapse_rows_keeps_first_of_proportional_rows():
    """With x0 ~ x2 and x1 ~ x3: row 1 is row 0 negated, row 3 is row 2
    halved, row 4 vanishes with a zero right-hand side.  Rows 0 and 2 are
    posed as they stand; a vanished row with a nonzero right-hand side
    raises."""
    rows = lp.Rows(
        row=np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 4]),
        col=np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 2]),
        val=np.array([-1, 1, 1, -1, 2, 2, 1, 1, 1, -1]),
        rhs=np.array([0, 0, 2, 1, 0]),
    )
    perms = [[2, 3, 0, 1]]
    kept = [({0: -1, 1: 1}, 0), ({0: 2, 1: 2}, 2)]
    assert _pairs(_posed_rows(4, rows, perms)) == kept
    with pytest.raises(lp.LPError, match="inconsistent collapsed row"):
        _posed_rows(4, dataclasses.replace(rows, rhs=np.array([0, 0, 2, 1, 1])), perms)


def _from_pairs(pairs):
    """An ``lp.Rows`` of int64 arrays from ``({column: coefficient}, rhs)``
    pairs, each row's columns ascending."""
    entries = [(i, j, v) for i, (coeffs, _) in enumerate(pairs) for j, v in sorted(coeffs.items())]
    row, col, val = (np.array(a, dtype=np.int64) for a in zip(*entries))
    return lp.Rows(row, col, val, np.array([b for _, b in pairs], dtype=np.int64))


def test_new_rows_tell_rows_apart_by_rhs():
    """Dense rows, the right-hand side last: equal coefficients with
    right-hand sides 1 and 2 are distinct rows, and so are x0 = 2 and
    2 x0 + 3 x1 = 1.  Rows -2 times an earlier one, right-hand side
    included, are dropped, also when the earlier one came in a previous
    block; a zero row is not kept."""
    block = np.array([[1, 1, 1], [1, 1, 2], [1, 0, 2], [2, 3, 1], [-2, -2, -4], [0, 0, 0]])
    seen = set()
    assert polytope._new_rows(block, seen) == [0, 1, 2, 3]
    assert polytope._new_rows(np.array([[-2, 0, -4], [0, 1, 1]]), seen) == [1]


def _first_of_each_ray(block):
    """Oracle: the ids of the nonzero rows of ``block`` that equal no
    earlier row up to a nonzero factor, from each row divided by its first
    nonzero entry in Fractions."""
    seen, keep = set(), []
    for i, row in enumerate(block.tolist()):
        lead = next((v for v in row if v), None)
        key = lead and tuple(F(v, lead) for v in row)
        if key and key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


@pytest.mark.parametrize("key_block", [1, 16, 64])
def test_new_rows_in_chunks_keep_the_same_ids(monkeypatch, key_block):
    """Normalized and keyed a chunk of rows at a time (1, 3 and 12 rows of
    five entries here), ``_new_rows`` keeps the ids it keeps on the whole
    block, in the same order, with rows repeated up to a factor within a
    chunk, across chunks and across blocks; the oracle divides each row by
    its first entry in Fractions."""
    rng = np.random.default_rng(3)
    base = rng.integers(-2, 3, size=(12, 5))
    blocks = []
    for _ in range(3):
        zero, fresh = np.zeros((3, 5), dtype=np.int64), rng.integers(-2, 3, size=(9, 5))
        block = np.concatenate([base, -2 * base[::-1], zero, fresh])
        blocks.append(block[rng.permutation(len(block))])
    whole_seen = set()
    whole = [polytope._new_rows(block, whole_seen) for block in blocks]
    assert whole[0] == _first_of_each_ray(blocks[0])
    monkeypatch.setattr(polytope, "_KEY_BLOCK", key_block)
    seen = set()
    assert [polytope._new_rows(block, seen) for block in blocks] == whole
    assert seen == whole_seen


def test_rows_invariant_under_a_permutation_that_negates_a_row():
    """Swapping x0 and x1 maps x0 - x1 = 0 onto its negation, the same
    constraint, so the rows are invariant; x0 - x1 = 1 maps onto
    x1 - x0 = 1, which is not among the rows."""
    rows = _from_pairs([({0: 1, 1: -1}, 0), ({2: 1}, 1)])
    keys = set(polytope._row_keys(rows))
    assert polytope._rows_invariant_under(rows, [1, 0, 2], keys)
    rows = _from_pairs([({0: 1, 1: -1}, 1), ({2: 1}, 1)])
    keys = set(polytope._row_keys(rows))
    assert not polytope._rows_invariant_under(rows, [1, 0, 2], keys)
    assert polytope._rows_invariant_under(rows, [0, 1, 2], keys)


@pytest.mark.parametrize("field", ["col", "val", "rhs"])
def test_row_keys_refuse_object_arrays(field):
    """The keys are the bytes of int64 arrays; an object array's bytes are
    pointers, so the row keys of the invariance check and of dense blocks
    raise instead of comparing them."""
    rows = _from_pairs([({0: 1, 1: 2}, 3), ({0: 2, 1: 4}, 6)])
    assert len(set(polytope._row_keys(rows))) == 1
    bad = dataclasses.replace(rows, **{field: getattr(rows, field).astype(object)})
    with pytest.raises(TypeError, match="object arrays"):
        list(polytope._row_keys(bad))
    if field != "col":
        with pytest.raises(TypeError, match="object arrays"):
            polytope._rows_invariant_under(bad, [1, 0], set())
    block = np.array([[1, 2, 3], [2, 4, 6]])
    assert polytope._new_rows(block, set()) == [0]
    with pytest.raises(TypeError, match="object arrays"):
        polytope._new_rows(block.astype(object), set())


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
        nums, den = res.farkas_ints
        return dataclasses.replace(res, farkas_ints=(nums[:-1] + (nums[-1] + den,), den))

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


def _eager_model(solution, layout):
    """The shared-weight model of an expanded TOBL solution, entry by entry
    in Fractions: per bipartition, for each responder h, forward pair p1 and
    backward pair p2 with both weights nonzero, the coupling weight
    fwd[h][p1] * bwd[h][p2] / sum(fwd[h])."""
    model = {}
    for bip_idx, (i, j, k) in enumerate(polytope._BIPARTITIONS):
        fwd, bwd = (
            [
                [solution[_tobl_var(layout, bip_idx, d, h, p)] for p in range(_N_PAIRS)]
                for h in range(_N_RESPONDERS)
            ]
            for d in (0, 1)
        )
        model[(i, (j, k))] = [
            ((polytope._RESPONDERS[h], polytope._PAIRS[p1], polytope._PAIRS[p2]),
             fwd[h][p1] * bwd[h][p2] / sum(fwd[h]))
            for h in range(_N_RESPONDERS)
            for p1 in range(_N_PAIRS) if fwd[h][p1]
            for p2 in range(_N_PAIRS) if bwd[h][p2]
        ]
    return model


def test_tobl_model_equals_the_eager_reference(monkeypatch):
    """The model read from the kept one-way weights equals the one built
    entry by entry from the expanded LP solution, in order."""
    expr = gb.gyni_sum_expression(3)
    solve, seen = polytope._solve_collapsed, []

    def recording(*args):
        res, orbit = solve(*args)
        seen.append([res.solution[o] for o in orbit.tolist()])
        return res, orbit

    monkeypatch.setattr(polytope, "_solve_collapsed", recording)
    result = gb.tobl_max(expr)
    (solution,) = seen
    reference = _eager_model(solution, polytope._ToblLayout(expr.scenario))
    assert result.model == reference
    assert sum(map(len, reference.values())) == 288


def test_tobl_model_is_built_once_on_first_read(monkeypatch):
    """tobl_max couples each bipartition once for its rechecks; the model is
    coupled again only when first read, and is the same object after."""
    couplings, calls = polytope._couplings, []
    monkeypatch.setattr(polytope, "_couplings", lambda *a: calls.append(a) or couplings(*a))
    result = gb.tobl_max(gb.gyni_sum_expression(3))
    assert len(calls) == 3
    model = result.model
    assert len(calls) == 6
    assert result.model is model and len(calls) == 6


def test_tobl_results_retain_little_until_the_model_is_read():
    """Twenty optima whose model was never read hold under 2 KB each: the
    one-way weights are kept as two small integer arrays."""
    expr = gb.gyni_sum_expression(3)
    gb.tobl_max(expr)  # module-level caches are filled by the first call
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [gb.tobl_max(expr) for _ in range(20)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(kept) < 2048
    assert all(len(r.model) == 3 for r in kept)


def test_tobl_recheck_rejects_a_tampered_optimum(monkeypatch):
    """Half the weight of a one-way pair in use moves to the next pair of the
    same bipartition, direction and responder: the responder marginals still
    agree, the mixture rows do not."""
    expr = gb.gyni_sum_expression(3)
    layout = polytope._ToblLayout(expr.scenario)
    solve = polytope._solve_collapsed

    def tampered(*args):
        # the expanded solution over twice its denominator, as the result
        # of an LP posed on identity orbits
        res, orbit = solve(*args)
        nums, den = res.solution_ints
        nums = 2 * np.array(nums, dtype=object)[orbit]
        weights = nums[layout.n_table :].reshape(layout.shape)
        h, p = np.argwhere(weights[0, 0])[0]
        q = (p + 1) % len(polytope._PAIRS)
        moved = weights[0, 0, h, p] // 2
        weights[0, 0, h, p] -= moved
        weights[0, 0, h, q] += moved
        solution = (tuple(nums.tolist()), 2 * den)
        return dataclasses.replace(res, solution_ints=solution), np.arange(layout.n_vars)

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


@pytest.mark.parametrize("guard", [None, 1], ids=["int64", "python-int"])
def test_tobl_rechecks_give_one_answer_on_both_paths(guard, monkeypatch, tobl_result, exact_dtypes):
    """With the int64 guard at its value every recheck of tobl_max runs in
    int64; with it set to 1 every one runs on Python integers, and the
    value, box and shared-weight model are the same."""
    if guard is not None:
        monkeypatch.setattr(polytope, "_INT64_SAFE", guard)
    result = gb.tobl_max(gb.gyni_sum_expression(3))
    assert set(exact_dtypes) == ({np.int64} if guard is None else {object})
    assert result.value == tobl_result.value and result.box == tobl_result.box
    assert result.model == tobl_result.model


@pytest.mark.parametrize("guard", [None, 1], ids=["int64", "python-int"])
def test_tobl_recheck_failures_on_both_paths(guard, monkeypatch, tobl_result, exact_dtypes):
    """The optimum's numerators pass both rechecks on either path.  One
    weight numerator moved to an unused pair of its block fails the
    full-model recheck; one moved to another responder unbalances the
    responder marginals, and mass moved between two entries of a table row
    breaks the mixtures, both caught by the coupling recheck."""
    layout = polytope._ToblLayout(gb.binary_scenario(3))
    rows, den = layout.rows(), tobl_result.den
    nums = np.zeros(layout.n_vars, dtype=object)
    nums[: layout.n_table] = [int(v * den) for v in tobl_result.box.exact_table()]
    nums[layout.n_table + tobl_result.one_way.astype(np.intp)] = tobl_result.numerators.tolist()
    if guard is not None:
        monkeypatch.setattr(polytope, "_INT64_SAFE", guard)

    def as_array(values):
        return np.array(values.tolist(), dtype=polytope._exact_dtype(max(values)))

    def changed(change):
        out = nums.copy()
        change(out[: layout.n_table], out[layout.n_table :].reshape(layout.shape))
        return as_array(out)

    polytope._check_tobl_rows(rows, as_array(nums), den)
    polytope._check_couplings(layout, as_array(nums))
    block = nums[layout.n_table :].reshape(layout.shape)[0, 0]
    h, p = np.argwhere(block)[0].tolist()
    q = int(np.flatnonzero(block[h] == 0)[0])

    def to_unused_pair(table, weights):
        weights[0, 0, h, q], weights[0, 0, h, p] = weights[0, 0, h, p], 0

    def to_other_responder(table, weights):
        weights[0, 0, (h + 1) % 4, p] += weights[0, 0, h, p]
        weights[0, 0, h, p] = 0

    def within_a_row(table, weights):
        t = int(np.flatnonzero(table)[0])
        u = t ^ 1  # the other outcome of the last party, in the same row
        table[u] += table[t]
        table[t] = 0

    with pytest.raises(lp.LPError, match="full-model recheck"):
        polytope._check_tobl_rows(rows, changed(to_unused_pair), den)
    with pytest.raises(lp.LPError, match="mismatched responder marginals"):
        polytope._check_couplings(layout, changed(to_other_responder))
    with pytest.raises(lp.LPError, match="mixture recheck"):
        polytope._check_couplings(layout, changed(within_a_row))
    assert set(exact_dtypes) == ({np.int64} if guard is None else {object})


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
        perm = layout.variable_permutation(sym).tolist()
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
    """The strided supports equal the ones built by encoding every input and
    outcome tuple of every component, and each block's sorted keys find
    every variable of the block by its support's outcome indices."""
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
    per_block = _N_RESPONDERS * _N_PAIRS
    assert layout.keys.shape == layout.order.shape == (3, 2, per_block)
    blocks = [[keys.tolist() for keys in per_bip] for per_bip in layout.keys]
    assert all(keys == sorted(set(keys)) for per_bip in blocks for keys in per_bip)
    for bip_idx, direction, h_idx, pair_idx in itertools.product(
        range(3), (0, 1), range(_N_RESPONDERS), range(_N_PAIRS)
    ):
        var = _tobl_var(layout, bip_idx, direction, h_idx, pair_idx)
        support = supports[var - layout.n_table]
        key = core.encode_tuple(
            tuple(t % layout.na for t in support), (layout.na,) * layout.scen.n_inputs
        )
        at = blocks[bip_idx][direction].index(key)
        first = layout.n_table + (2 * bip_idx + direction) * per_block
        assert first + int(layout.order[bip_idx, direction][at]) == var


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
