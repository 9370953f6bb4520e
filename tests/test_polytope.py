import dataclasses
import random
from fractions import Fraction

import pytest

import gynibell as gb
from gynibell import _rank, gyni, polytope, upb
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


def test_ns_max_rejects_false_symmetry():
    e = gyni.gyni_expression(3).expression
    bogus = gb.Symmetry((1, 0, 2), ((0, 1),) * 3, ((0, 1),) * 3)
    from dataclasses import replace

    with pytest.raises(ValueError):
        gb.ns_max(replace(e, party_symmetries=(bogus,)))


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


def test_uniform_mixture_is_local():
    s = gb.binary_scenario(2)
    strategies = gb.enumerate_deterministic_strategies(s)
    boxes = [gb.box_from_strategy(s, st) for st in strategies]
    w = F(1, len(boxes))
    mixed = gb.mix_boxes(boxes, [w] * len(boxes))
    assert gb.local_membership(mixed).is_local


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


def test_tobl_variable_permutation_maps_supports(binary3_relabelings):
    """Each weight variable goes to the block of the image lone party and
    the image leader, onto the permuted support, for all 384 relabelings;
    the map permutes all 1600 variables."""
    layout = polytope._ToblLayout(gb.binary_scenario(3))
    assert layout.n_vars == 1600

    def lone_and_leader(v):  # v counts weight variables, in wvar order
        bip_idx, direction = divmod(v // layout.block, 2)
        lone, j, k = polytope._BIPARTITIONS[bip_idx]
        return lone, (j, k)[direction]

    for sym in binary3_relabelings:
        table = sym.table_permutation(layout.scen)
        perm = layout.variable_permutation(sym)
        assert sorted(perm) == list(range(layout.n_vars))
        assert perm[: layout.n_table] == table
        for v, support in enumerate(layout.supports):
            w = perm[layout.n_table + v] - layout.n_table
            assert sorted(layout.supports[w]) == sorted(table[t] for t in support)
            # image party p holds the data of party party_perm[p]
            assert tuple(sym.party_perm[p] for p in lone_and_leader(w)) == lone_and_leader(v)


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
    oracle = affine_rank_of_strategies(
        scenario, gb.enumerate_deterministic_strategies(scenario)
    )
    assert gb.polytope_dimension(scenario) == oracle


def test_dimension_examples():
    assert gb.polytope_dimension(gb.binary_scenario(3)) == 26
    assert gb.polytope_dimension(Scenario((1,), (2,))) == 1
    assert gb.polytope_dimension(Scenario((2, 2, 2, 3), (2, 2, 2, 2))) == 107


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
        subset = rng.sample(strategies, rng.randint(2, min(30, len(strategies))))
        full = polytope._full_coordinates_of_strategies(scenario, subset)
        assert affine_rank_of_strategies(scenario, subset) == _rank.affine_rank(full)


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
    saturating = [s for v, s in polytope._valued_strategies(e) if v == e.classical_bound]
    points = polytope.cg_coordinates_of_strategies(e.scenario, saturating)
    monkeypatch.setattr(_rank, "_INT64_SAFE", 1)
    acc = _rank.ExactRankAccumulator(points.shape[1])
    acc.add_rows(points[1:] - points[0])
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
