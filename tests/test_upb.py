import itertools
from fractions import Fraction

import numpy as np
import pytest

import gynibell as gb
from gynibell import gyni, upb
from gynibell.upb import (
    basis_ket,
    build_local_subsets,
    hadamard_pair,
    product_inner,
)


def assert_globally_orthogonal(pvs):
    for m in range(len(pvs)):
        for n in range(m + 1, len(pvs)):
            assert abs(product_inner(pvs.vectors[m], pvs.vectors[n])) < 1e-9


# ---------------------------------------------------------------------------
# construction and subsets


def test_shifts_subsets_match_canonical_structure():
    sh = upb.shifts()
    for site in range(3):
        subsets = sh.local_subsets[site]
        assert [len(s) for s in subsets] == [2, 2]
    assert_globally_orthogonal(sh)


def test_shifts_bell_is_gyni3_sum_form():
    e = gb.bell_from_set(upb.shifts())
    assert set(e.coeffs) == set(gyni.gyni_sum_expression(3).coeffs)
    assert e.classical_bound == 1


def test_derived_subsets_give_relabeled_gyni():
    """Building subsets from the raw vectors (first-appearance order) yields
    the same inequality up to one local outcome relabeling."""
    sh = upb.shifts()
    derived = build_local_subsets(sh.vectors, (2, 2, 2))
    e = gb.bell_from_set(derived)
    relabeled = gb.core.relabel_outcomes(e, 1, 1, (1, 0))
    assert set(relabeled.coeffs) == set(gyni.gyni_sum_expression(3).coeffs)


def test_single_vector_set():
    z = basis_ket(2, 0)
    pvs = build_local_subsets([(z, z, z)], (2, 2, 2))
    assert all(len(s) == 1 for site in pvs.local_subsets for s in site)
    assert pvs.vector_local_index == ((0, 0, 0),)
    assert gb.check_local_independence(pvs) and gb.is_wupb(pvs)
    verdict = gb.is_upb(pvs)
    assert not verdict.is_upb and verdict.nodes == 2
    o = basis_ket(2, 1)
    assert all(np.array_equal(w, v) for w, v in zip(verdict.extension_witness, (o, z, z)))


def test_empty_set():
    pvs = build_local_subsets([], (2, 2))
    assert pvs.local_sets == ([], []) and pvs.local_subsets == ((), ())
    assert pvs.vector_local_index == ()
    assert gb.check_local_independence(pvs) and gb.is_wupb(pvs)
    verdict = gb.is_upb(pvs)
    assert not verdict.is_upb and verdict.nodes == 1
    z = basis_ket(2, 0)
    assert all(np.array_equal(w, z) for w in verdict.extension_witness)


def test_build_rejects_non_orthogonal():
    z = basis_ket(2, 0)
    e, _ = hadamard_pair()
    with pytest.raises(ValueError, match="not orthogonal"):
        build_local_subsets([(z, z), (z, e)], (2, 2))


def test_tiles_triggers_ambiguity():
    with pytest.raises(upb.AmbiguousSubsetsError) as err:
        build_local_subsets(upb.tiles(), (3, 3))
    assert (err.value.site, err.value.triple) == (0, (0, 2, 1))


def test_ambiguity_triple_names_a_common_partner():
    """Site 0's orthogonality graph is the path 0-2-3-1: vectors 0 and 1
    share no partner, so the first conflicting pair is (0, 3), through 2."""
    e = [basis_ket(3, k) for k in range(3)]
    site0 = [e[0], upb.ket(1, 0, 1), upb.ket(0, 1, 1), upb.ket(1, 1, -1)]
    site1 = [e[0], e[1], e[2], e[1]]
    with pytest.raises(upb.AmbiguousSubsetsError) as err:
        build_local_subsets(list(zip(site0, site1)), (3, 3))
    assert (err.value.site, err.value.triple) == (0, (0, 3, 2))
    u, w, partner = err.value.triple
    overlap = lambda a, b: abs(np.vdot(site0[a], site0[b]))
    assert overlap(u, partner) < 1e-9 and overlap(w, partner) < 1e-9
    assert overlap(u, w) > 1e-9


def test_local_independence_shifts():
    assert gb.check_local_independence(upb.shifts())


def test_local_independence_fails_for_degenerate_basis():
    # e = |0> collapses the two local bases into one another
    degenerate = upb.shifts(e=basis_ket(2, 0))
    assert not gb.check_local_independence(degenerate)
    with pytest.raises(ValueError):
        gb.bell_from_set(degenerate)


def test_multi_qubit_sets_always_groupable():
    # any orthogonal multi-qubit product set has unambiguous subsets
    rng = np.random.default_rng(5)
    for k in (2, 3):
        pvs = upb.gen_shifts(k)
        derived = build_local_subsets(pvs.vectors, pvs.dims)
        assert derived.local_subsets is not None


# ---------------------------------------------------------------------------
# unextendibility


def test_shifts_is_upb_random_bases():
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = rng.uniform(0.15, np.pi / 2 - 0.15)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        e = np.array([np.cos(t), phase * np.sin(t)])
        pvs = upb.shifts(e=e)
        assert gb.is_upb(pvs).is_upb and gb.is_wupb(pvs)


def test_shifts_minus_one_vector_extendible():
    sh = upb.shifts()
    partial = build_local_subsets(sh.vectors[1:], (2, 2, 2))
    verdict = gb.is_upb(partial)
    assert not verdict.is_upb
    witness = verdict.extension_witness
    assert witness is not None
    for vec in partial.vectors:
        assert abs(product_inner(witness, vec)) < 1e-9


def test_two_vector_pair_extendible():
    z0, z1 = basis_ket(2, 0), basis_ket(2, 1)
    pvs = build_local_subsets([(z0, z0), (z1, z1)], (2, 2))
    verdict = gb.is_upb(pvs)
    assert not verdict.is_upb
    w = verdict.extension_witness
    assert abs(product_inner(w, (z0, z0))) < 1e-9
    assert abs(product_inner(w, (z1, z1))) < 1e-9


@pytest.mark.parametrize("k", (2, 3))
def test_gen_shifts_is_upb(k):
    pvs = upb.gen_shifts(k)
    assert len(pvs) == 2 * k
    assert len(pvs.dims) == 2 * k - 1
    assert_globally_orthogonal(pvs)
    assert gb.is_upb(pvs).is_upb


def test_gen_shifts_k3_inequality_labels():
    """The first shifted vector carries the canonical label pattern:
    outcomes (1, 0, ..., 0, 1, ..., 1) under settings (0, 1, ..., k-1,
    k-1, ..., 1)."""
    pvs = upb.gen_shifts(3)
    assert pvs.labels(0) == ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0))
    assert pvs.labels(1) == ((0, 1, 2, 2, 1), (1, 0, 0, 1, 1))
    # each later vector is the cyclic right shift of the previous labels
    for m in range(2, len(pvs)):
        prev_x, prev_a = pvs.labels(m - 1)
        xs, aa = pvs.labels(m)
        assert xs == prev_x[-1:] + prev_x[:-1]
        assert aa == prev_a[-1:] + prev_a[:-1]


def test_gen_shifts_k2_matches_shifts_vectors():
    e, ebar = hadamard_pair()
    g = upb.gen_shifts(2, bases=[e])
    s = upb.shifts(e=ebar)
    for gv, sv in zip(g.vectors, s.vectors):
        assert abs(product_inner(gv, sv)) > 1 - 1e-9


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 3)])
def test_niset_cerf_is_upb(n, d):
    pvs = upb.niset_cerf(n, d)
    assert len(pvs) == n * (d - 1) + 1
    assert_globally_orthogonal(pvs)
    assert gb.is_upb(pvs).is_upb
    assert gb.is_wupb(pvs)


def test_niset_cerf_32_recovers_shifts_structure():
    pvs = upb.niset_cerf(3, 2)
    e = gb.bell_from_set(pvs)
    # four unit terms, classical bound one: the three-qubit inequality shape
    assert len(e.coeffs) == 4
    assert gb.classical_max(e).value == 1
    assert gyni.orthogonality_certificate(e)


def test_niset_cerf_parameter_validation():
    with pytest.raises(ValueError):
        upb.niset_cerf(2, 3)
    with pytest.raises(ValueError):
        upb.niset_cerf(4, 2)


def _niset_cerf_inequality_oracle(n_parties, dim):
    """The family's inequality, one hand-written term at a time."""
    scen = gb.Scenario((2,) * n_parties, (dim,) * n_parties)
    coeffs = {}
    top_x = (1,) * n_parties
    top_a = (dim - 1,) * n_parties
    coeffs[(scen.encode_input(top_x), scen.encode_outcome(top_a))] = Fraction(1)
    for shift in range(n_parties):
        for j in range(dim - 1):
            aa = list(range(n_parties - 1)) + [j]
            xs = [0] * (n_parties - 1) + [1]
            aa = aa[-shift:] + aa[:-shift] if shift else aa
            xs = xs[-shift:] + xs[:-shift] if shift else xs
            coeffs[(scen.encode_input(tuple(xs)), scen.encode_outcome(tuple(aa)))] = Fraction(1)
    return scen, coeffs


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 3), (4, 4), (5, 4)])
def test_niset_cerf_inequality_matches_term_oracle(n, d):
    e = upb.niset_cerf_inequality(n, d)
    scen, coeffs = _niset_cerf_inequality_oracle(n, d)
    assert (e.scenario.inputs, e.scenario.outputs) == (scen.inputs, scen.outputs)
    assert list(e.coeffs.items()) == list(coeffs.items())
    assert e.classical_bound == 1
    assert e.label == f"niset-cerf-{n}-{d}-inequality"


def test_niset_cerf_inequality_43():
    e = upb.niset_cerf_inequality(4, 3)
    assert len(e.coeffs) == 9
    assert e.scenario.inputs == (2, 2, 2, 2)
    assert e.scenario.outputs == (3, 3, 3, 3)
    # the top term and one rotated block term
    xs = e.scenario.decode_input
    aa = e.scenario.decode_outcome
    terms = {(xs(x), aa(a)) for x, a in e.coeffs}
    assert ((1, 1, 1, 1), (2, 2, 2, 2)) in terms
    assert ((0, 0, 0, 1), (0, 1, 2, 0)) in terms
    assert ((1, 0, 0, 0), (1, 0, 1, 2)) in terms


def test_wupb_example_is_weak_but_not_full():
    w = upb.wupb_example()
    assert len(w) == 6
    assert w.dims == (2, 2, 3)
    assert_globally_orthogonal(w)
    assert gb.check_local_independence(w)
    verdict = gb.is_upb(w)
    assert gb.is_wupb(w)
    assert not verdict.is_upb
    assert verdict.extension_witness is not None


def test_wupb_bell_matches_lifted_gyni_terms():
    e = gb.bell_from_set(upb.wupb_example())
    scen = e.scenario
    terms = {(scen.decode_input(x), scen.decode_outcome(a)) for x, a in e.coeffs}
    assert terms == {
        ((0, 0, 0), (0, 0, 0)),
        ((0, 1, 1), (1, 1, 0)),
        ((1, 0, 1), (0, 1, 1)),
        ((1, 1, 0), (1, 0, 1)),
        ((1, 0, 1), (0, 1, 2)),
        ((1, 1, 0), (1, 0, 2)),
    }


def _is_wupb_oracle(pvs):
    """Weak unextendibility, one product of local vectors at a time."""
    for combo in itertools.product(*pvs.local_sets):
        if all(abs(product_inner(combo, vec)) <= 1e-9 for vec in pvs.vectors):
            return False
    return True


def test_is_wupb_matches_product_loop():
    sh = upb.shifts()
    sets = {
        "shifts": sh,
        "gen_shifts(2)": upb.gen_shifts(2),
        "gen_shifts(3)": upb.gen_shifts(3),
        "wupb": upb.wupb_example(),
        "niset_cerf(3,2)": upb.niset_cerf(3, 2),
        "shifts minus one": build_local_subsets(sh.vectors[:3], sh.dims),
    }
    verdicts = {name: gb.is_wupb(pvs) for name, pvs in sets.items()}
    assert verdicts == {name: _is_wupb_oracle(pvs) for name, pvs in sets.items()}
    assert verdicts == {**dict.fromkeys(sets, True), "shifts minus one": False}


def test_is_wupb_rejects_full_basis():
    z0, z1 = basis_ket(2, 0), basis_ket(2, 1)
    full = build_local_subsets(
        [(z0, z0), (z0, z1), (z1, z0), (z1, z1)], (2, 2)
    )
    with pytest.raises(ValueError):
        gb.is_wupb(full)
    with pytest.raises(ValueError):
        gb.is_upb(full)


def test_upb_implies_wupb_across_suite():
    for pvs in (
        upb.shifts(),
        upb.gen_shifts(2),
        upb.niset_cerf(3, 2),
        upb.niset_cerf(3, 3),
    ):
        if gb.is_upb(pvs).is_upb:
            assert gb.is_wupb(pvs)


def test_assignment_cap():
    with pytest.raises(ValueError, match="cap"):
        gb.is_upb(upb.gen_shifts(3), cap=10)


def test_assignment_cap_counts_visited_nodes():
    # 5**16 assignments in the worst case, far above the cap, but the
    # search reaches an extension along its first path
    pvs = upb.niset_cerf(5, 4)
    verdict = gb.is_upb(pvs)
    assert not verdict.is_upb
    assert verdict.nodes == len(pvs) + 1
    for vec in pvs.vectors:
        assert abs(upb.product_inner(verdict.extension_witness, vec)) < 1e-9


def test_four_partite_inequality_structure():
    e = upb.four_partite_tight_inequality()
    assert len(e.coeffs) == 7
    assert e.scenario.inputs == (2, 2, 2, 3)
    assert gyni.orthogonality_certificate(e)
    assert gb.classical_max(e).value == 1


def test_vector_set_json_round_trip():
    sh = upb.shifts()
    obj = sh.to_json()
    back = upb.ProductVectorSet.from_json(obj)
    assert back.dims == sh.dims
    assert len(back) == len(sh)
    for m in range(len(sh)):
        assert abs(product_inner(back.vectors[m], sh.vectors[m])) > 1 - 1e-9


def test_product_set_checks():
    """Every constructor runs these checks through ``upb._product_set``."""
    z, o = basis_ket(2, 0), basis_ket(2, 1)
    e, ebar = hadamard_pair()
    sites = [[z, o], [z, o]]
    subsets = [[(0, 1)], [(0, 1)]]
    pvs = upb._product_set([(z, z), (o, z)], (2, 2), sites, subsets, "pair")
    assert pvs.vector_local_index == ((0, 0), (1, 0))
    assert pvs.local_subsets == (((0, 1),), ((0, 1),))
    # a factor equal to a local vector up to a phase points at it
    assert upb._product_set([(1j * o, z)], (2, 2), sites, subsets, "").vector_local_index == ((1, 0),)
    with pytest.raises(ValueError, match="not normalized"):
        upb._product_set([(2 * z, z)], (2, 2), sites, subsets, "")
    with pytest.raises(ValueError, match="wrong dimension"):
        upb._product_set([(z, basis_ket(3, 0))], (2, 2), sites, subsets, "")
    with pytest.raises(ValueError, match="not orthogonal"):
        upb._product_set([(z, z), (e, z)], (2, 2), sites, subsets, "")
    # two offending pairs, (0, 3) and (1, 2): the lexicographically first is named
    with pytest.raises(ValueError, match="^vectors 0 and 3 are not orthogonal$"):
        upb._product_set([(z, z), (o, o), (ebar, o), (e, z)], (2, 2), sites, subsets, "")
    with pytest.raises(ValueError, match="larger than the local dimension"):
        upb._product_set([(z, z)], (2, 2), [[z, o, e], [z, o]], [[(0, 1, 2)], [(0, 1)]], "")
    with pytest.raises(ValueError, match="subset members not orthogonal"):
        upb._product_set([(z, z)], (2, 2), [[z, e], [z, o]], [[(0, 1)], [(0, 1)]], "")
    with pytest.raises(ValueError, match="not among the local vectors"):
        upb._product_set([(ebar, z)], (2, 2), sites, subsets, "")
    # two missing factors: the first by (vector, site) is named, vector 1 at
    # site 1 before vector 2 at site 0
    with pytest.raises(ValueError, match="^vector 1 site 1 is not among the local vectors$"):
        upb._product_set(
            [(z, z, z), (o, e, z), (e, o, o)], (2, 2, 2), [[z, o]] * 3, [[(0, 1)]] * 3, ""
        )
    # raw vectors (a vector-set file) are shape-checked before the dedupe
    with pytest.raises(ValueError, match="wrong site count"):
        build_local_subsets([(z, z), (o,)], (2, 2))
    # the qutrit Niset-Cerf set has no subsets and still runs every check
    nc = upb.niset_cerf(3, 3)
    assert nc.local_subsets is None
    with pytest.raises(ValueError, match="not orthogonal"):
        upb._product_set(nc.vectors[:1] * 2, nc.dims, nc.local_sets, None, "")
