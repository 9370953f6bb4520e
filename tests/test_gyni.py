import itertools
import random
from fractions import Fraction

import pytest

import gynibell as gb
from gynibell import gyni
from gynibell.core import InputDistribution, Scenario, binary_scenario

F = Fraction


def test_parity_promise_n3_support():
    q = gyni.parity_promise(3)
    scen = q.scenario
    support = {scen.decode_input(x) for x in q.support()}
    assert support == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert all(q.prob(x) == F(1, 4) for x in q.support())


def test_parity_promise_n2_uses_first_bit_only():
    q = gyni.parity_promise(2)
    scen = q.scenario
    support = {scen.decode_input(x) for x in q.support()}
    assert support == {(0, 0), (0, 1)}
    assert all(q.prob(x) == F(1, 2) for x in q.support())


@pytest.mark.parametrize("n", range(2, 9))
def test_parity_promise_normalized(n):
    q = gyni.parity_promise(n)
    assert sum(q.q.values()) == 1
    assert len(q.support()) == 2 ** (n - 1)


def test_gyni3_expression_terms(gyni_games):
    e = gyni_games[3].expression
    terms = {(xs, aa) for xs, aa, _ in e.terms()}
    assert terms == {
        ((0, 0, 0), (0, 0, 0)),
        ((0, 1, 1), (1, 1, 0)),
        ((1, 0, 1), (0, 1, 1)),
        ((1, 1, 0), (1, 0, 1)),
    }
    assert all(c == F(1, 4) for _, _, c in e.terms())
    assert e.classical_bound == F(1, 4)


def test_gyni2_uniform_terms():
    game = gyni.gyni_expression(2, gyni.uniform_promise(2))
    for xs, aa, c in game.expression.terms():
        assert aa == (xs[1], xs[0])
        assert c == F(1, 4)
    assert len(game.expression.coeffs) == 4


def test_term_count_equals_support(gyni_games):
    for n, game in gyni_games.items():
        assert len(game.expression.coeffs) == len(game.promise.support())


def test_classical_bound_formula_cases():
    assert gyni.classical_bound_formula(gyni.parity_promise(3)) == F(1, 4)
    for n in (2, 3, 4):
        assert gyni.classical_bound_formula(gyni.uniform_promise(n)) == F(2, 2**n)
    scen = binary_scenario(3)
    point = InputDistribution(scen, {5: F(1)})
    assert gyni.classical_bound_formula(point) == 1


def _random_distribution(rng, n):
    scen = binary_scenario(n)
    raw = [rng.randint(0, 8) for _ in range(scen.n_inputs)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    q = {x: F(v, total) for x, v in enumerate(raw) if v}
    return InputDistribution(scen, q)


@pytest.mark.parametrize("n", range(2, 7))
def test_formula_matches_vertex_enumeration(n):
    rng = random.Random(100 + n)
    for _ in range(20):
        q = _random_distribution(rng, n)
        game = gyni.gyni_expression(n, q)
        assert gb.classical_max(game.expression).value == game.expression.classical_bound


def test_ns_bounded_by_twice_classical_random_n3():
    rng = random.Random(77)
    for _ in range(20):
        q = _random_distribution(rng, 3)
        game = gyni.gyni_expression(3, q)
        ns = gb.ns_max(game.expression)
        assert ns.value <= 2 * game.expression.classical_bound
        assert ns.value >= game.expression.classical_bound


@pytest.mark.parametrize("n", (3, 4))
def test_uniform_promise_gives_no_ns_advantage(n):
    game = gyni.gyni_expression(n, gyni.uniform_promise(n))
    assert gb.ns_max(game.expression).value == game.expression.classical_bound


def test_attached_symmetry_counts():
    """Every candidate relabeling passes the invariance check, so a broken
    relabeling action fails here rather than leaving the LPs uncollapsed."""
    counts = [len(gyni.gyni_expression(n).expression.party_symmetries) for n in range(2, 8)]
    assert counts == [1, 3, 3, 5, 5, 7]
    uniform = [
        len(gyni.gyni_expression(n, gyni.uniform_promise(n)).expression.party_symmetries)
        for n in range(2, 6)
    ]
    assert uniform == [2, 3, 4, 5]


def test_ns_advantage_for_parity_promise(gyni_games, ns_optima):
    for n in range(3, 7):
        assert ns_optima[n].value > gyni_games[n].expression.classical_bound


def test_known_ratios(ns_optima, gyni_games):
    ratios = {
        n: ns_optima[n].value / gyni_games[n].expression.classical_bound
        for n in range(3, 7)
    }
    assert ratios[3] == F(4, 3)
    assert ratios[4] == F(4, 3)
    assert ratios[5] == F(16, 11)
    assert ratios[6] == F(16, 11)


def test_lifting_preserves_ratio(ns_optima, gyni_games):
    """Feeding a lifted optimal N-party box to the (N+1)-party game yields
    exactly half the N-party optimum, for some cyclic relabeling of the
    embedded parties (the parity promise of the larger game conditions on a
    rotated window of the smaller one's inputs), so the no-signaling optimum
    can never drop by more than the factor 1/2 per added party."""
    for n in (3, 4, 5):
        box = ns_optima[n].box
        best = F(0)
        for r in range(n):
            perm = tuple((p + r) % n for p in range(n))
            ident = tuple((tuple(range(2)),) * n)
            rotated = gb.core.apply_symmetry_to_box(
                box, gb.Symmetry(perm, ident, ident)
            )
            value = gb.bell_value(gyni_games[n + 1].expression, gb.lift_box(rotated))
            best = max(best, value)
        assert best == ns_optima[n].value / 2
        assert ns_optima[n + 1].value >= ns_optima[n].value / 2
    # the straight (unrotated) lifted 3-party optimum is already optimal at N=4
    lifted = gb.lift_box(ns_optima[3].box)
    assert gb.bell_value(gyni_games[4].expression, lifted) == F(1, 6) == ns_optima[4].value


def test_sum_form_scaling():
    e = gyni.gyni_sum_expression(3)
    assert all(c == 1 for c in e.coeffs.values())
    assert e.classical_bound == 1
    assert set(e.coeffs) == set(gyni.gyni_expression(3).expression.coeffs)


def test_sum_form_requires_uniform_support():
    scen = binary_scenario(2)
    q = InputDistribution(scen, {0: F(1, 3), 3: F(2, 3)})
    with pytest.raises(ValueError):
        gyni.gyni_sum_expression(2, q)


# ---------------------------------------------------------------------------
# quantum-bound certificate


@pytest.mark.parametrize("n", range(2, 9))
def test_certificate_true_for_parity_games(n):
    game = gyni.gyni_expression(n)
    assert gyni.orthogonality_certificate(game.expression)


def test_certificate_true_for_upb_derived():
    from gynibell import upb

    for e in (
        gb.bell_from_set(upb.shifts()),
        gb.bell_from_set(upb.gen_shifts(3)),
        gb.bell_from_set(upb.wupb_example()),
        upb.four_partite_tight_inequality(),
        upb.niset_cerf_inequality(4, 3),
        gyni.gyni_sum_expression(4),
    ):
        assert gyni.orthogonality_certificate(e)


def test_certificate_false_for_non_orthogonal_non_game():
    scen = binary_scenario(2)
    coeffs = {
        (scen.encode_input((0, 0)), scen.encode_outcome((0, 0))): F(1),
        (scen.encode_input((1, 1)), scen.encode_outcome((1, 1))): F(1),
    }
    e = gb.BellExpression(scen, coeffs)
    assert not gyni.orthogonality_certificate(e)


def _terms_orthogonal(t1, t2) -> bool:
    """Two terms are orthogonal when some party receives the same input in
    both but must answer differently; no deterministic (or projective)
    strategy can then satisfy both."""
    (xs1, aa1), (xs2, aa2) = t1, t2
    for x1, a1, x2, a2 in zip(xs1, aa1, xs2, aa2):
        if x1 == x2 and a1 != a2:
            return True
    return False


def _certificate_oracle(expression) -> bool:
    """The certificate's two patterns, one pair of terms at a time; shares no
    array code with the library."""
    scen = expression.scenario
    terms = [((xs, aa), c) for xs, aa, c in expression.terms()]
    non_orth = [
        (t1, t2)
        for m, (t1, _) in enumerate(terms)
        for t2, _ in terms[m + 1 :]
        if not _terms_orthogonal(t1, t2)
    ]
    if not non_orth and all(c == 1 for _, c in terms):
        return True
    if any(m != 2 for m in scen.inputs) or any(d != 2 for d in scen.outputs):
        return False
    if any(aa != xs[1:] + xs[:1] for (xs, aa), _ in terms):
        return False
    if sum(c for _, c in terms) != 1:
        return False
    return all(tuple(1 - b for b in t1[0]) == t2[0] for t1, t2 in non_orth)


@pytest.mark.parametrize("n", range(2, 9))
def test_shift_outcomes_leave_only_complement_pairs_non_orthogonal(n):
    """Over all 2**n inputs, each answered by its cyclic left shift, the
    pairwise rule finds exactly the complement pairs non-orthogonal; this
    is why the certificate's GYNI pattern checks no pair of terms."""
    terms = [(xs, xs[1:] + xs[:1]) for xs in itertools.product((0, 1), repeat=n)]
    non_orth = {
        (t1[0], t2[0])
        for m, t1 in enumerate(terms)
        for t2 in terms[m + 1 :]
        if not _terms_orthogonal(t1, t2)
    }
    assert non_orth == {(xs, tuple(1 - b for b in xs)) for xs, _ in terms if xs[0] == 0}


def _criterion_7_expressions():
    from gynibell import upb

    games = [gyni.gyni_expression(n).expression for n in range(2, 9)]
    derived = [
        gb.bell_from_set(upb.shifts()),
        gb.bell_from_set(upb.gen_shifts(2)),
        gb.bell_from_set(upb.gen_shifts(3)),
        gb.bell_from_set(upb.niset_cerf(3, 2)),
        upb.niset_cerf_inequality(4, 3),
        gb.bell_from_set(upb.wupb_example()),
        upb.four_partite_tight_inequality(),
    ]
    return games + derived


def test_certificate_agrees_with_the_pairwise_oracle_on_criterion_7():
    expressions = _criterion_7_expressions()
    assert len(expressions) == 14
    for e in expressions:
        assert gyni.orthogonality_certificate(e) is _certificate_oracle(e) is True


@pytest.mark.parametrize("promise", ["parity", "uniform"])
def test_certificate_agrees_with_the_pairwise_oracle_on_unnormalized_gyni_shapes(promise):
    """The GYNI shape with unit coefficients, which sum to 2**(N-1) or 2**N:
    the shape is tested first and fails on the sum, and the pairwise
    pattern decides; it accepts the parity promise, whose terms are all
    orthogonal, and refuses the uniform one, which holds complement pairs."""
    for n in range(2, 6):
        q = gyni.parity_promise(n) if promise == "parity" else gyni.uniform_promise(n)
        e = gyni.gyni_sum_expression(n, q)
        assert sum(e.coeffs.values()) > 1
        assert gyni.orthogonality_certificate(e) is _certificate_oracle(e) is (promise == "parity")


def _random_terms(rng, scen, n_terms):
    """Terms drawn near one input string, so that many pairs share inputs."""
    base = [rng.randrange(m) for m in scen.inputs]
    terms = set()
    for _ in range(n_terms):
        xs = tuple(
            b if rng.random() < 0.6 else rng.randrange(m) for b, m in zip(base, scen.inputs)
        )
        aa = tuple(rng.randrange(d) for d in scen.outputs)
        terms.add((scen.encode_input(xs), scen.encode_outcome(aa)))
    return sorted(terms)


def _random_expressions():
    """Seeded expressions over binary and qutrit scenarios: unit or mixed
    coefficients on random terms, and GYNI-shaped ones (outcome the left
    shift of the input) with complement pairs, a normalized or unnormalized
    weight and, at times, one outcome bit flipped."""
    rng = random.Random(23)
    for k in range(120):
        n = rng.randint(2, 4)
        scen = binary_scenario(n) if k % 2 else Scenario((3,) * n, (3,) * n)
        unit = rng.random() < 0.7
        coeffs = {
            key: F(1) if unit else F(rng.randint(1, 3), 2)
            for key in _random_terms(rng, scen, rng.randint(1, 5))
        }
        yield gb.BellExpression(scen, coeffs)
    for k in range(60):
        n = rng.randint(2, 5)
        scen = binary_scenario(n)
        inputs = rng.sample(range(scen.n_inputs), rng.randint(1, min(6, scen.n_inputs)))
        x = scen.decode_input(inputs[0])
        inputs.append(scen.encode_input(tuple(1 - b for b in x)))  # a complement pair
        terms = []
        for i in sorted(set(inputs)):
            xs = scen.decode_input(i)
            terms.append((xs, list(xs[1:] + xs[:1])))
        if k % 3 == 0:
            terms[rng.randrange(len(terms))][1][rng.randrange(n)] ^= 1
        weights = [rng.randint(1, 5) for _ in terms]
        total = sum(weights) if k % 4 else sum(weights) + 1
        coeffs = {}
        for (xs, aa), w in zip(terms, weights):
            key = (scen.encode_input(xs), scen.encode_outcome(tuple(aa)))
            coeffs[key] = coeffs.get(key, F(0)) + F(w, total)
        yield gb.BellExpression(scen, coeffs)


def test_certificate_agrees_with_the_pairwise_oracle_on_random_expressions():
    seen = set()
    for e in _random_expressions():
        got = gyni.orthogonality_certificate(e)
        assert got is _certificate_oracle(e)
        terms = [(xs, aa) for xs, aa, _ in e.terms()]
        pairs = [(t1, t2) for m, t1 in enumerate(terms) for t2 in terms[m + 1 :]]
        non_orth = any(not _terms_orthogonal(t1, t2) for t1, t2 in pairs)
        seen.add((e.scenario.inputs[0], got, bool(pairs), non_orth))
    # both verdicts on several terms in both scenario families, and the
    # complement-pair pattern accepted as well as refused
    for d in (2, 3):
        assert (d, True, True, False) in seen and (d, False, True, True) in seen
    assert (2, True, True, True) in seen


def test_random_certificates_reject_a_negative_coefficient():
    for k, e in enumerate(_random_expressions()):
        if k % 10:
            continue
        coeffs = dict(e.coeffs)
        key = sorted(coeffs)[-1]
        coeffs[key] = -coeffs[key]
        with pytest.raises(ValueError):
            gyni.orthogonality_certificate(gb.BellExpression(e.scenario, coeffs))


def test_certificate_rejects_negative_coefficients():
    scen = binary_scenario(2)
    e = gb.BellExpression(scen, {(0, 0): F(-1)})
    with pytest.raises(ValueError):
        gyni.orthogonality_certificate(e)
