import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ns_full_lp
from conftest import requires_slow
from gynibell import core, gyni, lp, polytope, upb

F = Fraction


# Every problem is max c.x over equality rows with x >= 0.  An inequality
# row carries its own slack (<=) or surplus (>=) column, written out below;
# a minimum is the negated maximum of the negated objective.


def test_simple_max():
    # x1 + x2 <= 1 with slack s
    res = lp.solve(lp.make_problem([1, 1, 0], [([1, 1, 1], 1)]))
    assert res.status == "optimal"
    assert res.value == 1
    assert sum(res.solution[:2]) == 1
    assert res.solution[2] == 0


def test_lps_without_rows_or_with_zero_right_hand_sides():
    """An LP with no rows (an empty basis), and LPs whose right-hand sides
    are all 0: the exact lifting ends at its first step on a zero residual,
    and each optimum verifies without an exact pivot."""
    cases = [
        (lp.make_problem([-1, 0], []), (0, 0), (), 0),
        (lp.make_problem([-1, -2, 0], [([1, -1, 1], 0)]), (0, 0, 0), (0,), 2),
        (lp.make_problem([1, 0, 0], [([1, 1, 1], 0)]), (0, 0, 0), (1,), 1),
    ]
    for problem, solution, dual, float_pivots in cases:
        res = lp.solve(problem)
        assert (res.status, res.value, res.solution, res.dual) == ("optimal", 0, solution, dual)
        assert (res.pivots, res.float_pivots) == (0, float_pivots)


def test_infeasible_with_certificate():
    # x >= 2 (surplus s1) and x <= 1 (slack s2)
    res = lp.solve(lp.make_problem([1, 0, 0], [([1, -1, 0], 2), ([1, 0, 1], 1)]))
    assert res.status == "infeasible"
    assert res.farkas is not None  # already verified exactly inside solve


def test_unbounded_with_ray():
    # x >= 2 (surplus s)
    res = lp.solve(lp.make_problem([1, 0], [([1, -1], 2)]))
    assert res.status == "unbounded"
    assert res.ray is not None


def test_feasible_point_equality():
    # x = 1/2 and x <= 1 (slack s)
    res = lp.feasible_point([([1, 0], F(1, 2)), ([1, 1], 1)], 2)
    assert res.status == "optimal"
    assert res.solution == (F(1, 2), F(1, 2))


def test_feasible_point_infeasible():
    # x <= -1 (slack s)
    res = lp.feasible_point([([1, 1], -1)], 2)
    assert res.status == "infeasible"


def test_min_sense_value():
    # x1 <= 2 and x1 + x2 >= 3: minimizing x1 + 2*x2 pins x = (2, 1), so
    # the maximum of -(x1 + 2*x2) is -4; surplus s1, slack s2
    res = lp.solve(
        lp.make_problem([-1, -2, 0, 0], [([1, 1, -1, 0], 3), ([1, 0, 0, 1], 2)])
    )
    assert res.status == "optimal"
    assert res.value == -4
    assert res.solution == (F(2), F(1), F(0), F(0))


def test_degenerate_problem_terminates():
    # many redundant rows through the same vertex, one slack each
    rows = [
        ([1, 1, 1, 0, 0, 0], 1),
        ([2, 2, 0, 1, 0, 0], 2),
        ([3, 3, 0, 0, 1, 0], 3),
        ([1, 0, 0, 0, 0, 1], 1),
    ]
    res = lp.solve(lp.make_problem([1, 1, 0, 0, 0, 0], rows))
    assert res.status == "optimal"
    assert res.value == 1


def test_redundant_equalities():
    rows = [([1, 1], 1), ([2, 2], 2), ([1, -1], 0)]
    res = lp.solve(lp.make_problem([1, 0], rows))
    assert res.status == "optimal"
    assert res.value == F(1, 2)


def _dual_objective(problem, res):
    rows = problem.constraints
    return sum(y * F(b, rows.rhs_den) for y, b in zip(res.dual, rows.rhs.tolist()))


def test_lower_bounds_shift():
    # minimize x1 + x2 subject to x1 + x2 >= 3 and the lower bounds x >= 1,
    # all written as rows with surplus columns
    problem = lp.make_problem(
        [-1, -1, 0, 0, 0],
        [([1, 1, -1, 0, 0], 3), ([1, 0, 0, -1, 0], 1), ([0, 1, 0, 0, -1], 1)],
    )
    res = lp.solve(problem)
    assert res.status == "optimal"
    assert res.value == -3
    assert _dual_objective(problem, res) == res.value


def test_upper_bounds_as_rows():
    # x1 = x2 and the upper bound x1 <= 1/3 (slack s)
    problem = lp.make_problem([1, 1, 0], [([1, -1, 0], 0), ([1, 0, 1], F(1, 3))])
    res = lp.solve(problem)
    assert res.status == "optimal"
    assert res.value == F(2, 3)
    assert _dual_objective(problem, res) == res.value


def test_strong_duality_identity():
    # x1 <= 4, 2*x2 <= 12, 3*x1 + 2*x2 <= 18, one slack each
    res = lp.solve(
        lp.make_problem(
            [3, 5, 0, 0, 0],
            [([1, 0, 1, 0, 0], 4), ([0, 2, 0, 1, 0], 12), ([3, 2, 0, 0, 1], 18)],
        )
    )
    assert res.status == "optimal"
    assert res.value == 36
    dual_obj = sum(y * r for y, r in zip(res.dual, [F(4), F(12), F(18)]))
    assert dual_obj == res.value


def test_random_lps_against_vertex_enumeration():
    """2-variable LPs with <= rows: exact optimum must match brute force over
    all basic feasible points (constraint intersections and axis points)."""
    rng = random.Random(42)
    for trial in range(40):
        rows = []  # (a, b) for a.x <= b
        slack_rows = []  # the same rows, slack column 2 + i for row i
        for i in range(4):
            a = [F(rng.randint(-3, 4)), F(rng.randint(-3, 4))]
            b = F(rng.randint(0, 6))
            rows.append((a, b))
            slack_rows.append((a + [int(k == i) for k in range(4)], b))
        c = [F(rng.randint(-3, 4)), F(rng.randint(-3, 4))]
        problem = lp.make_problem(c + [0] * 4, slack_rows)
        res = lp.solve(problem)
        if res.status != "optimal":
            continue
        # brute force on the inequalities: all intersections of two active
        # boundaries
        cands = [(F(0), F(0))]
        lines = rows + [
            (([F(1), F(0)]), F(0)),
            (([F(0), F(1)]), F(0)),
        ]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                (a1, b1), (a2, b2) = lines[i], lines[j]
                det = a1[0] * a2[1] - a1[1] * a2[0]
                if det == 0:
                    continue
                x = (b1 * a2[1] - b2 * a1[1]) / det
                y = (a1[0] * b2 - a2[0] * b1) / det
                cands.append((x, y))
        best = None
        for x, y in cands:
            if x < 0 or y < 0:
                continue
            if all(a[0] * x + a[1] * y <= b for a, b in rows):
                v = c[0] * x + c[1] * y
                best = v if best is None or v > best else best
        assert best == res.value, f"trial {trial}"


def test_fractional_coefficients_are_scaled_exactly():
    # exercises the integer row scaling of make_problem
    problem = lp.make_problem(
        [1, 1, 0, 0],
        [([F(1, 2), F(1, 3), 1, 0], F(5, 6)), ([F(2, 7), F(3, 5), 0, 1], 1)],
    )
    res = lp.solve(problem)
    assert res.status == "optimal"
    # vertex of the two active rows: (1/2)x + (1/3)y = 5/6, (2/7)x + (3/5)y = 1
    assert res.solution == (F(35, 43), F(55, 43), F(0), F(0))
    assert res.value == F(90, 43)
    # the duals refer to the rows scaled by 6 and 35
    assert _dual_objective(problem, res) == res.value


def test_make_problem_scales_fraction_pairs_to_integer_rows():
    """Each hand-written row, dense or a dict in any key order, is
    multiplied by the lcm of its coefficients' denominators: the problem
    holds integer rows sorted by row, then column, and the solver's
    certificate passes the verifier against those rows."""
    problem = lp.make_problem(
        [1, 1, 0, 0],
        [([F(1, 2), F(1, 3), 1, 0], F(5, 6)), ({3: F(1, 5), 0: F(2, 7), 1: F(3, 5)}, 1)],
    )
    rows = problem.constraints
    assert len(rows) == 2 and rows.val.dtype == np.int64
    assert rows.row.tolist() == [0, 0, 0, 1, 1, 1]
    assert rows.col.tolist() == [0, 1, 2, 0, 1, 3]
    assert rows.val.tolist() == [3, 2, 6, 10, 21, 7]
    assert rows.rhs.tolist() == [5, 35]
    res = lp.solve(problem)
    assert res.status == "optimal"
    lp._verify_optimal(problem, res)


def test_fractional_equality_feasibility():
    # x/3 + y/6 = 1/2 and x + y <= 2 (slack s)
    res = lp.feasible_point([([F(1, 3), F(1, 6), 0], F(1, 2)), ([1, 1, 1], 2)], 3)
    assert res.status == "optimal"
    x, y, s = res.solution
    assert x / 3 + y / 6 == F(1, 2)
    assert x + y + s == 2


def test_random_fractional_lps_against_vertex_enumeration():
    rng = random.Random(99)
    for trial in range(25):
        rows = []  # (a, b) for a.x <= b
        slack_rows = []  # the same rows, slack column 2 + i for row i
        for i in range(3):
            a = [
                F(rng.randint(-3, 4), rng.randint(1, 4)),
                F(rng.randint(-3, 4), rng.randint(1, 4)),
            ]
            b = F(rng.randint(0, 6), rng.randint(1, 3))
            rows.append((a, b))
            slack_rows.append((a + [int(k == i) for k in range(3)], b))
        c = [F(rng.randint(-2, 3), rng.randint(1, 3)) for _ in range(2)]
        res = lp.solve(lp.make_problem(c + [0] * 3, slack_rows))
        if res.status != "optimal":
            continue
        lines = rows + [
            ([F(1), F(0)], F(0)),
            ([F(0), F(1)], F(0)),
        ]
        best = None
        cands = [(F(0), F(0))]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                (a1, b1), (a2, b2) = lines[i], lines[j]
                det = a1[0] * a2[1] - a1[1] * a2[0]
                if det == 0:
                    continue
                cands.append(
                    (
                        (b1 * a2[1] - b2 * a1[1]) / det,
                        (a1[0] * b2 - a2[0] * b1) / det,
                    )
                )
        for x, y in cands:
            if x < 0 or y < 0:
                continue
            if all(a[0] * x + a[1] * y <= b for a, b in rows):
                v = c[0] * x + c[1] * y
                best = v if best is None or v > best else best
        assert best == res.value, f"trial {trial}"


def _sign_flips(ints):
    """Each copy of ``(numerators, denominator)`` with one nonzero numerator
    negated."""
    nums, den = ints
    for i, v in enumerate(nums):
        if v:
            yield nums[:i] + (-v,) + nums[i + 1 :], den


def test_problem_refuses_indices_outside_its_shape():
    """A column index outside [0, n), a row index outside the right-hand
    sides, a right-hand side or objective entry that is not an integer
    numerator, or a denominator that is not positive is refused with a
    ValueError when the problem is built, not deep inside the solver."""
    with pytest.raises(ValueError, match="column index"):
        lp.solve(lp.make_problem([1], [([1, 1], 1)]))

    def rows(row=(0, 0), col=(0, 1), rhs=(1,), den=1):
        return lp.Rows(
            np.array(row), np.array(col), np.array([1, 1]), np.array(rhs, dtype=object), den
        )

    for bad, match in (
        (rows(col=(0, 2)), "column index"),
        (rows(col=(-1, 0)), "column index"),
        (rows(row=(0, 1)), "row index"),
        (rows(row=(-1, 0)), "row index"),
        (rows(rhs=(F(1, 2),)), "integer numerators"),
        (rows(den=0), "positive"),
    ):
        with pytest.raises(ValueError, match=match):
            lp.make_problem([1, 1], bad)
    with pytest.raises(ValueError, match="positive"):
        lp.make_problem([1, 1], rows(), 0)
    with pytest.raises(ValueError, match="objective"):
        lp.LPProblem(2, (F(1, 2), 1), rows())
    assert lp.solve(lp.make_problem([1, 1], rows(den=2))).value == F(1, 2)


def test_fraction_views_are_the_numerators_over_their_denominator():
    """A result holds each rational vector as Python-integer numerators over
    one positive denominator with no common factor, and the value as one
    such pair; the Fraction views equal them, are built once, and hold
    equal values as one object.  Guided and cold optima, a Farkas vector
    and a ray."""
    (problem,) = _posed_problems(lambda: polytope.ns_max(upb.four_partite_tight_inequality()))
    guided, cold = lp.solve(problem), _cold_solve(problem)
    infeasible = lp.solve(lp.make_problem([1, 0, 0], [([1, -1, 0], 2), ([1, 0, 1], 1)]))
    unbounded = lp.solve(lp.make_problem([1, 0, 0], [([1, -1, 1], F(1, 3))]))
    views = [(guided, "solution"), (guided, "dual"), (cold, "solution"), (cold, "dual")]
    views += [(infeasible, "farkas"), (unbounded, "ray")]
    for res, name in views:
        nums, den = getattr(res, name + "_ints")
        view = getattr(res, name)
        assert {type(k) for k in nums} | {type(den)} == {int} and den > 0
        assert math.gcd(den, *nums) == 1
        assert view == tuple(F(k, den) for k in nums)
        assert getattr(res, name) is view
        assert len({id(v) for v in view}) == len(set(view))
    assert len(set(guided.solution)) < len(guided.solution)
    for res in (guided, cold):
        num, den = res.value_ints
        assert res.value == F(num, den) and math.gcd(num, den) == 1 and den > 0


def test_convergent_recovers_every_close_fraction():
    """The lifting's reconstruction: for a fraction a/d in lowest terms with
    d <= sqrt(q/2), and either integer p with |p - q a/d| < 1, the last
    convergent of p/q with a denominator that small is a/d.  Seeded over
    powers of two (the lifting's q) and other q, with negative values, 0,
    exact dyadics and d at the bound."""
    rng = random.Random(8)
    cases = []
    for _ in range(4000):
        q = 2 ** rng.randint(1, 160) if rng.random() < 0.7 else rng.randint(2, 2**90)
        bound = math.isqrt(q // 2)
        d = rng.choice([1, bound, rng.randint(1, bound), 2 ** rng.randint(0, bound.bit_length() - 1)])
        a = rng.choice([0, rng.randint(-d, d), rng.randint(-(10**6) * d, 10**6 * d)])
        cases.append((F(a, d), q))
    for v, q in cases:
        a, d = v.numerator, v.denominator
        assert d <= math.isqrt(q // 2)
        for p in {(q * a) // d, -((-q * a) // d)}:  # floor and ceiling of q a / d
            assert abs(p - F(q * a, d)) < 1
            assert lp._convergent(p, q) == (a, d), (p, q, v)
    assert any(v == 0 for v, _ in cases) and any(v < 0 for v, _ in cases)
    assert any(v.denominator > 1 and q % v.denominator == 0 for v, q in cases)


def _optimal_problems():
    """Solved problems whose every variable appears in some row."""
    return (
        lp.make_problem(
            [3, 5, 0, 0, 0],
            [([1, 0, 1, 0, 0], 4), ([0, 2, 0, 1, 0], 12), ([3, 2, 0, 0, 1], 18)],
        ),
        lp.make_problem([1, 1, 0], [([1, -1, 0], 0), ([1, 0, 1], F(1, 3))]),
        lp.make_problem([-1, -2, 0, 0], [([1, 1, -1, 0], 3), ([1, 0, 0, 1], 2)]),
    )


def test_verify_optimal_rejects_tampered_dual():
    """Negating one dual numerator, or giving the duals a denominator that
    is not positive, fails the check."""
    for problem in _optimal_problems():
        res = lp.solve(problem)
        nums, den = res.dual_ints
        flips = list(_sign_flips(res.dual_ints))
        assert flips
        for dual in flips + [(nums, 0), (nums, -den)]:
            with pytest.raises(lp.LPError):
                lp._verify_optimal(problem, dataclasses.replace(res, dual_ints=dual))


def test_verify_optimal_rejects_tampered_solution():
    """Negating one solution numerator, raising one value by 1, dropping a
    value or negating the denominator fails the check."""
    for problem in _optimal_problems():
        res = lp.solve(problem)
        x, den = res.solution_ints
        flips = list(_sign_flips(res.solution_ints))
        raised = [(x[:i] + (v + den,) + x[i + 1 :], den) for i, v in enumerate(x)]
        assert flips
        for solutions, message in (
            (flips, "negative variable"),
            (raised, "constraint violated"),
            ([(x[:-1], den), (x, -den)], "malformed solution"),
        ):
            for solution in solutions:
                with pytest.raises(lp.LPError, match=message):
                    lp._verify_optimal(problem, dataclasses.replace(res, solution_ints=solution))


def test_verify_infeasible_rejects_tampered_farkas():
    # x1 + x2 >= 2 (surplus), x1 <= 1 and x2 <= 1/2 (slacks)
    problem = lp.make_problem(
        [1, 1, 0, 0, 0],
        [([1, 1, -1, 0, 0], 2), ([1, 0, 0, 1, 0], 1), ([0, 1, 0, 0, 1], F(1, 2))],
    )
    res = lp.solve(problem)
    assert res.status == "infeasible"
    nums, den = res.farkas_ints
    flips = list(_sign_flips(res.farkas_ints))
    assert flips
    for farkas in flips + [(nums, -den)]:
        with pytest.raises(lp.LPError):
            lp._verify_infeasible(problem, farkas)


def test_verify_ray_rejects_tampered_ray():
    # x1 - x2 <= 1 (slack s)
    problem = lp.make_problem([1, 1, 0], [([1, -1, 1], 1)])
    res = lp.solve(problem)
    assert res.status == "unbounded"
    flips = list(_sign_flips(res.ray_ints))
    assert flips
    for ray in flips:
        with pytest.raises(lp.LPError):
            lp._verify_ray(problem, ray)


def _no_basis(indptr, indices, data, b, cost):
    """A float pass that proposes no basis, so ``lp.solve`` runs the exact
    simplex from the all-artificial basis."""
    return None, None, 0


@pytest.fixture
def cold(monkeypatch):
    """Pin ``lp.solve`` to the exact simplex: the tests that use it pin how
    that simplex pivots, which a verified float basis skips."""
    monkeypatch.setattr(lp, "_float_basis", _no_basis)


def _solve_results(test):
    """Every LPResult ``lp.solve`` returns while ``test`` runs."""
    solve, results = lp.solve, []

    def logged(problem):
        results.append(solve(problem))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", logged)
        test()
    return results


@pytest.mark.parametrize("guard", [1, 2**8])
@pytest.mark.parametrize(
    "test",
    [test_random_lps_against_vertex_enumeration, test_random_fractional_lps_against_vertex_enumeration],
)
def test_random_lps_on_the_big_integer_path(monkeypatch, cold, test, guard):
    """With the int64 guard set to 1 every pivot runs on Python integers; at
    2**8 some solves switch part way through (in the pivot, the pricing, the
    tableau column and the phase-2 duals).  The oracle still agrees, and
    every result (status, value, solution, certificates, pivot count)
    equals the int64 run's."""
    int64_results = _solve_results(test)
    monkeypatch.setattr(lp, "_INT64_SAFE", guard)
    modes = []  # (pivots so far, on Python integers) at every pivot
    pivot = lp._Simplex._pivot

    def recording_pivot(self, *args):
        modes.append((self.pivots, self.big))
        pivot(self, *args)

    monkeypatch.setattr(lp._Simplex, "_pivot", recording_pivot)
    assert _solve_results(test) == int64_results
    assert sum(res.pivots for res in int64_results) == len(modes) > 0
    if guard == 1:
        assert all(big for _, big in modes)
    else:
        assert any(b > a and not a_big and b_big for (a, a_big), (b, b_big) in zip(modes, modes[1:]))


def _gyni4_mixture():
    """A local box of the four-party binary scenario: six vertices mixed with
    weights over 19."""
    scen = core.binary_scenario(4)
    strategies = core.enumerate_deterministic_strategies(scen)
    return core.mix_boxes(
        [core.box_from_strategy(scen, strategies[k]) for k in (132, 55, 129, 107, 221, 10)],
        [F(w, 19) for w in (4, 1, 7, 3, 1, 3)],
    )


def _pinned_cold_calls():
    """The model solves whose cold pivot counts are pinned, by name.  The
    infeasible membership LP tests the GYNI-4 NS box of the full-probability
    LP, a fixed input whatever optimum ``ns_max`` picks; TOBL, GYNI-7 and
    GYNI-6 are collapsed under the games' relabeling symmetries."""
    mixture = _gyni4_mixture()
    ns_box = core.Box(mixture.scenario, ns_full_lp.ns_lp_max(gyni.gyni_expression(4).expression)[1])
    tobl = gyni.gyni_sum_expression(3)
    ns7, ns6 = gyni.gyni_expression(7).expression, gyni.gyni_expression(6).expression
    return {
        "four-partite": lambda: polytope.ns_max(upb.four_partite_tight_inequality()),
        "mixture": lambda: polytope.local_membership(mixture),
        "GYNI-4 NS box": lambda: polytope.local_membership(ns_box),
        "TOBL": lambda: polytope.tobl_max(tobl),
        "GYNI-7": lambda: polytope.ns_max(ns7),
        "GYNI-6": lambda: polytope.ns_max(ns6),
    }


def test_pivot_counts_are_pinned(cold):
    """Pricing (best in the first improving block) and the lexicographic
    ratio test fix the pivot sequence; these counts change only if a pivot
    choice changes.  So do the phase-1 and zero-step pivot counts.  The
    last entry is the LP's column count (None when infeasible)."""
    counters = {}
    for name, call in _pinned_cold_calls().items():
        (res,) = _solve_results(call)
        columns = res.solution and len(res.solution)
        counters[name] = res.status, res.pivots, res.phase1_pivots, res.degenerate_pivots, columns
    assert counters == {
        "four-partite": ("optimal", 531, 263, 379, 384),
        "mixture": ("optimal", 52, 52, 46, 256),
        "GYNI-4 NS box": ("infeasible", 56, 56, 56, None),
        "TOBL": ("optimal", 52, 32, 39, 144),
        "GYNI-7": ("optimal", 14, 7, 11, 40),
        "GYNI-6": ("optimal", 30, 17, 26, 128),
    }


def test_zero_ratio_ties_take_the_lexicographically_least_row(monkeypatch, cold):
    """Among rows tied at ratio 0 the ratio test compares only those whose
    first nonzero inverse entry lies furthest right.  At every pivot with
    two or more such ties, in the pinned cold solves and the wide LP, the
    row it picks is the one ``_lex_least`` picks over all of them."""
    agree = []
    ratio_test = lp._Simplex._ratio_test

    def checked(self, unum):
        row = ratio_test(self, unum)
        ties = ((unum > 0) & (self.M[:, self.m] == 0)).nonzero()[0]
        if ties.size > 1:
            agree.append(row == self._lex_least(ties, unum))
        return row

    monkeypatch.setattr(lp._Simplex, "_ratio_test", checked)
    for call in _pinned_cold_calls().values():
        call()
    lp.solve(_wide_lp())
    assert len(agree) > 100 and all(agree)


def _wide_lp():
    """41 rows over 741 columns: 40 ``<=`` rows, each over 60 of 700 seeded
    columns with coefficients 1-6 and a right-hand side of 50-200, and one
    cap row over all 700 with right-hand side 1000, each row with a slack."""
    rng = random.Random(3)
    n, rows = 700, 40
    constraints = []
    for i in range(rows):
        coeffs = {j: rng.randint(1, 6) for j in rng.sample(range(n), 60)}
        coeffs[n + i] = 1
        constraints.append((coeffs, rng.randint(50, 200)))
    cap = dict.fromkeys(range(n), 1)
    cap[n + rows] = 1
    constraints.append((cap, 1000))
    objective = [rng.randint(-3, 5) for _ in range(n)] + [0] * (rows + 1)
    return lp.make_problem(objective, constraints)


def test_block_pricing_pivots_are_pinned(monkeypatch, cold):
    """An LP wider than ``PRICE_BLOCK`` columns is priced a block at a time,
    which no LP of the models reaches cold.  Every pricing of this one takes
    the block branch, and its pivot counts are pinned like those of
    ``test_pivot_counts_are_pinned``."""
    problem = _wide_lp()
    assert problem.n > lp.PRICE_BLOCK
    blocks = []
    price = lp._Simplex._price

    def recording_price(self, dnum):
        blocks.append(self.n > lp.PRICE_BLOCK)
        return price(self, dnum)

    monkeypatch.setattr(lp._Simplex, "_price", recording_price)
    res = lp.solve(problem)
    assert (res.status, res.value) == ("optimal", F(1270963643, 268650))
    assert (res.pivots, res.phase1_pivots, res.degenerate_pivots) == (550, 184, 0)
    # one pricing per pivot and one that ends each phase
    assert blocks == [True] * 552


def test_wide_lp_certifies_guided(monkeypatch):
    """The LP of ``test_block_pricing_pivots_are_pinned`` given the float
    guide: the float pass stops at an optimal basis after 205 pivots, whose
    basic values have denominators up to 23641200, and the exact lifting
    solves it, so no exact pivot runs."""

    def cold(std):
        raise AssertionError("the float basis did not verify")

    monkeypatch.setattr(lp, "_Simplex", cold)
    res = lp.solve(_wide_lp())
    assert (res.status, res.value) == ("optimal", F(1270963643, 268650))
    assert (res.pivots, res.float_pivots) == (0, 205)


@requires_slow
def test_cold_uncollapsed_tobl_lp_opt_in(cold):
    """The 404-row, 1600-column TOBL LP of GYNI-3 without symmetry, solved
    by the exact simplex alone: block pricing and the lexicographic ratio
    test carry it to the paper's 7/6."""
    expr = dataclasses.replace(gyni.gyni_sum_expression(3), party_symmetries=())
    (res,) = _solve_results(lambda: polytope.tobl_max(expr))
    assert (res.status, res.value, res.pivots) == ("optimal", F(7, 6), 3092)


def _unique_solution(aug, k):
    """The one solution of the augmented Fraction system ``aug`` in ``k``
    unknowns, or None if it has none or many."""
    aug = [row[:] for row in aug]
    for c in range(k):
        p = next((r for r in range(c, len(aug)) if aug[r][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(len(aug)):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    if any(row[k] for row in aug[k:]):
        return None
    return [aug[c][k] for c in range(k)]


def _vertex_optimum(problem):
    """The largest objective value over the vertices of ``{x >= 0 : A x =
    b}``, by brute force over every set of columns on which ``A x = b`` has
    one solution, kept if it is nonnegative; None if there is no vertex."""
    rows = problem.constraints
    A = [[F(0)] * problem.n for _ in range(len(rows))]
    for i, j, v in zip(rows.row.tolist(), rows.col.tolist(), rows.val.tolist()):
        A[i][j] = F(v)
    b = [F(v, rows.rhs_den) for v in rows.rhs.tolist()]
    c = [F(v, problem.objective_den) for v in problem.objective]
    best = None
    for size in range(len(rows) + 1):
        for cols in itertools.combinations(range(problem.n), size):
            x = _unique_solution([[r[j] for j in cols] + [bi] for r, bi in zip(A, b)], size)
            if x is not None and all(v >= 0 for v in x):
                value = sum((c[j] * v for j, v in zip(cols, x)), F(0))
                best = value if best is None else max(best, value)
    return best


def _homogeneous_lps(seed, count, rows=3, cols=4):
    """Seeded LPs over ``rows`` equality rows with zero right-hand sides and
    integer coefficients in [-3, 3], as pairs: the cone ``{x >= 0 : A x =
    0}`` alone, and capped by one more row ``sum x + s = K`` (K in 1..4)
    with a slack s."""
    rng = random.Random(seed)
    for _ in range(count):
        homogeneous = [({j: rng.randint(-3, 3) for j in range(cols)}, 0) for _ in range(rows)]
        objective = [rng.randint(-3, 4) for _ in range(cols)]
        cap = dict.fromkeys(range(cols + 1), 1)
        yield (
            lp.make_problem(objective, homogeneous),
            lp.make_problem(objective + [0], homogeneous + [(cap, rng.randint(1, 4))]),
        )


def test_homogeneous_rows_exclude_columns_and_lift_the_duals(monkeypatch, cold):
    """Zero right-hand sides leave artificials basic at zero after phase 1,
    so phase 2 prices only the columns of zero phase-1 reduced cost, and on
    many of these LPs the phase-2 duals y2 price an excluded column as
    improving: the returned duals are y2 + t y1 with t > 0.  Each capped
    LP's value is the vertex enumeration's, and each cone is unbounded
    exactly when its capped LP's optimum is positive, else its optimum is
    0.  Without the lift, the LPs that needed it fail verification."""
    lifted, needed = [], []
    lift = lp._Simplex.lift_duals

    def recording(self, d1, y1num):
        before = self.ynum.tolist(), self.yden
        lift(self, d1, y1num)
        lifted.append((self.ynum.tolist(), self.yden) != before)

    def solved(problem):
        lifted.clear()
        res = lp.solve(problem)
        if any(lifted):
            needed.append(problem)
        return res

    monkeypatch.setattr(lp._Simplex, "lift_duals", recording)
    for cone, capped in _homogeneous_lps(8, 150):
        best = _vertex_optimum(capped)
        res = solved(capped)
        assert (res.status, res.value) == ("optimal", best)
        res = solved(cone)
        assert (res.status, res.value) == (("unbounded", None) if best > 0 else ("optimal", 0))
    assert len(needed) > 100
    monkeypatch.setattr(lp._Simplex, "lift_duals", lambda self, d1, y1num: None)
    for problem in needed:
        with pytest.raises(lp.LPError, match="improving direction remains"):
            lp.solve(problem)


def test_dual_lift_on_a_hand_made_lp(monkeypatch):
    """max x2 + 2 x3 subject to -x2 - x3 = 0 and x1 + x2 + x3 = 1.  Phase 1
    enters x1 in the second row and ends with the first row's artificial
    basic at zero, duals y1 = (1, 0) and reduced costs d1 = (0, 1, 1) (in
    the solver's minimization of -x2 - 2 x3), so phase 2 excludes x2 and
    x3.  Its duals y2 = 0 price them at -1 and -2; the least t that makes
    both nonnegative is 2, and the maximum's duals are -(y2 + 2 y1) =
    (-2, 0).  The phase-2 duals alone fail verification."""
    problem = lp.make_problem([0, 1, 2], [([0, -1, -1], 0), ([1, 1, 1], 1)])
    res = _cold_solve(problem)
    assert (res.status, res.value, res.solution, res.dual) == ("optimal", 0, (1, 0, 0), (-2, 0))
    assert (res.pivots, res.phase1_pivots) == (1, 1)
    monkeypatch.setattr(lp._Simplex, "lift_duals", lambda self, d1, y1num: None)
    with pytest.raises(lp.LPError, match="improving direction remains"):
        _cold_solve(problem)


def _cg_membership_problem(box):
    """The membership LP of a binary-scenario box posed in Collins-Gisin
    rows: one row per subset-marginal coordinate (constant first, the
    layout of ``cg_coordinates_of_strategies``), one 0/1 column per
    deterministic strategy, and as right-hand side the box's marginal
    P(a_S = 0 | x_S) at that coordinate (the constant row's is 1)."""
    scen = box.scenario
    parties = len(scen.inputs)
    strategies = math.prod(d**m for m, d in zip(scen.inputs, scen.outputs))
    coords = polytope.cg_coordinates_of_strategies(scen, np.arange(strategies))
    table = np.array(box.exact_table(), dtype=object).reshape((2,) * (2 * parties))
    rhs = []
    for digits in itertools.product(range(3), repeat=parties):
        # digit 0 sums the party's outcomes at input 0; digit 1 + x fixes
        # input x and outcome 0
        inputs = tuple(max(d - 1, 0) for d in digits)
        outcomes = tuple(0 if d else slice(None) for d in digits)
        rhs.append(F(np.sum(table[inputs + outcomes])))
    nums, den = core.integer_numerators(rhs)
    row, col = coords.T.nonzero()
    rows = lp.Rows(row, col, np.ones(row.size, dtype=np.int64), np.array(nums, dtype=object), den)
    return lp.make_problem([0] * coords.shape[0], rows)


@pytest.mark.parametrize(
    "n, pivots", [(4, 303), pytest.param(5, 8317, marks=requires_slow)]
)
def test_cg_row_membership_lp_of_the_gyni_ns_box(n, pivots):
    """The GYNI-N NS box is not local, and its membership LP posed in
    Collins-Gisin rows (3**N rows over 4**N 0/1 columns, most pivots
    degenerate) ends infeasible with a verified Farkas certificate after a
    pinned number of cold pivots.  N = 5 (243 x 1024) takes a few seconds,
    so it is opt-in.  The same rows for a mixture of three vertices are
    feasible, which checks the right-hand sides."""
    scen = core.binary_scenario(n)
    vertices = [core.box_from_strategy(scen, s) for s in core.enumerate_deterministic_strategies(scen)[3:201:98]]
    mixture = core.mix_boxes(vertices, [F(1, 2), F(1, 3), F(1, 6)])
    assert lp.solve(_cg_membership_problem(mixture)).status == "optimal"
    box = polytope.ns_max(gyni.gyni_expression(n).expression).box
    problem = _cg_membership_problem(box)
    assert (len(problem.constraints), problem.n) == (3**n, 4**n)
    res = lp.solve(problem)
    assert (res.status, res.pivots, res.float_pivots) == ("infeasible", pivots, 0)
    lp._verify_infeasible(problem, res.farkas_ints)


def _random_promise_game(rng, n=3):
    """A GYNI game of n parties whose promise is a seeded random
    distribution."""
    scen = core.binary_scenario(n)
    raw = [rng.randint(0, 8) for _ in range(scen.n_inputs)]
    raw[0] += not sum(raw)
    q = core.InputDistribution(scen, {x: F(v, sum(raw)) for x, v in enumerate(raw) if v})
    return gyni.gyni_expression(n, q).expression


@pytest.mark.parametrize("reduce_at", [2**8, 2**16])
def test_results_do_not_depend_on_the_reduction_threshold(monkeypatch, cold, reduce_at):
    """Lowering the bound at which a row is divided by its gcd runs the
    blocked reduction on many more pivots; every result (status, value,
    solution, dual, Farkas vector, pivot count) stays that of the default."""
    mixture = _gyni4_mixture()
    ns_box = polytope.ns_max(gyni.gyni_expression(4).expression).box
    rng = random.Random(5)
    games = [_random_promise_game(rng) for _ in range(3)]
    calls = [
        lambda: polytope.ns_max(upb.four_partite_tight_inequality()),
        lambda: polytope.local_membership(mixture),
        lambda: polytope.local_membership(ns_box),
        *(lambda g=g: polytope.ns_max(g) for g in games),
        test_random_lps_against_vertex_enumeration,
        test_random_fractional_lps_against_vertex_enumeration,
    ]
    reduced, scaled = [], []  # per pivot: rows were reduced; pivot entry not 1
    pivot, reduce = lp._Simplex._pivot, lp._Simplex._reduce

    def recording_pivot(self, enter, row, unum):
        reduced.append(False)
        pivot(self, enter, row, unum)
        scaled.append(self.bden[row] != 1)

    def recording_reduce(self, rows):
        reduced[-1] |= rows.size > 0
        reduce(self, rows)

    monkeypatch.setattr(lp._Simplex, "_pivot", recording_pivot)
    monkeypatch.setattr(lp._Simplex, "_reduce", recording_reduce)
    default = [_solve_results(call) for call in calls]
    reduced_default = sum(reduced)
    reduced.clear()
    scaled.clear()
    monkeypatch.setattr(lp, "_REDUCE_AT", reduce_at)
    assert [_solve_results(call) for call in calls] == default
    assert sum(reduced) > reduced_default
    assert any(scaled)


def _lex_least_oracle(M, rows, unum):
    """The row of ``rows`` whose inverse row over its tableau entry,
    ``M[i, :m] / unum[i]``, is the least tuple of fractions."""
    m = M.shape[0]
    return min(rows, key=lambda i: tuple(F(int(v), int(unum[i])) for v in M[i, :m]))


@pytest.mark.parametrize("big", [False, True, "wide"])
@pytest.mark.parametrize("depth", [40, 170])
def test_lex_least_matches_fraction_oracle(big, depth):
    """Sixty candidate rows whose scaled rows all agree up to column
    ``depth``.  There half of them lose; the other half agree for another
    hundred columns, so the tournament's comparisons among them run deep
    into the rows.  On int64 arrays, on Python integers past 2**63, and
    (``wide``) on int64 arrays whose cross products at column ``depth`` are
    2**64, which wraps to 0 in int64: only the guard, which takes such
    cross products in Python integers, keeps a comparison from passing over
    that column to one where the losers win."""
    rng = np.random.default_rng(depth)
    m = 300
    M = rng.integers(-6, 7, size=(m, m + 1))
    unum = rng.integers(1, 5, size=m)
    base = rng.integers(-6, 7, size=m + 1)
    if big is True:
        M, unum, base = M.astype(object), unum.astype(object), base.astype(object)
        M = M * 2**70 + rng.integers(-6, 7, size=(m, m + 1))
        base = base * 2**70 + 1
    rows = rng.choice(m, size=60, replace=False)
    if big == "wide":
        unum[rows] = 2**20
        base[depth] = 0
    for k, i in enumerate(rows):
        shared = depth + 100 if k % 2 else depth + 1
        M[i, :shared] = unum[i] * base[:shared]
        if k % 2:
            continue
        if big == "wide":
            M[i, depth] = 2**44
            M[i, depth + 1] = unum[i] * base[depth + 1] - 1
        else:
            M[i, depth] += 1
    if big == "wide":
        assert M.dtype == np.int64 and not (M[rows, depth] * unum[rows])[0]  # wrapped
    sx = object.__new__(lp._Simplex)
    sx.m, sx.M, sx.big = m, M, big is True
    sx.rowmax = np.abs(M).max(axis=1)
    got = sx._lex_least(rows, unum)
    assert got == _lex_least_oracle(M, rows.tolist(), unum)
    assert list(rows).index(got) % 2


def test_verify_optimal_on_fractional_rows_with_huge_dual_denominators():
    """Rows with fractional coefficients and right-hand sides whose duals
    have denominators past 2**63: the solver's certificate passes the
    integer check; moving one dual numerator by one unit fails it, and so
    does a value off by 2**-70."""
    P, Q = 2**64 + 13, 2**65 + 7
    problem = lp.make_problem(
        [1, 1, 0, 0],
        [([F(P, 3), F(1, 2), 1, 0], F(5, 7)), ([F(1, 5), F(Q, 11), 0, 1], F(2, 3))],
    )
    res = lp.solve(problem)
    assert res.status == "optimal"
    assert all(y.denominator > 2**63 for y in res.dual)
    lp._verify_optimal(problem, res)
    nums, den = res.dual_ints
    for i, y in enumerate(nums):
        for step in (1, -1):
            dual = nums[:i] + (y + step,) + nums[i + 1 :], den
            with pytest.raises(lp.LPError):
                lp._verify_optimal(problem, dataclasses.replace(res, dual_ints=dual))
    num, den = res.value_ints
    value = num * 2**70 + den, den * 2**70  # res.value + 2**-70
    with pytest.raises(lp.LPError, match="strong duality"):
        lp._verify_optimal(problem, dataclasses.replace(res, value_ints=value))


def _with_fractions(problem):
    """The same LP posed as ``(coeffs, rhs)`` pairs with every coefficient
    and right-hand side a Fraction."""
    rows = problem.constraints
    pairs = [({}, F(b, rows.rhs_den)) for b in rows.rhs.tolist()]
    for i, j, v in zip(rows.row.tolist(), rows.col.tolist(), rows.val.tolist()):
        pairs[i][0][j] = F(v)
    return lp.make_problem([F(c, problem.objective_den) for c in problem.objective], pairs)


def _random_integer_lps(seed, count, rows=6, cols=8):
    """Seeded LPs with integer coefficients up to 5 in absolute value, rows
    of every kind (<= with a slack, >= with a surplus, =) and right-hand
    sides of either sign: optimal, infeasible and unbounded ones, with
    pivot entries other than 1."""
    rng = random.Random(seed)
    for _ in range(count):
        kinds = [rng.choice((1, -1, 0)) for _ in range(rows)]
        constraints, slack = [], cols
        for kind in kinds:
            coeffs = {j: rng.randint(-3, 5) for j in range(cols)}
            if kind:
                coeffs[slack] = kind
                slack += 1
            constraints.append((coeffs, rng.randint(-4, 9)))
        objective = [rng.randint(-3, 4) for _ in range(cols)] + [0] * (slack - cols)
        yield lp.make_problem(objective, constraints)


def _posed_problems(call):
    """Every LPProblem ``lp.solve`` receives while ``call`` runs."""
    problems = []
    solve = lp.solve

    def recording(problem):
        problems.append(problem)
        return solve(problem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", recording)
        call()
    return problems


def test_int_and_fraction_coefficients_give_equal_results():
    """An LP posed as int64 rows (as ``make_problem`` and the polytope
    models give them) and the same LP posed as Fraction pairs give equal
    results: status, value, solution, certificates and every counter."""
    rng = random.Random(5)
    problems = list(_random_integer_lps(11, 30))
    problems += _optimal_problems()
    problems += _posed_problems(lambda: polytope.ns_max(_random_promise_game(rng)))
    problems += _posed_problems(lambda: polytope.tobl_max(gyni.gyni_sum_expression(3)))
    statuses = set()
    for problem in problems:
        assert problem.constraints.val.dtype == np.int64
        res = lp.solve(problem)
        assert lp.solve(_with_fractions(problem)) == res
        statuses.add(res.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _fraction_inverse(columns, m):
    """B^-1 by Gauss-Jordan elimination in Fractions, for the square matrix
    whose column k holds the (row, value) pairs ``columns[k]``; rows are
    sparse dicts."""
    rows = [{} for _ in range(m)]
    for k, col in enumerate(columns):
        for r, v in col:
            rows[r][k] = F(v)
    inv = [{r: F(1)} for r in range(m)]
    for k in range(m):
        p = next(r for r in range(k, m) if rows[r].get(k))
        rows[k], rows[p], inv[k], inv[p] = rows[p], rows[k], inv[p], inv[k]
        piv = rows[k][k]
        rows[k] = {c: v / piv for c, v in rows[k].items()}
        inv[k] = {c: v / piv for c, v in inv[k].items()}
        for r in range(m):
            f = rows[r].get(k) if r != k else 0
            if f:
                for target, source in ((rows[r], rows[k]), (inv[r], inv[k])):
                    for c, v in source.items():
                        target[c] = target.get(c, 0) - f * v
                        if not target[c]:
                            del target[c]
    return inv


@pytest.mark.parametrize("guard", [None, 1])
def test_basis_inverse_matches_fraction_oracle(monkeypatch, guard):
    """After every pivot of small seeded LPs and of a random-promise GYNI
    N = 3 no-signaling LP, each row ``M[i] / bden[i]`` is row i of the
    inverse of the basis columns, recomputed in Fractions, and ``M[i, m]``
    is the basic value.  Both row updates run: rows whose tableau entry the
    reduced pivot entry ``pden`` divides keep their denominator, the others
    are scaled by it.  On int64 arrays and (guard 1) on Python integers."""
    if guard is not None:
        monkeypatch.setattr(lp, "_INT64_SAFE", guard)
    standard = []
    standardize = lp._standardize

    def recording_standardize(problem):
        standard.append(standardize(problem))
        return standard[-1]

    paths = {"kept": 0, "scaled": 0}
    pivot = lp._Simplex._pivot

    def checked_pivot(self, enter, row, unum):
        m = self.m
        piv = int(unum[row])
        pden = abs(piv) // math.gcd(*self.M[row].tolist(), piv)
        if pden != 1:
            others = [int(u) for i, u in enumerate(unum.tolist()) if u and i != row]
            paths["kept"] += sum(u % pden == 0 for u in others)
            paths["scaled"] += sum(u % pden != 0 for u in others)
        pivot(self, enter, row, unum)
        std = standard[-1]
        columns = []
        for j in self.basis.tolist():
            if j < std.n:
                lo, hi = int(std.indptr[j]), int(std.indptr[j + 1])
                columns.append(zip(std.indices[lo:hi].tolist(), std.data[lo:hi].tolist()))
            else:
                columns.append([(j - std.n, 1)])
        inverse = _fraction_inverse(columns, m)
        for i in range(m):
            d = int(self.bden[i])
            assert d > 0
            got = {r: F(int(v), d) for r, v in enumerate(self.M[i, :m].tolist()) if v}
            assert got == inverse[i]
            value = sum((v * F(std.b[r]) for r, v in inverse[i].items()), F(0))
            assert F(int(self.M[i, m]), d * self.b_scale) == value

    monkeypatch.setattr(lp, "_standardize", recording_standardize)
    monkeypatch.setattr(lp._Simplex, "_pivot", checked_pivot)
    for problem in _random_integer_lps(7, 12):
        lp.solve(problem)
    polytope.ns_max(_random_promise_game(random.Random(5)))
    assert paths["kept"] and paths["scaled"]


def test_guided_counters_are_pinned():
    """The float pass pivots alike on every run (Devex pricing, the least
    ratio first on ties, a fixed perturbation), so its pivot count is
    pinned like the exact simplex's; a basis it proposes that verifies
    leaves no exact pivot."""

    def counters(call):
        (res,) = _solve_results(call)
        return res.status, res.pivots, res.float_pivots, len(res.solution)

    four = upb.four_partite_tight_inequality()
    assert counters(lambda: polytope.ns_max(four)) == ("optimal", 0, 326, 384)
    tobl = gyni.gyni_sum_expression(3)
    assert counters(lambda: polytope.tobl_max(tobl)) == ("optimal", 0, 41, 144)
    ns6, ns7 = gyni.gyni_expression(6).expression, gyni.gyni_expression(7).expression
    assert counters(lambda: polytope.ns_max(ns6)) == ("optimal", 0, 29, 128)
    assert counters(lambda: polytope.ns_max(ns7)) == ("optimal", 0, 11, 40)


def _cold_solve(problem):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_float_basis", _no_basis)
        return lp.solve(problem)


def test_guided_and_cold_solves_agree():
    """The float pass proposes a basis that verifies, so no exact pivot runs,
    and the value is the cold exact simplex's on the 20 seeded games of
    acceptance criterion 4, the four-partite UPB inequality, parity GYNI
    N = 3..7 with symmetry and the collapsed TOBL LP."""
    rng = random.Random(20240817)
    games = [_random_promise_game(rng) for _ in range(20)]
    games.append(upb.four_partite_tight_inequality())
    games += [gyni.gyni_expression(n).expression for n in range(3, 8)]
    calls = [lambda g=g: polytope.ns_max(g) for g in games]
    calls.append(lambda: polytope.tobl_max(gyni.gyni_sum_expression(3)))
    for call in calls:
        (problem,) = _posed_problems(call)
        guided, cold = lp.solve(problem), _cold_solve(problem)
        assert (guided.status, guided.pivots) == ("optimal", 0) and guided.float_pivots
        assert cold.status == "optimal" and cold.pivots and not cold.float_pivots
        assert guided.value == cold.value


def test_repeated_solves_are_identical():
    """Two solves of one problem give the same solution, duals and counters,
    guided and cold: answers that are compared across runs (by value and
    box) depend on it."""
    calls = [
        lambda: polytope.ns_max(upb.four_partite_tight_inequality()),
        lambda: polytope.ns_max(_random_promise_game(random.Random(5))),
        lambda: polytope.tobl_max(gyni.gyni_sum_expression(3)),
        lambda: polytope.ns_max(gyni.gyni_expression(8).expression),
    ]
    for call in calls:
        (problem,) = _posed_problems(call)
        first = lp.solve(problem)
        assert first.float_pivots and not first.pivots
        assert lp.solve(problem) == first
        assert _cold_solve(problem) == _cold_solve(problem)


def test_carried_inverse_inverts_the_basis(monkeypatch):
    """The inverse the float pass carries through its updates is the inverse
    of the basis it stops at, to 1e-9, on the four-partite and GYNI-8 LPs
    (the revised pass) and on the TOBL LP and a random-promise N = 3 game
    (the tableau); ``numpy.linalg.inv`` of the basis is the oracle."""
    passes = []
    float_basis = lp._float_basis

    def recording(indptr, indices, data, b, cost):
        passes.append((indptr, indices, data, float_basis(indptr, indices, data, b, cost)))
        return passes[-1][-1]

    monkeypatch.setattr(lp, "_float_basis", recording)
    polytope.ns_max(upb.four_partite_tight_inequality())
    polytope.ns_max(gyni.gyni_expression(8).expression)
    polytope.tobl_max(gyni.gyni_sum_expression(3))
    polytope.ns_max(_random_promise_game(random.Random(3)))
    assert len(passes) == 4
    for indptr, indices, data, (basis, inverse, _) in passes:
        m, n = inverse.shape[0], len(indptr) - 1
        B = np.zeros((m, m))
        for i, j in enumerate(basis.tolist()):
            if j < n:
                B[indices[indptr[j] : indptr[j + 1]], i] = data[indptr[j] : indptr[j + 1]]
            else:
                B[j - n, i] = 1.0
        assert np.abs(B @ inverse - np.eye(m)).max() <= 1e-9
        oracle = np.linalg.inv(B)
        assert np.abs(inverse - oracle).max() <= 1e-9 * np.abs(oracle).max()


_SIDES_OF_THE_TABLEAU_BOUND = {
    "seed-3 N = 3 game": (
        lambda: polytope.ns_max(_random_promise_game(random.Random(3))),
        lp._FloatTableau,
    ),
    "GYNI-6": (lambda: polytope.ns_max(gyni.gyni_expression(6).expression), lp._FloatTableau),
    "TOBL": (lambda: polytope.tobl_max(gyni.gyni_sum_expression(3)), lp._FloatTableau),
    "N = 4 game": (
        lambda: polytope.ns_max(_random_promise_game(random.Random(3), 4)),
        lp._FloatRevised,
    ),
    "four-partite": (
        lambda: polytope.ns_max(upb.four_partite_tight_inequality()),
        lp._FloatRevised,
    ),
}


@pytest.mark.parametrize("name", _SIDES_OF_THE_TABLEAU_BOUND)
def test_tableau_and_revised_passes_both_certify(monkeypatch, name):
    """The float pass runs in the dense tableau up to ``_TABLEAU_ENTRIES``
    entries and in the revised form past it: the 26 x 64 game and the
    collapsed GYNI-6 (64 x 128) and TOBL (36 x 144) LPs below the bound,
    the 80 x 256 N = 4 game and four-partite (107 x 384) above it.  Either
    form, run directly on either side, stops at a basis whose candidate
    verifies, with the cold exact simplex's value."""
    call, side = _SIDES_OF_THE_TABLEAU_BOUND[name]
    passes = []
    float_simplex = lp._float_simplex

    def recording(form, *args):
        passes.append((form, args))
        return float_simplex(form, *args)

    monkeypatch.setattr(lp, "_float_simplex", recording)
    (problem,) = _posed_problems(call)
    ((form, args),) = passes
    assert form is side
    std, cold = lp._standardize(problem), _cold_solve(problem)
    for form in (lp._FloatTableau, lp._FloatRevised):
        basis, inverse, pivots = float_simplex(form, *args)
        assert pivots
        res = lp._candidate(problem, std, basis, inverse)
        lp._verify_optimal(problem, res)
        assert res.value == cold.value


def test_uncollapsed_tobl_lp_certifies_guided(monkeypatch):
    """The 404-row, 1600-column TOBL LP of GYNI-3 without symmetry: the float
    pass's basis verifies, so no exact pivot runs (the cold exact simplex
    takes 3092 pivots on it), and the value is the paper's 7/6."""

    def cold(std):
        raise AssertionError("the float basis did not verify")

    monkeypatch.setattr(lp, "_Simplex", cold)
    expr = dataclasses.replace(gyni.gyni_sum_expression(3), party_symmetries=())
    (res,) = _solve_results(lambda: polytope.tobl_max(expr))
    assert (res.status, res.value, res.pivots) == ("optimal", F(7, 6), 0)
    assert (len(res.dual), len(res.solution)) == (404, 1600)


@pytest.mark.parametrize("tamper", ["basis", "inverse", "solution", "dual"])
def test_tampered_candidate_falls_back_to_the_cold_result(monkeypatch, tamper):
    """A candidate that fails verification (the all-artificial basis, or the
    float basis's candidate with one nonzero solution value or dual moved by
    2**-30, in its numerators) is discarded, and so is a float inverse
    scaled by 1.5, whose lifting misses at its first step and proposes no
    candidate (scaled by 1 + 1e-9 it still lifts to the guided result).  The
    result is the cold exact simplex's, with the float pivots spent."""
    (problem,) = _posed_problems(lambda: polytope.ns_max(_random_promise_game(random.Random(5))))
    guided, cold = lp.solve(problem), _cold_solve(problem)
    candidate, verify, float_basis = lp._candidate, lp._verify_optimal, lp._float_basis
    if tamper == "basis":

        def all_artificial(indptr, indices, data, b, cost):
            m, n = len(b), len(cost)
            return np.arange(n, n + m), np.eye(m), 7

        monkeypatch.setattr(lp, "_float_basis", all_artificial)
    elif tamper == "inverse":
        std = lp._standardize(problem)
        b, cost = np.array(std.b, float), np.array(std.phase2_cost, float)
        basis, inverse, _ = float_basis(std.indptr, std.indices, std.data.astype(float), b, cost)
        res = candidate(problem, std, basis, inverse * (1 + 1e-9))
        assert dataclasses.replace(res, float_pivots=guided.float_pivots) == guided
        assert candidate(problem, std, basis, inverse * 1.5) is None

        def scaled(*args):
            basis, inverse, pivots = float_basis(*args)
            return basis, inverse * 1.5, pivots

        monkeypatch.setattr(lp, "_float_basis", scaled)
    else:

        def nudged(*args):
            res = candidate(*args)
            nums, den = getattr(res, tamper + "_ints")
            values = [v * 2**30 for v in nums]
            k = next(i for i, v in enumerate(values) if v)
            values[k] += den
            nudged = dataclasses.replace(res, **{tamper + "_ints": (tuple(values), den * 2**30)})
            assert getattr(nudged, tamper)[k] == getattr(res, tamper)[k] + F(1, 2**30)
            return nudged

        monkeypatch.setattr(lp, "_candidate", nudged)
    verdicts = []

    def recording_verify(problem, res):
        try:
            verify(problem, res)
        except lp.LPError:
            verdicts.append(False)
            raise
        verdicts.append(True)

    monkeypatch.setattr(lp, "_verify_optimal", recording_verify)
    res = lp.solve(problem)
    assert verdicts == ([True] if tamper == "inverse" else [False, True])
    assert res.float_pivots == (7 if tamper == "basis" else guided.float_pivots)
    assert dataclasses.replace(res, float_pivots=0) == cold


def test_non_finite_inverse_falls_back_to_the_cold_result(monkeypatch):
    """A float inverse grown past the float range proposes no candidate: the
    cold exact simplex solves the LP, with the float pivots spent."""
    (problem,) = _posed_problems(lambda: polytope.ns_max(_random_promise_game(random.Random(5))))
    cold = _cold_solve(problem)
    float_basis = lp._float_basis

    def overflowed(*args):
        basis, inverse, pivots = float_basis(*args)
        return basis, np.full_like(inverse, np.inf), pivots

    monkeypatch.setattr(lp, "_float_basis", overflowed)
    with np.errstate(all="ignore"):
        res = lp.solve(problem)
    assert res.float_pivots and dataclasses.replace(res, float_pivots=0) == cold


def test_zero_objective_lps_never_reach_the_float_pass(monkeypatch):
    """Feasibility LPs (a zero objective: ``feasible_point`` and both
    membership verdicts) start the exact simplex cold."""
    mixture = _gyni4_mixture()
    ns_box = core.Box(mixture.scenario, ns_full_lp.ns_lp_max(gyni.gyni_expression(4).expression)[1])

    def refused(indptr, indices, data, b, cost):
        raise AssertionError("float pass on a zero objective")

    monkeypatch.setattr(lp, "_float_basis", refused)
    assert lp.feasible_point([([1, 0], F(1, 2)), ([1, 1], 1)], 2).status == "optimal"
    assert polytope.local_membership(mixture).is_local
    assert not polytope.local_membership(ns_box).is_local


def test_entries_past_the_float_range_start_cold():
    """An LP with a coefficient past the float range never reaches the float
    pass; the exact simplex solves it."""
    big = 10**400
    res = lp.solve(lp.make_problem([1, 1, 0], [([big, 1, 1], big)]))
    assert (res.status, res.value, res.float_pivots) == ("optimal", big, 0)
    assert res.pivots
