"""Acceptance suite: one test per headline criterion.

Every test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts both the exact values and the stated runtime budget.
"""

import dataclasses
import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import gynibell as gb
from gynibell import cli, gyni, upb
from gynibell.core import InputDistribution, binary_scenario

from conftest import requires_slow

F = Fraction


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.1f}s)", flush=True)
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget_seconds:
        print(
            f"ACCEPTANCE {number} {name}: FAIL (budget {budget_seconds}s, took {elapsed:.1f}s)",
            flush=True,
        )
        raise AssertionError(f"runtime budget exceeded: {elapsed:.1f}s >= {budget_seconds}s")
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)", flush=True)


def test_criterion_1_gyni3_bounds():
    with criterion(1, "three-party bounds 1/4 and 1/3", 10):
        game = gyni.gyni_expression(3)
        assert gb.classical_max(game.expression).value == F(1, 4)
        ns = gb.ns_max(game.expression)
        assert ns.value == F(1, 3)
        assert gb.is_nonsignaling(ns.box).is_nonsignaling
        assert gb.bell_value(game.expression, ns.box) == F(1, 3)


def test_criterion_2_ratios_n4():
    with criterion(2, "ratio 4/3 at N=4", 300):
        game = gyni.gyni_expression(4)
        ns = gb.ns_max(game.expression)
        assert ns.value / game.expression.classical_bound == F(4, 3)


def test_criterion_2_ratios_n5():
    with criterion(2, "ratio 16/11 at N=5", 300):
        game = gyni.gyni_expression(5)
        ns = gb.ns_max(game.expression)
        assert ns.value / game.expression.classical_bound == F(16, 11)


def test_criterion_2_ratios_n6():
    with criterion(2, "ratio 16/11 at N=6", 1800):
        game = gyni.gyni_expression(6)
        ns = gb.ns_max(game.expression)
        assert ns.value / game.expression.classical_bound == F(16, 11)


def test_criterion_2_ratios_n7():
    with criterion(2, "ratio 64/42 at N=7", 3600):
        game = gyni.gyni_expression(7)
        ns = gb.ns_max(game.expression)
        assert ns.value / game.expression.classical_bound == F(64, 42)


def test_criterion_3_tobl_seven_sixths():
    with criterion(3, "time-ordered bilocal value 7/6", 1800):
        result = gb.tobl_max(gyni.gyni_sum_expression(3))
        assert result.value == F(7, 6)
        # certificate: an explicit shared-weight model reproduced the table
        assert set(result.model) == {(0, (1, 2)), (1, (2, 0)), (2, (0, 1))}


@requires_slow
def test_criterion_3_tobl_without_symmetry_opt_in():
    with criterion(3, "TOBL 7/6 on the uncollapsed LP (opt-in)", 1800):
        expr = dataclasses.replace(gyni.gyni_sum_expression(3), party_symmetries=())
        result = gb.tobl_max(expr)
        assert result.value == F(7, 6)


def test_criterion_4_general_bounds():
    with criterion(4, "ns <= 2*classical and uniform-promise equality", 600):
        rng = random.Random(20240817)
        scen = binary_scenario(3)
        for _ in range(20):
            raw = [rng.randint(0, 8) for _ in range(scen.n_inputs)]
            if sum(raw) == 0:
                raw[0] = 1
            total = sum(raw)
            q = InputDistribution(
                scen, {x: F(v, total) for x, v in enumerate(raw) if v}
            )
            game = gyni.gyni_expression(3, q)
            ns = gb.ns_max(game.expression)
            assert ns.value <= 2 * game.expression.classical_bound
        for n in (3, 4):
            game = gyni.gyni_expression(n, gyni.uniform_promise(n))
            assert gb.ns_max(game.expression).value == game.expression.classical_bound


def test_criterion_5_tightness():
    with criterion(5, "facet verdicts across the catalogue", 1200):
        g3 = gyni.gyni_expression(3).expression
        rep = gb.facet_check(g3, g3.classical_bound)
        assert rep.is_tight and rep.affine_rank == 25 and rep.polytope_dimension == 26

        g5 = gyni.gyni_expression(5).expression
        rep = gb.facet_check(g5, g5.classical_bound)
        assert rep.is_tight and rep.affine_rank == 241 and rep.polytope_dimension == 242

        gen5 = gb.bell_from_set(upb.gen_shifts(3))
        rep = gb.facet_check(gen5, gen5.classical_bound)
        assert not rep.is_tight

        nc43 = upb.niset_cerf_inequality(4, 3)
        rep = gb.facet_check(nc43, nc43.classical_bound)
        assert not rep.is_tight

        wupb_ineq = gb.bell_from_set(upb.wupb_example())
        rep = gb.facet_check(wupb_ineq, wupb_ineq.classical_bound)
        assert rep.is_tight and rep.affine_rank == 43 and rep.polytope_dimension == 44

        four = upb.four_partite_tight_inequality()
        rep = gb.facet_check(four, four.classical_bound)
        assert rep.is_tight and rep.affine_rank == 106 and rep.polytope_dimension == 107


@requires_slow
def test_criterion_5_gyni_7_facet_opt_in():
    """GYNI-7 is a facet: the 8191 saturating vertices have affine rank
    2185, one below the dimension; about 2 s, nearly all of it the rank."""
    with criterion(5, "GYNI-7 facet (opt-in)", 60):
        g7 = gyni.gyni_expression(7).expression
        rep = gb.facet_check(g7, g7.classical_bound)
        assert rep.is_tight and rep.bound_attained
        assert (rep.affine_rank, rep.polytope_dimension) == (2185, 2186)


def test_criterion_6_upb_verdicts():
    with criterion(6, "unextendibility verdicts", 60):
        assert gb.is_upb(upb.shifts()).is_upb
        assert gb.is_upb(upb.gen_shifts(2)).is_upb
        assert gb.is_upb(upb.gen_shifts(3)).is_upb
        for n, d in ((3, 2), (3, 3), (4, 3)):
            assert gb.is_upb(upb.niset_cerf(n, d)).is_upb

        sh = upb.shifts()
        partial = upb.build_local_subsets(sh.vectors[1:], (2, 2, 2))
        verdict = gb.is_upb(partial)
        assert not verdict.is_upb
        assert verdict.extension_witness is not None
        for vec in partial.vectors:
            assert abs(upb.product_inner(verdict.extension_witness, vec)) < 1e-9

        w = upb.wupb_example()
        assert gb.is_wupb(w) and not gb.is_upb(w).is_upb

        with pytest.raises(upb.AmbiguousSubsetsError):
            upb.build_local_subsets(upb.tiles(), (3, 3))


def test_criterion_7_quantum_bound_certificates():
    with criterion(7, "structural quantum-bound certificates", 300):
        for n in range(2, 9):
            assert gyni.orthogonality_certificate(gyni.gyni_expression(n).expression)
        derived = [
            gb.bell_from_set(upb.shifts()),
            gb.bell_from_set(upb.gen_shifts(2)),
            gb.bell_from_set(upb.gen_shifts(3)),
            gb.bell_from_set(upb.niset_cerf(3, 2)),
            upb.niset_cerf_inequality(4, 3),
            gb.bell_from_set(upb.wupb_example()),
            upb.four_partite_tight_inequality(),
        ]
        for e in derived:
            assert gyni.orthogonality_certificate(e)
            assert gb.classical_max(e).value == 1


def test_criterion_8_witness_pipeline():
    with criterion(8, "witness pipeline on the Shifts set", 120):
        from grid_oracle import float_nonsignaling, grid_epsilon_min

        sh = upb.shifts()  # Hadamard-rotated second basis by default
        pi = gb.projector_onto_span(sh)
        eps = gb.epsilon_min(pi, starts=200, seed=0)
        assert 0 < eps < 0.5

        eps_grid = grid_epsilon_min(pi.matrix, points_per_angle=50)
        assert abs(eps - eps_grid) < 1e-4

        report = gb.witness_and_state(sh, eps)
        # the product of tr(W rho) with the complement-space dimension is the
        # closed form -eps/(1-2 eps); tr(W rho) itself is -eps/(4-8 eps)
        assert abs(report.trace_W_rho - (-eps / (4 - 8 * eps))) < 1e-6
        assert abs(4 * report.trace_W_rho - (-eps / (1 - 2 * eps))) < 1e-6

        beta = (1 - eps) / (1 - 2 * eps)
        assert abs(report.bell_value - beta) < 1e-6
        assert report.bell_value > 1 + 1e-6

        table = gb.measure_operator(report.witness, sh)
        assert float_nonsignaling(table, (2, 2, 2), (2, 2, 2))
        assert gb.is_ppt(report.state)


def test_criterion_9_determinism():
    with criterion(9, "byte-identical reruns under a fixed seed", 300):
        import io

        def run(argv):
            old = sys.stdout
            sys.stdout = io.StringIO()
            try:
                code = cli.run(argv)
                text = sys.stdout.getvalue()
            finally:
                sys.stdout = old
            assert code == 0
            return text

        for argv in (
            ["witness", "--set", "shifts", "--starts", "60", "--seed", "7"],
            ["bounds", "--gyni", "4", "--set", "ns"],
            ["tobl", "--gyni", "3"],
            ["facet", "--known", "wupb"],
            ["upb", "nc", "--n", "3", "--d", "3", "--check", "upb"],
        ):
            first = run(argv)
            second = run(argv)
            assert first == second
            json.loads(first)
