"""The four workloads: inputs built from a seed, the queries of one pass, and
the answer checks made outside the timed region.

Every query is a closure that looks the library function up through its
module at call time (``polytope.ns_max``), so the tracing wrappers in
``spans.py`` see the call.  A check returns None when the answer is right
and a short reason otherwise.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from gynibell import core, gyni, polytope, upb

import oracle

F = Fraction


class Query:
    __slots__ = ("label", "call", "check", "same")

    def __init__(self, label, call, check, same=None):
        self.label = label
        self.call = call
        self.check = check          # result -> None | reason
        self.same = same or _same   # (first result, later result) -> bool


def _same(a, b) -> bool:
    return a == b


def _same_optimum(a, b) -> bool:
    return a.value == b.value and a.box == b.box


def _expect(ok: bool, reason: str):
    return None if ok else reason


# ---------------------------------------------------------------------------
# ns-symmetric: model build and orbit collapse


# NS value / classical bound for parity-promise GYNI
_NS_RATIO = {3: F(4, 3), 4: F(4, 3), 5: F(16, 11), 6: F(16, 11), 7: F(64, 42)}
_TOBL_MODEL = {(0, (1, 2)), (1, (2, 0)), (2, (0, 1))}


class NsSymmetric:
    """ns_max on parity-promise GYNI at N = 3..7 and uniform-promise GYNI at
    N = 3, 4, then tobl_max on the three-party sum form.  No random inputs."""

    name = "ns-symmetric"
    expected_spans = (
        "polytope.ns_max", "polytope.tobl_max", "lp.solve", "core.recheck",
        "core.invariance", "gyni.build",
    )

    def build(self, seed):
        parity = {n: gyni.gyni_expression(n).expression for n in _NS_RATIO}
        uniform = {n: gyni.gyni_expression(n, gyni.uniform_promise(n)).expression for n in (3, 4)}
        return parity, uniform, gyni.gyni_sum_expression(3)

    def queries(self, inputs):
        parity, uniform, tobl = inputs
        out = []
        for n, expr in parity.items():
            def check(res, n=n, expr=expr):
                if n == 3 and res.value != F(1, 3):
                    return f"N=3 NS value {res.value} != 1/3"
                return _expect(res.value / expr.classical_bound == _NS_RATIO[n],
                               f"N={n} ratio {res.value / expr.classical_bound} != {_NS_RATIO[n]}")
            out.append(Query(f"ns parity N={n}", lambda e=expr: polytope.ns_max(e), check,
                             _same_optimum))
        for n, expr in uniform.items():
            out.append(Query(
                f"ns uniform N={n}", lambda e=expr: polytope.ns_max(e),
                lambda res, e=expr: _expect(res.value == e.classical_bound,
                                            f"uniform NS {res.value} != classical"),
                _same_optimum))
        out.append(Query(
            "tobl sum N=3", lambda: polytope.tobl_max(tobl),
            lambda res: _expect(res.value == F(7, 6) and set(res.model) == _TOBL_MODEL,
                                f"TOBL value {res.value} or model {sorted(res.model)} wrong"),
            _same_optimum))
        return out


# ---------------------------------------------------------------------------
# lp-raw: the exact LP without symmetry


def _random_promise_game(rng, n):
    """Seeded random promise, drawn as in acceptance criterion 4."""
    scen = core.binary_scenario(n)
    raw = [rng.randint(0, 8) for _ in range(scen.n_inputs)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    q = core.InputDistribution(scen, {x: F(v, total) for x, v in enumerate(raw) if v})
    return gyni.gyni_expression(n, q).expression


def _check_ns(expr, res):
    """classical <= NS <= 2 classical, and agreement with the float oracle."""
    classical = polytope.classical_max(expr).value
    if expr.classical_bound is not None and classical != expr.classical_bound:
        return f"classical_max {classical} != stated bound {expr.classical_bound}"
    if not classical <= res.value <= 2 * classical:
        return f"NS {res.value} outside [{classical}, {2 * classical}]"
    ref = oracle.ns_value(expr)
    return _expect(abs(float(res.value) - ref) <= 1e-9,
                   f"NS {res.value} differs from HiGHS {ref!r}")


class LpRaw:
    """ns_max on seeded random-promise GYNI games at N = 3 (no symmetries)
    and on the four-partite UPB inequality (none declared), then
    local_membership on a feasible mixture and on the infeasible GYNI-4 NS
    box.

    Random games at N = 4 are left out: over eight seeds the LP time of
    three of them varied by 24 % (quartile distance over median), close to
    the largest bound a metric may have, while 20 games at N = 3 average
    out."""

    name = "lp-raw"
    n3_games = 20
    mixture_size = 6
    expected_spans = ("polytope.ns_max", "polytope.local_membership", "lp.solve", "core.recheck")

    def build(self, seed):
        rng = random.Random(seed)
        games = [_random_promise_game(rng, 3) for _ in range(self.n3_games)]
        four = upb.four_partite_tight_inequality()
        scen4 = core.binary_scenario(4)
        strategies = rng.sample(core.enumerate_deterministic_strategies(scen4), self.mixture_size)
        weights = [rng.randint(1, 9) for _ in strategies]
        weights = [F(w, sum(weights)) for w in weights]
        mixture = core.mix_boxes([core.box_from_strategy(scen4, s) for s in strategies], weights)
        ns_box = polytope.ns_max(gyni.gyni_expression(4).expression).box
        return games, four, mixture, ns_box

    def queries(self, inputs):
        games, four, mixture, ns_box = inputs
        out = []
        for k, expr in enumerate(games + [four]):
            label = "ns four-partite" if expr is four else f"ns random N=3 #{k}"
            out.append(Query(label, lambda e=expr: polytope.ns_max(e),
                             lambda res, e=expr: _check_ns(e, res),
                             _same_optimum))
        out.append(Query("membership mixture", lambda: polytope.local_membership(mixture),
                         lambda res: _check_local(res, mixture)))
        out.append(Query("membership GYNI-4 NS box", lambda: polytope.local_membership(ns_box),
                         lambda res: _check_separated(res, ns_box)))
        return out


def _check_local(res, box):
    if not res.is_local:
        return "local mixture reported non-local"
    weights = [w for _, w in res.weights]
    if sum(weights) != 1 or min(weights) <= 0:
        return "membership weights are not a probability vector"
    scen = box.scenario
    rebuilt = core.mix_boxes([core.box_from_strategy(scen, s) for s, _ in res.weights], weights)
    return _expect(rebuilt == box, "membership weights do not rebuild the box")


def _check_separated(res, box):
    if res.is_local:
        return "GYNI-4 NS box reported local"
    expr, bound, value = res.separating
    if value != core.bell_value(expr, box) or not value > bound:
        return "separating inequality does not separate the box"
    return _expect(polytope.classical_max(expr).value <= bound,
                   "separating inequality is violated by a local vertex")


# ---------------------------------------------------------------------------
# facet-catalogue: exact rank


class FacetCatalogue:
    """Acceptance criterion 5's facet_check catalogue without gen_shifts(3),
    plus the criterion-7 orthogonality certificates and classical maxima."""

    name = "facet-catalogue"
    expected_spans = (
        "polytope.facet_check", "polytope.polytope_dimension",
        "polytope.affine_rank_of_strategies", "rank.add_row", "polytope.classical_max",
        "gyni.certificate",
    )

    def build(self, seed):
        catalogue = {
            "GYNI-3": (gyni.gyni_expression(3).expression, (True, 25, 26)),
            "GYNI-5": (gyni.gyni_expression(5).expression, (True, 241, 242)),
            "Niset-Cerf(4,3)": (upb.niset_cerf_inequality(4, 3), (False, 415, 624)),
            "wupb": (upb.bell_from_set(upb.wupb_example()), (True, 43, 44)),
            "four-partite": (upb.four_partite_tight_inequality(), (True, 106, 107)),
        }
        gyni_games = [gyni.gyni_expression(n).expression for n in range(2, 9)]
        derived = [
            upb.bell_from_set(upb.shifts()),
            upb.bell_from_set(upb.gen_shifts(2)),
            upb.bell_from_set(upb.gen_shifts(3)),
            upb.bell_from_set(upb.niset_cerf(3, 2)),
            catalogue["Niset-Cerf(4,3)"][0],
            catalogue["wupb"][0],
            catalogue["four-partite"][0],
        ]
        return catalogue, gyni_games, derived

    def queries(self, inputs):
        catalogue, gyni_games, derived = inputs
        out = []
        for label, (expr, (tight, rank, dim)) in catalogue.items():
            def check(rep, label=label, tight=tight, rank=rank, dim=dim):
                got = (rep.is_tight, rep.affine_rank, rep.polytope_dimension)
                return _expect(got == (tight, rank, dim) and rep.bound_attained,
                               f"{label}: facet verdict {got} != {(tight, rank, dim)}")
            out.append(Query(f"facet {label}",
                             lambda e=expr: polytope.facet_check(e, e.classical_bound), check))

        def criterion7():
            return ([gyni.orthogonality_certificate(e) for e in gyni_games],
                    [(gyni.orthogonality_certificate(e), polytope.classical_max(e).value)
                     for e in derived])

        out.append(Query(
            "criterion-7 certificates", criterion7,
            lambda res: _expect(all(res[0]) and all(ok and v == 1 for ok, v in res[1]),
                                "criterion-7 certificate or classical maximum wrong")))
        return out


# ---------------------------------------------------------------------------
# cli-witness: fresh CLI processes


def cli_calls(seed):
    """(argv, check on the parsed JSON) for every call a pass makes."""
    def witness(is_upb):
        return lambda out: _expect(
            out["is_upb"] is is_upb and out["is_ppt"] is True
            and 0 < out["epsilon"] < 0.5 and out["bell_value"] > 1 and out["trace_W_rho"] < 0,
            "witness report out of range")

    s = str(seed)
    return [
        (["witness", "--set", "shifts", "--starts", "200", "--seed", s], witness(True)),
        (["witness", "--set", "genshifts", "--k", "2", "--starts", "200", "--seed", s],
         witness(True)),
        (["witness", "--set", "wupb", "--starts", "200", "--seed", s], witness(False)),
        (["upb", "genshifts", "--k", "3", "--check", "all", "--emit-bell"],
         lambda out: _expect(out["is_upb"] is True and out["bell"]["classical_bound"] == "1",
                             "gen_shifts(3) verdict or Bell expression wrong")),
        (["bounds", "--gyni", "3", "--set", "ns"],
         lambda out: _expect(out["value"] == "1/3", f"GYNI-3 NS {out['value']} != 1/3")),
        (["facet", "--known", "wupb"],
         lambda out: _expect((out["is_tight"], out["affine_rank"]) == (True, 43),
                             "wupb facet verdict wrong")),
    ]


#: Advertised inputs that exit 1 at the commit that defined this benchmark
#: ("set carries no local subset structure").  They run once per run as
#: probes, outside the timed passes and the latency percentiles.
KNOWN_DEFECTS = (
    ["facet", "--known", "nc-3-3"],
    ["facet", "--known", "nc-4-3"],
    ["upb", "nc", "--n", "4", "--d", "3"],
)


class CliWitness:
    """Fresh CLI processes, one after another, each ``cli_child.py`` running
    ``gynibell.cli`` as ``python -m gynibell.cli`` does, under a speed meter."""

    name = "cli-witness"
    expected_spans = (
        "cli.run", "witness.epsilon_min", "witness.build", "upb.is_upb",
        "upb.bell_from_set", "upb.family", "lp.solve", "rank.add_row",
    )

    env = None          # child environment, set by the runner
    speed_out = None    # file the child's speed meter writes, set by the runner
    in_process = False  # replay through cli.run instead (traced runs)
    last_speed = None   # {"factor", "excluded"} of the last fresh process

    def build(self, seed):
        from gynibell import cli  # noqa: F401  (import cost is part of set-up)
        return cli_calls(seed)

    def run_argv(self, argv):
        """(exit code, stdout bytes, stderr bytes) of one CLI call."""
        if self.in_process:
            return run_in_process(argv)
        self.speed_out.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("cli_child.py")), *argv],
            env={**self.env, "PERFBENCH_SPEED_OUT": str(self.speed_out)},
            capture_output=True, timeout=120,
        )
        self.last_speed = json.loads(self.speed_out.read_text())
        return proc.returncode, proc.stdout, proc.stderr

    def queries(self, calls):
        return [
            Query(" ".join(argv), lambda a=argv: self.run_argv(a), _cli_check(check))
            for argv, check in calls
        ]


def _cli_check(check):
    def run(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.decode(errors='replace').strip()[:200]}"
        try:
            return check(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unexpected output: {exc!r}"
    return run


def run_in_process(argv):
    """Replay one CLI call through ``cli.run`` with captured streams, as
    acceptance criterion 9 does."""
    import io
    from gynibell import cli

    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = cli.run(argv)
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.encode(), err.encode()


WORKLOADS = {w.name: w for w in (NsSymmetric(), LpRaw(), FacetCatalogue(), CliWitness())}

