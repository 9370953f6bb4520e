"""Command-line front end.

Every subcommand prints a single JSON document to stdout (sorted keys,
canonical "p/q" rationals, floats at 12 significant digits) and echoes the
resolved configuration under "meta", so identical inputs and seeds give
byte-identical output.  Progress and errors go to stderr only.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import config, gyni, polytope, upb, witness
from .core import Box, BellExpression, InputDistribution


def _emit(payload: dict, args) -> None:
    meta = {
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "tolerance": config.TOLERANCE,
    }
    payload = dict(payload)
    payload["meta"] = {k: v for k, v in meta.items() if v is not None}
    out = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
    else:
        sys.stdout.write(out + "\n")


def _load(path: str, parse):
    """``parse`` applied to the JSON document in ``path``; a document of the
    wrong shape raises a ``ValueError`` that names the file."""
    with open(path) as fh:
        document = json.load(fh)
    try:
        return parse(document)
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed input file {path}: {type(err).__name__}: {err}") from err


def _promise(args, n: int) -> InputDistribution:
    if args.promise == "parity":
        return gyni.parity_promise(n)
    if args.promise == "uniform":
        return gyni.uniform_promise(n)
    return _load(args.promise, InputDistribution.from_json)


def _resolve_expression(args) -> BellExpression:
    """The one expression the required ``--expr/--gyni/--known`` group names."""
    if args.expr is not None:
        return _load(args.expr, BellExpression.from_json)
    if args.gyni is not None:
        q = _promise(args, args.gyni)
        if args.form == "sum":
            return gyni.gyni_sum_expression(args.gyni, q)
        return gyni.gyni_expression(args.gyni, q).expression
    return _known_expression(args.known)


#: ``--known`` names.  The qutrit Niset-Cerf sets carry no subset
#: structure, so their names give the family's two-setting inequality.
_KNOWN_EXPRESSIONS = {
    "shifts": lambda: upb.bell_from_set(upb.shifts()),
    "genshifts2": lambda: upb.bell_from_set(upb.gen_shifts(2)),
    "genshifts3": lambda: upb.bell_from_set(upb.gen_shifts(3)),
    "nc-3-2": lambda: upb.bell_from_set(upb.niset_cerf(3, 2)),
    "nc-3-3": lambda: upb.niset_cerf_inequality(3, 3),
    "nc-4-3": lambda: upb.niset_cerf_inequality(4, 3),
    "wupb": lambda: upb.bell_from_set(upb.wupb_example()),
    "four-partite": lambda: upb.four_partite_tight_inequality(),
}


def _known_expression(name: str) -> BellExpression:
    if name in _KNOWN_EXPRESSIONS:
        return _KNOWN_EXPRESSIONS[name]()
    raise ValueError(f"unknown inequality name {name!r}")


def _named_set(name: str, args):
    if name == "shifts":
        return upb.shifts()
    if name == "genshifts":
        return upb.gen_shifts(args.k)
    if name == "nc":
        return upb.niset_cerf(args.n, args.d)
    if name == "wupb":
        return upb.wupb_example()
    if name == "tiles":
        return _vector_set(upb.tiles(), (3, 3), "tiles", args)
    return _load(name, lambda document: _vector_set(*upb.vectors_from_json(document), "", args))


def _vector_set(vectors, dims, label: str, args):
    """The set with its local subsets.  Where they are ambiguous (TILES),
    building them raises, and only the UPB verdicts, which need none, take
    the set with its local sets alone."""
    try:
        return upb.build_local_subsets(vectors, dims, label)
    except upb.AmbiguousSubsetsError:
        if args.command == "upb" and args.check != "indep" and not args.emit_bell:
            return upb.build_local_sets(vectors, dims, label)
        raise


def _optimum(kind: str, expression: BellExpression):
    """The maximum of ``expression`` over the correlation set ``kind``
    (classical, ns or tobl); the classical one enumerates strategies up to
    :data:`config.STRATEGY_CAP`."""
    if kind == "classical":
        return polytope.classical_max(expression)
    return (polytope.ns_max if kind == "ns" else polytope.tobl_max)(expression)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gyni(args) -> dict:
    q = _promise(args, args.n)
    game = gyni.gyni_expression(args.n, q)
    out = {
        "n": args.n,
        "expression": game.expression.to_json(),
        "classical_bound": str(game.expression.classical_bound),
        "orthogonality_certificate": gyni.orthogonality_certificate(game.expression),
    }
    if args.bound is not None:
        expression = game.expression
        if args.bound == "tobl":  # the time-ordered bilocal LP takes the sum form
            expression = gyni.gyni_sum_expression(args.n, q)
        out["value"] = str(_optimum(args.bound, expression).value)
    return out


def _cmd_bounds(args) -> dict:
    expression = _resolve_expression(args)
    opt = _optimum(args.set, expression)
    out = {"label": expression.label, "set": args.set, "value": str(opt.value)}
    if args.set == "classical":
        out["strategy"] = [list(r) for r in opt.strategy.responses]
    else:
        out["box"] = opt.box.to_json()
    return out


def _cmd_tobl(args) -> dict:
    if args.gyni is not None:
        expression = gyni.gyni_sum_expression(args.gyni)
    else:
        expression = _load(args.expr, BellExpression.from_json)
    opt = _optimum("tobl", expression)
    return {
        "label": expression.label,
        "value": str(opt.value),
        "box": opt.box.to_json(),
    }


def _cmd_facet(args) -> dict:
    expression = _resolve_expression(args)
    bound = expression.classical_bound
    if bound is None:
        bound = _optimum("classical", expression).value
    report = polytope.facet_check(expression, bound)
    out = report.to_json()
    out["label"] = expression.label
    out["bound"] = str(Fraction(bound))
    return out


def _cmd_upb(args) -> dict:
    pvs = _named_set(args.set, args)
    out = {"label": pvs.label, "size": len(pvs), "dims": list(pvs.dims)}
    # a set without subsets has UPB verdicts but no local independence
    if args.check == "indep" or args.check == "all" and pvs.local_subsets is not None:
        out["local_independence"] = upb.check_local_independence(pvs)
    if args.check in ("upb", "wupb", "all"):
        out["is_wupb"] = upb.is_wupb(pvs)
    if args.check in ("upb", "all"):
        verdict = upb.is_upb(pvs)
        out["is_upb"] = verdict.is_upb
        if verdict.extension_witness is not None:
            out["extension_witness"] = [
                [[float(z.real), float(z.imag)] for z in v]
                for v in verdict.extension_witness
            ]
    if args.emit_bell:
        out["bell"] = upb.bell_from_set(pvs).to_json()
    return out


def _cmd_witness(args) -> dict:
    pvs = _named_set(args.set, args)
    # the witness needs a member and the measured table the subsets; fail
    # before the see-saw runs
    if not len(pvs):
        raise ValueError("set is empty: a witness needs at least one product vector")
    if pvs.local_subsets is None:
        raise ValueError("set carries no local subset structure")
    verdict = upb.is_upb(pvs)
    if verdict.is_upb:
        pi = witness.projector_onto_span(pvs)
        eps = witness.epsilon_min(pi, starts=args.starts, seed=args.seed)
    elif upb.is_wupb(pvs):
        eps = witness.epsilon_min_restricted(pvs)
    else:
        raise ValueError(
            "set is not a weak UPB: a product of its own local vectors is "
            "orthogonal to every member, so eps is 0 and no witness exists"
        )
    report = witness.witness_and_state(pvs, eps)
    out = report.to_json()
    out["is_upb"] = verdict.is_upb
    out["is_ppt"] = witness.is_ppt(report.state)
    out["starts"] = args.starts
    return out


def _cmd_membership(args) -> dict:
    box = _load(args.box, Box.from_json)
    result = polytope.local_membership(box)
    out = {"is_local": result.is_local}
    if result.is_local:
        out["weights"] = [
            {"responses": [list(r) for r in s.responses], "weight": str(w)}
            for s, w in result.weights
        ]
    else:
        expr, bound, value = result.separating
        out["separating"] = {
            "expression": expr.to_json(),
            "local_bound": str(bound),
            "value_at_box": str(value),
        }
    return out


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="gynibell")
    sub = parser.add_subparsers(dest="command", required=True)

    def expression_source(p, known=True):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--expr")
        group.add_argument("--gyni", type=int)
        if known:
            group.add_argument("--known")

    p = sub.add_parser("gyni", help="emit a GYNI game and optionally a bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--promise", default="parity")
    p.add_argument("--bound", choices=["classical", "ns", "tobl"], default=None)
    p.add_argument("--output", default=None)

    p = sub.add_parser("bounds", help="optimize an expression over a correlation set")
    expression_source(p)
    p.add_argument("--promise", default="parity")
    p.add_argument("--form", choices=["weighted", "sum"], default="weighted")
    p.add_argument("--set", choices=["classical", "ns", "tobl"], required=True)
    p.add_argument("--output", default=None)

    p = sub.add_parser("tobl", help="time-ordered bilocal maximum")
    expression_source(p, known=False)
    p.add_argument("--output", default=None)

    p = sub.add_parser("facet", help="tightness (facet) check")
    expression_source(p)
    p.add_argument("--promise", default="parity")
    p.add_argument("--form", choices=["weighted", "sum"], default="weighted")
    p.add_argument("--output", default=None)

    p = sub.add_parser("upb", help="product-set checks and Bell synthesis")
    p.add_argument("set", help="shifts|genshifts|nc|wupb|tiles|<json file>")
    p.add_argument("--check", choices=["upb", "wupb", "indep", "all"], default="all")
    p.add_argument("--emit-bell", action="store_true")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--output", default=None)

    p = sub.add_parser("witness", help="witness operator and bound-entangled state")
    p.add_argument("--set", default="shifts")
    p.add_argument("--starts", type=int, default=witness.DEFAULT_STARTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--output", default=None)

    p = sub.add_parser("membership", help="local-polytope membership of a box")
    p.add_argument("--box", required=True)
    p.add_argument("--output", default=None)

    return parser


_DISPATCH = {
    "gyni": _cmd_gyni,
    "bounds": _cmd_bounds,
    "tobl": _cmd_tobl,
    "facet": _cmd_facet,
    "upb": _cmd_upb,
    "witness": _cmd_witness,
    "membership": _cmd_membership,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    try:
        _emit(_DISPATCH[args.command](args), args)
    except (ValueError, ZeroDivisionError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
