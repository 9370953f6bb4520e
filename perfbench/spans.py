"""Tracing from outside the library.

Each traced layer is a public function (or method) replaced, for the
duration of a traced pass, by a wrapper installed at the name its caller
looks up, e.g. ``gynibell.polytope.is_nonsignaling`` for the recheck that
``ns_max`` makes.  A wrapper records one span: name, start, end, parent
span, query id and the counts it can read from the arguments and result.
Nothing in the library is edited; ``Tracer.installed`` restores every
original on exit.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter

import stats

# Uncollapsed TOBL model of the 3-party binary scenario (the only one
# tobl_max accepts): 64 table entries plus, per bipartition (3) and
# direction (2), one weight per responder (4) and one-way pair (64).
TOBL_COLS_FULL = 64 + 3 * 2 * 4 * 64


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _lp_counts(args, kwargs, result, _before):
    problem = _arg(args, kwargs, 0, "problem")
    return {
        "rows": len(problem.constraints),
        "cols": problem.n,
        "pivots": result.pivots,
        "infeasible": int(result.status == "infeasible"),
    }


def _ns_counts(args, kwargs, result, _before):
    return {"cols_full": _arg(args, kwargs, 0, "expression").scenario.table_size}


def _tobl_counts(args, kwargs, result, _before):
    return {"cols_full": TOBL_COLS_FULL}


def _rank_before(args, kwargs):
    return args[0].big


def _rank_counts(args, kwargs, result, was_big):
    return {"useful": int(bool(result)), "big_fallback": int(args[0].big and not was_big)}


def _starts_counts(args, kwargs, result, _before):
    return {"starts": _arg(args, kwargs, 1, "starts", 0) or 0}


# span name -> (locations "module:attribute" or "module:Class.method",
#               optional pre-call hook, optional count hook)
LAYERS = {
    "polytope.ns_max": (("gynibell.polytope:ns_max", "gynibell:ns_max"), None, _ns_counts),
    "polytope.tobl_max": (("gynibell.polytope:tobl_max", "gynibell:tobl_max"), None, _tobl_counts),
    "polytope.local_membership": (
        ("gynibell.polytope:local_membership", "gynibell:local_membership"), None, None),
    "polytope.facet_check": (("gynibell.polytope:facet_check", "gynibell:facet_check"), None, None),
    "polytope.classical_max": (
        ("gynibell.polytope:classical_max", "gynibell:classical_max"), None, None),
    "polytope.polytope_dimension": (
        ("gynibell.polytope:polytope_dimension", "gynibell:polytope_dimension"), None, None),
    "polytope.affine_rank_of_strategies": (
        ("gynibell.polytope:affine_rank_of_strategies",), None, None),
    "lp.solve": (("gynibell.lp:solve", "gynibell:solve"), None, _lp_counts),
    "rank.add_row": (("gynibell._rank:ExactRankAccumulator.add_row",), _rank_before, _rank_counts),
    "core.recheck": (
        ("gynibell.polytope:is_nonsignaling", "gynibell.polytope:bell_value"), None, None),
    "core.invariance": (
        ("gynibell.gyni:expression_invariant_under",
         "gynibell.polytope:expression_invariant_under"), None, None),
    "gyni.build": (
        ("gynibell.gyni:gyni_expression", "gynibell.gyni:gyni_sum_expression",
         "gynibell.gyni:parity_promise", "gynibell.gyni:uniform_promise",
         "gynibell:gyni_expression", "gynibell:gyni_sum_expression"), None, None),
    "gyni.certificate": (
        ("gynibell.gyni:orthogonality_certificate", "gynibell:orthogonality_certificate"),
        None, None),
    "witness.epsilon_min": (
        ("gynibell.witness:epsilon_min", "gynibell:epsilon_min"), None, _starts_counts),
    "witness.build": (
        ("gynibell.witness:witness_and_state", "gynibell:witness_and_state"), None, None),
    "witness.aux": (
        ("gynibell.witness:projector_onto_span", "gynibell.witness:epsilon_min_restricted",
         "gynibell.witness:is_ppt"), None, None),
    "upb.is_upb": (("gynibell.upb:is_upb", "gynibell:is_upb"), None, None),
    "upb.bell_from_set": (
        ("gynibell.upb:bell_from_set", "gynibell.witness:bell_from_set",
         "gynibell:bell_from_set"), None, None),
    "upb.family": (
        ("gynibell.upb:shifts", "gynibell.upb:gen_shifts", "gynibell.upb:niset_cerf",
         "gynibell.upb:niset_cerf_inequality", "gynibell.upb:wupb_example",
         "gynibell.upb:four_partite_tight_inequality"), None, None),
    "upb.aux": (
        ("gynibell.upb:check_local_independence", "gynibell.upb:is_wupb"), None, None),
    "cli.run": (("gynibell.cli:run",), None, None),
}


class Tracer:
    """In-memory span recorder; spans are plain lists so recording is cheap:
    ``[name, start, end, parent, query, counts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.query = None
        self._stack: list[int] = []

    def wrap(self, name, fn, before, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.query, None])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if count:
                spans[idx][5] = count(args, kwargs, result, state)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, layers=LAYERS):
        """Install every wrapper; restore the originals on exit.  A location
        that no longer exists is an error, so a renamed entry point shows up
        instead of reading as an idle layer."""
        saved = []
        try:
            for name, (locations, before, count) in layers.items():
                for loc in locations:
                    owner, attr = _resolve(loc)
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, before, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _resolve(location: str):
    module_name, path = location.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in owner.__dict__:
        raise LookupError(f"traced entry point {location} does not exist")
    return owner, attr


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans

#: (metric, unit, better) for every per-layer metric a traced run reports.
PER_LAYER = (
    ("polytope.self_s", "s", "lower"),
    ("polytope.cols_full", "count", "lower"),
    ("polytope.collapse_ratio", "ratio", "lower"),
    ("polytope.facet_self_s", "s", "lower"),
    ("polytope.dimension_s", "s", "lower"),
    ("polytope.saturating_rank_s", "s", "lower"),
    ("polytope.enumerate_s", "s", "lower"),
    ("lp.solve_s", "s", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.rows", "count", "lower"),
    ("lp.cols", "count", "lower"),
    ("lp.us_per_pivot", "us", "lower"),
    ("lp.infeasible", "count", "lower"),
    ("rank.add_row_s", "s", "lower"),
    ("rank.rows_added", "count", "lower"),
    ("rank.useful_ratio", "ratio", "higher"),
    ("rank.big_fallbacks", "count", "lower"),
    ("core.recheck_s", "s", "lower"),
    ("core.recheck_calls", "count", "lower"),
    ("core.invariance_s", "s", "lower"),
    ("gyni.build_s", "s", "lower"),
    ("gyni.certificate_s", "s", "lower"),
    ("witness.epsilon_min_s", "s", "lower"),
    ("witness.starts", "count", "lower"),
    ("witness.ms_per_start", "ms", "lower"),
    ("witness.build_s", "s", "lower"),
    ("witness.aux_s", "s", "lower"),
    ("upb.is_upb_s", "s", "lower"),
    ("upb.bell_from_set_s", "s", "lower"),
    ("upb.family_s", "s", "lower"),
    ("upb.aux_s", "s", "lower"),
    ("cli.start_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

# metric -> span name whose outermost spans' total duration it is
_INCLUSIVE = {
    "lp.solve_s": "lp.solve",
    "rank.add_row_s": "rank.add_row",
    "core.recheck_s": "core.recheck",
    "core.invariance_s": "core.invariance",
    "gyni.build_s": "gyni.build",
    "gyni.certificate_s": "gyni.certificate",
    "witness.epsilon_min_s": "witness.epsilon_min",
    "witness.build_s": "witness.build",
    "witness.aux_s": "witness.aux",
    "upb.is_upb_s": "upb.is_upb",
    "upb.bell_from_set_s": "upb.bell_from_set",
    "upb.family_s": "upb.family",
    "upb.aux_s": "upb.aux",
}

# metric -> span names whose self time it sums
_SELF = {
    "polytope.self_s": ("polytope.ns_max", "polytope.tobl_max", "polytope.local_membership"),
    "polytope.facet_self_s": ("polytope.facet_check",),
    "polytope.dimension_s": ("polytope.polytope_dimension",),
    "polytope.saturating_rank_s": ("polytope.affine_rank_of_strategies",),
    "polytope.enumerate_s": ("polytope.classical_max",),
    "cli.self_s": ("cli.run",),
}

_COLLAPSED = ("polytope.ns_max", "polytope.tobl_max")


def layer_metrics(spans) -> dict:
    """Per-layer times and counts from ``[name, start, end, parent, query,
    counts]`` spans.  Times are seconds; a layer that never fired reads 0."""
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    own = stats.self_times([(s[1], s[2], s[3]) for s in spans])
    out = {}
    for metric, name in _INCLUSIVE.items():
        out[metric] = sum(spans[i][2] - spans[i][1] for i in stats.outermost(names, parents, name))
    for metric, group in _SELF.items():
        out[metric] = sum(own[i] for i, n in enumerate(names) if n in group)

    def total(name, key):
        return sum(s[5][key] for s in spans if s[0] == name)

    solves = [s for s in spans if s[0] == "lp.solve"]
    out["lp.solves"] = len(solves)
    for key in ("pivots", "rows", "cols", "infeasible"):
        out["lp." + key] = total("lp.solve", key)
    out["lp.us_per_pivot"] = 1e6 * stats.ratio(out["lp.solve_s"], out["lp.pivots"])

    rows = [s for s in spans if s[0] == "rank.add_row"]
    out["rank.rows_added"] = len(rows)
    out["rank.useful_ratio"] = stats.ratio(total("rank.add_row", "useful"), len(rows))
    out["rank.big_fallbacks"] = total("rank.add_row", "big_fallback")
    out["core.recheck_calls"] = names.count("core.recheck")

    cols_full = sum(s[5]["cols_full"] for s in spans if s[0] in _COLLAPSED)
    collapsed_cols = sum(
        s[5]["cols"] for s in solves if s[3] is not None and names[s[3]] in _COLLAPSED
    )
    out["polytope.cols_full"] = cols_full
    out["polytope.collapse_ratio"] = stats.collapse_ratio(collapsed_cols, cols_full)

    out["witness.starts"] = total("witness.epsilon_min", "starts")
    out["witness.ms_per_start"] = 1e3 * stats.ratio(out["witness.epsilon_min_s"],
                                                    out["witness.starts"])
    out["trace.spans"] = len(spans)
    return out
