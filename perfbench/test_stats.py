"""Tests of the benchmark's own arithmetic on synthetic input.

Run with ``python3 -m pytest perfbench -q`` from the root of the repo.
"""

import statistics
import sys
import types

import pytest

import spans
import speed
import stats


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    recorded = [(0.0, 10.0, None), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0)]
    assert stats.self_times(recorded) == [3.0, 2.0, 1.0, 4.0]


def test_outermost_skips_recursive_calls():
    names = ["gyni.build", "gyni.build", "core.invariance", "gyni.build"]
    parents = [None, 0, 1, None]
    assert stats.outermost(names, parents, "gyni.build") == [0, 3]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(10) is None
    assert stats.tail_percentile(11) == pytest.approx(100 / 11)
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    for n in (11, 20, 37, 100, 1000):
        values = list(range(n))
        pct = stats.tail_percentile(n)
        beyond = [v for v in values if v > stats.nearest_rank(values, pct)]
        assert len(beyond) == 10


def test_timing_record_fields():
    values = [float(v) for v in range(1, 21)]
    rec = stats.timing_record(values)
    assert rec["n"] == 20
    assert rec["median"] == 10.5
    assert (rec["q1"], rec["q3"]) == tuple(statistics.quantiles(values, n=4, method="inclusive")[::2])
    assert (rec["tail_pct"], rec["tail"]) == (50.0, 10.0)
    single = stats.timing_record([2.5])
    assert single["median"] == single["q1"] == single["q3"] == 2.5
    assert single["tail"] is None


def test_nearest_rank_stays_inside_repeated_groups():
    # k passes over six query kinds: p50 is always the third kind and p90
    # always the slowest, whatever k is
    kinds = [0.27, 0.28, 0.29, 0.6, 0.62, 0.9]
    for k in range(1, 8):
        values = kinds * k
        assert stats.nearest_rank(values, 50) == 0.29
        assert stats.nearest_rank(values, 90) == 0.9


def test_failed_ratio():
    assert stats.failed_ratio(0, 26) == 0.0
    assert stats.failed_ratio(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.failed_ratio(5, 4)


def test_collapse_ratio():
    assert stats.collapse_ratio(40, 16384) == pytest.approx(40 / 16384)
    assert stats.collapse_ratio(0, 0) == 0.0


def _span(name, start, end, parent=None, counts=None):
    return [name, start, end, parent, "q", counts]


def test_layer_metrics_on_synthetic_spans():
    recorded = [
        _span("polytope.ns_max", 0.0, 10.0, None, {"cols_full": 1000}),
        _span("core.invariance", 0.0, 1.0, 0),
        _span("lp.solve", 1.0, 4.0, 0, {"rows": 30, "cols": 40, "pivots": 60, "infeasible": 0}),
        _span("core.recheck", 4.0, 5.0, 0),
        _span("polytope.local_membership", 10.0, 14.0, None),
        _span("lp.solve", 10.0, 13.0, 4, {"rows": 257, "cols": 256, "pivots": 40, "infeasible": 1}),
        _span("rank.add_row", 14.0, 14.5, None, {"useful": 1, "big_fallback": 0}),
        _span("rank.add_row", 14.5, 15.0, None, {"useful": 0, "big_fallback": 1}),
    ]
    m = spans.layer_metrics(recorded)
    assert m["polytope.self_s"] == pytest.approx(5.0 + 1.0)
    assert m["lp.solve_s"] == pytest.approx(6.0)
    assert (m["lp.solves"], m["lp.pivots"], m["lp.rows"], m["lp.cols"]) == (2, 100, 287, 296)
    assert m["lp.infeasible"] == 1
    assert m["lp.us_per_pivot"] == pytest.approx(6.0e6 / 100)
    # only the solve made inside ns_max counts toward the collapse
    assert m["polytope.cols_full"] == 1000
    assert m["polytope.collapse_ratio"] == pytest.approx(40 / 1000)
    assert (m["rank.rows_added"], m["rank.useful_ratio"], m["rank.big_fallbacks"]) == (2, 0.5, 1)
    assert (m["core.recheck_calls"], m["core.recheck_s"]) == (1, 1.0)
    assert m["witness.ms_per_start"] == 0.0
    assert set(m) | {"cli.start_s", "cli.stdout_bytes", "trace.wall_s", "trace.untraced_wall_s",
                     "trace.overhead_s", "trace.overhead_ratio"} == {n for n, _, _ in spans.PER_LAYER}


def test_tracer_records_parents_and_restores_originals():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules["fake_bench_mod"] = mod
    try:
        tracer = spans.Tracer()
        layers = {"a.outer": (("fake_bench_mod:outer",), None, None),
                  "a.inner": (("fake_bench_mod:inner",), None, None)}
        with tracer.installed(layers):
            assert mod.outer(1) == 4
        assert mod.outer is outer and mod.inner is inner
        assert [(s[0], s[3]) for s in tracer.spans] == [("a.outer", None), ("a.inner", 0)]
        with pytest.raises(LookupError):
            with tracer.installed({"a.gone": (("fake_bench_mod:gone",), None, None)}):
                pass
    finally:
        del sys.modules["fake_bench_mod"]


def test_speed_factor_weights_samples_by_work_rate():
    meter = speed.SpeedMeter()
    ref = speed.REF_KERNEL_S
    # half the time at reference speed, half at half speed: 3/4 of the work
    meter.samples = [9.0, ref, 2 * ref]
    assert meter.factor(1) == pytest.approx(0.75)


def test_speed_stop_excludes_sampler_time(monkeypatch):
    meter = speed.SpeedMeter()
    clock = iter([10.0, 12.0])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(meter, "burst", lambda: 0)
    meter.samples = [2 * speed.REF_KERNEL_S]
    token = meter.start()
    meter.overhead += 0.5  # the timer handler ran for half a second
    raw, ref = meter.stop(token)
    assert (raw, ref) == (pytest.approx(1.5), pytest.approx(0.75))
