"""gynibell benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ns-symmetric --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see ``workloads.py``): ``ns-symmetric`` (model build and orbit
collapse), ``lp-raw`` (exact LP without symmetry), ``facet-catalogue``
(exact rank) and ``cli-witness`` (fresh CLI processes, float see-saw).

One process, one thread, closed loop: each query starts when the previous
one has returned.  A pass runs every query of the workload once; passes
repeat until the next one would end after ``--seconds``, with at least
``MIN_PASSES``.  Answers are checked after the timed passes: the first
answer of each query against known values or independent oracles, later
ones against the first.

``--trace 0`` reports the end-to-end metrics, timed in reference seconds
(``speed.py``): the host this was tuned on (2 vCPU, Python 3.11) ran the
same pure-Python loop at speeds up to 2x apart, so each timing is scaled by
the machine speed measured in the same thread while it ran.  The raw
seconds are printed beside them and kept in the report.

- ``setup_s``: median over ``SETUP_REPEATS`` fresh interpreters, started
  between passes, that import gynibell and build the workload's inputs;
- ``wall_ref_s``: one pass at the median latency of each query over the
  run's passes (sum over queries of their median);
- ``peak_rss_mb``: peak resident memory of this process, or of the largest
  child for cli-witness.

The report and the summary lines also give ``call_p50_s`` and
``call_tail_s``, the nearest-rank 50th and 90th percentile over queries of
that median latency in reference seconds (for cli-witness a query is one fresh CLI process,
interpreter start included), and ``failed_ratio``.  They are not gated
metrics.  The report keeps the pooled latencies with the highest
percentile that has ten samples beyond it, and every pass.

``--trace 1`` traces the set-up and one pass between two untraced passes,
and reports the per-layer metrics of ``spans.py`` (set-up plus the traced
pass) with the tracing overhead against the faster untraced pass.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full report (environment, timing records,
failures, spans) goes to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
Exit codes: 0 all answers right, 1 an answer was wrong or a query raised,
2 the benchmark could not run (for example no ``src/gynibell`` here).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import speed
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ns-symmetric", "lp-raw", "facet-catalogue", "cli-witness")
SETUP_REPEATS = 9
CLI_START_REPEATS = 3
MIN_PASSES = 2
CALL_TAIL_PCT = 90

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_library():
    if not (SRC / "gynibell" / "__init__.py").is_file():
        raise BenchError(f"no gynibell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gynibell

    if SRC.resolve() not in Path(gynibell.__file__).resolve().parents:
        raise BenchError(f"gynibell imported from {gynibell.__file__}, not from {SRC}")


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# passes and checks


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.latencies: list[float] = []  # raw seconds, sampler time excluded
        self.ref: list[float] = []        # reference seconds
        self.results: list = []
        self.errors: list = []     # traceback text or None, per query
        self.ok: list[bool] = []   # filled in by check_passes


def run_pass(queries, meter=None, external=None, tracer=None, pass_no=0) -> Pass:
    """One pass over ``queries``.  With ``meter`` each query is timed in
    reference seconds by this thread's speed meter; with ``external`` (a
    workload whose queries run in metered child processes) by the meter
    report of the child, ``external.last_speed``; with neither, ref = raw."""
    p = Pass()
    t0 = perf_counter()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = f"{pass_no}:{i}"
        token = meter.start() if meter is not None else None
        s = perf_counter()
        try:
            result, error = q.call(), None
        except Exception:  # a failing query is counted, the run goes on
            result, error = None, traceback.format_exc(limit=4)
        if meter is not None:
            raw, ref = meter.stop(token)
        else:
            raw = ref = perf_counter() - s
            if external is not None and error is None:
                raw -= external.last_speed["excluded"]
                ref = raw * external.last_speed["factor"]
        p.latencies.append(raw)
        p.ref.append(ref)
        p.results.append(result)
        p.errors.append(error)
    p.wall = perf_counter() - t0
    return p


def check_passes(queries, passes) -> list[dict]:
    """Failures of every pass; the first good answer of each query is checked
    in full and later answers must equal it."""
    failures = []
    reference = {}
    for pass_no, p in enumerate(passes):
        for i, q in enumerate(queries):
            reason = p.errors[i]
            if reason is None and i in reference:
                if not q.same(reference[i], p.results[i]):
                    reason = "answer differs from the first pass"
            elif reason is None:
                try:
                    reason = q.check(p.results[i])
                except Exception:  # a crashing check is a failed answer
                    reason = "check raised: " + traceback.format_exc(limit=4)
                if reason is None:
                    reference[i] = p.results[i]
            p.ok.append(reason is None)
            if reason is not None:
                failures.append({"pass": pass_no, "query": q.label, "reason": reason})
    return failures


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def subprocess_last_line(argv) -> str:
    """The last line a fresh interpreter prints."""
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"{argv} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_probe(workload: str, seed: int) -> int:
    """Run in a fresh interpreter: time importing gynibell and building the
    workload's inputs; print raw and reference seconds as JSON."""
    meter = speed.SpeedMeter()
    with meter.sampling():
        token = meter.start()
        import_library()
        import workloads

        workloads.WORKLOADS[workload].build(seed)
        raw, ref = meter.stop(token)
    print(json.dumps({"raw": raw, "ref": ref}))
    return 0


def measure_setup(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    return json.loads(subprocess_last_line(argv))


def measure_cli_start() -> float:
    code = ("from time import perf_counter; t0 = perf_counter(); "
            "import gynibell.cli; print(perf_counter() - t0)")
    return statistics.median(
        float(subprocess_last_line([sys.executable, "-c", code]))
        for _ in range(CLI_START_REPEATS))


def run_known_defects(workload) -> list[dict]:
    """Probe the advertised CLI inputs that fail at the defining commit."""
    from workloads import KNOWN_DEFECTS

    out = []
    for argv in KNOWN_DEFECTS:
        s = perf_counter()
        code, stdout, stderr = workload.run_argv(argv)
        out.append({
            "argv": argv, "exit": code, "seconds": perf_counter() - s,
            "stderr": stderr.decode(errors="replace").strip()[:300],
            "stdout_json": _parses(stdout) if code == 0 else False,
        })
    return out


def _parses(data: bytes) -> bool:
    try:
        json.loads(data)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(name, seed, seconds, report) -> tuple[dict, int, int]:
    import workloads

    workload = workloads.WORKLOADS[name]
    is_cli = name == "cli-witness"
    if is_cli:
        workload.env = child_env()
        OUT_DIR.mkdir(exist_ok=True)
        workload.speed_out = OUT_DIR / "cli-speed.json"
    inputs = workload.build(seed)
    queries = workload.queries(inputs)

    # cli-witness queries run in child processes that meter themselves;
    # the others are metered in this thread while each pass runs
    meter = None if is_cli else speed.SpeedMeter()

    def one_pass():
        if is_cli:
            return run_pass(queries, external=workload)
        with meter.sampling():
            return run_pass(queries, meter)

    # set-up probes run between passes, so that their median samples the
    # whole run rather than one moment of it
    passes, setups = [], []
    start = perf_counter()
    while True:
        passes.append(one_pass())
        if len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(name, seed))
        if len(passes) >= MIN_PASSES and perf_counter() - start + passes[-1].wall > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(name, seed))
    peak = peak_rss_mb(children=is_cli)

    probes = run_known_defects(workload) if is_cli else []
    failures = check_passes(queries, passes)

    # median latency of each query that succeeded in every pass
    good = [i for i in range(len(queries)) if all(p.ok[i] for p in passes)]
    med_ref = [statistics.median(p.ref[i] for p in passes) for i in good]
    med_raw = [statistics.median(p.latencies[i] for p in passes) for i in good]
    metrics = {
        "setup_s": statistics.median(x["ref"] for x in setups),
        "wall_ref_s": sum(med_ref),
        "peak_rss_mb": peak,
    }
    attempted = sum(len(p.latencies) for p in passes) + len(probes)
    known = sum(1 for pr in probes if pr["exit"] != 0)
    report.update({
        "passes": len(passes),
        "records": {
            "setup_s": stats.timing_record(x["ref"] for x in setups),
            "setup_raw_s": stats.timing_record(x["raw"] for x in setups),
            "pass_raw_s": stats.timing_record(p.wall for p in passes),
            "call_ref_s": stats.timing_record(
                t for p in passes for t, ok in zip(p.ref, p.ok) if ok),
            "per_query_ref_s": {
                q.label: stats.timing_record(p.ref[i] for p in passes)
                for i, q in enumerate(queries)
            },
            "per_query_raw_s": {
                q.label: stats.timing_record(p.latencies[i] for p in passes)
                for i, q in enumerate(queries)
            },
        },
        "wall_raw_s": sum(med_raw),
        # reported, not gated: too few queries per workload for a steady
        # percentile of them
        "call_p50_s": stats.nearest_rank(med_ref, 50) if med_ref else 0.0,
        "call_tail_s": stats.nearest_rank(med_ref, CALL_TAIL_PCT) if med_ref else 0.0,
        "failures": failures,
        "known_defects": probes,
        # every failed query, wrong answer and known-defect probe over
        # everything attempted; ``failed`` below counts only the unexpected ones
        "failed_ratio": stats.failed_ratio(len(failures) + known, attempted),
    })
    return metrics, attempted, len(failures)


def traced_run(name, seed, report) -> tuple[dict, int, int]:
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    is_cli = name == "cli-witness"
    if is_cli:
        workload.in_process = True  # replay through cli.run so spans nest under it
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.query = "setup"
        inputs = workload.build(seed)
    queries = workload.queries(inputs)
    # untraced passes on both sides of the traced one, so that warm-up and
    # drift in machine speed do not read as tracing overhead
    plain = [run_pass(queries)]
    with tracer.installed():
        traced = run_pass(queries, tracer=tracer, pass_no=1)
    plain.append(run_pass(queries))
    failures = check_passes(queries, [plain[0], traced, plain[1]])

    fired = {s[0] for s in tracer.spans}
    silent = [n for n in workload.expected_spans if n not in fired]
    if silent:
        raise BenchError(f"traced layers never fired on {name}: {', '.join(silent)}")

    metrics = spans.layer_metrics(tracer.spans)
    metrics["cli.start_s"] = measure_cli_start() if is_cli else 0.0
    metrics["cli.stdout_bytes"] = (
        sum(len(r[1]) for r in traced.results if r is not None) if is_cli else 0)
    untraced = min(p.wall for p in plain)
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced.wall - untraced
    metrics["trace.overhead_ratio"] = stats.ratio(traced.wall - untraced, untraced)
    report.update({
        "failures": failures,
        "spans": tracer.spans,
        "span_fields": ["name", "start", "end", "parent", "query", "counts"],
    })
    return metrics, 3 * len(queries), len(failures)


# ---------------------------------------------------------------------------


def run_one(name, seed, seconds, trace) -> int:
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    import_library()
    if trace:
        import spans

        metrics, attempted, failed = traced_run(name, seed, report)
        units = {m: u for m, u, _ in spans.PER_LAYER}
    else:
        metrics, attempted, failed = untraced_run(name, seed, seconds, report)
        units = dict(END_TO_END)
    report["environment"]["loadavg_end"] = list(os.getloadavg())
    report["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    env = report["environment"]
    print(f"# {name} seed={seed} trace={trace} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"load={env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f}")
    for m in units:
        print(f"{m:32s} {metrics[m]:14.6g} {units[m]}")
    for extra, unit in (("wall_raw_s", "s"), ("call_p50_s", "s"), ("call_tail_s", "s"),
                        ("failed_ratio", "ratio")):
        if extra in report:
            print(f"{extra:32s} {report[extra]:14.6g} {unit}")
    for f in report["failures"]:
        print(f"FAILED {f['query']} (pass {f['pass']}): {f['reason']}")
    print(f"# report: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0 if failed == 0 else 1


def run_all(seed, seconds) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    rows, worst = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
        print("\n".join(lines[:-1]))
    print(json.dumps(rows))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, LookupError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
