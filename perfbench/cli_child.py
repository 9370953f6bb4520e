"""Run ``gynibell.cli`` as ``python -m gynibell.cli`` would, with a speed meter.

Usage: ``python3 perfbench/cli_child.py <cli arguments>``.  The CLI runs in
this fresh interpreter under a ``speed.SpeedMeter``; on exit the meter's
result goes, as JSON, to the file named by ``PERFBENCH_SPEED_OUT``:
``factor`` (reference seconds per second) and ``excluded`` (seconds spent in
the meter, to take off the call's latency).
"""

from __future__ import annotations

import json
import os
import runpy
import sys
from time import perf_counter

import speed


def main() -> None:
    meter = speed.SpeedMeter()
    t0 = perf_counter()
    first = meter.burst()
    excluded = perf_counter() - t0
    sys.argv = ["gynibell.cli", *sys.argv[1:]]
    try:
        with meter.sampling():
            runpy.run_module("gynibell.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(os.environ["PERFBENCH_SPEED_OUT"], "w") as fh:
            json.dump({"factor": meter.factor(first), "excluded": excluded + meter.overhead}, fh)


if __name__ == "__main__":
    main()
