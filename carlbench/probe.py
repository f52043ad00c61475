"""One fresh-process start: import carl.cli and build a workload's inputs.

Run by ``run.py`` as ``python3 probe.py WORKLOAD SEED WORKDIR``. It prints
two CLOCK_MONOTONIC readings, taken when this script starts running and
when the inputs are built, so that the parent can split the interval from
its own reading before the start.
"""

import time

START = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import carl.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3], sys.modules["carl"])
print(START, time.monotonic())
