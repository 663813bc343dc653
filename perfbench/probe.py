"""CPU speed probe for the benchmark.

    python3 perfbench/probe.py CPU

Pins itself to one CPU and every 25 ms times a fixed loop of small numpy
operations, about half a millisecond (about 2% of that CPU).  When its
standard input closes it prints the samples as JSON,
``[[monotonic start, seconds], ...]``.

On a shared host the speed of a virtual CPU changes by up to 1.7x within
seconds (measured on a 2-vCPU Intel Xeon virtual machine), as other tenants
load the physical cores; ``run.py`` scales each repetition's times by the
probe speed measured while it ran.  Small numpy
operations on short arrays are what the workloads spend most time in, and
of the loops tried (pure-Python arithmetic, list traversal, small and
medium numpy operations, large reductions) their slowdown tracked the
workloads' most closely.
"""

import json
import os
import select
import sys
import time

import numpy as np

LOOP = 80
PERIOD_S = 0.025


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    x = np.linspace(0.1, 1.0, 64)
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start = time.monotonic()
        for i in range(LOOP):
            np.exp(-x * i) * np.cos(x)
        samples.append((start, time.monotonic() - start))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
