"""The host's speed, gauged by fixed probes with no `ldcs` code.

The machine the benchmark runs on is shared: its speed moves by a third
or more over tens of seconds, and the program and a plain Python loop
slow down together. The benchmark times a probe before every round of
operations and before every load of the KB, and reports times scaled to
a host on which the probe takes its reference time:

    scaled time = measured time * reference / probe time nearby

so that two runs made while the host ran at different speeds read alike,
while a change to the program moves its figures just as much as before.
In-process work is gauged by `probe`, a Python loop; cold launches of the
command line by `launch_probe`, a cold start of the bare interpreter,
which tracks them far more closely than the loop does.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

REFERENCE_S = 0.002
LAUNCH_REFERENCE_S = 0.040
# Each round is scaled by the median probe of the rounds within this many
# rounds of it: one probe alone can be caught by an interrupt.
NEIGHBOURS = 5


def _loop() -> int:
    s = 0
    d = {}
    for i in range(16_000):
        s = (s + i * i) & 0xFFFFFFFF
        d[i & 255] = s
    return s


def probe() -> float:
    """Seconds one run of a fixed integer and dict loop takes now."""
    start = perf_counter()
    _loop()
    return perf_counter() - start


def launch_probe(env) -> float:
    """Seconds a cold `python -c pass` takes now, start to exit."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, check=True)
    return perf_counter() - start


def round_scales(probes: list[float], reference: float) -> list[float]:
    """For each round, `reference` over the median probe around it."""
    n = len(probes)
    return [
        reference / statistics.median(probes[max(0, i - NEIGHBOURS):min(n, i + NEIGHBOURS + 1)])
        for i in range(n)
    ]
