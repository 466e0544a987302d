"""Host-speed probe: a fixed piece of interpreter work, timed over and over.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third from one minute to the next as its other tenants come and go.  This
process runs beside the load for the whole run and writes one line per
sample to standard output::

    <time.monotonic() at start> <milliseconds the work took>

The work is pure-Python tuple building, counting and sorting, about 2 ms,
then a 50 ms sleep, so the probe takes a few percent of one core.  The
benchmark averages the samples taken during its timed cycles and scales
its timings by that average (see ``run.py``).  The work never
touches ``repro``, so no change to the program can change the probe.

Stop it with SIGTERM.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

#: Seconds between samples.
PERIOD = 0.05


def work() -> None:
    rows = [(f"n{k % 997}", k % 89, (k * 7919) % 1000 / 10.0) for k in range(1500)]
    Counter(row[:2] for row in rows)
    sorted(rows, key=lambda row: (row[1], row[2]))


def main() -> None:
    while True:
        started = time.monotonic()
        work()
        sys.stdout.write(f"{started:.6f} {(time.monotonic() - started) * 1000.0:.6f}\n")
        sys.stdout.flush()
        time.sleep(PERIOD)


if __name__ == "__main__":
    main()
