"""The reference pipeline: a fixed, meterpipe-free yardstick of machine speed.

On a shared virtual machine the cost of the work meterpipe does (starting
Python processes and streaming rows between them through pipes) drifts by
up to 2x over minutes, while a pure in-process Python loop barely moves.
Run-to-run spreads of raw wall times then exceed any useful bound.

The reference pipeline does the same kind of work, with the standard library
only: one ``python -S`` process generates rows, and a second one, reading
them through an OS pipe, sums their values per key.  It is run between timed
repetitions, never during one, and the run's end-to-end times are scaled by
``NOMINAL_S / median(reference wall times)``: they read as seconds on a
machine on which the reference pipeline takes NOMINAL_S.  The reference
does not depend on meterpipe, so a change to the program moves the scaled
times exactly as it moves the raw ones.
"""

import subprocess
import sys
import time

# About the reference's median wall time on a quiet 2-core VM (Python 3.11),
# where it read 0.25-0.29 s.  A fixed constant, so scaled times keep their
# magnitude.
NOMINAL_S = 0.25

ROWS = 100000
KEYS = 7

_GENERATE = f"""
import sys
w = sys.stdout.write
for i in range({ROWS}):
    w("m%d\\tT%d\\t%d.%04d\\n" % (i % 997, i % {KEYS}, i, i % 10000))
"""

_SUM = """
import sys
sums = {}
for line in sys.stdin:
    _, key, value = line.rstrip("\\n").split("\\t")
    whole, frac = value.split(".")
    sums[key] = sums.get(key, 0) + int(whole) * 10000 + int(frac)
for key in sorted(sums):
    print(key, sums[key])
"""


def _expected():
    sums = {}
    for i in range(ROWS):
        key = f"T{i % KEYS}"
        sums[key] = sums.get(key, 0) + i * 10000 + i % 10000
    return "".join(f"{key} {sums[key]}\n" for key in sorted(sums))


EXPECTED = _expected()


class ReferenceFailed(Exception):
    """The reference pipeline failed or gave a wrong result."""


def run_reference():
    """Run the reference pipeline once; returns its wall seconds."""
    python = [sys.executable, "-S", "-c"]
    procs = []
    try:
        started = time.perf_counter()
        procs.append(subprocess.Popen(python + [_GENERATE], stdout=subprocess.PIPE))
        procs.append(subprocess.Popen(python + [_SUM], stdin=procs[0].stdout, stdout=subprocess.PIPE))
        procs[0].stdout.close()
        out, _ = procs[1].communicate()
        statuses = [p.wait() for p in procs]
        wall_s = time.perf_counter() - started
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    if any(statuses) or out.decode() != EXPECTED:
        raise ReferenceFailed(f"the reference pipeline failed (exit statuses {statuses})")
    return wall_s
