"""The timed loop, and the worker process that runs it for the untraced
measurement.

Usage (started by run.py, with the checkout's ``src`` on PYTHONPATH):
    python3 perfbench/timed.py '<json spec>'

The worker prints one JSON line: the samples, the reference pipeline's wall
times (see reference.py), and the largest ru_maxrss of any child process it
reaped.  It is a fresh process because RUSAGE_CHILDREN's maxrss never goes
down within one process, and the benchmark's own set-up starts children too.
"""

import contextlib
import json
import resource
import sys
import time

from reference import run_reference

# A median needs a few samples even when one operation outlasts --seconds.
MIN_REPS = 3
# Between repetitions the reference pipeline runs until its total time is
# this share of the timed operations' total, so that it samples the machine's
# speed evenly over the run whatever the length of one repetition.
REFERENCE_SHARE = 0.25


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure(workload, config, expected, seconds, tracer=None, keep_intermediates=False):
    """Repeat the workload's timed operation for ``seconds``; every
    repetition is checked by the oracle and none is retried.

    Returns (samples, reference_s).  There is one sample per repetition:
    run_s, per-stage seconds, cpu_s (a RUSAGE_CHILDREN delta) and error
    (None, or why the repetition failed).  reference_s holds the wall times
    of the reference pipeline runs made between repetitions.  With a tracer,
    each repetition is one trace under a ``bench.op`` span.
    """
    samples, reference_s = [], []
    started = time.perf_counter()
    while len(samples) < MIN_REPS or time.perf_counter() - started < seconds:
        timed_s = sum(s["run_s"] for s in samples)
        while not reference_s or sum(reference_s) < REFERENCE_SHARE * timed_s:
            reference_s.append(run_reference())
        workload.clean_outputs(config)
        span = tracer.span("bench.op", new_trace=True) if tracer else contextlib.nullcontext()
        cpu_before = children_cpu()
        op_started = time.perf_counter()
        try:
            with span:
                stages = workload.operate(config, keep_intermediates)
            error = None
        except Exception as exc:  # a failed repetition is counted, not fatal
            stages, error = {}, f"{type(exc).__name__}: {exc}"
        run_s = time.perf_counter() - op_started
        cpu_s = children_cpu() - cpu_before
        if error is None:
            try:
                error = workload.check(config, expected)
            except (OSError, ValueError) as exc:  # missing or malformed output
                error = f"the oracle could not read the outputs: {exc}"
        samples.append({"run_s": run_s, "stages": stages, "cpu_s": cpu_s, "error": error})
    return samples, reference_s


def main(argv):
    from workloads import Expected, Workload

    spec = json.loads(argv[1])
    workload = Workload(**spec["workload"])
    samples, reference_s = measure(
        workload,
        workload.config(spec["root"]),
        Expected(**spec["expected"]),
        spec["seconds"],
    )
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"samples": samples, "reference_s": reference_s, "peak_rss_mb": peak_kb / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
