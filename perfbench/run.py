"""meterpipe benchmark runner.

Usage, from the root of a checkout (meterpipe need not be installed):
    python3 perfbench/run.py --workload small-files --seed 1 --seconds 25 --trace 0

Generates the workload's corpus from --seed, times the workload's public
entry point for --seconds, checks every repetition against the generator's
ground truth, prints each metric with its unit and sample count, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, measured
untraced and scaled by the machine's speed as the reference pipeline
(reference.py) measured it during the run; with --trace 1 they are its
per-layer ones, from a traced run, unscaled.  See README.md for the
workloads and what each metric should move.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S, ReferenceFailed, run_reference

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
SPEC = os.path.join(CHECKOUT, "BENCHMARK.json")
OUT_DIR = os.path.join(CHECKOUT, ".perfbench")

# Set-up runs SETUP_REPS times.  Each repetition starts every stage tool
# once (preflight), then generates the corpus into a fresh directory.
# Nothing is deleted until the run ends: on an ext4 disk mounted with online
# discard, creating files stays several times slower for a while after a
# large delete, so corpus generation alone swings several-fold between runs.
SETUP_REPS = 3
WORKER_TIMEOUT_S = 170

# Every tool the stages start; each must start before anything is timed.
STAGE_TOOLS = ("xmldir", "self", "filter-tags", "delr", "group-number", "map", "delf", "cjoin1", "msort", "sm2")


class BenchError(Exception):
    """The benchmark cannot measure: a tool cannot start, or the worker failed."""


def prepare_environment(work):
    """Put the checkout's src on every child's import path (meterpipe is not
    installed; the stages spawn ``python -m meterpipe``), and keep temporary
    files inside the work directory."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    old = os.environ.get("PYTHONPATH")
    if not old or SRC not in old.split(os.pathsep):
        os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    os.environ["TMPDIR"] = os.environ["METERPIPE_TMPDIR"] = tmp


def preflight():
    """Fail loudly if a tool cannot start, rather than time an immediate exit."""
    for tool in STAGE_TOOLS:
        proc = subprocess.run(
            [sys.executable, "-m", "meterpipe", tool, "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0 or not proc.stdout.startswith("usage:"):
            raise BenchError(
                f"tool {tool} cannot start (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}"
            )


def run_worker(workload, root, expected, seconds):
    """The untraced timed loop, in a fresh process (see timed.py)."""
    spec = {
        "workload": dataclasses.asdict(workload),
        "root": root,
        "expected": dataclasses.asdict(expected),
        "seconds": seconds,
    }
    proc = subprocess.run(
        # -S keeps the worker's RSS, which every child's ru_maxrss starts
        # from (see spawner.py), near a tool's own.
        [sys.executable, "-S", os.path.join(HERE, "timed.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"timed worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tree_digest(root):
    """SHA-256 over the relative paths and contents of every file under root."""
    h = hashlib.sha256()
    for d, dirnames, names in os.walk(root):
        dirnames.sort()
        for name in sorted(names):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _median(values):
    return statistics.median(values), len(values)


def speed_scale(reference_s):
    """The factor that turns a wall or CPU time measured during the run into
    seconds on a machine where the reference pipeline takes NOMINAL_S."""
    return NOMINAL_S / statistics.median(reference_s)


def end_to_end(workload, expected, samples, peak_rss_mb, setups, reference_s):
    """The end-to-end metrics, name -> (value, samples): the medians over
    the run's repetitions, every time scaled by speed_scale(reference_s)."""
    scale = speed_scale(reference_s)

    def scaled(values):
        return statistics.median(values) * scale, len(values)

    m = {}
    run_s, n = scaled([s["run_s"] for s in samples])
    m["run_s"] = (run_s, n)
    m["readings_per_s"] = (expected.readings / run_s, n)
    for stage in ("parse", "validate", "aggregate"):
        values = [s["stages"][stage] for s in samples if stage in s["stages"]]
        if values:
            m[f"{stage}_s"] = scaled(values)
    if workload.kind == "revalidate":
        # Parse is not timed work here; this is the set-up's parse of the corpus.
        m["parse_s"] = scaled([parse_s for _, parse_s in setups])
    m["cpu_s"] = scaled([s["cpu_s"] for s in samples])
    m["peak_rss_mb"] = (peak_rss_mb, n)
    m["setup_s"] = scaled([setup_s for setup_s, _ in setups])
    return m


def run(workload, seed, seconds, trace):
    """Measure one workload; prints the report and returns the result object."""
    from layers import instrument, layer_metrics
    from timed import measure
    from tracing import Tracer

    work = os.path.join(OUT_DIR, f"{workload.name}-{os.getpid()}")
    problems, notes = [], []
    try:
        prepare_environment(work)
        tracer = Tracer() if trace else None
        setups, digests, reference_s = [], set(), []
        for i in range(SETUP_REPS):
            root = os.path.join(work, f"corpus-{i}")
            config = workload.config(root)
            started = time.perf_counter()
            preflight()
            if tracer:
                with instrument(tracer), tracer.span("bench.setup", new_trace=True):
                    expected, parse_s = workload.setup(root, seed)
            else:
                expected, parse_s = workload.setup(root, seed)
            setups.append((time.perf_counter() - started, parse_s))
            reference_s.append(run_reference())
            digests.add(tree_digest(config.readings_dir))
        if len(digests) != 1:
            problems.append(f"seed {seed} generated {len(digests)} different corpora")

        untraced_s = seconds / 2 if trace else seconds
        result = run_worker(workload, root, expected, untraced_s)
        samples = result["samples"]
        reference_s += result["reference_s"]
        if not trace:
            metrics = end_to_end(workload, expected, samples, result["peak_rss_mb"], setups, reference_s)
            notes.append(
                f"reference pipeline: median {statistics.median(reference_s):.6f} s over "
                f"{len(reference_s)} runs; times are scaled by {speed_scale(reference_s):.6f}, "
                f"to a machine where it takes {NOMINAL_S} s"
            )
        else:
            with instrument(tracer):
                traced, traced_reference_s = measure(
                    workload, config, expected, seconds / 2, tracer, keep_intermediates=True
                )
            workdir = os.path.join(work, "layers")
            metrics, drift = layer_metrics(tracer, config, workload.reference(config), workdir)
            problems += drift
            metrics["pipeline.run_batches.reaggregate_s"] = _median(
                [s["run_s"] - sum(s["stages"].values()) for s in samples]
            )
            # Each half is scaled by its own reference runs, so that a change
            # in machine speed between the halves does not read as overhead.
            traced_s = statistics.median(s.duration for s in tracer.named("bench.op"))
            untraced_run_s = statistics.median(s["run_s"] for s in samples)
            metrics["bench.tracing_overhead_s"] = (
                traced_s * speed_scale(traced_reference_s) - untraced_run_s * speed_scale(reference_s),
                len(traced),
            )
            metrics["bench.reference_s"] = _median(reference_s + traced_reference_s)
            samples = samples + traced
            tracer.dump(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return report(workload, seed, trace, metrics, samples, problems, notes)


def report(workload, seed, trace, metrics, samples, problems, notes=()):
    """Print every metric of the mode with its unit and sample count, then
    error_rate, then the notes and the JSON result line; returns the result
    object."""
    failed = [s["error"] for s in samples if s["error"]]
    with open(SPEC, "r", encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    print(f"workload {workload.name}  seed {seed}  {'traced' if trace else 'untraced'}")
    out = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            problems.append(f"metric {name} was not measured")
            continue
        value, n = metrics[name]
        out[name] = {"value": value, "unit": unit}
        print(f"  {name:<42} {value:>16.6f} {unit:<6} n={n}  ({entry['better']} is better)")
    print(f"  {'error_rate':<42} {len(failed) / len(samples):>16.6f} ratio  n={len(samples)}")
    for note in notes:
        print(note)
    for message in failed + problems:
        print(f"perfbench: {message}", file=sys.stderr)
    result = {
        "correct": not failed and not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": out,
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "meterpipe", "__main__.py")):
        print(f"perfbench: no meterpipe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # meterpipe is not installed
    from layers import ToolError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, ToolError, ReferenceFailed, LookupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
