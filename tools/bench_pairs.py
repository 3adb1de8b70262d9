"""Alternating parent/change pairs of perfbench runs, summarised in one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 2301-2310 \\
        --out BENCH_label.json [--workloads small-files,revalidate] [--seconds 25]

``--parent`` and ``--change`` are two trees of this repository (a checkout,
or a ``git archive`` unpacked).  Every run gets a fresh copy of its side's
``src/``, ``perfbench/`` and ``BENCHMARK.json`` with no ``__pycache__``, and
runs ``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
in it with ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPATH``.  Pair ``i``
uses the ``i``-th seed and runs every workload in turn; the side that runs
first alternates from pair to pair, the parent first in pair 0.

For each workload and each end-to-end metric of the parent's
``BENCHMARK.json`` the file gives both sides' median and quartiles
(``statistics.quantiles(method="inclusive")``), every run, the number of
pairs the change won (ties count for neither side), whether the change's
median is within the metric's bound of the parent's, and whether the
medians differ by more than the parent's interquartile range.  It is
rewritten after every pair, so a stopped run leaves the pairs it finished.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
TREE = ("src", "perfbench", "BENCHMARK.json")


def seed_list(text):
    """``A-B`` (inclusive) or ``A,B,...``."""
    first, dash, last = text.partition("-")
    if dash:
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def fresh_copy(tree, into):
    """Copy the files a benchmark run needs from ``tree`` into ``into``."""
    for name in TREE:
        source = os.path.join(tree, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(into, name),
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(source, into)
    for _, dirs, _ in os.walk(into):
        if "__pycache__" in dirs:
            raise SystemExit(f"bench_pairs: __pycache__ in the copy of {tree}")


def run_once(tree, workload, seed, seconds, work):
    """One untraced perfbench run in a fresh copy of ``tree``: its result
    object, or None when it printed none."""
    checkout = tempfile.mkdtemp(prefix="run-", dir=work)
    try:
        fresh_copy(tree, checkout)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        command = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    finally:
        shutil.rmtree(checkout, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"bench_pairs: {workload} seed {seed} printed no result: {proc.stderr.strip()}",
              file=sys.stderr)
        return None


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarise(spec, results):
    """The metrics block of one workload, from its runs in pair order."""
    metrics = {}
    for entry in spec["end_to_end"]:
        name, lower = entry["name"], entry["better"] == "lower"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(results["parent"], results["change"])
                 if p and c and name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        runs = {side: [round(pair[i], 4) for pair in pairs] for i, side in enumerate(SIDES)}
        stats = {side: quartiles(runs[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        bound = entry["bound"]
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        metrics[name] = {
            "unit": entry["unit"],
            "better": entry["better"],
            "bound": bound,
            **stats,
            "change_vs_parent_pct": round(100 * (change - parent) / parent, 1) if parent else None,
            "change_better_in_pairs": f"{wins}/{len(pairs)}",
            "within_bound": change <= parent * (1 + bound) if lower else change >= parent * (1 - bound),
            "gap_exceeds_parent_iqr": abs(change - parent) > stats["parent"]["q3"] - stats["parent"]["q1"],
            "runs": runs,
        }
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default="small-files,many-batches,revalidate")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--work", help="directory for the copies (default: a new temporary one)")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",")
    work = args.work or tempfile.mkdtemp(prefix="bench-pairs-")
    os.makedirs(work, exist_ok=True)
    results = {w: {side: [] for side in SIDES} for w in workloads}
    order = []
    for i, seed in enumerate(args.seeds):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append(sides[0])
        for workload in workloads:
            for side in sides:
                result = run_once(trees[side], workload, seed, args.seconds, work)
                results[workload][side].append(result)
                value = result and result["metrics"].get("run_s", {}).get("value")
                print(f"pair {i} seed {seed} {workload} {side}: run_s {value}", file=sys.stderr)
        summary = {
            "parent": trees["parent"],
            "change": trees["change"],
            "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, "
                       f"{platform.system()} {platform.release()}",
            "protocol": f"perfbench/run.py --seconds {args.seconds:g} --trace 0, fresh copy per run, "
                        "PYTHONDONTWRITEBYTECODE=1, no PYTHONPATH, sides alternate first",
            "workloads": {},
        }
        for workload in workloads:
            runs = results[workload]
            done = [r for side in SIDES for r in runs[side] if r]
            summary["workloads"][workload] = {
                "seeds": args.seeds[: i + 1],
                "first_in_pair": order,
                "failed": {side: f"{sum(r['failed'] for r in runs[side] if r)}/"
                                 f"{sum(r['attempted'] for r in runs[side] if r)}" for side in SIDES},
                "correct": len(done) == 2 * (i + 1) and all(r["correct"] for r in done),
                "metrics": summarise(spec, runs),
            }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    if not args.work:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
