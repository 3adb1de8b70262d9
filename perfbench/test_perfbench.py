"""Tests of the benchmark itself, on tiny corpora.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import timed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "small-files": dict(files=8, meters=4),
    "many-batches": dict(files=4, meters=4, batches=2),
    "revalidate": dict(files=3, meters=3, readings_per_file=30),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.fixture
def env(monkeypatch, tmp_path):
    """The children's environment as run.py sets it, undone after the test;
    work directories and traces go under tmp_path."""
    for key in ("PYTHONPATH", "TMPDIR", "METERPIPE_TMPDIR"):
        monkeypatch.setenv(key, os.environ.get(key, ""))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    run.prepare_environment(str(tmp_path / "work"))
    return tmp_path


@pytest.fixture
def quick(monkeypatch, env):
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(layers, "STARTUP_REPS", 1)
    monkeypatch.setattr(layers, "TOOL_REPS", 1)
    monkeypatch.setattr(layers, "COPY_REPS", 1)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_a_tiny_run_emits_every_metric_with_its_unit(name, trace, quick, capsys):
    result = run.run(tiny(name), seed=5, seconds=0, trace=trace)

    with open(run.SPEC, encoding="utf-8") as f:
        wanted = json.load(f)["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    printed = {line.split()[0]: line.split() for line in lines[1:-1]}
    for m in wanted:
        assert m["unit"] in printed[m["name"]] and printed[m["name"]][3].startswith("n=")
    assert "error_rate" in printed


def _corrupt_aggregate(config):
    with open(config.aggregate_file, "a", encoding="utf-8") as f:
        f.write("TYPE99 1.0000\n")


def _drop_an_invalid_row(config):
    with open(config.invalid_file, "rb") as f:
        rows = f.readlines()
    with open(config.invalid_file, "wb") as f:
        f.writelines(rows[1:])


@pytest.mark.parametrize("corrupt", [_corrupt_aggregate, _drop_an_invalid_row])
def test_a_corrupted_output_is_counted_in_error_rate(corrupt, env, capsys):
    workload = tiny("small-files")
    root = str(env / "corpus")
    expected, _ = workload.setup(root, seed=5)

    class Corrupting(workloads.Workload):
        def operate(self, config, keep_intermediates=False):
            times = super().operate(config, keep_intermediates)
            corrupt(config)
            return times

    bad = Corrupting(**dataclasses.asdict(workload))
    samples, reference_s = timed.measure(bad, bad.config(root), expected, seconds=0)
    metrics = run.end_to_end(bad, expected, samples, 1.0, [(1.0, None)], reference_s)
    result = run.report(bad, 5, False, metrics, samples, [])

    assert result["failed"] == result["attempted"] == timed.MIN_REPS
    assert result["correct"] is False
    error_line = [line for line in capsys.readouterr().out.splitlines() if "error_rate" in line]
    assert error_line[0].split()[1] == "1.000000"


def test_end_to_end_times_are_scaled_by_the_reference_pipeline():
    workload = tiny("small-files")
    expected = workloads.Expected(sums={}, invalid=0, readings=300)
    samples = [
        {"run_s": run_s, "stages": {"parse": run_s / 2}, "cpu_s": 2 * run_s, "error": None}
        for run_s in (1.0, 3.0, 2.0)
    ]
    # The machine runs the reference at half the nominal speed: times halve.
    reference_s = [2 * reference.NOMINAL_S] * 3
    m = run.end_to_end(workload, expected, samples, 20.0, [(4.0, None)], reference_s)

    assert m["run_s"] == (pytest.approx(1.0), 3)
    assert m["readings_per_s"][0] == pytest.approx(300.0)
    assert m["parse_s"][0] == pytest.approx(0.5)
    assert m["cpu_s"][0] == pytest.approx(2.0)
    assert m["setup_s"] == (pytest.approx(2.0), 1)
    assert m["peak_rss_mb"] == (20.0, 3)


def test_the_reference_pipeline_checks_its_own_result():
    assert reference.run_reference() > 0


@pytest.mark.parametrize("name", list(TINY))
def test_the_same_seed_reproduces_the_corpus_byte_for_byte(name, env):
    workload = tiny(name)
    digests = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        root = str(env / sub)
        workload.setup(root, seed)
        digests.append(run.tree_digest(workload.config(root).readings_dir))
    assert digests[0] == digests[1] != digests[2]


def test_the_drift_guard_catches_a_command_the_stage_does_not_run(env, monkeypatch):
    workload = tiny("small-files")
    root = str(env / "corpus")
    workload.setup(root, seed=5)
    config = workload.config(root)
    workload.operate(config, keep_intermediates=True)
    tracer = Tracer()
    spawner = layers.Spawner()
    try:
        assert layers.run_steps(tracer, spawner, config, str(env / "steps")) == []

        honest = layers.steps

        def drifted(ref, workdir):
            steps = honest(ref, workdir)
            msort = next(s for s in steps if s.key == "sortagg.msort")
            msort.args = ("msort", "key=2")
            return steps

        monkeypatch.setattr(layers, "steps", drifted)
        drift = layers.run_steps(tracer, spawner, config, str(env / "steps"))
    finally:
        spawner.close()
    assert any("sortagg.sm2 alone does not reproduce" in d for d in drift)
    assert any("merge_sort_rows in-process does not reproduce sortagg.msort" in d for d in drift)


def test_a_tool_that_cannot_start_fails_loudly(env, monkeypatch):
    broken = env / "shadow" / "meterpipe"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text("raise ImportError('broken on purpose')\n")
    monkeypatch.setenv("PYTHONPATH", str(broken.parent))
    with pytest.raises(run.BenchError, match="(?s)xmldir cannot start.*broken on purpose"):
        run.preflight()


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.SPEC, tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-files",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_the_part_children_cover():
    tracer = Tracer()
    with tracer.span("parent", new_trace=True) as parent:
        with tracer.span("child") as child:
            pass
    assert tracer.self_time(parent) == pytest.approx(parent.duration - child.duration)
    assert tracer.self_time(child) == child.duration
