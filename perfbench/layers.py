"""Per-layer measurements for the traced run.

Spans are recorded from the benchmark's side of each layer boundary:

* around the program's module-level entry points (generator, file
  discovery, each stage, run_single, run_batches), by wrapping them while
  the traced repetitions and set-up run;
* around each tool process run alone on its stage's materialized input,
  with CPU and peak RSS from ``os.wait4`` in a small helper (spawner.py);
* around each operator core called in-process on the same rows;
* around interpreter start-up probes and a ``cp -r`` of the corpus.

The drift guard: the tools run one by one must reproduce the stage outputs
byte for byte, and each operator core must reproduce its tool's output, or
the traced run fails.  That keeps the per-tool numbers measuring the
commands the stages actually run.
"""

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass

from meterpipe import generator, join, pipeline, sortagg, tabular, xmlflat
from meterpipe.core import parse_fieldspec
from timed import children_cpu
from tracing import patched
from workloads import count_lines, tree_bytes

STARTUP_REPS = 10
TOOL_REPS = 3
COPY_REPS = 3


class ToolError(Exception):
    """A tool process run alone exited nonzero."""


def _xml_bytes(root):
    return sum(
        os.path.getsize(os.path.join(d, n))
        for d, _, names in os.walk(root)
        for n in names
        if n.endswith(".xml")
    )


def _size(*paths):
    return sum(os.path.getsize(p) for p in paths)


# Bytes each stage reads and writes, from the configuration it was called with.
STAGE_BYTES = {
    "parse": lambda c: {"bytes_in": _xml_bytes(c.readings_dir), "bytes_out": _size(c.parsed_file)},
    "validate": lambda c: {
        "bytes_in": _size(c.parsed_file),
        "bytes_out": _size(c.valid_file, c.invalid_file),
    },
    "aggregate": lambda c: {"bytes_in": _size(c.valid_file), "bytes_out": _size(c.aggregate_file)},
}


@contextlib.contextmanager
def instrument(tracer):
    """Wrap the program's entry points in spans for the duration of the block.

    The program reaches them through its own module globals, so calls made
    inside it (run_batches -> run_single -> stage_parse -> find_xml_files)
    are traced too.  run_single iterates ``pipeline._STAGES``, which holds
    the stage functions themselves, so that tuple is rebuilt as well.
    """
    with contextlib.ExitStack() as stack:

        def wrap(module, name, describe=None):
            original = getattr(module, name)
            span_name = f"{module.__name__.rpartition('.')[2]}.{name}"

            def traced(*args, **kwargs):
                cpu_before = children_cpu()
                with tracer.span(span_name) as span:
                    result = original(*args, **kwargs)
                span.attrs["cpu_s"] = children_cpu() - cpu_before
                if describe is not None:
                    span.attrs.update(describe(*args))
                return result

            stack.enter_context(patched(module, name, traced))

        wrap(generator, "generate_corpus", lambda config: {"bytes": tree_bytes(config.out_dir)})
        wrap(pipeline, "find_xml_files")
        for stage, describe in STAGE_BYTES.items():
            wrap(pipeline, f"stage_{stage}", describe)
        wrap(pipeline, "run_single")
        wrap(pipeline, "run_batches")
        stages = tuple((n, getattr(pipeline, f"stage_{n}")) for n, _ in pipeline._STAGES)
        stack.enter_context(patched(pipeline, "_STAGES", stages))
        yield


class Spawner:
    """The helper process of spawner.py, which starts each measured process
    so that its ru_maxrss is its own; close() stops the helper."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(os.path.dirname(__file__), "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, stdin=None, stdout=None):
        """Run one process to completion; returns its wall_s, cpu_s and
        max_rss_mb.  Raises ToolError, with its stderr, if it exits nonzero."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stdin": stdin, "stdout": stdout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise ToolError(f"the spawner helper exited while running {' '.join(argv)}")
        reply = json.loads(line)
        if reply["status"] != 0:
            raise ToolError(
                f"{' '.join(argv)} exited with status {reply['status']}: {reply['stderr'].strip()}"
            )
        return reply

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def meterpipe_argv(*args):
    return [sys.executable, "-m", "meterpipe", *args]


# --- interpreter start-up ------------------------------------------------

STARTUP_PROBES = (
    ("python.bare_startup_s", [sys.executable, "-c", "pass"]),
    ("python.nosite_startup_s", [sys.executable, "-S", "-c", "pass"]),
    *((f"main.startup_s.{t}", meterpipe_argv(t, "--help")) for t in ("xmldir", "self", "cjoin1", "msort")),
)


def probe_startup(tracer, spawner):
    """Time each start-up probe; probes are interleaved so that a change in
    machine load hits them alike."""
    for _ in range(STARTUP_REPS):
        with tracer.span("bench.startup", new_trace=True):
            for name, argv in STARTUP_PROBES:
                with tracer.span(name) as span:
                    span.attrs.update(spawner.run(argv))


# --- tools alone, and their operator cores in-process ----------------------


def _rows(data):
    rows = data.decode("utf-8", "surrogateescape").split("\n")
    rows.pop()  # every tool ends its last row with a newline
    return rows


def _text(rows):
    return "".join(row + "\n" for row in rows).encode("utf-8", "surrogateescape")


def _flatten(data):
    rows = []
    chunks = (data[i : i + 64 * 1024] for i in range(0, len(data), 64 * 1024))
    xmlflat.flatten_stream(
        lambda: next(chunks, b""),
        xmlflat.parse_element_path(pipeline.ELEMENT_PATH),
        rows.append,
    )
    return rows


def _spec(*texts):
    return [parse_fieldspec(t) for t in texts]


@dataclass
class Step:
    """One tool of a stage, and the operator core behind it.

    ``call`` runs the core on the input (rows, or raw bytes for xmldir) and
    returns its output rows; for cjoin1, (matched, line) pairs.
    """

    key: str  # <module>.<tool>
    args: tuple  # after `python -m meterpipe`
    core: str  # <module>.<function>
    call: object
    stdin: str | None = None
    rows_in: str | None = None  # the file the tool reads its rows from
    stdout: str | None = None
    reject: str | None = None
    expect: str | None = None  # stage output the tool's output must equal
    expect_reject: str | None = None


def steps(ref, workdir):
    """The commands stage_parse, stage_validate and stage_aggregate run, as
    single steps over materialized files under ``workdir``."""
    out = lambda key: os.path.join(workdir, f"{key}.out")  # noqa: E731
    chain = [
        Step("xmlflat.xmldir", ("xmldir", pipeline.ELEMENT_PATH, "-"), "xmlflat.flatten_stream", _flatten),
        Step("tabular.self", ("self", "NF-1", "NF"), "tabular.select_fields",
             lambda rows: tabular.select_fields(_spec("NF-1", "NF"), rows)),
        Step("tabular.filter-tags", ("filter-tags",), "tabular.filter_tags",
             lambda rows: tabular.filter_tags(frozenset(tabular.DEFAULT_TAGS), rows)),
        Step("tabular.delr-meterid", ("delr", "2", "MeterID"), "tabular.delete_rows",
             lambda rows: tabular.delete_rows(parse_fieldspec("2"), "MeterID", rows)),
        Step("tabular.group-number", ("group-number",), "tabular.group_number", tabular.group_number),
        Step("tabular.map", ("map", "num=1"), "tabular.pivot", tabular.pivot),
        Step("tabular.delf", ("delf", "1"), "tabular.delete_fields",
             lambda rows: tabular.delete_fields(_spec("1"), rows)),
        Step("tabular.delr-zero", ("delr", "3", "0"), "tabular.delete_rows",
             lambda rows: tabular.delete_rows(parse_fieldspec("3"), "0", rows)),
    ]
    previous = os.path.join(workdir, "xml.in")
    for step in chain:
        step.stdin = step.rows_in = previous
        step.stdout = previous = out(step.key)
    chain[-1].expect = ref.parsed_file

    with open(ref.master_path, "rb") as f:
        master = join.load_master(_rows(f.read()))
    reject = out("join.cjoin1-reject")
    validate = Step(
        "join.cjoin1",
        ("cjoin1", "--reject", reject, "key=2", ref.master_path, ref.parsed_file),
        "join.hash_join",
        lambda rows: join.hash_join(parse_fieldspec("2"), master, rows),
        rows_in=ref.parsed_file,
        stdout=out("join.cjoin1"),
        reject=reject,
        expect=ref.valid_file,
        expect_reject=ref.invalid_file,
    )
    aggregate = [
        Step("tabular.self-agg", ("self", "3", "5", ref.valid_file), "tabular.select_fields",
             lambda rows: tabular.select_fields(_spec("3", "5"), rows),
             rows_in=ref.valid_file, stdout=out("tabular.self-agg")),
        Step("sortagg.msort", ("msort", "key=1"), "sortagg.merge_sort_rows",
             lambda rows: sortagg.merge_sort_rows(parse_fieldspec("1"), rows),
             stdin=out("tabular.self-agg"), rows_in=out("tabular.self-agg"),
             stdout=out("sortagg.msort")),
        Step("sortagg.sm2", ("sm2", "1", "1", "2", "2"), "sortagg.sum_groups",
             lambda rows: sortagg.sum_groups(1, 1, 2, 2, rows),
             stdin=out("sortagg.msort"), rows_in=out("sortagg.msort"),
             stdout=out("sortagg.sm2"), expect=ref.aggregate_file),
    ]
    return chain + [validate] + aggregate


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def run_steps(tracer, spawner, ref, workdir):
    """One repetition of every step, as one trace.  Returns the drift guard's
    findings, empty when every output matched."""
    drift = []
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "xml.in"), "wb") as xml:
        for path in pipeline.find_xml_files(ref.readings_dir):
            with open(path, "rb") as f:
                shutil.copyfileobj(f, xml)

    with tracer.span("bench.layers", new_trace=True):
        for step in steps(ref, workdir):
            with tracer.span(step.key) as span:
                span.attrs.update(spawner.run(meterpipe_argv(*step.args), step.stdin, step.stdout))
            span.attrs.update(
                rows_in=count_lines(step.rows_in),
                rows_out=count_lines(step.stdout),
                bytes_out=_size(step.stdout, *filter(None, [step.reject])),
            )
            if step.reject:
                span.attrs["rows_rejected"] = count_lines(step.reject)

            tool_out = _read(step.stdout)
            for produced, expected in ((step.stdout, step.expect), (step.reject, step.expect_reject)):
                if expected and _read(produced) != _read(expected):
                    drift.append(f"{step.key} alone does not reproduce {os.path.basename(expected)}")

            data = _read(step.stdin or step.rows_in)
            core_in = data if step.key == "xmlflat.xmldir" else _rows(data)
            with tracer.span(step.core) as core_span:
                core_out = list(step.call(core_in))
            core_span.attrs["tool"] = step.key
            if step.reject:
                matched = [line for ok, line in core_out if ok]
                rejected = [line for ok, line in core_out if not ok]
                same = _text(matched) == tool_out and _text(rejected) == _read(step.reject)
            else:
                same = _text(core_out) == tool_out
            if not same:
                drift.append(f"{step.core} in-process does not reproduce {step.key}")
    return drift


# --- copy baseline ---------------------------------------------------------


def copy_baseline(tracer, spawner, source, workdir):
    # Each copy gets a fresh destination, for the reason set-up does (run.py).
    for i in range(COPY_REPS):
        with tracer.span("bench.copy_baseline", new_trace=True) as span:
            span.attrs.update(spawner.run(["cp", "-r", source, os.path.join(workdir, f"copy-{i}")]))


# --- per-layer metrics from the spans --------------------------------------

TOOL_METRICS = ("cpu_s", "max_rss_mb", "rows_in", "rows_out", "bytes_out")


def layer_metrics(tracer, config, ref, workdir):
    """Run the layer probes, then derive every per-layer metric from the
    spans recorded so far.  ``ref`` is the configuration whose stage outputs
    the tools must reproduce.  Returns (metrics, drift): name -> (value,
    samples), and the drift guard's findings."""
    spawner = Spawner()
    try:
        probe_startup(tracer, spawner)
        drift = []
        for _ in range(TOOL_REPS):
            drift += run_steps(tracer, spawner, ref, workdir)
        copy_baseline(tracer, spawner, config.readings_dir, workdir)
    finally:
        spawner.close()

    m = {}
    median = tracer.median_per_trace
    wall = lambda s: s.attrs["wall_s"]  # noqa: E731  measured around the process alone
    m["generator.generate_corpus.wall_s"] = median("generator.generate_corpus")
    m["generator.generate_corpus.bytes"] = median("generator.generate_corpus", lambda s: s.attrs["bytes"])
    m["pipeline.find_xml_files.wall_s"] = median("pipeline.find_xml_files")
    for stage in STAGE_BYTES:
        name = f"pipeline.stage_{stage}"
        walls = tracer.per_trace(name, lambda s: s.duration)
        cpus = tracer.per_trace(name, lambda s: s.attrs["cpu_s"])
        m[f"{name}.wall_s"] = median(name)
        m[f"{name}.cpu_s"] = median(name, lambda s: s.attrs["cpu_s"])
        m[f"{name}.cpu_per_wall"] = (statistics.median([c / w for c, w in zip(cpus, walls)]), len(walls))
        for attr in ("bytes_in", "bytes_out"):
            m[f"{name}.{attr}"] = median(name, lambda s, a=attr: s.attrs[a])
    for name, _ in STARTUP_PROBES:
        m[name] = median(name, wall)

    for step in steps(ref, workdir):
        m[f"{step.key}.wall_s"] = median(step.key, wall)
        for attr in TOOL_METRICS + (("rows_rejected",) if step.reject else ()):
            m[f"{step.key}.{attr}"] = median(step.key, lambda s, a=attr: s.attrs[a])
        own = [tracer.self_time(s) for s in tracer.named(step.core) if s.attrs["tool"] == step.key]
        cpu, n = m[f"{step.key}.cpu_s"]
        m[f"{step.key}.outside_share"] = (1 - statistics.median(own) / cpu, n)
        m[f"{step.core}.self_s"] = median(step.core, tracer.self_time)

    m["bench.copy_baseline.wall_s"] = median("bench.copy_baseline", wall)
    parse_s = m["pipeline.stage_parse.wall_s"][0]
    m["bench.parse_over_copy"] = (parse_s / m["bench.copy_baseline.wall_s"][0], COPY_REPS)
    return m, drift
