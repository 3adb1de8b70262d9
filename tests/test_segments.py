"""Fused segments: a stage's runs of row tools share one forked child.

``fork_stage`` runs a stage's first command alone and each later run of
row tools, each reading stdin alone, as one child that chains their cores
as generators.  The reference for every test here is the same commands
run one process per tool.
"""

import mmap
import os
import re
import signal
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import assert_no_child_left, make_pipeline_config
from meterpipe import __main__ as dispatcher
from meterpipe import core, pipeline, tabular
from meterpipe.generator import GeneratorConfig, generate_corpus
from meterpipe.pipeline import StageError, stage_aggregate, stage_parse, stage_validate

pytestmark = pytest.mark.usefixtures("no_child_left")


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returns to this process, in order."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def generated(tmp_path, files=40, seed=1, readings=3, invalid_ratio=0.2):
    readings_dir = tmp_path / "readings"
    generate_corpus(
        GeneratorConfig(
            file_count=files,
            meters=max(1, files // 4),
            seed=seed,
            out_dir=str(readings_dir),
            readings_per_file=readings,
            invalid_ratio=invalid_ratio,
        )
    )
    master = readings_dir / "READING_TYPE_CONVERTER"
    return make_pipeline_config(tmp_path, readings_dir, master)


def stage_commands(monkeypatch, stage, config):
    """The (commands, out_paths, feed_paths) ``stage`` hands _run_stage."""
    calls = []

    def record(commands, out_paths, feed_paths=None):
        calls.append((commands, out_paths, feed_paths))

    with monkeypatch.context() as m:
        m.setattr(pipeline, "_run_stage", record)
        stage(config)
    (call,) = calls
    return call


def outcome(capfd, run, path):
    """What a run left: its StageError, its stderr lines and the bytes of
    ``path`` (None when it was not published)."""
    capfd.readouterr()
    try:
        run()
        error = None
    except StageError as exc:
        error = str(exc)
    err = capfd.readouterr().err.splitlines()
    return error, err, Path(path).read_bytes() if os.path.exists(path) else None


def parse_one_process_per_tool(tmp_path, commands, feed_paths, out):
    """The parse stage's commands, each as a one-command stage of its own,
    chained through files."""
    source = feed_paths
    for i, command in enumerate(commands):
        target = out if i == len(commands) - 1 else str(tmp_path / "chain" / str(i))
        pipeline._run_stage([command], [target], feed_paths=source)
        source = [target]


def assert_fused_parse_matches_one_process_per_tool(tmp_path, monkeypatch, capfd, config):
    commands, (parsed,), files = stage_commands(monkeypatch, stage_parse, config)
    reference = str(tmp_path / "reference" / "PARSED_FILE")
    expected = outcome(
        capfd, lambda: parse_one_process_per_tool(tmp_path, commands, files, reference), reference
    )
    assert outcome(capfd, lambda: stage_parse(config), parsed) == expected
    assert not list(tmp_path.rglob(".stage-*"))
    return expected


class TestSegmenting:
    def test_each_stage_forks_one_child_per_segment(self, tmp_path, forks):
        config = generated(tmp_path, files=8)
        counts = []
        for stage in (stage_parse, stage_validate, stage_aggregate):
            before = len(forks)
            stage(config)
            counts.append(len(forks) - before)
        # xmldir | the seven row tools; cjoin1; self 3 5 <file> | msort | sm2.
        assert counts == [2, 1, 3]
        before = len(forks)
        pipeline._run_stage(pipeline._AGGREGATE_TOOLS, [str(tmp_path / "total")],
                            feed_paths=[config.aggregate_file])
        assert len(forks) - before == 2

    @pytest.mark.parametrize(
        "commands, children",
        [
            # The first command runs alone, even when it is a row tool.
            ([("self", "1"), ("self", "1"), ("self", "1")], 2),
            # A run of one row tool is a command run alone.
            ([("self", "1"), ("msort", "key=1"), ("self", "1")], 3),
            # A row tool that reads a named file, asks for its usage, fails
            # to start, or is map without --labels, runs alone.
            ([("self", "1"), ("self", "1"), ("self", "1", "{rows}"), ("self", "1")], 4),
            ([("self", "1"), ("self", "1"), ("self", "0"), ("self", "1")], 4),
            ([("self", "1"), ("self", "1"), ("delr", "--help"), ("self", "1")], 4),
            ([("self", "1"), ("delr", "1", "x"), ("map", "num=1"), ("self", "1")], 4),
            ([("self", "1"), ("delr", "1", "x"), ("delf", "NF"), ("map", "num=1", "--labels", "a"),
              ("filter-tags",), ("group-number",), ("msort", "key=1"), ("self", "1")], 4),
        ],
    )
    def test_runs_of_row_tools_that_read_stdin_fuse(self, tmp_path, forks, commands, children):
        rows = tmp_path / "rows"
        rows.write_text("1 a 2\n")
        commands = [tuple(a.format(rows=rows) for a in c) for c in commands]
        try:
            pipeline._run_stage(commands, [str(tmp_path / "out")], feed_paths=[rows])
        except StageError:
            pass
        assert len(forks) == children

    def test_composing_a_core_reads_and_writes_nothing(self, tmp_path, capfd):
        upstream = iter([["a", "b"]])
        missing = str(tmp_path / "missing")
        assert core.compose(tabular.self_main, ["1", missing], upstream) is None
        assert core.compose(tabular.self_main, ["--help"], upstream) is None
        assert core.compose(tabular.map_main, ["num=1"], upstream) is None
        assert core.compose(tabular.self_main, ["0"], upstream) is None
        prog, rows = core.compose(tabular.self_main, ["2"], upstream)
        assert prog == "self"
        assert capfd.readouterr() == ("", "")
        assert list(rows) == [["b"]]


class TestFusedAgainstOneProcessPerTool:
    """The parse stage, fused, against its commands run one process per
    tool: the same PARSED_FILE bytes, the same StageError and the same
    stderr lines, also where both lose or misplace a reading."""

    @pytest.mark.parametrize(
        "files, seed, readings, invalid_ratio",
        # The last holds many readings per file, as the revalidate workload does.
        [(1, 1, 1, 0.0), (40, 1, 3, 0.2), (25, 7, 40, 0.5), (300, 3, 2, 0.1), (4, 5, 300, 0.5)],
    )
    def test_generated_corpora(self, tmp_path, monkeypatch, capfd, files, seed, readings, invalid_ratio):
        config = generated(tmp_path, files, seed, readings, invalid_ratio)
        error, err, parsed = assert_fused_parse_matches_one_process_per_tool(
            tmp_path, monkeypatch, capfd, config
        )
        assert (error, err) == (None, [])
        assert parsed.count(b"\n") == files * readings

    @pytest.mark.parametrize(
        "place, swap, rows, error, err",
        [
            # A first reading with no <timeStamp>: its value goes with the
            # meter's header row, silently.
            (0, False, 8, None, []),
            # A <value> before its <timeStamp>: well-formed and complete,
            # and it parses as 0.
            (0, True, 9, None, []),
            # A later reading with no <timeStamp>: the stage fails on a line
            # of map's input, naming neither the file nor the reading.
            (1, False, None, "map num=1 --labels name,ref,timeStamp,value exited with status 2",
             ["map: line 6: duplicate cell (2, value)"]),
        ],
    )
    def test_hand_edited_readings(self, tmp_path, monkeypatch, capfd, place, swap, rows, error, err):
        config = generated(tmp_path, files=3)
        first = sorted(Path(config.readings_dir).glob("*.xml"))[0]
        text = first.read_text()
        stamp = list(re.finditer(r"<timeStamp>[^<]*</timeStamp>(\s*)", text))[place]
        edited = text[:stamp.start()] + text[stamp.end():]
        if swap:  # put the stamp back after the reading's value
            value = re.search(r"<value>[^<]*</value>\s*", edited[stamp.start():])
            at = stamp.start() + value.end()
            edited = edited[:at] + stamp.group() + edited[at:]
        first.write_text(edited)
        outcome = assert_fused_parse_matches_one_process_per_tool(
            tmp_path, monkeypatch, capfd, config
        )
        assert outcome[:2] == (error, err)
        parsed = outcome[2]
        assert (parsed if rows is None else parsed.count(b"\n")) == rows
        if swap:
            assert parsed.split(b"\n")[0].endswith(b" 0")


# A core that raises on its first row: a stand-in for a bug in one.
def broken_group_number(rows):
    for fields in rows:
        raise RuntimeError(f"broken core at {' '.join(fields)!r}")
        yield fields


class TestFaultsInsideASegment:
    def test_a_failing_middle_core_is_named_with_its_own_line_and_status(
        self, tmp_path, capfd, forks
    ):
        rows = tmp_path / "rows"
        rows.write_text("a b\n" * 5000)
        out = tmp_path / "out" / "file"
        commands = [("self", "1", "2"), ("self", "1", "2"), ("self", "9"), ("delr", "1", "x")]
        capfd.readouterr()
        with pytest.raises(StageError, match="^self 9 exited with status 2$"):
            pipeline._run_stage(commands, [str(out)], feed_paths=[rows])
        assert capfd.readouterr().err == "self: line 1: field 9 does not exist in a 2-field row\n"
        assert len(forks) == 2
        assert list(out.parent.iterdir()) == []
        assert_no_child_left()

    @pytest.mark.parametrize("place", [0, 2])
    def test_the_first_and_the_last_core_are_named_too(self, tmp_path, capfd, forks, place):
        rows = tmp_path / "rows"
        rows.write_text("a b\n")
        commands = [("self", "1", "2"), ("self", "1", "2"), ("self", "1", "2"), ("self", "1", "2")]
        commands[1 + place] = ("delf", "3")
        capfd.readouterr()
        with pytest.raises(StageError, match="^delf 3 exited with status 2$"):
            pipeline._run_stage(commands, [str(tmp_path / "out")], feed_paths=[rows])
        assert capfd.readouterr().err == "delf: line 1: field 3 does not exist in a 2-field row\n"
        assert len(forks) == 2

    def test_a_core_that_raises_prints_one_traceback_and_is_named(
        self, tmp_path, monkeypatch, capfd, forks
    ):
        monkeypatch.setattr(tabular, "group_number_rows", broken_group_number)
        config = generated(tmp_path, files=20)
        capfd.readouterr()
        with pytest.raises(StageError, match="^group-number exited with status 1$"):
            stage_parse(config)
        err = capfd.readouterr().err
        assert err.count("Traceback") == 1
        assert err.rstrip().endswith("RuntimeError: broken core at 'name SM000000001VG'")
        assert len(forks) == 2
        assert list(Path(config.parsed_dir).iterdir()) == []
        assert_no_child_left()

    def test_a_fused_child_whose_reader_has_gone_exits_0(self, tmp_path, forks):
        # More rows than the pipes hold: the fused child writes on after its
        # reader, which fails before reading, has gone.
        rows = tmp_path / "rows"
        rows.write_text("a b\n" * 100_000)
        commands = [("self", "1", "2"), ("self", "1"), ("delr", "1", "x"), ("self", "0")]
        with pytest.raises(StageError, match="^self 0 exited with status 1$"):
            pipeline._run_stage(commands, [str(tmp_path / "out")], feed_paths=[rows])
        assert len(forks) == 3

    def test_a_fused_child_killed_by_a_signal_is_named_by_its_first_command(
        self, tmp_path, monkeypatch, forks
    ):
        # A signal stops every core of the child at once: it is named as the
        # first of them, as the first of their processes would be.
        def killed(specs, rows):
            for line in rows:
                os.kill(os.getpid(), signal.SIGKILL)
                yield line

        monkeypatch.setattr(tabular, "delf_rows", killed)
        rows = tmp_path / "rows"
        rows.write_text("a b\n")
        commands = [("self", "1", "2"), ("self", "1", "2"), ("delf", "1"), ("self", "1")]
        with pytest.raises(StageError, match=f"^self 1 2 exited with status -{signal.SIGKILL}$"):
            pipeline._run_stage(commands, [str(tmp_path / "out")], feed_paths=[rows])
        assert len(forks) == 2
        assert not (tmp_path / "out").exists()


def test_a_closed_stdin_of_a_fused_child_is_named_by_its_first_core(tmp_path):
    # The first core opens the child's fd 0 when it asks for its first row;
    # a child whose fd 0 is closed fails as that tool alone would.
    code = (
        "import os, sys\n"
        "from meterpipe import __main__ as d\n"
        "from meterpipe.core import run_segment\n"
        "segment = d._segments([('xmldir',), ('delr', '1', 'x'), ('self', '1')])\n"
        "(_, cores) = segment[1]\n"
        "os.close(0)\n"
        "failed = []\n"
        "code = run_segment(cores, failed.append)\n"
        "print(code, failed, file=sys.stdout)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout == "1 [0]\n"
    assert out.stderr == "delr: cannot open -: Bad file descriptor\n"


# --- fused against one process per tool, over rows of any spacing -------------


def forked(run, source, target, errors):
    """Run ``run()`` as a tool process forked from this one, with the file
    ``source`` on fd 0, ``target`` on fd 1 and ``errors`` on fd 2, as
    fork_stage runs a tool; its exit status."""
    sys.stdout.flush()
    sys.stderr.flush()
    with open(source, "rb") as src, open(target, "wb") as out, open(errors, "wb") as err:
        pid = os.fork()
        if pid == 0:
            try:
                os.dup2(err.fileno(), 2)
            finally:
                dispatcher._tool_process(run, src.fileno(), out.fileno())
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def run_fused(commands, source, work):
    """The row tools ``commands`` as fork_stage runs them after a stage's
    first command: one process when they fuse.  Returns the exit status,
    the index of the command it failed in, stderr and stdout."""
    (argvs, cores), = dispatcher._segments([("xmldir",), *commands])[1:]  # never runs xmldir
    failed = mmap.mmap(-1, len(commands))
    if cores is None:  # one command runs alone
        run = partial(dispatcher.main, list(argvs[0]))
    else:
        run = partial(core.run_segment, cores, partial(dispatcher._flag, failed, 0))
    status = forked(run, source, work / "fused.out", work / "fused.err")
    index = max(failed.find(b"\1"), 0)
    return status, index, (work / "fused.err").read_bytes(), (work / "fused.out").read_bytes()


def run_one_process_per_tool(commands, source, work):
    """Each command as a process of its own, each reading all that the one
    before it wrote, as in a shell pipeline: the (index, exit status,
    stderr) of every command that failed, and the last one's stdout."""
    failures = []
    for i, argv in enumerate(commands):
        target, errors = work / f"{i}.out", work / f"{i}.err"
        status = forked(partial(dispatcher.main, list(argv)), source, target, errors)
        if status:
            failures.append((i, status, errors.read_bytes()))
        else:
            assert errors.read_bytes() == b""
        source = target
    return failures, source.read_bytes()


# Separators and fields of every kind a row tool splits on or passes by:
# tabs, runs of spaces, blanks at either end, blank rows, CRs inside a
# field, a CRLF row end, and bytes that are not UTF-8.  No token ends in a
# CR: a fused run keeps such a CR where one process per tool drops it, the
# known difference that the xfail test after this one pins.
_ROW_SEPARATORS = [" ", " ", " ", "  ", "\t", " \t "]
_ROW_TOKENS = ["name", "timeStamp", "value", "ref", "MeterID", "k", "0", "1", "x",
               "a\rb", "\rx", "caf\u00e9", "\udcff"]
_ROW_SPECS = ["1", "2", "3", "NF", "NF-1", "NF-2"]
_LABELS = ["name", "value", "ref", "timeStamp", "k", "x"]


@st.composite
def spaced_rows(draw):
    """The bytes of a row file: rows of 0 to 5 tokens joined by any
    separators, with blanks at either end, LF or CRLF ends, and sometimes
    no LF after the last row."""
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        fields = draw(st.lists(st.sampled_from(_ROW_TOKENS), max_size=5))
        row = draw(st.sampled_from(["", "", "", " ", "\t"]))
        for i, field in enumerate(fields):
            row += (draw(st.sampled_from(_ROW_SEPARATORS)) if i else "") + field
        rows.append(row + draw(st.sampled_from(["", "", "", "", " ", "\t", "\r"])))
    text = "\n".join(rows) + ("\n" if rows and draw(st.booleans()) else "")
    return text.encode("utf-8", "surrogateescape")


_ROW_COMMANDS = st.one_of(
    st.lists(st.sampled_from(_ROW_SPECS), min_size=1, max_size=3).map(lambda s: ("self", *s)),
    st.lists(st.sampled_from(_ROW_SPECS), min_size=1, max_size=2).map(lambda s: ("delf", *s)),
    st.tuples(st.just("delr"), st.sampled_from(_ROW_SPECS), st.sampled_from(_ROW_TOKENS)),
    st.just(("filter-tags",)),
    st.just(("group-number",)),
    st.lists(st.sampled_from(_LABELS), min_size=1, max_size=4, unique=True).map(
        lambda labels: ("map", "num=1", "--labels", ",".join(labels))
    ),
)

_PARSE_ROWS = (
    b"A B Meter Names name SM1\nA B Meter Names NameType name MeterID\n"
    b"A  B Readings\ttimeStamp T1 \n\tA B Readings value  1.5\n\n"
    b"A B Readings ReadingType ref R\rS\r\n"
)


@given(st.lists(_ROW_COMMANDS, min_size=1, max_size=5), spaced_rows())
@settings(max_examples=120, derandomize=True, deadline=None)
@example([("delr", "1", "x"), ("filter-tags",), ("group-number",)],
         b" name\ta  b \n\ttimeStamp t\r\n\nvalue 1 \nref  r")
@example([("delf", "1"), ("group-number",), ("delr", "2", "z")], b"x\n a\tb\n")
@example([("self", "NF-1", "NF"), ("filter-tags",), ("delr", "2", "MeterID"), ("group-number",),
          ("map", "num=1", "--labels", "name,ref,timeStamp,value"), ("delf", "1"),
          ("delr", "3", "0")], _PARSE_ROWS)
def test_fused_rows_match_one_process_per_tool(commands, rows):
    """A fused run of row tools writes the bytes one process per tool
    writes, whatever the spacing of its rows.  When tools fail, it fails as
    one of them does, with that tool's stderr line and exit status (a
    fused child stops at its first error; it is the only one when one tool
    fails)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        source = work / "rows"
        source.write_bytes(rows)
        failures, expected = run_one_process_per_tool(commands, source, work)
        status, index, err, out = run_fused(commands, source, work)
    if failures:
        assert (index, status, err) in failures
    else:
        assert (status, err, out) == (0, b"", expected)


@pytest.mark.xfail(strict=True, reason="a fused core does not drop a CR that ends its input row")
def test_a_field_that_ends_in_cr_and_ends_a_row_between_tools(tmp_path):
    # The reader of each tool drops one CR that ends a row, so a tool that
    # makes a field ending in CR the last of its row loses that CR to the
    # next tool's reader.  A fused run passes the field on whole.
    source = tmp_path / "rows"
    source.write_bytes(b"x a\r b\n")
    commands = [("self", "2"), ("delr", "1", "z")]
    failures, expected = run_one_process_per_tool(commands, source, tmp_path)
    assert (failures, expected) == ([], b"a\n")
    assert run_fused(commands, source, tmp_path) == (0, 0, b"", expected)
