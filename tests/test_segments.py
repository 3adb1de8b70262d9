"""Fused segments: a stage's runs of row tools share one forked child.

``fork_stage`` runs a stage's first command alone and each later run of
row tools, each reading stdin alone, as one child that chains their cores
as generators.  The reference for every test here is the same commands
run one process per tool.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import assert_no_child_left, make_pipeline_config
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
        upstream = iter(["a b"])
        missing = str(tmp_path / "missing")
        assert core.compose(tabular.self_main, ["1", missing], upstream) is None
        assert core.compose(tabular.self_main, ["--help"], upstream) is None
        assert core.compose(tabular.map_main, ["num=1"], upstream) is None
        assert core.compose(tabular.self_main, ["0"], upstream) is None
        prog, rows = core.compose(tabular.self_main, ["2"], upstream)
        assert prog == "self"
        assert capfd.readouterr() == ("", "")
        assert list(rows) == ["b"]


class TestFusedAgainstOneProcessPerTool:
    """The parse stage, fused, against its commands run one process per
    tool: the same PARSED_FILE bytes, the same StageError and the same
    stderr lines, also where both lose or misplace a reading."""

    @pytest.mark.parametrize(
        "files, seed, readings, invalid_ratio",
        [(1, 1, 1, 0.0), (40, 1, 3, 0.2), (25, 7, 40, 0.5), (300, 3, 2, 0.1)],
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
    for line in rows:
        raise RuntimeError(f"broken core at {line!r}")
        yield line


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
        monkeypatch.setattr(tabular, "group_number", broken_group_number)
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

        monkeypatch.setattr(tabular, "delete_fields", killed)
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
