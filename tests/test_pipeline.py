import io
import os
import re
import resource
import shutil
import signal
import stat
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conftest import (
    ELEMENT_PATH,
    SAMPLE_PARSED_ROWS,
    SAMPLE_VALID_ROWS,
    SAMPLE_XML,
    assert_no_child_left,
    make_pipeline_config,
)
from meterpipe import __main__ as dispatcher
from meterpipe import pipeline
from meterpipe.core import DataError, UsageError
from meterpipe.generator import GeneratorConfig, generate_corpus, load_sidecar
from meterpipe.pipeline import (
    StageError,
    find_xml_files,
    load_config,
    run_batches,
    run_single,
    stage_aggregate,
    stage_parse,
    stage_validate,
    total_seconds,
)


# Every tool of a stage run here is this process's child; none may outlive
# its test.
pytestmark = pytest.mark.usefixtures("no_child_left")


def read_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


class TestConfig:
    def test_loads_a_flat_key_value_file(self, tmp_path, sample_dir):
        readings, master = sample_dir
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(
            f"# pipeline paths\n"
            f"readings_dir={readings}\n"
            f"parsed_dir={tmp_path / 'p'}\n"
            f"valid_dir={tmp_path / 'v'}\n"
            f"corrected_dir={tmp_path / 'c'}\n"
            f"master_path={master}\n"
        )
        config = load_config(str(cfg_file))
        assert config.readings_dir == str(readings)
        assert config.batch_dirs is None

    def test_missing_keys_are_usage_errors(self, tmp_path):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text("readings_dir=/x\n")
        with pytest.raises(UsageError, match="missing"):
            load_config(str(cfg_file))

    def test_paths_must_be_distinct(self, tmp_path, sample_dir):
        readings, master = sample_dir
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(
            f"readings_dir={readings}\nparsed_dir={readings}\n"
            f"valid_dir={tmp_path / 'v'}\ncorrected_dir={tmp_path / 'c'}\n"
            f"master_path={master}\n"
        )
        with pytest.raises(UsageError, match="distinct"):
            load_config(str(cfg_file))

    def test_master_must_exist_and_load(self, tmp_path, sample_dir):
        readings, _ = sample_dir
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(
            f"readings_dir={readings}\nparsed_dir={tmp_path / 'p'}\n"
            f"valid_dir={tmp_path / 'v'}\ncorrected_dir={tmp_path / 'c'}\n"
            f"master_path={tmp_path / 'nope'}\n"
        )
        with pytest.raises(UsageError, match="master"):
            load_config(str(cfg_file))

    def test_unknown_key_names_the_key_and_line(self, tmp_path, sample_dir):
        readings, master = sample_dir
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text(
            f"readings_dir={readings}\nparsed_dir={tmp_path / 'p'}\n"
            f"valid_dir={tmp_path / 'v'}\ncorrected_dir={tmp_path / 'c'}\n"
            f"master_path={master}\nbatch_dir=b00,b01\n"
        )
        with pytest.raises(UsageError, match=f"{cfg_file}:6: unknown key 'batch_dir'"):
            load_config(str(cfg_file))

    def test_a_repeated_key_names_the_key_and_line(self, tmp_path, sample_dir):
        # The second batch_dirs= line would silently drop the first list.
        readings, master = sample_dir
        cfg_file = Path(write_config(tmp_path, readings, master, "b0"))
        cfg_file.write_text(cfg_file.read_text() + "batch_dirs=b1\n")
        with pytest.raises(UsageError, match=f"^{cfg_file}:7: repeated key 'batch_dirs'$"):
            load_config(str(cfg_file))


def write_config(tmp_path, readings, master, batch_dirs=None):
    cfg = tmp_path / "cfg"
    cfg.write_text(
        f"readings_dir={readings}\nparsed_dir={tmp_path / 'p'}\n"
        f"valid_dir={tmp_path / 'v'}\ncorrected_dir={tmp_path / 'c'}\n"
        f"master_path={master}\n"
        + ("" if batch_dirs is None else f"batch_dirs={batch_dirs}\n")
    )
    return str(cfg)


class TestBatchNames:
    """Each batch names its own directory under readings_dir, so no
    reading is summed twice and no output lands outside the output dirs."""

    def test_items_are_stripped(self, tmp_path, sample_dir):
        config = load_config(write_config(tmp_path, *sample_dir, " b1 ,b2, "))
        assert config.batch_dirs == ["b1", "b2"]

    @pytest.mark.parametrize(
        "batch_dirs, message",
        [
            ("b1,b1", "batch 'b1' repeats batch 'b1'"),
            ("b1,./b1", "batch './b1' repeats batch 'b1'"),
            ("b1, b1", "batch 'b1' repeats batch 'b1'"),
            ("b1,b2/../b1/", "batch 'b2/../b1/' repeats batch 'b1'"),
            ("b1,b1/sub", "batches 'b1' and 'b1/sub' overlap"),
            ("b1/sub,b1", "batches 'b1/sub' and 'b1' overlap"),
            ("b1,.", "batches 'b1' and '.' overlap"),
        ],
    )
    def test_a_batch_counted_twice_is_a_usage_error(
        self, tmp_path, sample_dir, batch_dirs, message
    ):
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            load_config(write_config(tmp_path, *sample_dir, batch_dirs))

    @pytest.mark.parametrize("batch", ["/abs/b1", "..", "../b1", "b1/../../b1"])
    def test_a_batch_outside_readings_dir_is_a_usage_error(
        self, tmp_path, sample_dir, batch
    ):
        readings, master = sample_dir
        with pytest.raises(
            UsageError, match=f"^batch {re.escape(repr(batch))} is not a directory under "
        ):
            load_config(write_config(tmp_path, readings, master, f"b0,{batch}"))

    def test_a_repeated_batch_fails_the_run_and_writes_nothing(self, tmp_path):
        config, _ = generated_config(tmp_path / "src", files=6, ratio=0.0)
        root = tmp_path / "r"
        shutil.copytree(config.readings_dir, root / "b1")
        cfg = write_config(tmp_path, root, root / "b1" / "READING_TYPE_CONVERTER", "b1,./b1")
        assert pipeline.main(["run", "--config", cfg]) == 1
        assert not (tmp_path / "p").exists()
        assert not (tmp_path / "c").exists()
        assert sorted(p.name for p in (root / "b1").iterdir()) == sorted(
            os.listdir(config.readings_dir)
        )


class TestGoldenStages:
    def test_parse_validate_aggregate_on_the_reference_document(
        self, tmp_path, sample_dir
    ):
        readings, master = sample_dir
        config = make_pipeline_config(tmp_path, readings, master)

        stage_parse(config)
        assert read_lines(config.parsed_file) == SAMPLE_PARSED_ROWS

        stage_validate(config)
        assert read_lines(config.valid_file) == SAMPLE_VALID_ROWS
        assert read_lines(config.invalid_file) == []

        stage_aggregate(config)
        assert read_lines(config.aggregate_file) == [
            "TYPE01 16.3959",
            "TYPE02 17.9735",
            "TYPE03 17.8280",
        ]

    def test_stages_are_byte_identical_on_rerun(self, tmp_path, sample_dir):
        readings, master = sample_dir
        config = make_pipeline_config(tmp_path, readings, master)
        outputs = (config.parsed_file, config.valid_file, config.aggregate_file)

        def run_all():
            stage_parse(config)
            stage_validate(config)
            stage_aggregate(config)
            return [Path(p).read_bytes() for p in outputs]

        assert run_all() == run_all()


class TestFixedColumns:
    """The parse stage's map takes filter-tags' labels, so PARSED_FILE's
    columns do not depend on the labels the corpus holds."""

    def run_on(self, tmp_path, master, document):
        readings = tmp_path / "readings-edited"
        readings.mkdir()
        (readings / "a.xml").write_text(document)
        config = make_pipeline_config(tmp_path, readings, master)
        run_single(config, keep_intermediates=True)
        return config

    def test_a_corpus_without_readings_runs_to_empty_outputs(self, tmp_path, sample_dir):
        bare = re.sub(r"\s*<Readings>.*?</Readings>", "", SAMPLE_XML, flags=re.S)
        config = self.run_on(tmp_path, sample_dir[1], bare)
        for path in (config.parsed_file, config.valid_file, config.invalid_file,
                     config.aggregate_file):
            assert Path(path).read_bytes() == b""

    def test_a_label_missing_everywhere_is_a_column_of_zeros(self, tmp_path, sample_dir):
        untyped = re.sub(r"\s*<ReadingType [^>]*/>", "", SAMPLE_XML)
        config = self.run_on(tmp_path, sample_dir[1], untyped)
        zeroed = [re.sub(r" \S+", " 0", row, count=1) for row in SAMPLE_PARSED_ROWS]
        assert read_lines(config.parsed_file) == zeroed
        assert read_lines(config.invalid_file) == zeroed
        assert read_lines(config.valid_file) == []


def test_a_line_break_in_an_attribute_value_parses_as_a_space(tmp_path):
    # xmldir makes each CR and LF of an attribute value a space, as it does
    # in leaf text, so a ref that ends in &#10; keeps its reading in one row.
    plain = tmp_path / "plain"
    generate_corpus(GeneratorConfig(file_count=2, meters=1, seed=1, out_dir=str(plain),
                                    readings_per_file=3, invalid_ratio=0.0))
    edited = tmp_path / "edited"
    shutil.copytree(plain, edited)
    first = sorted(edited.glob("*.xml"))[0]
    first.write_text(re.sub(r'ref="([^"]*)"', r'ref="\1&#10;"', first.read_text(), count=1))
    outputs = []
    for readings in (plain, edited):
        work = tmp_path / f"{readings.name}-run"
        work.mkdir()
        cfg = write_config(work, readings, readings / "READING_TYPE_CONVERTER")
        assert pipeline.main(["run", "--config", cfg]) == 0
        outputs.append({p.relative_to(work): p.read_bytes()
                        for p in work.rglob("*") if p.is_file() and p.name != "cfg"})
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 3  # the valid, invalid and aggregate files


class TestStageErrors:
    def test_empty_directory_is_a_data_error(self, tmp_path, sample_dir):
        _, master = sample_dir
        empty = tmp_path / "empty"
        empty.mkdir()
        config = make_pipeline_config(tmp_path, empty, master)
        with pytest.raises(DataError, match="no \\*.xml"):
            stage_parse(config)

    def test_directory_with_only_non_xml_files(self, tmp_path, sample_dir):
        _, master = sample_dir
        other = tmp_path / "other"
        other.mkdir()
        (other / "notes.txt").write_text("not xml")
        config = make_pipeline_config(tmp_path, other, master)
        with pytest.raises(DataError):
            stage_parse(config)

    def test_failed_parse_leaves_no_partial_output(self, tmp_path, sample_dir):
        _, master = sample_dir
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "a.xml").write_text(SAMPLE_XML)
        (bad / "b.xml").write_text("<MeterReadings><broken")
        config = make_pipeline_config(tmp_path, bad, master)
        with pytest.raises(DataError):
            stage_parse(config)
        assert not os.path.exists(config.parsed_file)
        assert list(Path(config.parsed_dir).iterdir()) == []

    def test_unreadable_file_is_a_data_error_naming_it(self, tmp_path, sample_dir, capfd):
        readings, master = sample_dir
        dangling = readings / "zz.xml"
        dangling.symlink_to(tmp_path / "missing.xml")
        config = make_pipeline_config(tmp_path, readings, master)
        capfd.readouterr()
        with pytest.raises(StageError, match=f"^xmldir {ELEMENT_PATH} exited with status 1$"):
            stage_parse(config)
        assert capfd.readouterr().err == (
            f"xmldir: cannot open {dangling}: No such file or directory\n"
        )
        assert list(Path(config.parsed_dir).iterdir()) == []

    def test_failed_validate_keeps_the_old_outputs(self, tmp_path, sample_dir):
        readings, master = sample_dir
        config = make_pipeline_config(tmp_path, readings, master)
        stage_parse(config)
        stage_validate(config)
        Path(config.invalid_file).write_bytes(b"an old reject row\n")
        before = {p.name: p.read_bytes() for p in Path(config.valid_dir).iterdir()}
        ragged = tmp_path / "ragged-master"
        ragged.write_text(master.read_text() + "k2 TYPE09 extra\n")
        config.master_path = str(ragged)
        with pytest.raises(StageError, match="^cjoin1 --reject .* exited with status 2$"):
            stage_validate(config)
        after = {p.name: p.read_bytes() for p in Path(config.valid_dir).iterdir()}
        assert after == before
        assert sorted(after) == ["ALL_INVALID_READINGS", "ALL_VALID_READINGS"]

    def test_validate_requires_the_parsed_file(self, tmp_path, sample_dir):
        readings, master = sample_dir
        config = make_pipeline_config(tmp_path, readings, master)
        with pytest.raises(UsageError, match="parsed file"):
            stage_validate(config)

    def test_aggregate_requires_the_valid_file(self, tmp_path, sample_dir):
        readings, master = sample_dir
        config = make_pipeline_config(tmp_path, readings, master)
        with pytest.raises(UsageError, match="valid file"):
            stage_aggregate(config)


class TestToolLauncher:
    """Every tool runs the orchestrator's own meterpipe package."""

    def test_a_meterpipe_package_in_the_working_directory_is_ignored(
        self, tmp_path, sample_dir, monkeypatch
    ):
        readings, master = sample_dir
        decoy = tmp_path / "cwd" / "meterpipe"
        decoy.mkdir(parents=True)
        (decoy / "__init__.py").write_text("")
        (decoy / "__main__.py").write_text("import sys\nsys.exit(3)\n")
        monkeypatch.chdir(decoy.parent)
        config = make_pipeline_config(tmp_path, readings, master)
        stage_parse(config)
        assert read_lines(config.parsed_file) == SAMPLE_PARSED_ROWS

    def test_tools_need_no_pythonpath(self, tmp_path, sample_dir, monkeypatch):
        # Children inherit the environment, not this process's sys.path.
        readings, master = sample_dir
        monkeypatch.delenv("PYTHONPATH", raising=False)
        monkeypatch.chdir(tmp_path)
        config = make_pipeline_config(tmp_path, readings, master)
        stage_parse(config)
        assert read_lines(config.parsed_file) == SAMPLE_PARSED_ROWS


class TestToolBytecode:
    """Tools are forks of the orchestrator: they import nothing that it has
    imported, and nothing is written beside the sources."""

    @pytest.mark.parametrize(
        "stage, first_use",
        [("parse", []), ("validate", []), ("aggregate", ["decimal"]),
         ("reaggregate", ["decimal"])],
    )
    def test_a_stage_sent_again_imports_nothing(self, tmp_path, sample_dir, stage, first_use):
        # The orchestrator imports what a tool imports on first use before it
        # forks the tool, so that later stages' tools inherit it; map's
        # tempfile comes with meterpipe.pipeline.  -v is a flag of the
        # interpreter, so it reaches the forks of a process started with it.
        config = make_pipeline_config(tmp_path, *sample_dir)
        run_single(config, keep_intermediates=True)  # every stage's input
        call = {
            "parse": "pipeline.stage_parse(config)",
            "validate": "pipeline.stage_validate(config)",
            "aggregate": "pipeline.stage_aggregate(config)",
            "reaggregate": "pipeline._run_stage(pipeline._AGGREGATE_TOOLS, "
            f"[{str(tmp_path / 'total')!r}], feed_paths=[config.aggregate_file] * 3)",
        }[stage]
        code = (
            "import sys; from meterpipe import pipeline; "
            f"config = pipeline.PipelineConfig(**{vars(config)!r}); "
            f"print('stage: first', file=sys.stderr); {call}; "
            f"print('stage: again', file=sys.stderr); {call}"
        )
        out = subprocess.run([sys.executable, "-v", "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        err = out.stderr.splitlines()
        first, again = err.index("stage: first"), err.index("stage: again")

        def imported(lines):
            return [line.split("'")[1] for line in lines if line.startswith("import '")]

        assert [m for m in imported(err[first:again]) if m in ("tempfile", "decimal")] == first_use
        assert imported(err[again:]) == []

    def test_a_run_leaves_its_temporary_directory_empty(self, tmp_path, sample_dir):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        out = subprocess.run(
            [sys.executable, "-m", "meterpipe", "pipeline", "run",
             "--config", write_config(tmp_path, *sample_dir)],
            capture_output=True,
            env=dict(os.environ, TMPDIR=str(tmp)),
        )
        assert out.returncode == 0, out.stderr
        assert list(tmp.iterdir()) == []

    def test_nothing_is_written_beside_the_sources(self, tmp_path, sample_dir):
        # A copy of the package, so that earlier imports cannot have left a
        # __pycache__ in it.
        package = tmp_path / "src" / "meterpipe"
        shutil.copytree(
            os.path.dirname(pipeline.__file__),
            package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        before = sorted(os.listdir(package))
        out = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys; sys.path.insert(0, {str(package.parent)!r}); "
             "from meterpipe.pipeline import main; sys.exit(main())",
             "run", "--config", write_config(tmp_path, *sample_dir)],
            capture_output=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )
        assert out.returncode == 0, out.stderr
        assert sorted(os.listdir(package)) == before
        assert not list(package.parent.rglob("__pycache__"))
        assert read_lines(tmp_path / "v" / "ALL_VALID_READINGS") == SAMPLE_VALID_ROWS


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_are_published_with_the_umask_mode(tmp_path, sample_dir, umask, mode):
    out = subprocess.run(
        [sys.executable, "-m", "meterpipe", "pipeline", "run", "--keep-intermediates",
         "--config", write_config(tmp_path, *sample_dir)],
        capture_output=True,
        umask=umask,
    )
    assert out.returncode == 0, out.stderr
    for name in ("p/PARSED_FILE", "v/ALL_VALID_READINGS", "v/ALL_INVALID_READINGS",
                 "c/MEASURED_VALUES_by_TYPE"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


def processes_naming(text):
    """The pids of the processes whose command line holds ``text``."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if text.encode() in f.read():
                    found.append(pid)
        except OSError:
            pass  # it has exited
    return found


def assert_a_signal_stops_a_run_and_leaves_nothing_behind(tmp_path, sample_dir, signum):
    readings, master = sample_dir
    # xmldir blocks opening this FIFO, with the parse stage's other tools
    # started and waiting for input.
    os.mkfifo(readings / "zz.xml")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    cfg = write_config(tmp_path, readings, master)
    run = subprocess.Popen(
        [sys.executable, "-m", "meterpipe", "pipeline", "run", "--config", cfg],
        stderr=subprocess.PIPE,
        env=dict(os.environ, TMPDIR=str(tmp)),
        # A shell's background job may hand SIGINT down ignored.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    parsed = tmp_path / "p"
    deadline = time.monotonic() + 60
    while not any(parsed.glob(".stage-*")):
        assert run.poll() is None and time.monotonic() < deadline
        time.sleep(0.005)
    run.send_signal(signum)
    _, err = run.communicate(timeout=60)
    assert run.returncode == 128 + signum, err
    assert err == b""
    assert list(parsed.iterdir()) == []
    assert list(tmp.iterdir()) == []
    # The tools are forks of the run, so their command lines name its config.
    assert processes_naming(cfg) == []


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_an_output_directory_that_cannot_be_made_is_a_one_line_data_error(
    tmp_path, sample_dir
):
    (tmp_path / "blocker").write_text("")
    parsed = tmp_path / "blocker" / "p"
    cfg = Path(write_config(tmp_path, *sample_dir))
    cfg.write_text(cfg.read_text().replace(f"={tmp_path / 'p'}\n", f"={parsed}\n"))
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = subprocess.run(
        [sys.executable, "-m", "meterpipe", "pipeline", "run", "--config", str(cfg)],
        capture_output=True,
        env=dict(os.environ, TMPDIR=str(tmp)),
    )
    assert out.returncode == 2
    assert out.stdout == b""
    assert out.stderr.decode() == (
        f"pipeline: cannot create {parsed / 'PARSED_FILE'}: Not a directory\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "READING_TYPE_CONVERTER", "blocker", "cfg", "readings", "tmp",
    ]
    assert list(tmp.iterdir()) == []
    assert processes_naming(str(cfg)) == []


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sigterm_stops_a_run_and_leaves_nothing_behind(tmp_path, sample_dir):
    assert_a_signal_stops_a_run_and_leaves_nothing_behind(tmp_path, sample_dir, signal.SIGTERM)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sigint_stops_a_run_and_leaves_nothing_behind(tmp_path, sample_dir):
    assert_a_signal_stops_a_run_and_leaves_nothing_behind(tmp_path, sample_dir, signal.SIGINT)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_sigterm_stops_a_batched_run_and_leaves_nothing_behind(tmp_path):
    config = batched_config(tmp_path)
    # The run has published batches b0-b2 when b3's xmldir blocks opening
    # this FIFO.
    os.mkfifo(Path(config.readings_dir) / "b3" / "zz.xml")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    cfg = write_config(tmp_path, config.readings_dir, config.master_path, ",".join(BATCHES))
    run = subprocess.Popen(
        [sys.executable, "-m", "meterpipe", "pipeline", "run", "--config", cfg],
        stderr=subprocess.PIPE,
        env=dict(os.environ, TMPDIR=str(tmp)),
    )
    deadline = time.monotonic() + 60
    while not any((tmp_path / "p" / "b3").glob(".stage-*")):
        assert run.poll() is None and time.monotonic() < deadline
        time.sleep(0.005)
    run.send_signal(signal.SIGTERM)
    _, err = run.communicate(timeout=60)
    assert run.returncode == 128 + signal.SIGTERM, err
    assert err == b""
    for name in "pvc":
        assert not list((tmp_path / name).rglob(".stage-*"))
    assert list((tmp_path / "p" / "b3").iterdir()) == []
    assert not (tmp_path / "c" / "MEASURED_VALUES_by_TYPE").exists()
    assert list(tmp.iterdir()) == []
    assert processes_naming(cfg) == []


# Tools that misbehave on purpose, for _run_stage's fault paths.
FAULT_TOOLS = """
import os, signal, sys

def boom(argv):
    sys.stdout.write(sys.stdin.read())
    raise RuntimeError("boom")

def tee(argv):
    rows = sys.stdin.read()
    with open(argv[0], "a") as log:
        log.write(rows)
    sys.stdout.write(rows)
    return 0

def die(argv):
    os.kill(os.getpid(), getattr(signal, "SIG" + argv[0]))
"""


class TestStageRunner:
    """_run_stage forks every tool of a stage from this process and reaps
    it; however a stage fails, no process of it survives _run_stage (see
    the no_child_left fixture)."""

    @pytest.fixture
    def fault_tools(self, tmp_path, monkeypatch):
        """The tools of FAULT_TOOLS, known by name to the forked tools."""
        faults = tmp_path / "faults"
        faults.mkdir()
        (faults / "faults.py").write_text(FAULT_TOOLS)
        monkeypatch.syspath_prepend(str(faults))
        for name in ("boom", "tee", "die"):
            monkeypatch.setitem(dispatcher._TOOLS, name, ("faults", name))

    def test_a_failing_middle_tool_is_named_and_stops_the_stage(self, tmp_path):
        rows = tmp_path / "rows"
        rows.write_text("a b\n")
        out = tmp_path / "out" / "file"
        commands = [("self", "1", "2"), ("self", "9"), ("self", "1")]
        with pytest.raises(StageError, match="^self 9 exited with status 2$"):
            pipeline._run_stage(commands, [str(out)], feed_paths=[rows])
        assert list(out.parent.iterdir()) == []
        assert_no_child_left()

    def test_a_last_tool_that_stops_early_does_not_block_the_others(self, tmp_path):
        # More rows than a pipe holds: the tools upstream of one that fails
        # before reading must see a closed pipe, not a full one.
        rows = tmp_path / "rows"
        rows.write_text("a b\n" * 100_000)
        out = tmp_path / "out"
        commands = [("self", "1", "2"), ("self", "1"), ("self", "0")]
        with pytest.raises(StageError, match="^self 0 exited with status 1$"):
            pipeline._run_stage(commands, [str(out)], feed_paths=[rows])
        assert_no_child_left()

    def test_an_unreadable_file_fails_the_stage(self, tmp_path, sample_dir, capfd):
        readings, master = sample_dir
        # More than the pipes hold, so the tools are running when xmldir
        # reaches the file it cannot open.
        (readings / "a.xml").write_text(SAMPLE_XML * 2000)
        dangling = readings / "zz.xml"
        dangling.symlink_to(tmp_path / "missing.xml")
        config = make_pipeline_config(tmp_path, readings, master)
        capfd.readouterr()
        with pytest.raises(StageError, match=f"^xmldir {ELEMENT_PATH} exited with status 1$"):
            stage_parse(config)
        assert capfd.readouterr().err == (
            f"xmldir: cannot open {dangling}: No such file or directory\n"
        )
        assert list(Path(config.parsed_dir).iterdir()) == []
        assert_no_child_left()

    def test_a_tool_killed_by_a_signal_has_a_negative_status(self, tmp_path, fault_tools):
        out = tmp_path / "out"
        with pytest.raises(StageError, match=f"^die TERM exited with status -{signal.SIGTERM}$"):
            pipeline._run_stage([("die", "TERM"), ("self", "1")], [str(out)])
        assert not out.exists()
        assert_no_child_left()

    def test_a_forked_tool_that_raises_exits_1_and_nothing_runs_twice(
        self, tmp_path, fault_tools, capfd
    ):
        rows = tmp_path / "rows"
        rows.write_text("a 1\nb 2\n")
        log = tmp_path / "log"
        commands = [("self", "1", "2"), ("boom",), ("tee", str(log))]
        capfd.readouterr()
        with pytest.raises(StageError, match="^boom exited with status 1$"):
            pipeline._run_stage(commands, [str(tmp_path / "out")], feed_paths=[rows])
        err = capfd.readouterr().err
        assert err.count("Traceback") == 1
        assert err.rstrip().endswith("RuntimeError: boom")
        assert log.read_text() == "a 1\nb 2\n"
        assert_no_child_left()

    def test_a_tools_error_line_reaches_fd_2_whatever_sys_stderr_is(
        self, tmp_path, capfd, monkeypatch
    ):
        # A forked tool inherits this process's sys.stderr, here an object
        # in memory; it writes to fd 2 all the same, before it exits.
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        capfd.readouterr()
        with pytest.raises(StageError, match="^self 0 exited with status 1$"):
            pipeline._run_stage([("self", "0")], [str(tmp_path / "out")])
        assert capfd.readouterr().err == "self: invalid field spec '0': index must be >= 1\n"
        assert sys.stderr.getvalue() == ""

    def test_bytes_buffered_on_stdout_before_a_stage_appear_once(self, tmp_path, sample_dir):
        # A stream of the caller's own on a pipe, block-buffered: each tool
        # drops the one it inherits, and would write what it holds.
        config = make_pipeline_config(tmp_path, *sample_dir)
        code = (
            "import sys; from meterpipe.pipeline import PipelineConfig, run_single; "
            "sys.stdout = open(1, 'w', closefd=False); "
            f"sys.stdout.write('x'); run_single(PipelineConfig(**{vars(config)!r}))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == b"x"
        assert read_lines(config.valid_file) == SAMPLE_VALID_ROWS

    def test_a_killed_last_tool_is_named_and_every_tool_is_reaped(self, tmp_path, fault_tools):
        out = tmp_path / "out"
        with pytest.raises(StageError, match=f"^die KILL exited with status -{signal.SIGKILL}$"):
            pipeline._run_stage([("self", "1"), ("die", "KILL")], [str(out)])
        assert list(tmp_path.iterdir()) == [tmp_path / "faults"]
        assert_no_child_left()

    def test_a_stage_of_any_size_reaches_the_runner_whole(self, tmp_path):
        # An argument over 64 KiB and 1,000 paths for the first tool: every
        # row arrives, in file order (msort is stable on the one key), and
        # only the row the argument names goes.  Nothing execs, so no
        # ARG_MAX applies.
        long = "x" * 70000
        rows = tmp_path / "rows"
        rows.mkdir()
        feed = []
        for i in range(1000):
            feed.append(rows / f"{i:04d}")
            feed[-1].write_text(f"r{i} {long if i == 500 else i} k\n")
        out = tmp_path / "out"
        commands = [("msort", "key=3"), ("delr", "2", long)]
        pipeline._run_stage(commands, [str(out)], feed_paths=feed)
        assert out.read_text().splitlines() == [f"r{i} {i} k" for i in range(1000) if i != 500]

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_the_runner_keeps_no_fd_of_a_stage(self, tmp_path):
        rows = tmp_path / "rows"
        rows.write_text("a b\n")
        before = sorted(os.listdir("/proc/self/fd"), key=int)
        for n in (1, 3, 8):
            out = tmp_path / f"out{n}"
            pipeline._run_stage([("self", "1")] * n, [str(out)], feed_paths=[rows])
            assert out.read_text() == "a\n"
            assert sorted(os.listdir("/proc/self/fd"), key=int) == before

    def test_a_run_starts_no_interpreter(self, tmp_path, sample_dir, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run started a program")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        for name in [name for name in dir(os) if name.startswith("execv")]:
            monkeypatch.setattr(os, name, refuse)
        config = make_pipeline_config(tmp_path, *sample_dir)
        run_single(config)
        assert read_lines(config.aggregate_file) == [
            "TYPE01 16.3959",
            "TYPE02 17.9735",
            "TYPE03 17.8280",
        ]
        batched = batched_config(tmp_path / "batched")
        run_batches(batched)
        assert Path(batched.aggregate_file).read_bytes() == BATCHED_AGGREGATE

    def test_a_run_reaps_every_tool_before_it_returns(self, tmp_path):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        run_batches(batched_config(tmp_path))
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert after.ru_utime + after.ru_stime > before.ru_utime + before.ru_stime
        assert_no_child_left()

    def test_each_stages_cpu_counts_when_the_stage_ends(self, tmp_path, monkeypatch):
        # Each stage reaps its own tools, so the RUSAGE_CHILDREN delta across
        # a stage is that stage's CPU, also inside a run.
        config, _ = generated_config(tmp_path, files=200)
        deltas = []

        def parse(config):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            stage_parse(config)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            deltas.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)

        monkeypatch.setattr(pipeline, "_STAGES", (("parse", parse), *pipeline._STAGES[1:]))
        run_single(config)
        (delta,) = deltas
        assert delta > 0

    def test_a_bad_file_in_a_later_batch_stops_the_run_and_its_runner(self, tmp_path):
        config = batched_config(tmp_path)
        bad = Path(config.readings_dir) / "b3" / "zz.xml"
        bad.write_text("<MeterReadings><MeterReading>")
        with pytest.raises(StageError, match="^xmldir "):
            run_batches(config)
        assert_no_child_left()
        # Batches 0-2 were published; batch 3 and the final aggregate were not.
        for directory in (config.parsed_dir, config.valid_dir, config.corrected_dir):
            assert not list(Path(directory).rglob(".stage-*"))
            assert not list(Path(directory).glob("b3/*"))
        assert not os.path.exists(config.aggregate_file)
        assert os.path.exists(config.for_batch("b2").aggregate_file)


# A multi-batch corpus, and its aggregate as published when each stage
# started an interpreter of its own.
BATCHES = tuple(f"b{i}" for i in range(5))
BATCHED_AGGREGATE = b"TYPE01 235.8463\nTYPE02 302.2905\nTYPE03 286.3377\n"


def batched_config(tmp_path):
    for i, batch in enumerate(BATCHES):
        generate_corpus(
            GeneratorConfig(
                file_count=8,
                meters=4,
                seed=300 + i,
                out_dir=str(tmp_path / "r" / batch),
                invalid_ratio=0.2,
            )
        )
    master = tmp_path / "r" / BATCHES[0] / "READING_TYPE_CONVERTER"
    return make_pipeline_config(tmp_path, tmp_path / "r", master, batch_dirs=list(BATCHES))


def test_arguments_reach_the_tools_as_they_were_sent(tmp_path, sample_dir, monkeypatch):
    # Directories named with a space and a byte that is not UTF-8, and an
    # empty argument: delr 2 '' drops no row, but only if it gets all three.
    root = tmp_path / ("a b" + os.fsdecode(b"\xff"))
    readings, master = sample_dir
    shutil.copytree(readings, root / "readings")
    shutil.copy(master, root / "master")
    monkeypatch.setattr(
        pipeline, "_AGGREGATE_TOOLS", (("delr", "2", ""), *pipeline._AGGREGATE_TOOLS)
    )
    config = make_pipeline_config(root, root / "readings", root / "master")
    run_single(config, keep_intermediates=True)
    assert read_lines(config.parsed_file) == SAMPLE_PARSED_ROWS
    assert read_lines(config.valid_file) == SAMPLE_VALID_ROWS
    assert read_lines(config.invalid_file) == []
    assert read_lines(config.aggregate_file) == [
        "TYPE01 16.3959",
        "TYPE02 17.9735",
        "TYPE03 17.8280",
    ]


def test_a_batched_run_aggregates_as_before(tmp_path):
    config = batched_config(tmp_path)
    run_batches(config)
    assert Path(config.aggregate_file).read_bytes() == BATCHED_AGGREGATE


def test_a_file_argument_that_starts_with_a_dash_is_not_an_option(tmp_path, monkeypatch):
    # The batch aggregates reach msort as arguments; --mem=1/b0/... is a path.
    config = batched_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    config.corrected_dir = "--mem=1"
    run_batches(config)
    assert (tmp_path / "--mem=1" / "MEASURED_VALUES_by_TYPE").read_bytes() == BATCHED_AGGREGATE


class TestFindXmlFiles:
    def test_recursive_sorted_discovery(self, tmp_path):
        (tmp_path / "b").mkdir()
        (tmp_path / "a").mkdir()
        (tmp_path / "b" / "2.xml").write_text("<x/>")
        (tmp_path / "a" / "1.xml").write_text("<x/>")
        (tmp_path / "top.xml").write_text("<x/>")
        (tmp_path / "skip.txt").write_text("no")
        found = find_xml_files(str(tmp_path))
        assert [os.path.relpath(p, tmp_path) for p in found] == [
            "top.xml",
            os.path.join("a", "1.xml"),
            os.path.join("b", "2.xml"),
        ]


def generated_config(tmp_path, files=120, ratio=0.15, seed=77):
    corpus = tmp_path / "readings"
    stats = generate_corpus(
        GeneratorConfig(
            file_count=files,
            meters=max(1, files // 4),
            seed=seed,
            out_dir=str(corpus),
            invalid_ratio=ratio,
        )
    )
    master = corpus / "READING_TYPE_CONVERTER"
    return make_pipeline_config(tmp_path, corpus, master), stats


class TestGeneratedCorpusRun:
    def test_conservation_and_ground_truth(self, tmp_path):
        config, stats = generated_config(tmp_path)
        run_single(config, keep_intermediates=True)

        parsed = read_lines(config.parsed_file)
        valid = read_lines(config.valid_file)
        invalid = read_lines(config.invalid_file)
        assert len(parsed) == stats.readings == 360
        assert len(valid) + len(invalid) == len(parsed)
        assert len(invalid) == stats.invalid_count

        sums = {}
        for line in read_lines(config.aggregate_file):
            name, total = line.split(" ")
            sums[name] = total
        sidecar_sums, sidecar_invalid = load_sidecar(
            os.path.join(config.readings_dir, "GROUND_TRUTH")
        )
        assert sums == sidecar_sums
        assert sidecar_invalid == len(invalid)

    def test_parsed_rows_match_dom_extraction(self, tmp_path):
        config, _ = generated_config(tmp_path, files=40, ratio=0.2)
        run_single(config, keep_intermediates=True)
        expected = []
        for path in find_xml_files(config.readings_dir):
            root = ET.parse(path).getroot()
            meter = root.find("./MeterReading/Meter/Names/name").text
            for block in root.iter("Readings"):
                expected.append(
                    " ".join(
                        [
                            meter,
                            block.find("ReadingType").get("ref"),
                            block.find("timeStamp").text,
                            block.find("value").text,
                        ]
                    )
                )
        parsed = read_lines(config.parsed_file)
        assert sorted(parsed) == sorted(expected)

    def test_intermediates_removed_unless_kept(self, tmp_path):
        config, _ = generated_config(tmp_path, files=10, ratio=0.0)
        run_single(config)
        assert not os.path.exists(config.parsed_file)
        assert os.path.exists(config.valid_file)


class TestBatches:
    def test_batch_aggregation_equals_single_run(self, tmp_path):
        single, _ = generated_config(tmp_path, files=60, ratio=0.1)
        run_single(single, keep_intermediates=True)

        # The same corpus split across three batch directories.
        batched_root = tmp_path / "batched"
        batches = ["b0", "b1", "b2"]
        for b in batches:
            (batched_root / b).mkdir(parents=True)
        for i, path in enumerate(find_xml_files(single.readings_dir)):
            dest = batched_root / batches[i % 3] / os.path.basename(path)
            dest.write_bytes(Path(path).read_bytes())
        config = make_pipeline_config(
            tmp_path / "batchout", batched_root, single.master_path, batch_dirs=batches
        )
        reports = run_batches(config)
        assert [name for name, _ in reports] == batches

        assert read_lines(config.aggregate_file) == read_lines(single.aggregate_file)
        per_batch_valid = sum(
            len(read_lines(config.for_batch(b).valid_file)) for b in batches
        )
        assert per_batch_valid == len(read_lines(single.valid_file))

    def test_identical_batches_produce_identical_aggregates(self, tmp_path):
        single, _ = generated_config(tmp_path, files=20, ratio=0.1)
        batched_root = tmp_path / "batched"
        batches = ["b0", "b1", "b2"]
        for b in batches:
            (batched_root / b).mkdir(parents=True)
            for path in find_xml_files(single.readings_dir):
                os.symlink(path, batched_root / b / os.path.basename(path))
        config = make_pipeline_config(
            tmp_path / "out", batched_root, single.master_path, batch_dirs=batches
        )
        run_batches(config)
        aggregates = {
            Path(config.for_batch(b).aggregate_file).read_bytes() for b in batches
        }
        assert len(aggregates) == 1

    def test_empty_batch_list_is_a_usage_error(self, tmp_path, sample_dir):
        readings, master = sample_dir
        config = make_pipeline_config(tmp_path, readings, master)
        with pytest.raises(UsageError):
            run_batches(config)


class TestSummary:
    def test_twenty_seven_batches_at_twelve_seconds(self):
        reports = [
            (f"d{i:02d}", {"parse": 11.0, "validate": 0.3, "aggregate": 0.7})
            for i in range(27)
        ]
        assert total_seconds(reports) == pytest.approx(324.0)

    def test_single_batch_total_is_its_own_time(self):
        reports = [("only", {"parse": 1.5, "validate": 0.25, "aggregate": 0.25})]
        assert total_seconds(reports) == pytest.approx(2.0)
