"""Three-stage batch pipeline over directories of meter-reading XML files.

Stage 1 (parse) flattens every XML file into one tabular row per reading,
stage 2 (validate) splits rows into valid and invalid by reading-type
code, stage 3 (aggregate) sums values per reading type.  Stages exchange
data through materialized files.  Each stage runs as an OS pipeline of
forked processes, which execute concurrently: its first tool alone, then
each run of row tools chained in one process, and each other tool alone.
Outputs are written to a temp file and renamed, leaving no partial files
behind on failure.
"""

import argparse
import contextlib
import os
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, fields

# Every tool module, so that each forked tool finds its code imported.
from . import sortagg, tabular, xmlflat  # noqa: F401
from .__main__ import fork_stage
from .core import DataError, UsageError, input_rows, parse_digits, parse_ratio, read_config, run_tool
from .generator import GeneratorConfig, generate_corpus
from .join import load_master

ELEMENT_PATH = "/MeterReadings/MeterReading"

PARSED_FILENAME = "PARSED_FILE"
VALID_FILENAME = "ALL_VALID_READINGS"
INVALID_FILENAME = "ALL_INVALID_READINGS"
AGGREGATE_FILENAME = "MEASURED_VALUES_by_TYPE"

_DIR_KEYS = ("readings_dir", "parsed_dir", "valid_dir", "corrected_dir")


@dataclass
class PipelineConfig:
    readings_dir: str
    parsed_dir: str
    valid_dir: str
    corrected_dir: str
    master_path: str
    batch_dirs: list | None = None

    def validate(self):
        paths = [getattr(self, key) for key in _DIR_KEYS] + [self.master_path]
        if len(set(os.path.abspath(p) for p in paths)) != len(paths):
            raise UsageError("pipeline paths must all be distinct")
        if not os.path.isfile(self.master_path):
            raise UsageError(f"master file not found: {self.master_path}")
        load_master(input_rows(self.master_path))
        seen = []
        for batch in self.batch_dirs or ():
            name = os.path.normpath(batch)
            if os.path.isabs(name) or name.split(os.sep)[0] == os.pardir:
                raise UsageError(
                    f"batch {batch!r} is not a directory under {self.readings_dir}"
                )
            # A batch listed twice, or inside another, would be summed twice.
            for other, other_name in seen:
                if name == other_name:
                    raise UsageError(f"batch {batch!r} repeats batch {other!r}")
                outer, inner = sorted((name + os.sep, other_name + os.sep), key=len)
                if outer == os.curdir + os.sep or inner.startswith(outer):
                    raise UsageError(f"batches {other!r} and {batch!r} overlap")
            seen.append((batch, name))

    def for_batch(self, batch):
        return PipelineConfig(
            readings_dir=os.path.join(self.readings_dir, batch),
            parsed_dir=os.path.join(self.parsed_dir, batch),
            valid_dir=os.path.join(self.valid_dir, batch),
            corrected_dir=os.path.join(self.corrected_dir, batch),
            master_path=self.master_path,
        )

    @property
    def parsed_file(self):
        return os.path.join(self.parsed_dir, PARSED_FILENAME)

    @property
    def valid_file(self):
        return os.path.join(self.valid_dir, VALID_FILENAME)

    @property
    def invalid_file(self):
        return os.path.join(self.valid_dir, INVALID_FILENAME)

    @property
    def aggregate_file(self):
        return os.path.join(self.corrected_dir, AGGREGATE_FILENAME)


def load_config(path):
    """Read a flat key=value config file into a validated PipelineConfig."""
    values = read_config(path, {f.name for f in fields(PipelineConfig)})
    missing = [k for k in (*_DIR_KEYS, "master_path") if k not in values]
    if missing:
        raise UsageError(f"config {path} is missing: {', '.join(missing)}")
    batch_dirs = [b for b in map(str.strip, values.pop("batch_dirs", "").split(",")) if b]
    config = PipelineConfig(**values, batch_dirs=batch_dirs or None)
    config.validate()
    return config


def _read_umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


# Published outputs get the mode a shell redirection would give them; the
# temp files they are renamed from are created 0600.
_OUTPUT_MODE = 0o666 & ~_read_umask()


# Sum values per key: stage 3 over valid rows, and the batch re-aggregation.
_AGGREGATE_TOOLS = (("msort", "key=1"), ("sm2", "1", "1", "2", "2"))


def find_xml_files(root):
    """All *.xml files under root, recursively, in sorted path order."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".xml"):
                found.append(os.path.join(dirpath, name))
    return found


class StageError(DataError):
    """A tool in a stage pipeline exited nonzero."""


def _run_stage(commands, out_paths, feed_paths=None):
    """Run commands as one OS pipeline and publish ``out_paths`` atomically.

    Each tool runs in a fork of this process, alone or with the other row
    tools of its run (``meterpipe.__main__.fork_stage``), so this process
    must have one thread: ``fork`` copies only the calling one.  Each output is written to a temp file beside it: the last
    command's stdout goes to the first one, and an argument equal to an
    output path names that output's temp file instead (cjoin1's
    ``--reject``).  ``feed_paths`` become the first command's trailing
    arguments, so it opens them itself; it reads /dev/null as stdin.  The
    children are reaped in command order, so their CPU time and peak RSS
    count among this process's children (``RUSAGE_CHILDREN``) when the
    stage ends.  A child that exits nonzero is a StageError naming the
    command that failed in it.  Every output is renamed into place, with
    the mode a shell redirection would give it, only after every child
    exits 0.  Otherwise,
    or on any exception, a signal that ``run_cli`` raises as one included,
    every tool not yet reaped gets SIGTERM and is reaped, and every temp
    file is removed.
    """
    tmps = []
    pids = []  # the children not yet reaped
    try:
        # A signal that lands as a temp file is made, or a tool is forked,
        # would leave it unlisted.
        with _signals_held():
            for path in out_paths:
                directory = os.path.dirname(path) or "."
                try:
                    os.makedirs(directory, exist_ok=True)
                    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".stage-")
                except OSError as exc:
                    raise DataError(f"cannot create {path}: {exc.strerror}") from exc
                os.close(fd)  # the tools open these by name
                tmps.append(tmp)
            renamed = dict(zip(out_paths, tmps))
            argvs = [[renamed.get(arg, arg) for arg in command] for command in commands]
            # A path that starts with "-" would read as an option, or as stdin.
            paths = map(os.fspath, feed_paths or ())
            argvs[0] += (os.path.join(os.curdir, p) if p.startswith("-") else p for p in paths)
            failed_command = fork_stage(argvs, tmps[0], pids)
        codes = []
        while pids:
            # Wait without reaping: until it is reaped, the pid cannot be
            # reused, so a signal meanwhile may still stop that tool.
            os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
            with _signals_held():
                codes.append(os.waitstatus_to_exitcode(os.wait4(pids.pop(0), 0)[1]))
        for child, code in enumerate(codes):
            if code != 0:
                command = commands[failed_command(child)]
                raise StageError(f"{' '.join(command)} exited with status {code}")
    except BaseException:
        with _signals_held():  # before the temp files go, which tools may open
            for pid in pids:
                os.kill(pid, signal.SIGTERM)
            for pid in pids:
                os.waitpid(pid, 0)
            for tmp in tmps:
                os.unlink(tmp)
        raise
    with _signals_held():  # all of the stage's outputs, or none
        for path, tmp in zip(out_paths, tmps):
            os.chmod(tmp, _OUTPUT_MODE)
            os.replace(tmp, path)


@contextlib.contextmanager
def _signals_held():
    """SIGINT and SIGTERM wait until the block ends."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def stage_parse(config):
    """Flatten every XML file under readings_dir into the parsed file."""
    files = find_xml_files(config.readings_dir)
    if not files:
        raise DataError(f"no *.xml files under {config.readings_dir}")
    commands = [
        ("xmldir", ELEMENT_PATH),
        ("self", "NF-1", "NF"),
        ("filter-tags",),
        ("delr", "2", "MeterID"),
        ("group-number",),
        ("map", "num=1", "--labels", ",".join(sorted(tabular.DEFAULT_TAGS))),
        ("delf", "1"),
        ("delr", "3", "0"),
    ]
    _run_stage(commands, [config.parsed_file], feed_paths=files)


def stage_validate(config):
    """Split parsed rows into valid (type name added) and invalid files."""
    if not os.path.isfile(config.master_path):
        raise UsageError(f"master file not found: {config.master_path}")
    if not os.path.isfile(config.parsed_file):
        raise UsageError(f"parsed file not found: {config.parsed_file}")
    join = (
        "cjoin1", "--reject", config.invalid_file,
        "key=2", config.master_path, config.parsed_file,
    )
    _run_stage([join], [config.valid_file, config.invalid_file])


def stage_aggregate(config):
    """Sum valid reading values per type into the aggregate file."""
    if not os.path.isfile(config.valid_file):
        raise UsageError(f"valid file not found: {config.valid_file}")
    commands = [("self", "3", "5", config.valid_file), *_AGGREGATE_TOOLS]
    _run_stage(commands, [config.aggregate_file])


_STAGES = (
    ("parse", stage_parse),
    ("validate", stage_validate),
    ("aggregate", stage_aggregate),
)


def run_single(config, keep_intermediates=False):
    """Run the three stages over one readings directory; returns stage times."""
    times = {}
    for name, stage in _STAGES:
        started = time.perf_counter()
        stage(config)
        times[name] = time.perf_counter() - started
    if not keep_intermediates:
        os.unlink(config.parsed_file)
    return times


def run_batches(config, keep_intermediates=False):
    """Run every batch sequentially, then re-aggregate the batch totals."""
    if not config.batch_dirs:
        raise UsageError("no batch_dirs configured")
    reports = []
    for batch in config.batch_dirs:
        reports.append((batch, run_single(config.for_batch(batch), keep_intermediates)))
    # Batch aggregates are re-aggregated exactly; exact sums make this
    # equal to aggregating all valid rows in one run.
    batch_files = [config.for_batch(b).aggregate_file for b in config.batch_dirs]
    _run_stage(_AGGREGATE_TOOLS, [config.aggregate_file], feed_paths=batch_files)
    return reports


def total_seconds(reports):
    """Total wall clock over per-batch stage timing reports."""
    return sum(sum(times.values()) for _, times in reports)


def format_summary(reports):
    lines = []
    for batch, times in reports:
        stages = " ".join(f"{name}={secs:.3f}s" for name, secs in times.items())
        lines.append(f"batch {batch}: {stages} total={sum(times.values()):.3f}s")
    lines.append(f"total: {total_seconds(reports):.3f}s over {len(reports)} batch(es)")
    return "\n".join(lines)


# --- CLI --------------------------------------------------------------------


def run_cli(prog, body):
    """``core.run_tool`` with SIGINT and SIGTERM as ``SystemExit(128 +
    signum)`` (130 and 143), so a running stage's tools are stopped and
    reaped and its temp files removed.  A signal ignored at entry, as a
    shell's background job has SIGINT, stays ignored."""
    previous = {
        signum: signal.signal(signum, lambda signum, _: sys.exit(128 + signum))
        for signum in (signal.SIGINT, signal.SIGTERM)
        if signal.getsignal(signum) != signal.SIG_IGN
    }
    try:
        return run_tool(prog, body)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


class ArgumentParser(argparse.ArgumentParser):
    """argparse, where a bad argument is a usage error: exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(UsageError.exit_code, f"{self.prog}: error: {message}\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = ArgumentParser(
        prog="pipeline",
        description="Parse, validate and aggregate meter-reading XML batches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run all stages (and batches, if configured)")
    run_p.add_argument("--config", required=True)
    run_p.add_argument(
        "--keep-intermediates",
        action="store_true",
        help="keep the parsed file after a successful run",
    )

    for name, _ in _STAGES:
        stage_p = sub.add_parser(name, help=f"run only the {name} stage")
        stage_p.add_argument("--config", required=True)

    gen_p = sub.add_parser("gen", help="generate a deterministic XML corpus")
    # Numbers are parsed in body() as ASCII digits, as in bench.
    gen_p.add_argument("--files", required=True)
    gen_p.add_argument("--meters", required=True)
    gen_p.add_argument("--invalid-ratio", default="0.0")
    gen_p.add_argument("--seed", required=True)
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--readings", default="3")

    args = parser.parse_args(argv)

    def body():
        if args.command == "gen":
            stats = generate_corpus(
                GeneratorConfig(
                    file_count=parse_digits(args.files, "--files value"),
                    meters=parse_digits(args.meters, "--meters value"),
                    seed=parse_digits(args.seed, "--seed value"),
                    out_dir=args.out,
                    readings_per_file=parse_digits(args.readings, "--readings value"),
                    invalid_ratio=parse_ratio(args.invalid_ratio, "--invalid-ratio value"),
                )
            )
            print(
                f"generated {stats.files} files, {stats.readings} readings "
                f"({stats.invalid_count} invalid) in {args.out}"
            )
            return

        config = load_config(args.config)
        if args.command == "run":
            if config.batch_dirs:
                reports = run_batches(config, args.keep_intermediates)
            else:
                reports = [("-", run_single(config, args.keep_intermediates))]
            print(format_summary(reports))
        else:
            stage = dict(_STAGES)[args.command]
            stage(config)

    return run_cli("pipeline", body)
