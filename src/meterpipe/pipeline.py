"""Three-stage batch pipeline over directories of meter-reading XML files.

Stage 1 (parse) flattens every XML file into one tabular row per reading,
stage 2 (validate) splits rows into valid and invalid by reading-type
code, stage 3 (aggregate) sums values per reading type.  Stages exchange
data through materialized files and run their tools as OS pipelines, so
the tools execute concurrently.  Outputs are written to a temp file and
renamed, leaving no partial files behind on failure.
"""

import argparse
import atexit
import datetime
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, fields

from .core import DataError, UsageError, input_rows, read_config, run_tool
from .generator import GeneratorConfig, generate_corpus

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
        from .join import load_master

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


# Each stage starts one process, the stage runner
# (``meterpipe.__main__.run_stage``), as ``python -S -c LAUNCHER <cache dir>
# <status fd> <commands>``; it forks the stage's tools.  -S skips ``site``
# (its .pth files can cost more than the tools' own imports) and -c skips
# runpy; PYTHONPATH still applies.  LAUNCHER runs the orchestrator's own
# meterpipe and caches its bytecode in a private directory, made on first use
# and removed at exit, even under PYTHONDONTWRITEBYTECODE; nothing is written
# beside the sources.  (Under ``-X pycache_prefix`` the interpreter's own
# start-up imports would miss the stdlib's cache.)
LAUNCHER = (
    "import sys; sys.dont_write_bytecode = False; "
    "sys.pycache_prefix = sys.argv.pop(1); "
    f"sys.path.insert(0, {os.path.dirname(os.path.dirname(os.path.abspath(__file__)))!r}); "
    "from meterpipe.__main__ import run_stage; sys.exit(run_stage())"
)
_cache_dir = None


def _bytecode_cache():
    """The stage runners' bytecode cache directory, made on first use."""
    global _cache_dir
    if _cache_dir is None:
        try:
            _cache_dir = tempfile.mkdtemp(prefix="meterpipe-")
        except OSError as exc:
            where = f" in {os.path.dirname(exc.filename)}" if exc.filename else ""
            raise DataError(f"cannot prepare tool bytecode{where}: {exc.strerror}") from exc
        atexit.register(shutil.rmtree, _cache_dir, ignore_errors=True)
    return _cache_dir


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

    One stage runner process, in a process group of its own, forks the
    tools and reports each one's exit status on a pipe.  Each output is
    written to a temp file beside it: the last command's stdout goes to the
    first one, and an argument equal to an output path names that output's
    temp file instead (cjoin1's ``--reject``).  Every output is renamed
    into place only after every tool exits 0; otherwise the stage is
    stopped and every temp file is removed.  ``feed_paths`` are streamed
    into the first command's stdin.  When this returns or raises, the
    runner has reaped every tool and been reaped, so the tools' CPU time
    and peak RSS count among this process's children.
    """
    cache_dir = _bytecode_cache()
    tmps = []
    runner = None
    try:
        for path in out_paths:
            directory = os.path.dirname(path) or "."
            os.makedirs(directory, exist_ok=True)
            tmps.append(
                tempfile.NamedTemporaryFile(dir=directory, prefix=".stage-", delete=False)
            )
        for tmp in tmps[1:]:
            tmp.close()  # the tools open these by name
        renamed = {path: tmp.name for path, tmp in zip(out_paths, tmps)}
        status_r, status_w = os.pipe()
        argv = [sys.executable, "-S", "-c", LAUNCHER, cache_dir, str(status_w)]
        for command in commands:
            argv += [str(len(command)), *(renamed.get(arg, arg) for arg in command)]
        with open(status_r, "rb") as status:
            # SIGINT and SIGTERM wait until the runner is known, so that the
            # cleanup below stops it; the runner unblocks them.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
            try:
                runner = subprocess.Popen(
                    argv,
                    stdin=subprocess.DEVNULL if feed_paths is None else subprocess.PIPE,
                    stdout=tmps[0],
                    pass_fds=(status_w,),
                    start_new_session=True,
                )
            finally:
                os.close(status_w)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            if feed_paths is not None:
                _feed(feed_paths, runner.stdin)
            codes = [int(code) for code in status.read().split()]
        runner.wait()
        if len(codes) != len(commands):
            names = " | ".join(command[0] for command in commands)
            raise StageError(
                f"stage runner of {names} exited with status {runner.returncode} "
                "before it reported"
            )
        for command, code in zip(commands, codes):
            if code != 0:
                raise StageError(f"{' '.join(command)} exited with status {code}")
    except BaseException:
        if runner is not None:
            try:  # the runner stops and reaps its tools, then exits
                os.killpg(runner.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass  # it reaped every tool and exited already
            runner.wait()
            if runner.stdin:
                try:
                    runner.stdin.close()  # after the stop, so no tool sees EOF
                except BrokenPipeError:
                    pass
        for tmp in tmps:
            tmp.close()
            os.unlink(tmp.name)
        raise
    tmps[0].close()
    for path, tmp in zip(out_paths, tmps):
        os.replace(tmp.name, path)


def _feed(paths, pipe):
    """Stream the files, in order, into a tool's stdin, then close it."""
    try:
        for path in paths:
            try:
                with open(path, "rb") as f:
                    shutil.copyfileobj(f, pipe, 1024 * 1024)
            except BrokenPipeError:
                raise
            except OSError as exc:
                raise DataError(f"cannot read {path}: {exc.strerror}") from exc
        pipe.close()
    except BrokenPipeError:
        pass  # a downstream failure will surface via exit codes


def stage_parse(config):
    """Flatten every XML file under readings_dir into the parsed file."""
    files = find_xml_files(config.readings_dir)
    if not files:
        raise DataError(f"no *.xml files under {config.readings_dir}")
    commands = [
        ("xmldir", ELEMENT_PATH, "-"),
        ("self", "NF-1", "NF"),
        ("filter-tags",),
        ("delr", "2", "MeterID"),
        ("group-number",),
        ("map", "num=1"),
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
    """``core.run_tool`` with SIGTERM as ``SystemExit(143)``, so a running
    stage is stopped and cleaned up and the bytecode cache is removed."""
    previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        return run_tool(prog, body)
    finally:
        signal.signal(signal.SIGTERM, previous)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
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
    gen_p.add_argument("--files", type=int, required=True)
    gen_p.add_argument("--meters", type=int, required=True)
    gen_p.add_argument("--invalid-ratio", type=float, default=0.0)
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument("--out", required=True)
    gen_p.add_argument("--readings", type=int, default=3)
    gen_p.add_argument("--date", default="2021-01-01")

    args = parser.parse_args(argv)

    def body():
        if args.command == "gen":
            try:
                date = datetime.date.fromisoformat(args.date)
            except ValueError as exc:
                raise UsageError(
                    f"bad --date {args.date!r}: expected YYYY-MM-DD"
                ) from exc
            stats = generate_corpus(
                GeneratorConfig(
                    file_count=args.files,
                    meters=args.meters,
                    seed=args.seed,
                    out_dir=args.out,
                    readings_per_file=args.readings,
                    invalid_ratio=args.invalid_ratio,
                    date=date,
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
