"""Benchmark harness and cloud-storage cost model.

``bench run`` times each pipeline stage and a recursive-copy baseline over
corpora of increasing file counts, repeating each measurement in steady
state (corpus generated once, caches warm) and reporting per-stage mean,
deviation and byte counts as CSV.  ``bench cost`` evaluates the cumulative
storage cost model exactly; ``bench reduction`` measures how much smaller
parsed output is than its XML source.
"""

import csv
import os
import shutil
import stat
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, fields
from decimal import Decimal

from .core import (
    UsageError,
    decimal_mul,
    format_decimal,
    parse_amount,
    parse_decimal,
    parse_digits,
    parse_ratio,
    read_config,
)
from .generator import GeneratorConfig, MASTER_FILENAME, generate_corpus
from .pipeline import (
    ArgumentParser,
    PipelineConfig,
    find_xml_files,
    run_cli,
    stage_aggregate,
    stage_parse,
    stage_validate,
)

CSV_COLUMNS = (
    "file_count",
    "stage",
    "mean_s",
    "std_s",
    "min_s",
    "max_s",
    "bytes_in",
    "bytes_out",
)

STAGE_NAMES = ("parse", "validate", "aggregate", "copy-baseline")


# --- cost model ---------------------------------------------------------


def cost(gb_per_month, price_per_gb_month, months):
    """Cumulative storage cost after ``months`` of adding D GB each month.

    Month k stores k months of accumulated data, so the total is
    D * price * months * (months + 1) / 2, evaluated exactly in decimal.
    """
    if months < 1:
        raise UsageError("months must be >= 1")
    d = _as_decimal(gb_per_month)
    alpha = _as_decimal(price_per_gb_month)
    factor = months * (months + 1) // 2
    return decimal_mul(decimal_mul(d, alpha), parse_decimal(str(factor)))


def cost_table(gb_per_month, price_per_gb_month, months):
    """C(1)..C(months) as (month, exact decimal) rows."""
    return [(m, cost(gb_per_month, price_per_gb_month, m)) for m in range(1, months + 1)]


def _as_decimal(value):
    return value if isinstance(value, Decimal) else parse_decimal(str(value))


# --- data-volume projection ----------------------------------------------


def volume_projection(meters, readings_per_day, bytes_per_reading):
    """Bytes produced per day; exact integer arithmetic."""
    return meters * readings_per_day * bytes_per_reading

_UNITS = (
    (10**15, "PB"),
    (10**12, "TB"),
    (10**9, "GB"),
    (10**6, "MB"),
    (10**3, "kB"),
)


def format_volume(bytes_per_day):
    """Human-readable daily volume, e.g. '27 GB/day' or '38.9 TB/day'."""
    for unit, suffix in _UNITS:
        if bytes_per_day >= unit:
            if bytes_per_day % unit == 0:
                return f"{bytes_per_day // unit} {suffix}/day"
            return f"{bytes_per_day / unit:.1f} {suffix}/day"
    return f"{bytes_per_day} B/day"


# --- size reduction -------------------------------------------------------


def size_reduction(xml_dir, parsed_file):
    """Fraction of storage saved by the parsed form: 1 - parsed/xml bytes."""
    xml_bytes = sum(os.path.getsize(p) for p in find_xml_files(xml_dir))
    if xml_bytes == 0:
        raise UsageError(f"no *.xml files under {xml_dir}")
    try:
        parsed = os.stat(parsed_file)
    except OSError as exc:
        raise UsageError(f"cannot stat {parsed_file}: {exc.strerror}") from exc
    if not stat.S_ISREG(parsed.st_mode):
        raise UsageError(f"{parsed_file} is not a regular file")
    return 1.0 - parsed.st_size / xml_bytes


# --- benchmark harness ----------------------------------------------------


@dataclass
class BenchConfig:
    file_counts: tuple = (100, 1000, 10000, 100000)
    repetitions: int = 40
    warmups: int = 3
    corpus_seed: int = 2021
    invalid_ratio: float = 0.0
    workdir: str | None = None

    def validate(self):
        if not self.file_counts:
            raise UsageError("file_counts must not be empty")
        if any(b <= a for a, b in zip(self.file_counts, self.file_counts[1:])):
            raise UsageError("file_counts must be strictly increasing")
        if min(self.file_counts) < 1:
            raise UsageError("file_counts must be positive")
        if self.repetitions < 1:
            raise UsageError("repetitions must be >= 1")
        if self.warmups < 0:
            raise UsageError("warmups must be >= 0")


def load_bench_config(path):
    values = read_config(path, {f.name for f in fields(BenchConfig)})
    config = BenchConfig()
    if "file_counts" in values:
        config.file_counts = tuple(
            parse_digits(v.strip(), f"file_counts in {path}")
            for v in values["file_counts"].split(",")
            if v
        )
    for key in ("repetitions", "warmups", "corpus_seed"):
        if key in values:
            setattr(config, key, parse_digits(values[key], f"{key} in {path}"))
    if "invalid_ratio" in values:
        config.invalid_ratio = parse_ratio(values["invalid_ratio"], f"invalid_ratio in {path}")
    if values.get("workdir"):
        config.workdir = values["workdir"]
    config.validate()
    return config


def _dir_bytes(root):
    total = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def run_bench(config, out_path):
    """Run the benchmark protocol, streaming rows into the CSV as they
    complete.  On failure the partial CSV survives with an abort marker."""
    config.validate()
    own_workdir = config.workdir is None
    workdir = config.workdir or tempfile.mkdtemp(prefix="meterpipe-bench-")
    rows = []
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as out:
            try:
                writer = csv.writer(out)
                writer.writerow(CSV_COLUMNS)
                out.flush()
                for file_count in config.file_counts:
                    for row in _bench_one(config, workdir, file_count):
                        rows.append(row)
                        writer.writerow(row)
                        out.flush()
            except BaseException as exc:  # SIGTERM's SystemExit included
                if isinstance(exc, SystemExit):
                    reason = f"exit status {exc.code}"
                else:
                    reason = str(exc) or type(exc).__name__
                out.write(f"# aborted: {reason}\n")
                raise
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return rows


def _bench_one(config, workdir, file_count):
    base = os.path.join(workdir, f"n{file_count}")
    corpus = os.path.join(base, "readings")
    generate_corpus(
        GeneratorConfig(
            file_count=file_count,
            meters=file_count,
            seed=config.corpus_seed,
            out_dir=corpus,
            invalid_ratio=config.invalid_ratio,
        )
    )
    pipeline_config = PipelineConfig(
        readings_dir=corpus,
        parsed_dir=os.path.join(base, "parsed"),
        valid_dir=os.path.join(base, "valid"),
        corrected_dir=os.path.join(base, "corrected"),
        master_path=os.path.join(corpus, MASTER_FILENAME),
    )
    copy_dest = os.path.join(base, "copy-dest")

    def run_copy():
        subprocess.run(["cp", "-r", corpus, copy_dest], check=True)

    def clear_copy():
        if os.path.exists(copy_dest):
            shutil.rmtree(copy_dest)

    stages = {
        "parse": lambda: stage_parse(pipeline_config),
        "validate": lambda: stage_validate(pipeline_config),
        "aggregate": lambda: stage_aggregate(pipeline_config),
    }

    for _ in range(config.warmups):
        for stage in stages.values():
            stage()
        clear_copy()
        run_copy()

    samples = {name: [] for name in STAGE_NAMES}
    for _ in range(config.repetitions):
        for name, stage in stages.items():
            samples[name].append(_timed(stage))
        clear_copy()
        samples["copy-baseline"].append(_timed(run_copy))
    clear_copy()

    xml_bytes = sum(os.path.getsize(p) for p in find_xml_files(corpus))
    corpus_bytes = _dir_bytes(corpus)
    parsed_bytes = os.path.getsize(pipeline_config.parsed_file)
    valid_bytes = os.path.getsize(pipeline_config.valid_file)
    invalid_bytes = os.path.getsize(pipeline_config.invalid_file)
    agg_bytes = os.path.getsize(pipeline_config.aggregate_file)
    traffic = {
        "parse": (xml_bytes, parsed_bytes),
        "validate": (parsed_bytes, valid_bytes + invalid_bytes),
        "aggregate": (valid_bytes, agg_bytes),
        "copy-baseline": (corpus_bytes, corpus_bytes),
    }

    for name in STAGE_NAMES:
        times = samples[name]
        bytes_in, bytes_out = traffic[name]
        yield (
            file_count,
            name,
            statistics.mean(times),
            statistics.pstdev(times),
            min(times),
            max(times),
            bytes_in,
            bytes_out,
        )


# --- CLI --------------------------------------------------------------------


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = ArgumentParser(
        prog="bench",
        description="Benchmark the pipeline stages and model storage costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="time pipeline stages vs a copy baseline")
    run_p.add_argument("--config", help="key=value config file (defaults if absent)")
    run_p.add_argument("--out", required=True, help="CSV report path")

    cost_p = sub.add_parser("cost", help="cumulative cloud storage cost")
    cost_p.add_argument("--D", required=True, help="GB of new data per month")
    cost_p.add_argument("--alpha", required=True, help="price per GB per month")
    # Counts are parsed in body(): type=int would take "٣", "1_0" and " 2".
    cost_p.add_argument("--months", required=True)
    cost_p.add_argument("--table", action="store_true", help="print C(1)..C(months)")

    red_p = sub.add_parser("reduction", help="storage saved by parsing")
    red_p.add_argument("xmldir")
    red_p.add_argument("parsedfile")

    vol_p = sub.add_parser("volume", help="projected data volume per day")
    vol_p.add_argument("--meters", required=True)
    vol_p.add_argument("--readings-per-day", required=True)
    vol_p.add_argument("--bytes-per-reading", required=True)

    args = parser.parse_args(argv)

    def body():
        if args.command == "run":
            config = load_bench_config(args.config) if args.config else BenchConfig()
            run_bench(config, args.out)
            print(f"report written to {args.out}")
        elif args.command == "cost":
            d = parse_amount(args.D, "--D value")
            alpha = parse_amount(args.alpha, "--alpha value")
            months = parse_digits(args.months, "--months value")
            if args.table:
                for month, value in cost_table(d, alpha, months):
                    print(f"{month} {format_decimal(value)}")
            else:
                print(format_decimal(cost(d, alpha, months)))
        elif args.command == "reduction":
            fraction = size_reduction(args.xmldir, args.parsedfile)
            print(f"{fraction:.4f}")
        elif args.command == "volume":
            total = volume_projection(
                parse_digits(args.meters, "--meters value"),
                parse_digits(args.readings_per_day, "--readings-per-day value"),
                parse_digits(args.bytes_per_reading, "--bytes-per-reading value"),
            )
            print(format_volume(total))

    return run_cli("bench", body)
