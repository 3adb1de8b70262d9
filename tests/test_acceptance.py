"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` (add ``-s`` to stream
the criterion lines as they complete).  The performance-ordering test
builds a 100k-file corpus and takes several minutes.
"""

import os
import random
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    ELEMENT_PATH,
    SAMPLE_FLAT_ROWS,
    SAMPLE_PARSED_ROWS,
    SAMPLE_VALID_ROWS,
    SAMPLE_XML,
    make_pipeline_config,
)
from meterpipe.bench import BenchConfig, cost, run_bench, size_reduction
from meterpipe.core import (
    decimal_add,
    decimal_mul,
    format_decimal,
    parse_decimal,
    parse_fieldspec,
)
from meterpipe.generator import GeneratorConfig, generate_corpus, load_sidecar
from meterpipe.join import hash_join, load_master
from meterpipe.bench import format_volume, volume_projection
from meterpipe.pipeline import (
    find_xml_files,
    run_batches,
    run_single,
    stage_aggregate,
    stage_parse,
    stage_validate,
)
from meterpipe.sortagg import merge_sort_rows, sum_groups
from meterpipe.xmlflat import flatten_bytes


# Monthly volumes (GB) of the paper's production data: raw XML and parsed.
PRODUCTION_RAW_GB = "810"
PRODUCTION_PARSED_GB = "49"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS  {description}")


class Elapsed:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.seconds = time.monotonic() - self.start


# --- shared corpora ---------------------------------------------------------


class TenK:
    """The 10k-file corpus (invalid ratio 0.1, fixed seed) run through all
    three stages once, with wall-clock bookkeeping."""

    def __init__(self, root):
        self.root = root
        corpus = root / "readings"
        with Elapsed() as gen_time:
            self.stats = generate_corpus(
                GeneratorConfig(
                    file_count=10000,
                    meters=2500,
                    seed=20210101,
                    out_dir=str(corpus),
                    invalid_ratio=0.1,
                )
            )
        self.config = make_pipeline_config(
            root, corpus, corpus / "READING_TYPE_CONVERTER"
        )
        with Elapsed() as run_time:
            self.times = run_single(self.config, keep_intermediates=True)
        self.gen_seconds = gen_time.seconds
        self.run_seconds = run_time.seconds

    def lines(self, path):
        return Path(path).read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="module")
def ten_k(tmp_path_factory):
    return TenK(tmp_path_factory.mktemp("tenk"))


# --- criteria ---------------------------------------------------------------


def test_criterion_1_golden_flattening():
    with criterion(1, "golden flattening of the reference document"):
        with Elapsed() as took:
            rows = flatten_bytes(SAMPLE_XML.encode(), ELEMENT_PATH)
        assert rows == SAMPLE_FLAT_ROWS
        assert took.seconds < 1.0


def test_criterion_2_golden_pipeline(tmp_path, sample_dir):
    with criterion(2, "golden three-stage pipeline on a one-file directory"):
        readings, master = sample_dir
        config = make_pipeline_config(tmp_path, readings, master)
        with Elapsed() as took:
            stage_parse(config)
            stage_validate(config)
            stage_aggregate(config)
        read = lambda p: Path(p).read_text(encoding="utf-8").splitlines()
        assert read(config.parsed_file) == SAMPLE_PARSED_ROWS
        assert read(config.valid_file) == SAMPLE_VALID_ROWS
        assert read(config.invalid_file) == []
        assert read(config.aggregate_file) == [
            "TYPE01 16.3959",
            "TYPE02 17.9735",
            "TYPE03 17.8280",
        ]
        assert took.seconds < 1.0


def test_criterion_3_conservation(ten_k):
    with criterion(3, "conservation on the 10k-file corpus"):
        parsed = ten_k.lines(ten_k.config.parsed_file)
        valid = ten_k.lines(ten_k.config.valid_file)
        invalid = ten_k.lines(ten_k.config.invalid_file)
        assert len(parsed) == 30000
        assert len(valid) + len(invalid) == len(parsed)
        assert len(invalid) == ten_k.stats.invalid_count

        sidecar_sums, sidecar_invalid = load_sidecar(
            os.path.join(ten_k.config.readings_dir, "GROUND_TRUTH")
        )
        assert sidecar_invalid == len(invalid)
        aggregate = {}
        for line in ten_k.lines(ten_k.config.aggregate_file):
            name, total = line.split(" ")
            aggregate[name] = total
        assert aggregate == sidecar_sums  # exact decimal strings
        assert ten_k.gen_seconds + ten_k.run_seconds < 60.0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "cjoin1, sm2 and msort agree with independent oracles"):
        with Elapsed() as took:
            rng = random.Random(48151623)
            for round_no in range(100):
                size = (
                    rng.choice([0, 1, 2, 5, 17])
                    if round_no < 10
                    else rng.randrange(1, 10001)
                )
                keys = [f"k{rng.randrange(200):03d}" for _ in range(size)]
                rows = [
                    f"{key} id{i} {rng.randrange(10000)}.{rng.randrange(10000):04d}"
                    for i, key in enumerate(keys)
                ]

                # msort vs an index-decorated stable sort.
                spec = parse_fieldspec("1")
                sorted_rows = list(merge_sort_rows(spec, rows, mem_bytes=1 << 14))
                oracle = [
                    line
                    for _, line in sorted(
                        enumerate(rows), key=lambda p: (p[1].split(" ")[0], p[0])
                    )
                ]
                assert sorted_rows == oracle, f"msort round {round_no}"

                # cjoin1 vs a nested-loop join.
                master_pairs = [
                    (f"k{i:03d}", [f"P{i}"]) for i in range(0, 200, rng.randrange(2, 5))
                ]
                master = load_master([f"{k} {p[0]}" for k, p in master_pairs])
                matched, unmatched = [], []
                for ok, line in hash_join(spec, master, rows):
                    (matched if ok else unmatched).append(line)
                exp_matched, exp_unmatched = [], []
                for line in rows:
                    fields = line.split(" ")
                    payload = None
                    for mkey, mpayload in master_pairs:
                        if mkey == fields[0]:
                            payload = mpayload
                            break
                    if payload is None:
                        exp_unmatched.append(line)
                    else:
                        exp_matched.append(
                            " ".join(fields[:1] + payload + fields[1:])
                        )
                assert matched == exp_matched, f"cjoin1 round {round_no}"
                assert unmatched == exp_unmatched, f"cjoin1 round {round_no}"

                # sm2 on sorted rows vs hash accumulation with Fraction.
                totals = {}
                for line in rows:
                    fields = line.split(" ")
                    totals[fields[0]] = totals.get(fields[0], Fraction(0)) + Fraction(
                        fields[2]
                    )
                summed = list(sum_groups(1, 1, 3, 3, sorted_rows))
                assert [r.split(" ")[0] for r in summed] == sorted(totals)
                for line in summed:
                    key, _, total = line.partition(" ")
                    assert Fraction(total) == totals[key], f"sm2 round {round_no}"
        assert took.seconds < 300.0


def parsed_payload_bytes(xml_paths):
    """Bytes the parsed form of these files must hold, read straight from the
    XML: one ``"{meter} {ref} {timeStamp} {value}\\n"`` row per <Readings>.
    Parse does not validate, so rows with invalid type codes count too."""
    total = 0
    for path in xml_paths:
        for reading in ET.parse(path).getroot().iter("MeterReading"):
            meter = reading.findtext("Meter/Names/name")
            for r in reading.iter("Readings"):
                row = (
                    f"{meter} {r.find('ReadingType').get('ref')} "
                    f"{r.findtext('timeStamp')} {r.findtext('value')}\n"
                )
                total += len(row.encode("utf-8"))
    return total


def test_criterion_5_size_reduction(ten_k):
    with criterion(5, "parsed form shrinks storage on the 10k-file corpus"):
        xml_paths = sorted(Path(ten_k.config.readings_dir).rglob("*.xml"))
        xml_bytes = sum(p.stat().st_size for p in xml_paths)
        payload = parsed_payload_bytes(xml_paths)
        parsed_bytes = os.path.getsize(ten_k.config.parsed_file)
        measured = size_reduction(ten_k.config.readings_dir, ten_k.config.parsed_file)
        # Production data has much larger device sections than this corpus.
        reference = 1 - Fraction(PRODUCTION_PARSED_GB) / Fraction(PRODUCTION_RAW_GB)
        print(
            f"measured size reduction: {measured:.4f} "
            f"(reference corpus: {float(reference):.2f})"
        )
        sizes = (
            f"{len(xml_paths)} files, xml_bytes={xml_bytes}, "
            f"expected payload={payload}, parsed bytes={parsed_bytes}"
        )
        assert parsed_bytes == payload, sizes
        assert measured == 1 - payload / xml_bytes, f"measured {measured!r}; {sizes}"
        assert 0 < measured < 1, sizes


def test_criterion_7_cost_model():
    with criterion(7, "cloud storage cost model is exact"):
        assert format_decimal(cost(PRODUCTION_RAW_GB, "0.01", 12)) == "631.80"
        assert format_decimal(cost(PRODUCTION_PARSED_GB, "0.01", 12)) == "38.22"
        d, alpha = parse_decimal(PRODUCTION_RAW_GB), parse_decimal("0.01")
        previous = cost(d, alpha, 1)
        for m in range(2, 121):
            increment = decimal_mul(decimal_mul(d, alpha), parse_decimal(str(m)))
            current = cost(d, alpha, m)
            assert decimal_add(previous, increment).as_tuple() == current.as_tuple()
            previous = current


def test_criterion_8_volume_projection():
    with criterion(8, "daily data volume projection"):
        total = volume_projection(27_000_000, 1, 1000)
        assert total == 27_000_000_000
        assert format_volume(total) == "27 GB/day"


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "fixed seed reproduces corpora and stage outputs exactly"):
        corpora = []
        for name in ("one", "two"):
            out = tmp_path / name / "readings"
            generate_corpus(
                GeneratorConfig(
                    file_count=500,
                    meters=100,
                    seed=777,
                    out_dir=str(out),
                    invalid_ratio=0.1,
                )
            )
            corpora.append(
                {p.name: p.read_bytes() for p in out.iterdir()}
            )
        assert corpora[0] == corpora[1]

        outputs = []
        for name in ("one", "two"):
            base = tmp_path / name
            config = make_pipeline_config(
                base, base / "readings", base / "readings" / "READING_TYPE_CONVERTER"
            )
            run_single(config, keep_intermediates=True)
            outputs.append(
                [
                    Path(p).read_bytes()
                    for p in (
                        config.parsed_file,
                        config.valid_file,
                        config.invalid_file,
                        config.aggregate_file,
                    )
                ]
            )
        assert outputs[0] == outputs[1]

        # Re-running the stages over the same inputs changes nothing.
        base = tmp_path / "one"
        config = make_pipeline_config(
            base, base / "readings", base / "readings" / "READING_TYPE_CONVERTER"
        )
        run_single(config, keep_intermediates=True)
        rerun = [
            Path(p).read_bytes()
            for p in (
                config.parsed_file,
                config.valid_file,
                config.invalid_file,
                config.aggregate_file,
            )
        ]
        assert rerun == outputs[0]


def test_criterion_10_batch_associativity(tmp_path, ten_k):
    with criterion(10, "ten batches re-aggregate to the single-run totals"):
        batches = [f"b{i}" for i in range(10)]
        batched_root = tmp_path / "batched"
        for b in batches:
            (batched_root / b).mkdir(parents=True)
        files = find_xml_files(ten_k.config.readings_dir)
        assert len(files) == 10000
        for i, path in enumerate(files):
            os.symlink(
                os.path.abspath(path),
                batched_root / batches[i % 10] / os.path.basename(path),
            )
        config = make_pipeline_config(
            tmp_path / "out", batched_root, ten_k.config.master_path, batch_dirs=batches
        )
        run_batches(config)
        assert (
            Path(config.aggregate_file).read_bytes()
            == Path(ten_k.config.aggregate_file).read_bytes()
        )


def test_criterion_6_performance_ordering(tmp_path_factory):
    with criterion(6, "copy baseline is slower than parse; stages order as expected"):
        with Elapsed() as took:
            workdir = tmp_path_factory.mktemp("bench")
            config = BenchConfig(
                file_counts=(1000, 100000),
                repetitions=3,
                warmups=1,
                corpus_seed=2021,
                workdir=str(workdir),
            )
            out = workdir / "report.csv"
            rows = run_bench(config, str(out))

        means = {(r[0], r[1]): r[2] for r in rows}
        largest = config.file_counts[-1]
        for count in config.file_counts:
            line = ", ".join(
                f"{stage}={means[(count, stage)]:.2f}s"
                for stage in ("parse", "validate", "aggregate", "copy-baseline")
            )
            print(f"n={count}: {line}")

        assert means[(largest, "copy-baseline")] > means[(largest, "parse")]
        assert means[(largest, "parse")] > means[(largest, "validate")]
        assert means[(largest, "parse")] > means[(largest, "aggregate")]
        ratio = means[(100000, "validate")] / means[(100000, "parse")]
        print(f"validate/parse ratio at 100k files: {ratio:.3f}")
        assert ratio < 0.2

        parse_means = [means[(count, "parse")] for count in config.file_counts]
        assert parse_means == sorted(parse_means)
        assert took.seconds < 1800.0
