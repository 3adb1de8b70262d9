import csv
import os
import signal
import subprocess
import sys
import time

import pytest

from meterpipe.bench import (
    BenchConfig,
    CSV_COLUMNS,
    cost,
    cost_table,
    format_volume,
    load_bench_config,
    run_bench,
    size_reduction,
    volume_projection,
)
from meterpipe.core import (
    UsageError,
    decimal_add,
    decimal_mul,
    format_decimal,
    parse_decimal,
)
from meterpipe.generator import GeneratorConfig, generate_corpus
from meterpipe.pipeline import stage_parse
from conftest import make_pipeline_config


class TestCostModel:
    def test_yearly_cost_for_raw_xml_volume(self):
        assert format_decimal(cost("810", "0.01", 12)) == "631.80"

    def test_yearly_cost_for_parsed_volume(self):
        assert format_decimal(cost("49", "0.01", 12)) == "38.22"

    def test_first_month_is_d_times_alpha(self):
        assert format_decimal(cost("810", "0.01", 1)) == "8.10"

    def test_monthly_increment_identity_up_to_120_months(self):
        d, alpha = parse_decimal("810"), parse_decimal("0.01")
        table = cost_table(d, alpha, 120)
        for (m_prev, prev), (m, value) in zip(table, table[1:]):
            increment = decimal_mul(decimal_mul(d, alpha), parse_decimal(str(m)))
            assert decimal_add(prev, increment).as_tuple() == value.as_tuple()

    def test_linearity_in_volume(self):
        double = cost("1620", "0.01", 12)
        single = cost("810", "0.01", 12)
        doubled = decimal_mul(single, parse_decimal("2"))
        assert doubled.as_tuple() == double.as_tuple()

    def test_months_must_be_positive(self):
        with pytest.raises(UsageError):
            cost("1", "1", 0)


class TestVolumeProjection:
    def test_one_reading_per_day_for_the_whole_grid(self):
        total = volume_projection(27_000_000, 1, 1000)
        assert total == 27_000_000_000
        assert format_volume(total) == "27 GB/day"

    def test_one_reading_per_minute(self):
        total = volume_projection(27_000_000, 1440, 1000)
        assert total == 38_880_000_000_000
        assert format_volume(total) == "38.9 TB/day"

    def test_zero_byte_readings(self):
        assert volume_projection(27_000_000, 1, 0) == 0
        assert format_volume(0) == "0 B/day"

    def test_small_volumes_stay_in_bytes(self):
        assert format_volume(999) == "999 B/day"
        assert format_volume(1500) == "1.5 kB/day"


class TestSizeReduction:
    def test_equal_sizes_reduce_nothing(self, tmp_path):
        xml = tmp_path / "xml"
        xml.mkdir()
        (xml / "a.xml").write_bytes(b"z" * 500)
        parsed = tmp_path / "parsed"
        parsed.write_bytes(b"z" * 500)
        assert size_reduction(str(xml), str(parsed)) == 0.0

    def test_empty_directory_is_a_usage_error(self, tmp_path):
        xml = tmp_path / "xml"
        xml.mkdir()
        parsed = tmp_path / "parsed"
        parsed.write_bytes(b"z")
        with pytest.raises(UsageError):
            size_reduction(str(xml), str(parsed))

    def test_reduction_is_stable_as_the_corpus_doubles(self, tmp_path):
        fractions = []
        for count in (100, 200):
            base = tmp_path / f"corpus{count}"
            corpus = base / "readings"
            generate_corpus(
                GeneratorConfig(
                    file_count=count, meters=count, seed=5, out_dir=str(corpus)
                )
            )
            config = make_pipeline_config(
                base, corpus, corpus / "READING_TYPE_CONVERTER"
            )
            stage_parse(config)
            fractions.append(size_reduction(str(corpus), config.parsed_file))
        assert abs(fractions[0] - fractions[1]) < 0.01
        # Three ~80-byte parsed rows against ~1 kB of XML boilerplate.
        assert 0.70 < fractions[1] < 0.80


class TestBenchConfig:
    def test_defaults_match_the_protocol(self):
        config = BenchConfig()
        assert config.repetitions == 40
        assert config.warmups == 3
        assert config.file_counts[-1] == 100000
        config.validate()

    def test_loads_key_value_file(self, tmp_path):
        f = tmp_path / "bench.cfg"
        f.write_text(
            "file_counts=10,100\nrepetitions=2\nwarmups=0\ncorpus_seed=3\n"
            "invalid_ratio=0.1\n"
        )
        config = load_bench_config(str(f))
        assert config.file_counts == (10, 100)
        assert config.repetitions == 2
        assert config.invalid_ratio == 0.1

    @pytest.mark.parametrize(
        "body",
        [
            "file_counts=100,100\n",
            "file_counts=100,50\n",
            "file_counts=\n",
            "repetitions=0\n",
            "warmups=-1\n",
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, body):
        f = tmp_path / "bench.cfg"
        f.write_text(body)
        with pytest.raises(UsageError):
            load_bench_config(str(f))

    @pytest.mark.parametrize(
        "body, bad",
        [
            ("file_counts=1_0\n", "file_counts"),
            ("file_counts=10,\u0663\u0660\u0660\n", "file_counts"),
            ("repetitions=+3\n", "repetitions"),
            ("warmups=\u0663\n", "warmups"),
            ("corpus_seed=1_0\n", "corpus_seed"),
            ("invalid_ratio=\u0660.\u0665\n", "invalid_ratio"),
        ],
    )
    def test_counts_take_ascii_digits_only(self, tmp_path, body, bad):
        f = tmp_path / "bench.cfg"
        f.write_text(body, encoding="utf-8")
        with pytest.raises(UsageError, match=f"^invalid {bad} in {f} "):
            load_bench_config(str(f))

    def test_a_repeated_key_names_the_key_and_line(self, tmp_path):
        f = tmp_path / "bench.cfg"
        f.write_text("file_counts=10,100\nrepetitions=2\nfile_counts=1000\n")
        with pytest.raises(UsageError, match=f"^{f}:3: repeated key 'file_counts'$"):
            load_bench_config(str(f))

    def test_unknown_key_names_the_key_and_line(self, tmp_path):
        f = tmp_path / "bench.cfg"
        f.write_text("# quick run\nfile_counts=10\nrepetitons=5\n")
        with pytest.raises(UsageError, match=f"{f}:3: unknown key 'repetitons'"):
            load_bench_config(str(f))


class TestRunBench:
    def test_tiny_run_produces_a_round_tripping_report(self, tmp_path):
        config = BenchConfig(
            file_counts=(3, 9),
            repetitions=2,
            warmups=0,
            corpus_seed=11,
            workdir=str(tmp_path / "work"),
        )
        out = tmp_path / "report.csv"
        rows = run_bench(config, str(out))

        assert [tuple(r[:2])[1] for r in rows] == [
            "parse",
            "validate",
            "aggregate",
            "copy-baseline",
        ] * 2
        for row in rows:
            _, _, mean_s, std_s, min_s, max_s, bytes_in, bytes_out = row
            assert min_s <= mean_s <= max_s
            assert std_s >= 0.0
            assert bytes_in > 0 and bytes_out > 0
        parse_rows = [r for r in rows if r[1] == "parse"]
        assert all(r[7] < r[6] for r in parse_rows)  # output smaller than XML

        with open(out, newline="") as f:
            header, *body = csv.reader(f)
        assert tuple(header) == CSV_COLUMNS
        assert body == [[str(v) for v in r] for r in rows]

    def test_single_repetition_reports_zero_deviation(self, tmp_path):
        config = BenchConfig(
            file_counts=(2,),
            repetitions=1,
            warmups=0,
            corpus_seed=1,
            workdir=str(tmp_path / "work"),
        )
        rows = run_bench(config, str(tmp_path / "r.csv"))
        assert all(row[3] == 0.0 for row in rows)

    def test_aborted_run_leaves_a_marked_partial_csv(self, tmp_path):
        workdir = tmp_path / "work"
        # Pre-seed the corpus directory with a stale XML file so corpus
        # generation refuses to run.
        stale = workdir / "n2" / "readings"
        stale.mkdir(parents=True)
        (stale / "stale.xml").write_text("<old/>")
        config = BenchConfig(
            file_counts=(2,), repetitions=1, warmups=0, workdir=str(workdir)
        )
        out = tmp_path / "r.csv"
        with pytest.raises(UsageError):
            run_bench(config, str(out))
        content = out.read_text()
        assert "# aborted:" in content

    def test_sigterm_leaves_a_marked_partial_csv(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("file_counts=200\nrepetitions=50\nwarmups=0\n")
        out = tmp_path / "report.csv"
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        run = subprocess.Popen(
            [sys.executable, "-m", "meterpipe", "bench", "run",
             "--config", str(cfg), "--out", str(out)],
            stderr=subprocess.PIPE,
            env=dict(os.environ, TMPDIR=str(tmp)),
        )
        # The header is written once the run is under way.
        deadline = time.monotonic() + 60
        while not (out.exists() and out.stat().st_size):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        time.sleep(0.5)
        run.send_signal(signal.SIGTERM)
        _, err = run.communicate(timeout=60)
        assert run.returncode == 128 + signal.SIGTERM, err
        lines = out.read_text().splitlines()
        assert tuple(lines[0].split(",")) == CSV_COLUMNS
        assert lines[-1] == f"# aborted: exit status {128 + signal.SIGTERM}"
        assert list(tmp.iterdir()) == []
