import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from meterpipe.core import UsageError, format_decimal
from meterpipe.generator import (
    GeneratorConfig,
    READING_TYPES,
    SplitMix64,
    generate_corpus,
    load_sidecar,
)

FILENAME_RE = re.compile(r"^READINGS-SM\d{9}VG_\d{14}\.xml$")


def make_config(tmp_path, **kwargs):
    defaults = dict(file_count=30, meters=7, seed=20210101, out_dir=str(tmp_path / "c"))
    defaults.update(kwargs)
    return GeneratorConfig(**defaults)


def corpus_bytes(out_dir):
    return {
        p.name: p.read_bytes() for p in Path(out_dir).iterdir() if p.suffix == ".xml"
    }


def extract_readings(out_dir):
    """DOM-extract (meter, timestamp, value, code) tuples from every file."""
    readings = []
    for p in sorted(Path(out_dir).glob("*.xml")):
        root = ET.parse(p).getroot()
        meter = root.find("./MeterReading/Meter/Names/name").text
        for block in root.iter("Readings"):
            readings.append(
                (
                    meter,
                    block.find("timeStamp").text,
                    block.find("value").text,
                    block.find("ReadingType").get("ref"),
                )
            )
    return readings


class TestSplitMix64:
    def test_known_first_outputs_for_seed_zero(self):
        rng = SplitMix64(0)
        # Reference values for the published SplitMix64 constants.
        assert rng.next64() == 0xE220A8397B1DCDAF
        assert rng.next64() == 0x6E789E6AA1B965F4
        assert rng.next64() == 0x06C45D188009454F

    def test_below_is_in_range_and_deterministic(self):
        rng_a, rng_b = SplitMix64(9), SplitMix64(9)
        one = [rng_a.below(13) for _ in range(200)]
        two = [rng_b.below(13) for _ in range(200)]
        assert one == two
        assert len(set(one)) > 1
        assert all(0 <= v < 13 for v in one)


class TestCorpusShape:
    def test_file_count_and_names(self, tmp_path):
        config = make_config(tmp_path)
        generate_corpus(config)
        names = [p.name for p in Path(config.out_dir).glob("*.xml")]
        assert len(names) == 30
        assert all(FILENAME_RE.match(n) for n in names)

    def test_every_file_is_well_formed_with_three_typed_readings(self, tmp_path):
        config = make_config(tmp_path, file_count=10, invalid_ratio=0.0)
        generate_corpus(config)
        valid_codes = {code for code, _ in READING_TYPES}
        for meter, ts, value, code in extract_readings(config.out_dir):
            assert re.match(r"^SM\d{9}VG$", meter)
            assert ts.startswith("2021-01-01T") and ts.endswith("Z")
            assert re.match(r"^\d+\.\d{4}$", value)
            assert Fraction(value) < 20
            assert code in valid_codes

    def test_mean_file_size_is_near_one_kilobyte(self, tmp_path):
        config = make_config(tmp_path, file_count=50)
        generate_corpus(config)
        sizes = [p.stat().st_size for p in Path(config.out_dir).glob("*.xml")]
        assert 1024 - 200 <= sum(sizes) / len(sizes) <= 1024 + 200

    def test_single_valid_file_uses_the_master_codes(self, tmp_path):
        config = make_config(tmp_path, file_count=1, invalid_ratio=0.0)
        generate_corpus(config)
        readings = extract_readings(config.out_dir)
        assert len(readings) == 3
        assert {r[3] for r in readings} == {code for code, _ in READING_TYPES}

    def test_readings_per_file_cycles_the_codes(self, tmp_path):
        config = make_config(tmp_path, file_count=1, readings_per_file=5)
        generate_corpus(config)
        readings = extract_readings(config.out_dir)
        assert len(readings) == 5
        assert readings[0][3] == readings[3][3]


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a = make_config(tmp_path, out_dir=str(tmp_path / "a"), invalid_ratio=0.3)
        b = make_config(tmp_path, out_dir=str(tmp_path / "b"), invalid_ratio=0.3)
        generate_corpus(a)
        generate_corpus(b)
        assert corpus_bytes(a.out_dir) == corpus_bytes(b.out_dir)
        assert (Path(a.out_dir) / "GROUND_TRUTH").read_bytes() == (
            Path(b.out_dir) / "GROUND_TRUTH"
        ).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = make_config(tmp_path, out_dir=str(tmp_path / "a"), seed=1)
        b = make_config(tmp_path, out_dir=str(tmp_path / "b"), seed=2)
        generate_corpus(a)
        generate_corpus(b)
        assert corpus_bytes(a.out_dir) != corpus_bytes(b.out_dir)


class TestGroundTruth:
    def test_sidecar_matches_dom_recomputation(self, tmp_path):
        config = make_config(tmp_path, file_count=40, invalid_ratio=0.25)
        stats = generate_corpus(config)
        names = dict(READING_TYPES)
        sums = {}
        invalid = 0
        for _, _, value, code in extract_readings(config.out_dir):
            if code in names:
                name = names[code]
                sums[name] = sums.get(name, Fraction(0)) + Fraction(value)
            else:
                invalid += 1
        assert invalid == stats.invalid_count
        assert {k: Fraction(format_decimal(v)) for k, v in stats.type_sums.items()} == sums
        side_sums, side_invalid = load_sidecar(
            str(Path(config.out_dir) / "GROUND_TRUTH")
        )
        assert side_invalid == invalid
        assert {k: Fraction(v) for k, v in side_sums.items()} == sums

    def test_invalid_codes_never_look_valid(self, tmp_path):
        config = make_config(tmp_path, file_count=30, invalid_ratio=1.0)
        stats = generate_corpus(config)
        valid_codes = {code for code, _ in READING_TYPES}
        readings = extract_readings(config.out_dir)
        assert stats.invalid_count == len(readings) == 90
        assert stats.type_sums == {}
        for _, _, _, code in readings:
            assert code not in valid_codes
            assert re.match(r"^9(\.\d+){17}$", code)

    def test_master_file_is_written(self, tmp_path):
        config = make_config(tmp_path)
        generate_corpus(config)
        master = (Path(config.out_dir) / "READING_TYPE_CONVERTER").read_text()
        assert master.splitlines() == [f"{c} {n}" for c, n in READING_TYPES]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(file_count=0),
            dict(meters=0),
            dict(readings_per_file=0),
            dict(invalid_ratio=-0.1),
            dict(invalid_ratio=1.5),
            dict(seed=1 << 70),
        ],
    )
    def test_bad_configs_are_usage_errors(self, tmp_path, kwargs):
        with pytest.raises(UsageError):
            generate_corpus(make_config(tmp_path, **kwargs))

    def test_no_more_files_than_meters_have_seconds(self, tmp_path):
        # Each file takes a (meter, second of the day) of its own.
        make_config(tmp_path, file_count=2 * 86400, meters=2).validate()
        with pytest.raises(UsageError, match="^file count must be <= 172800: "):
            make_config(tmp_path, file_count=2 * 86400 + 1, meters=2).validate()
        assert not (tmp_path / "c").exists()

    def test_refuses_directories_with_existing_xml(self, tmp_path):
        out = tmp_path / "c"
        out.mkdir()
        (out / "stale.xml").write_text("<old/>")
        with pytest.raises(UsageError, match="already contains"):
            generate_corpus(make_config(tmp_path))
