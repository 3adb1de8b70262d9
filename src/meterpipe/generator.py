"""Deterministic synthetic smart-meter corpus generator.

Emits one XML file per reading batch in the standard meter-readings
layout, plus a ground-truth sidecar with exact per-type value sums and
the planted invalid-reading count, so pipeline output can be checked
end to end.  A fixed seed reproduces the corpus byte for byte.
"""

import os
from dataclasses import dataclass

from .core import DataError, UsageError, decimal_add, format_decimal, parse_decimal

# Master mapping of valid reading-type codes to their names.
READING_TYPES = (
    ("0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0", "TYPE01"),
    ("0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0", "TYPE02"),
    ("0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0", "TYPE03"),
)

# Codes in the order readings appear inside one file.
_FILE_CODE_ORDER = (
    "0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0",
    "0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0",
    "0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0",
)

MASTER_FILENAME = "READING_TYPE_CONVERTER"
SIDECAR_FILENAME = "GROUND_TRUTH"

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG: tiny, seedable and byte-stable on every platform."""

    __slots__ = ("_state",)

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform integer in [0, n), rejection-sampled to avoid bias."""
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next64()
            if x < limit:
                return x % n


@dataclass
class GeneratorConfig:
    file_count: int
    meters: int
    seed: int
    out_dir: str
    readings_per_file: int = 3
    invalid_ratio: float = 0.0

    def validate(self):
        if self.file_count < 1:
            raise UsageError("file count must be >= 1")
        if self.meters < 1:
            raise UsageError("meter count must be >= 1")
        if self.file_count > self.meters * 86400:
            # Each file takes a (meter, second of the day) of its own.
            raise UsageError(f"file count must be <= {self.meters * 86400}: 86400 per meter")
        if self.readings_per_file < 1:
            raise UsageError("readings per file must be >= 1")
        if not 0.0 <= self.invalid_ratio <= 1.0:
            raise UsageError("invalid ratio must be within [0, 1]")
        if not -(1 << 63) <= self.seed < (1 << 64):
            raise UsageError("seed must fit in 64 bits")


@dataclass
class CorpusStats:
    """What the generator planted: the oracle for pipeline output."""

    files: int
    readings: int
    invalid_count: int
    type_sums: dict  # name -> exact decimal sum, valid readings only


def _meter_id(n):
    return f"SM{n:09d}VG"


def _invalid_code(rng):
    # Same dotted shape as real codes, but no valid code starts with 9.
    return ".".join(["9"] + [str(rng.below(100)) for _ in range(17)])


def render_file(meter_id, timestamp, readings):
    """Render one readings file; ``readings`` is a list of (value, code)."""
    parts = [
        "<MeterReadings>\n",
        "    <MeterReading>\n",
        "        <Meter>\n",
        "            <Names>\n",
        f"                <name>{meter_id}</name>\n",
        "                <NameType>\n",
        "                    <description>This is a meter identification number.</description>\n",
        "                    <name>MeterID</name>\n",
        "                </NameType>\n",
        "            </Names>\n",
        "        </Meter>\n",
    ]
    for value, code in readings:
        parts.append("        <Readings>\n")
        parts.append(f"            <timeStamp>{timestamp}</timeStamp>\n")
        parts.append(f"            <value>{value}</value>\n")
        parts.append(f'            <ReadingType ref="{code}"/>\n')
        parts.append("        </Readings>\n")
    parts.append("    </MeterReading>\n")
    parts.append("</MeterReadings>\n")
    return "".join(parts)


def generate_corpus(config):
    """Write the corpus, the master file and the ground-truth sidecar.

    Returns CorpusStats.  The output directory must not already contain
    XML files so stale corpora cannot leak into a batch.
    """
    config.validate()
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if any(name.endswith(".xml") for name in os.listdir(out_dir)):
        raise UsageError(f"output directory {out_dir} already contains XML files")

    rng = SplitMix64(config.seed)
    threshold = round(config.invalid_ratio * 10**9)
    valid_names = dict(READING_TYPES)
    sums = {}
    invalid_count = 0
    readings_total = 0
    used_names = set()

    for i in range(config.file_count):
        meter = _meter_id(1 + i % config.meters)
        second = rng.below(86400)
        while (meter, second) in used_names:
            second = rng.below(86400)
        used_names.add((meter, second))

        readings = []
        for j in range(config.readings_per_file):
            code = _FILE_CODE_ORDER[j % len(_FILE_CODE_ORDER)]
            invalid = threshold > 0 and rng.below(10**9) < threshold
            raw = rng.below(200000)  # value in [0, 20) at 4 decimals
            text = f"{raw // 10000}.{raw % 10000:04d}"
            if invalid:
                code = _invalid_code(rng)
                invalid_count += 1
            else:
                name = valid_names[code]
                value = parse_decimal(text)
                sums[name] = decimal_add(sums[name], value) if name in sums else value
            readings.append((text, code))
            readings_total += 1

        # Every reading is taken on 2021-01-01, at a second of its own per meter.
        h, rem = divmod(second, 3600)
        clock = "%02d:%02d:%02d" % (h, *divmod(rem, 60))
        content = render_file(meter, f"2021-01-01T{clock}Z", readings)
        filename = f"READINGS-{meter}_20210101{clock.replace(':', '')}.xml"
        with open(os.path.join(out_dir, filename), "w", encoding="utf-8", newline="\n") as f:
            f.write(content)

    write_master(os.path.join(out_dir, MASTER_FILENAME))
    stats = CorpusStats(
        files=config.file_count,
        readings=readings_total,
        invalid_count=invalid_count,
        type_sums=sums,
    )
    write_sidecar(os.path.join(out_dir, SIDECAR_FILENAME), stats)
    return stats


def write_master(path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for code, name in READING_TYPES:
            f.write(f"{code} {name}\n")


def write_sidecar(path, stats):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for name in sorted(stats.type_sums):
            f.write(f"{name} {format_decimal(stats.type_sums[name])}\n")
        f.write(f"INVALID {stats.invalid_count}\n")


def load_sidecar(path):
    """Read a sidecar back as (type_sums: name -> decimal string, invalid)."""
    sums = {}
    invalid = None
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            fields = line.split()
            if not fields:
                continue
            if fields[0] == "INVALID":
                invalid = int(fields[1])
            else:
                sums[fields[0]] = fields[1]
    if invalid is None:
        raise DataError(f"sidecar {path} has no INVALID line")
    return sums, invalid
