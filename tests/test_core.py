import random
import re
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from meterpipe import core
from meterpipe.core import (
    DataError,
    UsageError,
    decimal_add,
    decimal_mul,
    field_position,
    format_decimal,
    format_fieldspec,
    input_rows,
    parse_decimal,
    parse_fieldspec,
    resolve_field,
    split_fields,
)


class TestSplitRecord:
    def test_sample_reading_row_has_four_fields(self):
        line = (
            "SM000000689VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 "
            "2021-01-01T12:40:06Z 14.8361"
        )
        fields = split_fields(line)
        assert len(fields) == 4
        assert fields[0] == "SM000000689VG"
        assert fields[3] == "14.8361"

    def test_empty_line_has_zero_fields(self):
        assert split_fields("") == []

    def test_whitespace_runs_collapse(self):
        assert split_fields("a\t b  c") == ["a", "b", "c"]

    def test_only_space_and_tab_separate(self):
        # Other control characters are field content, not separators.
        assert split_fields("a\x0bb c") == ["a\x0bb", "c"]

    # Separators, whitespace that is not one, a surrogate-escaped byte (as
    # input_rows gives a non-UTF-8 byte) and letters.
    @given(st.text(alphabet=[" ", "\t", "\r", "\x0b", "\xa0", "\udcff", "a", "b"]))
    @example("")
    @example(" a  b ")
    @example("\ta\t")
    def test_the_fast_path_splits_as_the_reference_does(self, line):
        assert split_fields(line) == [t for t in line.replace("\t", " ").split(" ") if t]

    @given(st.text(alphabet=st.characters(blacklist_characters="\n")))
    def test_normalize_then_split_is_idempotent(self, line):
        fields = split_fields(line)
        assert split_fields(" ".join(fields)) == fields


class TestFieldSpec:
    def test_parse_absolute(self):
        assert parse_fieldspec("3") == 3
        assert parse_fieldspec("007") == 7

    def test_parse_nf_forms(self):
        assert parse_fieldspec("NF") == -1
        assert parse_fieldspec("NF-0") == -1
        assert parse_fieldspec("NF-2") == -3

    def test_a_spec_is_a_plain_int(self):
        assert type(parse_fieldspec("NF-2")) is int

    @pytest.mark.parametrize(
        "bad",
        [
            "0", "-1", "NF+1", "nf", "NF-", "x", "", "²", "NF-٣",
            # Beyond int()'s default limit of 4,300 digits.
            pytest.param("9" * 5000, id="5000-digits"),
            pytest.param("NF-" + "9" * 5000, id="NF-5000-digits"),
        ],
    )
    def test_rejects_bad_syntax(self, bad):
        with pytest.raises(UsageError):
            parse_fieldspec(bad)

    def test_nf_is_last_field(self):
        assert resolve_field(parse_fieldspec("NF"), 6) == 6

    def test_nf_minus_one_on_flat_name_row(self):
        fields = split_fields("MeterReadings MeterReading Meter Names name SM000000001VG")
        pos = resolve_field(parse_fieldspec("NF-1"), len(fields))
        assert pos == 5
        assert fields[pos - 1] == "name"

    def test_out_of_range_is_data_error(self):
        with pytest.raises(DataError):
            resolve_field(7, 4)

    def test_error_names_the_line(self):
        with pytest.raises(DataError, match="line 12"):
            resolve_field(7, 4, lineno=12)

    @pytest.mark.parametrize(
        "text, nfields, message",
        [
            ("NF-3", 2, "field NF-3 does not exist in a 2-field row"),
            ("NF-0", 0, "field NF does not exist in a 0-field row"),
            ("NF-007", 2, "field NF-7 does not exist in a 2-field row"),
            ("007", 2, "field 7 does not exist in a 2-field row"),
        ],
    )
    def test_error_names_the_spec_as_written(self, text, nfields, message):
        with pytest.raises(DataError) as caught:
            resolve_field(parse_fieldspec(text), nfields)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "text, nfields, pos",
        [
            ("3", 4, 3), ("7", 4, 0),
            ("NF", 4, 4), ("NF-3", 4, 1), ("NF-4", 4, 0), ("NF", 0, 0),
        ],
    )
    def test_field_position_is_0_for_a_row_too_short(self, text, nfields, pos):
        assert field_position(parse_fieldspec(text), nfields) == pos

    @given(st.lists(st.text(alphabet="xy", min_size=1), min_size=1, max_size=8))
    def test_nf_resolves_to_field_count(self, fields):
        assert resolve_field(parse_fieldspec("NF"), len(fields)) == len(fields)

    @given(st.lists(st.text(alphabet="xy", min_size=1), max_size=8), st.integers(0, 9))
    def test_nf_minus_k_selects_what_a_python_index_does(self, fields, k):
        pos = field_position(parse_fieldspec(f"NF-{k}"), len(fields))
        if k < len(fields):
            assert fields[pos - 1] == fields[-(k + 1)]
        else:
            assert pos == 0

    def test_str_round_trips(self):
        for text in ("1", "17", "NF", "NF-3"):
            assert format_fieldspec(parse_fieldspec(text)) == text


def decimal_text(negative, digits, scale):
    """The plain text of sign, integer magnitude and scale."""
    text = str(digits).rjust(scale + 1, "0")
    if scale:
        text = f"{text[:-scale]}.{text[-scale:]}"
    return ("-" if negative else "") + text


class TestDecimal:
    def test_parse_reading_value(self):
        assert parse_decimal("14.8361").as_tuple() == (0, (1, 4, 8, 3, 6, 1), -4)

    def test_parse_zero(self):
        assert parse_decimal("0").as_tuple() == (0, (0,), 0)

    def test_trailing_zero_survives_round_trip(self):
        value = parse_decimal("17.8280")
        assert value.as_tuple() == (0, (1, 7, 8, 2, 8, 0), -4)
        assert format_decimal(value) == "17.8280"

    def test_negative_and_small(self):
        assert format_decimal(parse_decimal("-0.0361")) == "-0.0361"

    @pytest.mark.parametrize("bad", ["", ".", "1.", ".5", "1..2", "a", "1e3", "+-1"])
    def test_malformed_tokens_rejected(self, bad):
        with pytest.raises(DataError):
            parse_decimal(bad)

    def test_error_names_the_line(self):
        with pytest.raises(DataError, match="line 3"):
            parse_decimal("bogus", lineno=3)

    def test_sum_scale_is_max_of_addends(self):
        total = decimal_add(parse_decimal("1.5"), parse_decimal("2.25"))
        assert format_decimal(total) == "3.75"
        total = decimal_add(parse_decimal("1.50"), parse_decimal("2.50"))
        assert format_decimal(total) == "4.00"

    def test_signed_addition(self):
        total = decimal_add(parse_decimal("-0.5"), parse_decimal("0.25"))
        assert format_decimal(total) == "-0.25"

    def test_multiplication_is_exact(self):
        product = decimal_mul(parse_decimal("810"), parse_decimal("0.01"))
        assert format_decimal(product) == "8.10"

    def test_zero_results_are_unsigned(self):
        zero = decimal_add(parse_decimal("-0.0"), parse_decimal("-0.0"))
        assert format_decimal(zero) == "0.0"
        assert format_decimal(decimal_mul(parse_decimal("-1.5"), parse_decimal("0"))) == "0.0"
        assert format_decimal(parse_decimal("-0.0")) == "-0.0"  # a lone value is kept

    @given(
        st.booleans(),
        st.integers(min_value=0, max_value=10**30),
        st.integers(min_value=0, max_value=12),
    )
    def test_format_parse_round_trip(self, negative, digits, scale):
        text = decimal_text(negative, digits, scale)
        value = parse_decimal(text)
        assert value.as_tuple() == (negative, tuple(map(int, str(digits))), -scale)
        assert format_decimal(value) == text

    @given(st.lists(_tokens := st.builds(
        decimal_text,
        st.booleans(),
        st.integers(min_value=0, max_value=10**24),
        st.integers(min_value=0, max_value=9),
    ), min_size=1, max_size=20))
    def test_sum_matches_fraction_oracle(self, tokens):
        total = parse_decimal(tokens[0])
        for tok in tokens[1:]:
            total = decimal_add(total, parse_decimal(tok))
        assert Fraction(format_decimal(total)) == sum(Fraction(t) for t in tokens)
        exponent = min(parse_decimal(t).as_tuple().exponent for t in tokens)
        assert total.as_tuple().exponent == exponent

    @given(st.lists(_tokens, min_size=2, max_size=12))
    def test_addition_is_order_independent(self, tokens):
        values = [parse_decimal(t) for t in tokens]
        forward = values[0]
        for v in values[1:]:
            forward = decimal_add(forward, v)
        backward = values[-1]
        for v in reversed(values[:-1]):
            backward = decimal_add(backward, v)
        assert format_decimal(forward) == format_decimal(backward)


def _signed_token(sign, intpart, frac):
    return sign + intpart + ("." + frac if frac else "")


# Signed tokens as rows carry them: an optional sign, leading zeros, scales
# 0-9, and the signed zeros spelt out.
_SIGNED_TOKENS = st.one_of(
    st.sampled_from(["-0", "-0.0", "+0", "0", "+0.000", "-000.000000000"]),
    st.builds(
        _signed_token,
        st.sampled_from(["", "+", "-"]),
        st.text(alphabet="0123456789", min_size=1, max_size=25),
        st.integers(min_value=0, max_value=9).flatmap(
            lambda scale: st.text(alphabet="0123456789", min_size=scale, max_size=scale)
        ),
    ),
)


def fraction_oracle_sum(tokens):
    """The exact sum as text at the largest addend scale; zero is unsigned."""
    scale = max(len(tok.partition(".")[2]) for tok in tokens)
    units = sum(Fraction(tok) for tok in tokens) * 10**scale
    assert units.denominator == 1
    text = str(abs(units.numerator)).rjust(scale + 1, "0")
    if scale:
        text = f"{text[:-scale]}.{text[-scale:]}"
    return ("-" if units < 0 else "") + text


class TestSumTextMatchesTheFractionOracle:
    @given(st.lists(_SIGNED_TOKENS, min_size=2, max_size=20))
    @settings(max_examples=500)
    @example(["-0.0", "-0.0"])
    @example(["-0", "+0"])
    @example(["-0.5", "0.25"])
    @example(["007.50", "-0003.5"])
    def test_sum_text(self, tokens):
        total = parse_decimal(tokens[0])
        for tok in tokens[1:]:
            total = decimal_add(total, parse_decimal(tok))
        assert format_decimal(total) == fraction_oracle_sum(tokens)


def text_stream_rows(path):
    """The rows as the per-row reader that ``input_rows`` replaced read them:
    a text stream (UTF-8, surrogateescape, LF only), one trailing LF and
    then one trailing CR dropped from each line."""
    rows = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as f:
        for line in f:
            if line.endswith("\n"):
                line = line[:-1]
            if line.endswith("\r"):
                line = line[:-1]
            rows.append(line)
    return rows


# Pieces of input bytes: row and CR ends, spaces, letters, whole multibyte
# characters, and bytes that are not UTF-8 (a lone 0xff, and the heads of a
# 3-byte and a 2-byte character with no tail).
_BYTE_PIECES = [
    b"\n", b"\r", b"\r\n", b"a", b" ", "\u00e9".encode(), "\u20ac".encode(),
    "\U0001f600".encode(), b"\xff", b"\xe2\x82", b"\xc3",
]


class TestInputRows:
    def test_strips_newline_and_one_carriage_return(self, tmp_path):
        p = tmp_path / "rows.txt"
        p.write_bytes(b"plain\ncrlf\r\ndouble\r\r\nlast")
        assert list(input_rows(str(p))) == ["plain", "crlf", "double\r", "last"]

    @given(
        data=st.binary(max_size=64)
        | st.lists(st.sampled_from(_BYTE_PIECES), max_size=40).map(b"".join),
        block=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=400)
    @example(data=b"ab\r\ncd\n", block=3)  # "\r\n" across two blocks
    @example(data="x\u20acy\n".encode(), block=2)  # a character across two blocks
    @example(data=b"a\xff\nb\xe2\x82", block=2)  # not UTF-8, also at the end
    @example(data=b"a" * 50 + b"\nb\n", block=4)  # a row longer than a block
    @example(data=b"a\nb", block=3)  # no final LF
    @example(data=b"a\r", block=1)  # a final CR with no LF
    @example(data=b"", block=1)  # an empty file
    def test_blocks_give_the_rows_a_text_stream_gives(self, tmp_path_factory, data, block):
        path = tmp_path_factory.getbasetemp() / "input_rows"
        path.write_bytes(data)
        with mock.patch.object(core, "_BLOCK_SIZE", block):
            assert list(input_rows(str(path))) == text_stream_rows(path)

    def test_dash_leaves_fd_0_open_for_a_later_dash(self, tmp_path):
        path = tmp_path / "rows"
        path.write_bytes(b"a b\nc\r\n")
        code = (
            "import os; from meterpipe.core import input_rows; "
            "first = list(input_rows('-')); os.lseek(0, 0, os.SEEK_SET); "
            "print(first == list(input_rows('-')) == ['a b', 'c'])"
        )
        with open(path, "rb") as stdin:
            proc = subprocess.run([sys.executable, "-c", code], stdin=stdin, capture_output=True)
        assert proc.stderr == b""
        assert proc.stdout == b"True\n"


# The regular expressions core parsed with before its parsers became plain
# string checks.  They stay here as the reference those checks must match.
_OLD_FIELD_SEP = re.compile(r"[ \t]+")
_OLD_SPEC_RE = re.compile(r"^(?:([0-9]+)|NF(?:-([0-9]+))?)$")
_OLD_DECIMAL_RE = re.compile(r"^([+-]?)([0-9]+)(?:\.([0-9]+))?$")


def old_split_fields(line):
    return [tok for tok in _OLD_FIELD_SEP.split(line) if tok]


def old_parse_fieldspec(text):
    """The old parser's spec as a ``(kind, index)`` tuple, or None where it
    raised UsageError."""
    m = _OLD_SPEC_RE.match(text)
    if m is None:
        return None
    if m.group(1) is not None:
        index = int(m.group(1))
        return ("absolute", index) if index >= 1 else None
    return ("end_relative", int(m.group(2) or 0))


def old_field_position(old, nfields):
    kind, index = old
    pos = index if kind == "absolute" else nfields - index
    return pos if 1 <= pos <= nfields else 0


def old_format_fieldspec(old):
    kind, index = old
    if kind == "absolute":
        return str(index)
    return "NF" if index == 0 else f"NF-{index}"


def old_parse_decimal(token):
    """The old parser's result, or None where it raised DataError."""
    m = _OLD_DECIMAL_RE.match(token)
    if m is None:
        return None
    sign, intpart, frac = m.groups()
    frac = frac or ""
    return sign == "-", int(intpart + frac), len(frac)


def new_or_none(parse, text, error):
    try:
        return parse(text)
    except error:
        return None


def decimal_parts(value):
    """A decimal as (negative, integer magnitude, scale), or None."""
    if value is None:
        return None
    sign, digits, exponent = value.as_tuple()
    return bool(sign), int("".join(map(str, digits))), -exponent


# Pieces of fuzzed text: ASCII digits, the characters the syntax uses, the
# separators, whitespace that is not a separator, and non-ASCII digits that
# a bare str.isdigit() would accept.
_FUZZ_PIECES = [
    "0", "7", "42", "+", "-", ".", "N", "F", "NF", "NF-",
    " ", "\t", "\r", "\x0b", "\xa0", "²", "٣",
]


def fuzz_texts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(_FUZZ_PIECES) for _ in range(rng.randint(0, 8)))


class TestParsersMatchTheOldRegexes:
    def test_split_fields(self):
        for line in fuzz_texts(1, 20000):
            assert split_fields(line) == old_split_fields(line), repr(line)

    def test_parse_fieldspec(self):
        accepted = 0
        for text in fuzz_texts(2, 20000):
            old = old_parse_fieldspec(text)
            new = new_or_none(parse_fieldspec, text, UsageError)
            assert (new is None) == (old is None), repr(text)
            if old is None:
                continue
            accepted += 1
            positions = [field_position(new, n) for n in range(9)]
            assert positions == [old_field_position(old, n) for n in range(9)], repr(text)
            assert format_fieldspec(new) == old_format_fieldspec(old), repr(text)
        assert accepted > 500  # the fuzz reaches the accepting paths too

    def test_parse_decimal(self):
        accepted = 0
        for text in fuzz_texts(3, 20000):
            old = old_parse_decimal(text)
            new = decimal_parts(new_or_none(parse_decimal, text, DataError))
            assert new == old, repr(text)
            accepted += old is not None
        assert accepted > 500

    @pytest.mark.parametrize("text", ["1\n", "+1\n"])
    def test_one_trailing_newline_is_the_known_difference(self, text):
        # The old "$" also matched just before a final "\n".  Rows never
        # hold a "\n" (input_rows strips it), so only a spec or a value given
        # as a command-line argument is affected: it is now rejected.
        assert old_parse_decimal(text) is not None
        with pytest.raises(DataError):
            parse_decimal(text)
        if text == "1\n":
            assert old_parse_fieldspec(text) is not None
            with pytest.raises(UsageError):
                parse_fieldspec(text)
