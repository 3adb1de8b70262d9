"""Each row tool's core takes rows split once on entry (``split_rows``, one
``line.split(" ")`` for a row of single spaces) and resolves field
positions once per row width; cjoin1's and msort's cores split a row with
one ``line.split(" ")``.  These tests hold each core, through its text
function, to a reference that splits every row with ``split_fields`` and
resolves every field on every row, as the cores did before: the same
output rows, and the same DataError message on a bad row."""

import pytest
from hypothesis import example, given, settings, strategies as st

from meterpipe.core import (
    DataError,
    decimal_add,
    field_position,
    format_decimal,
    parse_decimal,
    resolve_field,
    row_bytes,
    split_fields,
)
from meterpipe.join import hash_join
from meterpipe.sortagg import merge_sort_rows, sum_groups
from meterpipe.tabular import (
    DEFAULT_TAGS,
    delete_fields,
    delete_rows,
    emit_pivot,
    filter_tags,
    group_number,
    select_fields,
)

# --- the references ----------------------------------------------------------


def ref_select_fields(specs, rows):
    for lineno, line in enumerate(rows, 1):
        fields = split_fields(line)
        n = len(fields)
        yield " ".join(fields[resolve_field(s, n, lineno) - 1] for s in specs)


def ref_delete_fields(specs, rows):
    for lineno, line in enumerate(rows, 1):
        fields = split_fields(line)
        n = len(fields)
        drop = {resolve_field(s, n, lineno) for s in specs}
        yield " ".join(f for pos, f in enumerate(fields, 1) if pos not in drop)


def ref_delete_rows(spec, literal, rows):
    for line in rows:
        fields = split_fields(line)
        pos = field_position(spec, len(fields))
        if pos and fields[pos - 1] == literal:
            continue
        yield line


def ref_filter_tags(allowed, rows):
    for line in rows:
        fields = split_fields(line)
        if fields and fields[0] in allowed:
            yield line


def ref_group_number(rows):
    count = 0
    remembered = None
    for lineno, line in enumerate(rows, 1):
        fields = split_fields(line)
        tag = fields[0] if fields else ""
        if tag == "name":
            remembered = line
            count += 1
            yield f"{count} {line}"
        elif tag == "timeStamp":
            if remembered is None:
                raise DataError(f"line {lineno}: reading before any meter name row")
            count += 1
            yield f"{count} {remembered}"
            yield f"{count} {line}"
        else:
            yield f"{count} {line}"


def ref_pivot(rows, labels):
    """emit_pivot over fixed labels, with every cell split by split_fields."""
    key, cells = None, {}
    for lineno, line in enumerate(rows, 1):
        fields = split_fields(line)
        if len(fields) < 3:
            raise DataError(f"line {lineno}: pivot cell needs key, label and value")
        k, label, value = fields[0], fields[1], " ".join(fields[2:])
        if k != key:
            if key is not None:
                yield " ".join([key] + [cells.get(lb, "0") for lb in labels])
            key, cells = k, {}
        if label in cells:
            raise DataError(f"line {lineno}: duplicate cell ({k}, {label})")
        if label not in labels:
            raise DataError(f"line {lineno}: label {label!r} is not in --labels")
        cells[label] = value
    if key is not None:
        yield " ".join([key] + [cells.get(lb, "0") for lb in labels])


def ref_hash_join(key_spec, master, rows):
    for lineno, line in enumerate(rows, 1):
        fields = split_fields(line)
        pos = resolve_field(key_spec, len(fields), lineno)
        payload = master.get(fields[pos - 1])
        if payload is None:
            yield False, line
        else:
            yield True, " ".join(fields[:pos] + payload + fields[pos:])


def ref_merge_sort_rows(key_spec, rows):
    keyed = []
    for lineno, line in enumerate(rows, 1):
        fields = split_fields(line)
        pos = resolve_field(key_spec, len(fields), lineno)
        keyed.append((row_bytes(fields[pos - 1]), line))
    keyed.sort(key=lambda pair: pair[0])  # stable
    yield from (line for _, line in keyed)


def ref_sum_groups(k_from, k_to, v_from, v_to, rows):
    current = None
    totals = None
    for lineno, line in enumerate(rows, 1):
        fields = split_fields(line)
        if len(fields) < v_to:
            raise DataError(f"line {lineno}: row has {len(fields)} fields, need {v_to}")
        key = tuple(fields[k_from - 1 : k_to])
        values = [parse_decimal(tok, lineno) for tok in fields[v_from - 1 : v_to]]
        if key == current:
            totals = [decimal_add(t, v) for t, v in zip(totals, values)]
        else:
            if current is not None:
                yield " ".join(list(current) + [format_decimal(t) for t in totals])
            current = key
            totals = values
    if current is not None:
        yield " ".join(list(current) + [format_decimal(t) for t in totals])


def outcome(rows):
    """The rows a core yields up to its end or its DataError, and the
    error's message (None when it ends cleanly)."""
    out = []
    try:
        for row in rows:
            out.append(row)
    except DataError as exc:
        return out, str(exc)
    return out, None


# --- the rows ------------------------------------------------------------------

# Separators the fast path must hand to split_fields (tabs, double, leading
# and trailing spaces), a CR, and tokens that are tags, keys and decimals.
_SEPARATORS = [" ", " ", " ", "  ", "\t", " \t "]
_TOKENS = ["name", "timeStamp", "value", "ref", "k", "x", "1", "-0.00", "2.5", "\r", "a\r"]


@st.composite
def rows_of(draw, tokens=_TOKENS, max_fields=5):
    """Rows of 0 to ``max_fields`` tokens, mostly joined by single spaces."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        fields = draw(st.lists(st.sampled_from(tokens), max_size=max_fields))
        row = draw(st.sampled_from(["", "", "", " ", "\t"]))
        for i, field in enumerate(fields):
            row += (draw(st.sampled_from(_SEPARATORS)) if i else "") + field
        rows.append(row + draw(st.sampled_from(["", "", "", " ", "\t", "\r"])))
    return rows


_SPECS = st.sampled_from([1, 2, 3, 5, -1, -2, -3])  # 1, 2, 3, 5, NF, NF-1, NF-2

_CORE_SETTINGS = settings(max_examples=300)


class TestTheCoresMatchTheirSplitFieldsReferences:
    @given(st.lists(_SPECS, min_size=1, max_size=3), rows_of())
    @_CORE_SETTINGS
    @example([1], ["a  b", "c\td", "e b", "x"])  # one width, then another, then short
    def test_self(self, specs, rows):
        assert outcome(select_fields(specs, rows)) == outcome(ref_select_fields(specs, rows))

    @given(st.lists(_SPECS, min_size=1, max_size=3), rows_of())
    @_CORE_SETTINGS
    @example([-1], ["a b c", "a", ""])
    def test_delf(self, specs, rows):
        assert outcome(delete_fields(specs, rows)) == outcome(ref_delete_fields(specs, rows))

    @given(_SPECS, st.sampled_from(_TOKENS), rows_of())
    @_CORE_SETTINGS
    def test_delr(self, spec, literal, rows):
        assert outcome(delete_rows(spec, literal, rows)) == outcome(
            ref_delete_rows(spec, literal, rows)
        )

    @given(rows_of())
    @_CORE_SETTINGS
    @example(["\tname x", " value 1", "ref\tr", "", "x name"])
    def test_filter_tags(self, rows):
        assert outcome(filter_tags(DEFAULT_TAGS, rows)) == outcome(
            ref_filter_tags(DEFAULT_TAGS, rows)
        )

    @given(rows_of())
    @_CORE_SETTINGS
    @example(["\tname x", " timeStamp t", "value\t1"])
    def test_group_number(self, rows):
        assert outcome(group_number(rows)) == outcome(ref_group_number(rows))

    @given(rows_of(tokens=["k", "j", "name", "value", "ref", "1", "a\r"]))
    @_CORE_SETTINGS
    @example(["k name  a b", "k value\t1 ", "j name x"])
    def test_map_labels(self, rows):
        labels = ["name", "value"]
        assert outcome(emit_pivot(rows, labels)) == outcome(ref_pivot(rows, labels))

    @given(_SPECS, rows_of(tokens=["k", "x", "1", "2", "a\r"]))
    @_CORE_SETTINGS
    @example(-1, ["1 k", "2  k", "k\tk x"])
    def test_cjoin1(self, spec, rows):
        master = {"k": ["P", "Q"], "1": ["R", "S"]}
        assert outcome(hash_join(spec, master, rows)) == outcome(
            ref_hash_join(spec, master, rows)
        )

    @given(_SPECS, rows_of(tokens=["k", "x", "1", "2", "a\r", "é"]))
    @_CORE_SETTINGS
    def test_msort(self, spec, rows):
        assert outcome(merge_sort_rows(spec, rows)) == outcome(ref_merge_sort_rows(spec, rows))

    @given(_SPECS, rows_of(tokens=["k", "x", "1", "2", "a\r", "é"]), st.integers(1, 200))
    @_CORE_SETTINGS
    def test_msort_spilling(self, spec, rows, mem_bytes):
        assert outcome(merge_sort_rows(spec, rows, mem_bytes)) == outcome(
            ref_merge_sort_rows(spec, rows)
        )


# Decimal tokens, signed zeros among them, and tokens parse_decimal refuses.
_DECIMALS = ["1", "-1", "+2.50", "0.0", "-0.00", "-0", "007.5", "12.345"]
_NOT_DECIMALS = [".5", "1.", "1..2", "+-1", "1e3", "x", "٣", "+", "-.", "1,5", "inf"]


@st.composite
def sm2_rows(draw):
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        key = draw(st.sampled_from(["K", "J", "K\r"]))
        values = draw(st.lists(st.sampled_from(_DECIMALS), min_size=1, max_size=3))
        if draw(st.integers(0, 9)) == 0:
            values[0] = draw(st.sampled_from(_NOT_DECIMALS))
        sep = draw(st.sampled_from(_SEPARATORS))
        rows.append(sep.join([key, *values]) + draw(st.sampled_from(["", "", "\t"])))
    return rows


class TestSm2:
    @given(sm2_rows(), st.sampled_from([(1, 1, 2, 2), (1, 1, 2, 3), (1, 2, 3, 3)]))
    @settings(max_examples=400)
    @example(["K -0.00"], (1, 1, 2, 2))
    @example(["K -0.00", "K -0.0"], (1, 1, 2, 2))
    @example(["K 1", "K -1", "K -0.000"], (1, 1, 2, 2))
    def test_matches_its_reference(self, rows, columns):
        assert outcome(sum_groups(*columns, rows)) == outcome(ref_sum_groups(*columns, rows))

    def test_a_one_row_group_keeps_a_signed_zero(self):
        rows = ["J 1", "K -0.00", "L -0.00", "L -0.0"]
        assert list(sum_groups(1, 1, 2, 2, rows)) == ["J 1", "K -0.00", "L 0.00"]

    @given(st.lists(st.sampled_from(_DECIMALS), min_size=1, max_size=12))
    def test_a_group_sums_as_decimal_add_does(self, tokens):
        total = parse_decimal(tokens[0])
        for tok in tokens[1:]:
            total = decimal_add(total, parse_decimal(tok))
        rows = [f"K {tok}" for tok in tokens]
        assert list(sum_groups(1, 1, 2, 2, rows)) == [f"K {format_decimal(total)}"]

    @pytest.mark.parametrize("bad", _NOT_DECIMALS)
    def test_a_bad_value_is_parse_decimals_error(self, bad):
        rows = ["K 1 1", f"K 2 {bad}"]
        with pytest.raises(DataError) as caught:
            list(sum_groups(1, 1, 2, 3, rows))
        assert str(caught.value) == f"line 2: malformed decimal value {bad!r}"
