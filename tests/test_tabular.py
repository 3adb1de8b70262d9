import random

import pytest
from hypothesis import given, strategies as st

from conftest import PARSED_HEAD_ROWS, SAMPLE_FLAT_ROWS
from meterpipe.core import DataError, parse_fieldspec
from meterpipe.tabular import (
    DEFAULT_TAGS,
    delete_fields,
    delete_rows,
    emit_pivot,
    filter_tags,
    group_number,
    pivot,
    select_fields,
)


def specs(*texts):
    return [parse_fieldspec(t) for t in texts]


# The flat rows reduced to (label, value) pairs, then filtered and with the
# MeterID row dropped: the exact input the grouping step sees.
GROUPING_INPUT = [
    "name SM000999VG",
    "timeStamp 2021-03-08T22:22:18Z",
    "value 17.8280",
    "ref 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0",
    "timeStamp 2021-03-08T22:22:18Z",
    "value 17.9735",
    "ref 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0",
    "timeStamp 2021-03-08T22:22:18Z",
    "value 16.3959",
    "ref 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0",
]

# Hand-traced grouping of GROUPING_INPUT: the meter-only group 1, then one
# group per reading with the name row re-emitted.
GROUPING_CELLS = [
    "1 name SM000999VG",
    "2 name SM000999VG",
    "2 timeStamp 2021-03-08T22:22:18Z",
    "2 value 17.8280",
    "2 ref 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0",
    "3 name SM000999VG",
    "3 timeStamp 2021-03-08T22:22:18Z",
    "3 value 17.9735",
    "3 ref 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0",
    "4 name SM000999VG",
    "4 timeStamp 2021-03-08T22:22:18Z",
    "4 value 16.3959",
    "4 ref 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0",
]


class TestSelect:
    def test_last_two_fields_of_a_flat_value_row(self):
        row = "MeterReadings MeterReading Readings value 7.7190"
        assert list(select_fields(specs("NF-1", "NF"), [row])) == ["value 7.7190"]

    def test_first_field(self):
        assert list(select_fields(specs("1"), ["a b c"])) == ["a"]

    def test_short_row_is_a_data_error(self):
        with pytest.raises(DataError, match="line 1"):
            list(select_fields(specs("NF-1", "NF"), ["x"]))

    def test_empty_stream(self):
        assert list(select_fields(specs("1"), [])) == []

    @given(st.lists(st.lists(st.text(alphabet="abc", min_size=1), min_size=2, max_size=6)))
    def test_composing_selections(self, rows_fields):
        rows = [" ".join(fields) for fields in rows_fields]
        two_step = select_fields(specs("1"), select_fields(specs("NF-1", "NF"), rows))
        one_step = select_fields(specs("NF-1"), rows)
        assert list(two_step) == list(one_step)


class TestDeleteFields:
    def test_dropping_the_pivot_key_gives_a_parsed_row(self):
        pivoted = "7 " + PARSED_HEAD_ROWS[0]
        assert list(delete_fields(specs("1"), [pivoted])) == [PARSED_HEAD_ROWS[0]]

    def test_deleting_the_only_field_leaves_an_empty_row(self):
        assert list(delete_fields(specs("1"), ["a"])) == [""]

    def test_middle_field(self):
        assert list(delete_fields(specs("2"), ["a b c"])) == ["a c"]

    def test_unresolvable_spec_is_a_data_error(self):
        with pytest.raises(DataError):
            list(delete_fields(specs("4"), ["a b c"]))

    @given(st.data())
    def test_field_count_drops_by_number_of_specs(self, data):
        fields = data.draw(st.lists(st.text(alphabet="xy", min_size=1), min_size=1, max_size=9))
        positions = data.draw(
            st.sets(st.integers(1, len(fields)), min_size=1, max_size=len(fields))
        )
        out = list(delete_fields(specs(*map(str, positions)), [" ".join(fields)]))
        remaining = [f for f in out[0].split(" ") if f]
        assert len(remaining) == len(fields) - len(positions)


class TestDeleteRows:
    def test_drops_meter_id_label_rows(self):
        rows = ["name MeterID", "name SM000000001VG"]
        assert list(delete_rows(parse_fieldspec("2"), "MeterID", rows)) == [
            "name SM000000001VG"
        ]

    def test_drops_groups_without_a_timestamp(self):
        rows = [
            "SM000999VG 0 0 0",
            PARSED_HEAD_ROWS[0],
        ]
        assert list(delete_rows(parse_fieldspec("3"), "0", rows)) == [
            PARSED_HEAD_ROWS[0]
        ]

    def test_empty_stream(self):
        assert list(delete_rows(parse_fieldspec("1"), "z", [])) == []

    def test_short_rows_are_kept(self):
        rows = ["a", "a b z", "a b q"]
        assert list(delete_rows(parse_fieldspec("3"), "z", rows)) == ["a", "a b q"]

    def test_surviving_rows_keep_their_order(self):
        rng = random.Random(7)
        rows = [f"{rng.randrange(3)} r{i}" for i in range(200)]
        kept = list(delete_rows(parse_fieldspec("1"), "1", rows))
        it = iter(rows)
        assert all(row in it for row in kept)  # kept is a subsequence


class TestFilterTags:
    def test_reference_rows_reduce_from_twelve_to_ten(self):
        pairs = list(select_fields(specs("NF-1", "NF"), SAMPLE_FLAT_ROWS))
        filtered = list(filter_tags(frozenset(DEFAULT_TAGS), pairs))
        assert len(filtered) == 11  # the description-derived row is gone
        after_delr = list(delete_rows(parse_fieldspec("2"), "MeterID", filtered))
        assert after_delr == GROUPING_INPUT
        assert len(after_delr) == 10

    def test_kept_row(self):
        assert list(filter_tags(frozenset(DEFAULT_TAGS), ["value 7.7190"])) == [
            "value 7.7190"
        ]

    def test_empty_allowed_set_drops_everything(self):
        assert list(filter_tags(frozenset(), ["name x", "value 1"])) == []

    def test_blank_rows_are_dropped(self):
        assert list(filter_tags(frozenset(DEFAULT_TAGS), ["", "  "])) == []


class TestGroupNumber:
    def test_reference_trace(self):
        assert list(group_number(GROUPING_INPUT)) == GROUPING_CELLS

    def test_single_name_row(self):
        assert list(group_number(["name X"])) == ["1 name X"]

    def test_counter_continues_across_documents(self):
        two_docs = GROUPING_INPUT + GROUPING_INPUT
        cells = list(group_number(two_docs))
        counters = [int(c.split(" ", 1)[0]) for c in cells]
        assert counters == sorted(counters)
        assert counters[-1] == 8
        assert len(cells) == 26

    def test_reading_before_any_name_is_a_data_error(self):
        with pytest.raises(DataError, match="line 1"):
            list(group_number(["timeStamp 2021-01-01T00:00:00Z"]))


class TestPivot:
    def test_reference_groups_pivot_to_wide_rows(self):
        rows = list(pivot(GROUPING_CELLS))
        assert rows == [
            "1 SM000999VG 0 0 0",
            "2 SM000999VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 2021-03-08T22:22:18Z 17.8280",
            "3 SM000999VG 0.0.0.12.1.1.37.0.0.0.0.0.0.0.0.3.38.0 2021-03-08T22:22:18Z 17.9735",
            "4 SM000999VG 0.0.0.0.0.0.46.0.0.0.0.0.0.0.0.0.23.0 2021-03-08T22:22:18Z 16.3959",
        ]

    def test_label_columns_are_lexicographic(self):
        # First-appearance order differs from the emitted column order.
        cells = ["1 name N", "1 timeStamp T", "1 value V", "1 ref R"]
        assert list(pivot(cells)) == ["1 N R T V"]

    def test_name_only_group_is_filled_with_zeros(self):
        cells = ["1 name N", "2 name N", "2 timeStamp T", "2 value V", "2 ref R"]
        assert list(pivot(cells))[0] == "1 N 0 0 0"

    def test_empty_stream(self):
        assert list(pivot([])) == []

    def test_multi_token_values_stay_joined(self):
        assert list(pivot(["1 note two words"])) == ["1 two words"]

    def test_duplicate_cell_is_a_data_error(self):
        with pytest.raises(DataError, match="duplicate"):
            list(pivot(["1 name A", "1 name B"]))

    def test_cell_without_value_is_a_data_error(self):
        with pytest.raises(DataError, match="line 2"):
            list(pivot(["1 name A", "1 name"]))

    def test_fixed_labels_stream_in_the_given_order(self):
        cells = ["1 name N", "1 value V", "2 name M"]
        assert list(emit_pivot(iter(cells), ["value", "name", "ref"])) == [
            "1 V N 0",
            "2 0 M 0",
        ]

    def test_a_label_outside_the_fixed_labels_is_a_data_error(self):
        with pytest.raises(DataError, match=r"^line 2: label 'ref' is not in --labels$"):
            list(emit_pivot(iter(["1 name A", "1 ref R"]), ["name"]))

    def test_fixed_labels_check_duplicate_cells_too(self):
        with pytest.raises(DataError, match=r"^line 3: duplicate cell \(1, name\)$"):
            list(emit_pivot(iter(["1 name A", "1 value V", "1 name B"]), ["name", "value"]))

    @given(
        st.lists(
            st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, unique=True),
            max_size=12,
        )
    )
    def test_fixed_labels_equal_to_the_inputs_pivot_as_two_passes_do(self, groups):
        cells = [f"k{key} {label} v{key}{label}" for key, g in enumerate(groups) for label in g]
        labels = sorted({label for g in groups for label in g})
        assert list(emit_pivot(iter(cells), labels)) == list(pivot(cells))

    def test_column_layout_ignores_group_order(self):
        rng = random.Random(3)
        groups = []
        for key in range(20):
            labels = rng.sample(["aa", "bb", "cc", "dd", "ee"], rng.randrange(1, 5))
            groups.append([f"k{key} {label} v{key}{label}" for label in labels])
        one = list(pivot([cell for g in groups for cell in g]))
        rng.shuffle(groups)
        other = list(pivot([cell for g in groups for cell in g]))
        assert sorted(one) == sorted(other)
        # Row order always follows first appearance of each key.
        assert [r.split()[0] for r in other] == [g[0].split()[0] for g in groups]
