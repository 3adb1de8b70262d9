import random
from fractions import Fraction

import pytest

from meterpipe.core import DataError, parse_fieldspec
from meterpipe import sortagg
from meterpipe.sortagg import merge_sort_rows, sum_groups

KEY1 = parse_fieldspec("1")

# The four rows of one reading type visible in the reference valid file.
TYPE03_ROWS = [
    "SM000000689VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 TYPE03 2021-01-01T12:40:06Z 14.8361",
    "SM000000145VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 TYPE03 2021-01-01T08:54:15Z 19.7668",
    "SM000000453VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 TYPE03 2021-01-01T06:50:54Z 9.9979",
    "SM000000223VG 0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0 TYPE03 2021-01-01T03:08:28Z 14.4736",
]


def sort_oracle(rows, key_pos):
    """Independent stable sort: decorate with the input index and sort by
    (key bytes, index)."""
    def key(pair):
        idx, line = pair
        return line.split(" ")[key_pos - 1].encode(), idx

    return [line for _, line in sorted(enumerate(rows), key=key)]


class TestMergeSort:
    def test_stability_on_equal_keys(self):
        rows = ["TYPE03 a", "TYPE02 b", "TYPE01 c", "TYPE03 d"]
        assert list(merge_sort_rows(KEY1, rows)) == [
            "TYPE01 c",
            "TYPE02 b",
            "TYPE03 a",
            "TYPE03 d",
        ]

    def test_sorted_input_is_unchanged(self):
        rows = ["A 1", "B 2", "C 3"]
        assert list(merge_sort_rows(KEY1, rows)) == rows

    def test_unresolvable_key_is_a_data_error(self):
        with pytest.raises(DataError, match="line 2"):
            list(merge_sort_rows(parse_fieldspec("2"), ["a b", "a"]))

    def test_comparison_is_bytewise(self):
        rows = ["B x", "a y", "A z"]  # uppercase sorts before lowercase
        assert list(merge_sort_rows(KEY1, rows)) == ["A z", "B x", "a y"]

    @pytest.mark.parametrize("mem_bytes", [1, 64, 10**9])
    def test_random_corpus_matches_stable_sort_oracle(self, mem_bytes):
        rng = random.Random(mem_bytes)
        rows = [
            f"k{rng.randrange(50):02d} row{i} {rng.randrange(1000)}"
            for i in range(10000)
        ]
        out = list(merge_sort_rows(KEY1, rows, mem_bytes=mem_bytes))
        assert out == sort_oracle(rows, 1)

    def test_spilled_rows_keep_a_trailing_carriage_return(self):
        rows = ["b x\r", "a y\r", "b z"]
        expected = ["a y\r", "b x\r", "b z"]
        assert list(merge_sort_rows(KEY1, rows)) == expected
        assert list(merge_sort_rows(KEY1, rows, mem_bytes=1)) == expected

    def test_memory_budget_counts_the_held_objects(self, monkeypatch):
        # The budget is above the rows' text but below what holding them
        # costs, so the sort must spill.
        rows = [f"k{i % 13} r{i}" for i in range(300)]
        spills = []
        spill = sortagg._spill
        monkeypatch.setattr(sortagg, "_spill", lambda run: spills.append(run) or spill(run))
        budget = 2 * sum(len(row) for row in rows)
        out = list(merge_sort_rows(KEY1, rows, mem_bytes=budget))
        assert spills
        assert out == list(merge_sort_rows(KEY1, rows))

    def test_spilled_output_is_a_permutation_of_input(self):
        rng = random.Random(5)
        rows = [f"{rng.randrange(9)} payload{i}" for i in range(1000)]
        out = list(merge_sort_rows(KEY1, rows, mem_bytes=128))
        assert sorted(out) == sorted(rows)
        keys = [r.split(" ")[0] for r in out]
        assert keys == sorted(keys)


class TestSumGroups:
    def test_reference_type_rows_sum_exactly(self):
        narrowed = [
            " ".join([f.split(" ")[2], f.split(" ")[4]]) for f in TYPE03_ROWS
        ]
        assert 148361 + 197668 + 99979 + 144736 == 590744
        assert list(sum_groups(1, 1, 2, 2, narrowed)) == ["TYPE03 59.0744"]

    def test_singleton_group_passes_through(self):
        assert list(sum_groups(1, 1, 2, 2, ["K 1.5"])) == ["K 1.5"]

    def test_empty_input(self):
        assert list(sum_groups(1, 1, 2, 2, [])) == []

    def test_scale_is_max_within_group(self):
        rows = ["K 1.5", "K 2.25", "K 3"]
        assert list(sum_groups(1, 1, 2, 2, rows)) == ["K 6.75"]

    def test_negative_values(self):
        rows = ["K -1.5", "K 0.25"]
        assert list(sum_groups(1, 1, 2, 2, rows)) == ["K -1.25"]

    def test_unsorted_input_collapses_consecutive_runs_only(self):
        rows = ["A 1", "B 2", "A 3"]
        assert list(sum_groups(1, 1, 2, 2, rows)) == ["A 1", "B 2", "A 3"]

    def test_multiple_key_and_value_columns(self):
        rows = ["g x 1.0 10", "g x 2.5 20", "h x 1 1"]
        assert list(sum_groups(1, 2, 3, 4, rows)) == ["g x 3.5 30", "h x 1 1"]

    def test_malformed_decimal_is_a_data_error(self):
        with pytest.raises(DataError, match="line 2"):
            list(sum_groups(1, 1, 2, 2, ["K 1.5", "K oops"]))

    def test_short_row_is_a_data_error(self):
        with pytest.raises(DataError, match="line 1"):
            list(sum_groups(1, 1, 2, 2, ["K"]))

    def test_total_conservation(self):
        rng = random.Random(11)
        rows = [
            f"k{rng.randrange(6)} {rng.randrange(1000)}.{rng.randrange(10000):04d}"
            for i in range(3000)
        ]
        rows = list(merge_sort_rows(KEY1, rows))
        out = list(sum_groups(1, 1, 2, 2, rows))
        grand_in = sum(Fraction(r.split(" ")[1]) for r in rows)
        grand_out = sum(Fraction(r.split(" ")[1]) for r in out)
        assert grand_in == grand_out


class TestAggregationStage:
    def test_reference_valid_file_totals(self):
        from conftest import VALID_HEAD_ROWS
        from meterpipe.tabular import select_fields
        from meterpipe.core import parse_fieldspec as spec

        narrowed = select_fields([spec("3"), spec("5")], VALID_HEAD_ROWS)
        out = list(sum_groups(1, 1, 2, 2, merge_sort_rows(KEY1, narrowed)))
        assert out == ["TYPE01 27.6163", "TYPE02 36.6295", "TYPE03 59.0744"]


def hash_accumulation_oracle(rows, key_pos, value_pos):
    """Exact per-key totals via Fraction, independent of decimal handling."""
    totals = {}
    for line in rows:
        fields = line.split(" ")
        key = fields[key_pos - 1]
        totals[key] = totals.get(key, Fraction(0)) + Fraction(fields[value_pos - 1])
    return totals


class TestPipelineProperties:
    def test_sort_then_sum_is_permutation_invariant(self):
        rng = random.Random(23)
        rows = [
            f"k{rng.randrange(8)} {rng.randrange(100)}.{rng.randrange(100):02d}"
            for _ in range(500)
        ]
        one = list(sum_groups(1, 1, 2, 2, merge_sort_rows(KEY1, list(rows))))
        rng.shuffle(rows)
        two = list(sum_groups(1, 1, 2, 2, merge_sort_rows(KEY1, rows)))
        assert one == two

    def test_sorted_sums_match_hash_accumulation_oracle(self):
        rng = random.Random(31)
        for _ in range(20):
            rows = [
                f"k{rng.randrange(10)} {rng.randrange(50)}.{rng.randrange(10000):04d}"
                for _ in range(rng.randrange(1, 800))
            ]
            out = list(sum_groups(1, 1, 2, 2, merge_sort_rows(KEY1, rows)))
            expected = hash_accumulation_oracle(rows, 1, 2)
            assert [r.split(" ")[0] for r in out] == sorted(expected)
            for line in out:
                key, total = line.split(" ")
                assert Fraction(total) == expected[key]
