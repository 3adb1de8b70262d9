import random

import pytest

from conftest import MASTER_ROWS, PARSED_HEAD_ROWS, VALID_HEAD_ROWS
from meterpipe.core import DataError, parse_fieldspec, split_fields
from meterpipe.join import hash_join, load_master

KEY2 = parse_fieldspec("2")


def join_lists(spec, master, rows):
    matched, unmatched = [], []
    for ok, line in hash_join(spec, master, rows):
        (matched if ok else unmatched).append(line)
    return matched, unmatched


class TestLoadMaster:
    def test_reference_master(self):
        master = load_master(MASTER_ROWS)
        assert len(master) == 3
        assert {len(payload) for payload in master.values()} == {1}
        assert master["0.0.0.4.1.1.12.0.0.0.0.0.0.0.0.3.72.0"] == ["TYPE03"]

    def test_empty_master_matches_nothing(self):
        master = load_master([])
        assert master == {}
        matched, unmatched = join_lists(KEY2, master, ["a k b"])
        assert matched == [] and unmatched == ["a k b"]

    def test_duplicate_key_is_a_data_error(self):
        with pytest.raises(DataError, match="duplicate key"):
            load_master(["k1 A", "k1 B"])

    def test_ragged_payload_is_a_data_error(self):
        with pytest.raises(DataError, match="payload width"):
            load_master(["k1 A", "k2 B C"])

    def test_key_without_payload_is_a_data_error(self):
        with pytest.raises(DataError):
            load_master(["justakey"])


class TestJoin:
    def test_reference_rows_gain_the_type_name_after_the_key(self):
        master = load_master(MASTER_ROWS)
        matched, unmatched = join_lists(KEY2, master, PARSED_HEAD_ROWS)
        assert matched == VALID_HEAD_ROWS[:9]
        assert unmatched == []

    def test_unknown_key_passes_through_verbatim(self):
        master = load_master(MASTER_ROWS)
        row = "SM1  9.9.9.9   2021-01-01T00:00:00Z  1.0"  # odd spacing kept
        matched, unmatched = join_lists(KEY2, master, [row])
        assert matched == []
        assert unmatched == [row]

    def test_key_comparison_is_exact(self):
        master = load_master(["abc X"])
        _, unmatched = join_lists(parse_fieldspec("1"), master, ["ABC 1", "abc0 2"])
        assert unmatched == ["ABC 1", "abc0 2"]

    def test_row_too_short_for_key_is_a_data_error(self):
        master = load_master(MASTER_ROWS)
        with pytest.raises(DataError, match="line 1"):
            list(hash_join(KEY2, master, ["onlyone"]))

    def test_end_relative_key(self):
        master = load_master(["z PAY"])
        matched, _ = join_lists(parse_fieldspec("NF"), master, ["a b z"])
        assert matched == ["a b z PAY"]


def nested_loop_oracle(key_pos, master_pairs, txn_rows):
    """Brute-force join: scan the master list for every transaction row."""
    matched, unmatched = [], []
    for line in txn_rows:
        fields = split_fields(line)
        key = fields[key_pos - 1]
        payload = None
        for mkey, mpayload in master_pairs:
            if mkey == key:
                payload = mpayload
                break
        if payload is None:
            unmatched.append(line)
        else:
            matched.append(" ".join(fields[:key_pos] + payload + fields[key_pos:]))
    return matched, unmatched


class TestOracleEquivalence:
    def test_randomized_corpora_match_the_nested_loop_oracle(self):
        rng = random.Random(424242)
        for round_no in range(30):
            width = rng.randrange(1, 4)
            master_pairs = []
            used = set()
            for _ in range(rng.randrange(0, 12)):
                key = f"k{rng.randrange(40)}"
                if key in used:
                    continue
                used.add(key)
                master_pairs.append(
                    (key, [f"p{rng.randrange(10)}" for _ in range(width)])
                )
            master = load_master(
                [" ".join([k] + p) for k, p in master_pairs]
            )
            key_pos = rng.randrange(1, 4)
            rows = [
                " ".join(
                    [f"f{rng.randrange(5)}" for _ in range(key_pos - 1)]
                    + [f"k{rng.randrange(60)}"]
                    + [f"t{rng.randrange(5)}" for _ in range(rng.randrange(0, 3))]
                )
                for _ in range(rng.randrange(0, 400))
            ]
            spec = parse_fieldspec(str(key_pos))
            matched, unmatched = join_lists(spec, master, rows)
            exp_matched, exp_unmatched = nested_loop_oracle(key_pos, master_pairs, rows)
            assert matched == exp_matched, f"round {round_no}"
            assert unmatched == exp_unmatched, f"round {round_no}"

    def test_partition_and_width_invariants(self):
        rng = random.Random(7)
        master = load_master([f"k{i} P{i} Q{i}" for i in range(5)])
        rows = [f"a k{rng.randrange(10)} tail" for _ in range(500)]
        matched, unmatched = join_lists(KEY2, master, rows)
        assert len(matched) + len(unmatched) == len(rows)
        # Removing the payload from matched rows restores the input multiset.
        restored = [
            " ".join(f.split(" ")[:2] + f.split(" ")[4:]) for f in matched
        ]
        assert sorted(restored + unmatched) == sorted(rows)
        assert all(len(split_fields(r)) == 5 for r in matched)
        assert all(len(split_fields(r)) == 3 for r in unmatched)
        for line in matched:
            fields = split_fields(line)
            assert master[fields[1]] == fields[2:4]
        for line in unmatched:
            assert split_fields(line)[1] not in master
