import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import (
    ELEMENT_PATH,
    MASTER_ROWS,
    PARSED_HEAD_ROWS,
    SAMPLE_FLAT_ROWS,
    SAMPLE_XML,
    VALID_HEAD_ROWS,
    run_tool,
)
from meterpipe.generator import GeneratorConfig, generate_corpus
from meterpipe.pipeline import find_xml_files


def lines(raw):
    return raw.decode().splitlines()


# Numeric arguments that a bare int() would accept.
NOT_ASCII_DIGITS = ("٢", " 2", "+2", "2_0")


class TestXmldirCli:
    def test_reads_stdin_with_dash(self):
        proc = run_tool("xmldir", ELEMENT_PATH, "-", stdin=SAMPLE_XML.encode())
        assert proc.returncode == 0
        assert lines(proc.stdout) == SAMPLE_FLAT_ROWS

    def test_reads_a_named_file(self, tmp_path):
        f = tmp_path / "doc.xml"
        f.write_text(SAMPLE_XML)
        proc = run_tool("xmldir", ELEMENT_PATH, str(f))
        assert proc.returncode == 0
        assert lines(proc.stdout) == SAMPLE_FLAT_ROWS

    def test_malformed_input_exits_2_with_byte_offset(self):
        proc = run_tool("xmldir", ELEMENT_PATH, "-", stdin=b"<a><broken")
        assert proc.returncode == 2
        assert b"byte" in proc.stderr

    def test_relative_path_is_a_usage_error(self):
        proc = run_tool("xmldir", "not/absolute", "-", stdin=b"<a/>")
        assert proc.returncode == 1

    def test_missing_file_is_a_usage_error(self):
        proc = run_tool("xmldir", ELEMENT_PATH, "/nonexistent/file.xml")
        assert proc.returncode == 1

    @pytest.mark.parametrize("seed", [3, 11])
    def test_named_files_flatten_as_their_concatenation_does(self, tmp_path, seed):
        generate_corpus(
            GeneratorConfig(file_count=40, meters=7, seed=seed, out_dir=str(tmp_path),
                            invalid_ratio=0.2)
        )
        files = find_xml_files(str(tmp_path))
        assert len(files) == 40
        joined = b"".join(Path(f).read_bytes() for f in files)
        piped = run_tool("xmldir", ELEMENT_PATH, "-", stdin=joined, check=True)
        named = run_tool("xmldir", ELEMENT_PATH, *files, check=True)
        assert named.stdout == piped.stdout
        assert len(lines(named.stdout)) > 40

    def test_holds_one_file_open_at_a_time(self, tmp_path):
        files = []
        for i in range(200):
            files.append(tmp_path / f"{i:03d}.xml")
            files[-1].write_text(SAMPLE_XML)
        proc = run_tool(
            "xmldir", ELEMENT_PATH, *files,
            extra=dict(preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_NOFILE, (64, 64))),
        )
        assert proc.returncode == 0, proc.stderr
        assert lines(proc.stdout) == SAMPLE_FLAT_ROWS * 200


class TestRowToolsCli:
    def test_self_selects_from_stdin(self):
        proc = run_tool("self", "NF-1", "NF", stdin=b"a b c\nx y z\n")
        assert proc.returncode == 0
        assert lines(proc.stdout) == ["b c", "y z"]

    def test_self_short_row_exits_2_naming_the_line(self):
        proc = run_tool("self", "3", stdin=b"a b c\na b\n")
        assert proc.returncode == 2
        assert b"line 2" in proc.stderr

    def test_self_without_specs_is_a_usage_error(self):
        proc = run_tool("self", stdin=b"")
        assert proc.returncode == 1

    @pytest.mark.parametrize("tool", ["self", "delf"])
    def test_a_bad_first_spec_is_named(self, tool):
        proc = run_tool(tool, "٢", stdin=b"K 1\n")
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert lines(proc.stderr) == [
            f"{tool}: invalid field spec '٢' (expected N, NF or NF-k)"
        ]

    @pytest.mark.parametrize(
        "spec, rows, error",
        [
            ("NF-3", b"a b\n", "field NF-3 does not exist in a 2-field row"),
            ("NF-0", b"\n", "field NF does not exist in a 0-field row"),
            ("NF-03", b"a b\n", "field NF-3 does not exist in a 2-field row"),
        ],
    )
    def test_self_names_a_missing_field_as_its_spec_was_written(self, spec, rows, error):
        proc = run_tool("self", spec, stdin=rows)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert lines(proc.stderr) == [f"self: line 1: {error}"]

    def test_self_on_empty_input(self):
        proc = run_tool("self", "1", stdin=b"")
        assert proc.returncode == 0
        assert proc.stdout == b""

    def test_delf_from_file(self, tmp_path):
        f = tmp_path / "rows"
        f.write_bytes(b"1 a b\n2 c d\n")
        proc = run_tool("delf", "1", str(f))
        assert lines(proc.stdout) == ["a b", "c d"]

    def test_delr_drops_matching_rows(self):
        proc = run_tool("delr", "2", "MeterID", stdin=b"name MeterID\nname SM1\n")
        assert lines(proc.stdout) == ["name SM1"]

    def test_delr_takes_a_later_help_flag_as_data(self):
        proc = run_tool("delr", "2", "-h", stdin=b"x -h\ny z\n")
        assert proc.returncode == 0
        assert lines(proc.stdout) == ["y z"]

    def test_group_number_orphan_reading_exits_2(self):
        proc = run_tool("group-number", stdin=b"timeStamp 2021-01-01T00:00:00Z\n")
        assert proc.returncode == 2

    def test_map_pivots_stdin(self):
        cells = b"1 name N\n1 value V\n2 name M\n"
        proc = run_tool("map", "num=1", stdin=cells)
        assert lines(proc.stdout) == ["1 N V", "2 M 0"]

    def test_map_reads_a_named_file_in_two_passes(self, tmp_path):
        f = tmp_path / "cells"
        f.write_bytes(b"1 name N\n1 value V\n2 name M\n")
        proc = run_tool("map", "num=1", str(f))
        assert lines(proc.stdout) == ["1 N V", "2 M 0"]

    def test_map_reads_a_named_pipe_as_it_reads_a_file(self, tmp_path):
        cells = b"1 name N\n1 value V\n2 name M\n1 name O\n"
        regular = tmp_path / "regular"
        regular.write_bytes(cells)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # Opening the FIFO blocks until map opens it too.
        writer = threading.Thread(target=fifo.write_bytes, args=(cells,), daemon=True)
        writer.start()
        proc = run_tool("map", "num=1", str(fifo))
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_tool("map", "num=1", str(regular), check=True).stdout

    def test_map_data_error_on_stdin_is_one_line(self):
        proc = run_tool("map", "num=1", stdin=b"1 a x\n1 a y\n")
        assert proc.returncode == 2
        assert proc.stderr == b"map: line 2: duplicate cell (1, a)\n"

    @pytest.mark.parametrize("variable", ["METERPIPE_TMPDIR", "TMPDIR"])
    def test_map_spools_whatever_a_temporary_directory_variable_names(self, variable):
        # map always spools; a missing $TMPDIR falls back to a usable directory,
        # and METERPIPE_TMPDIR is not read.
        env = dict(os.environ, **{variable: "/nonexistent"})
        proc = run_tool("map", "num=1", stdin=b"1 a x\n", extra={"env": env})
        assert proc.returncode == 0, proc.stderr
        assert lines(proc.stdout) == ["1 x"]

    def test_map_with_the_inputs_labels_gives_the_two_pass_output(self):
        cells = b"1 name N\n1 value V\n2 name M\n3 ref R\n3 value W\n"
        two_pass = run_tool("map", "num=1", stdin=cells, check=True)
        one_pass = run_tool("map", "num=1", "--labels", "name,ref,value", stdin=cells, check=True)
        assert one_pass.stdout == two_pass.stdout
        reordered = run_tool("map", "--labels=value,ref,name", "num=1", stdin=cells, check=True)
        assert lines(reordered.stdout) == ["1 V 0 N", "2 0 0 M", "3 W R 0"]

    @pytest.mark.parametrize(
        "cells, error",
        [
            (b"1 name N\n1 ref R\n", "map: line 2: label 'ref' is not in --labels"),
            (b"1 name N\n2 name M\n2 name O\n", "map: line 3: duplicate cell (2, name)"),
        ],
    )
    def test_map_labels_data_error_is_one_line(self, cells, error):
        proc = run_tool("map", "num=1", "--labels", "name,value", stdin=cells)
        assert proc.returncode == 2
        assert lines(proc.stderr) == [error]

    @pytest.mark.parametrize("labels", ["", "name,,value", "name,value,name", "na me", "name,\t"])
    def test_map_bad_labels_are_a_usage_error(self, labels):
        proc = run_tool("map", "num=1", "--labels", labels, stdin=b"1 name N\n")
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert len(lines(proc.stderr)) == 1
        assert proc.stderr.startswith(b"map: ") and b"label" in proc.stderr

    def test_map_with_labels_reads_a_pipe_without_a_spool(self, tmp_path):
        # Past RLIMIT_FSIZE a file write fails with EFBIG; stdin and stdout
        # are pipes, so only a spool writes a file.
        cells = "".join(f"{i} value {i}\n" for i in range(9000)).encode()
        limit = 16 * 1024
        assert len(cells) > limit

        def run(*labels):
            return run_tool(
                "map", "num=1", *labels, stdin=cells,
                extra=dict(
                    env=dict(os.environ, TMPDIR=str(tmp_path)),
                    preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
                ),
            )

        spooled = run()
        assert spooled.returncode == 2
        assert lines(spooled.stderr) == ["map: cannot write: File too large"]
        streamed = run("--labels", "value")
        assert streamed.returncode == 0, streamed.stderr
        assert lines(streamed.stdout) == [f"{i} {i}" for i in range(9000)]

    def test_map_rejects_other_key_counts(self):
        proc = run_tool("map", "num=2", stdin=b"")
        assert proc.returncode == 1

    def test_crlf_input_is_tolerated(self):
        proc = run_tool("self", "2", stdin=b"a b\r\nc d\r\n")
        assert lines(proc.stdout) == ["b", "d"]


class TestCjoinCli:
    def make_master(self, tmp_path):
        master = tmp_path / "master"
        master.write_text("\n".join(MASTER_ROWS) + "\n")
        return master

    def test_reject_to_a_file(self, tmp_path):
        master = self.make_master(tmp_path)
        reject = tmp_path / "rejects"
        txn = "\n".join(PARSED_HEAD_ROWS + ["SM1 9.9.9.9 2021-01-01T00:00:00Z 1.0"])
        proc = run_tool(
            "cjoin1",
            "--reject",
            str(reject),
            "key=2",
            str(master),
            stdin=(txn + "\n").encode(),
        )
        assert proc.returncode == 0
        assert lines(proc.stdout) == VALID_HEAD_ROWS[:9]
        assert reject.read_text().splitlines() == [
            "SM1 9.9.9.9 2021-01-01T00:00:00Z 1.0"
        ]

    def test_reject_to_an_inherited_descriptor(self, tmp_path):
        master = self.make_master(tmp_path)
        reject = tmp_path / "rejects"
        with open(reject, "w") as rt:
            fd = rt.fileno()
            proc = run_tool(
                "cjoin1",
                "--reject",
                f"&{fd}",
                "key=2",
                str(master),
                stdin=b"a bogus b\n",
                pass_fds=(fd,),
            )
        assert proc.returncode == 0
        assert reject.read_text() == "a bogus b\n"

    def test_shell_descriptor_redirection(self, tmp_path):
        # The classic shell form: rejects through descriptor 3.
        master = self.make_master(tmp_path)
        txn = tmp_path / "txn"
        txn.write_text(PARSED_HEAD_ROWS[0] + "\nx no match 1\n")
        out = subprocess.run(
            [
                "bash",
                "-c",
                f'"{sys.executable}" -m meterpipe cjoin1 --reject "&3" key=2 '
                f'"{master}" "{txn}" 3> "{tmp_path}/rej"',
            ],
            capture_output=True,
        )
        assert out.returncode == 0
        assert lines(out.stdout) == [VALID_HEAD_ROWS[0]]
        assert (tmp_path / "rej").read_text() == "x no match 1\n"

    @pytest.mark.parametrize("bad", ["٣", " 3", "+3", "3_0"])
    def test_a_descriptor_that_is_not_ascii_digits_is_named(self, tmp_path, bad):
        # Descriptor 3 is open, so only the parse can refuse these targets.
        master = self.make_master(tmp_path)
        txn = tmp_path / "txn"
        txn.write_text("x no match 1\n")
        out = subprocess.run(
            [
                "bash",
                "-c",
                f'"{sys.executable}" -m meterpipe cjoin1 --reject "&{bad}" key=2 '
                f'"{master}" "{txn}" 3> "{tmp_path}/rej"',
            ],
            capture_output=True,
        )
        assert out.returncode == 1
        assert out.stdout == b""
        assert lines(out.stderr) == [
            f"cjoin1: bad reject target '&{bad}': expected &N or a path"
        ]
        assert (tmp_path / "rej").read_text() == ""

    def test_discarded_rejects_warn_on_stderr(self, tmp_path):
        master = self.make_master(tmp_path)
        proc = run_tool("cjoin1", "key=2", str(master), stdin=b"a unknown b\n")
        assert proc.returncode == 0
        assert b"discarded" in proc.stderr

    def test_missing_input_keeps_the_old_reject_file(self, tmp_path):
        master = self.make_master(tmp_path)
        reject = tmp_path / "rejects"
        reject.write_text("an old reject row\n")
        proc = run_tool(
            "cjoin1", "--reject", str(reject), "key=2", str(master), "/nonexistent"
        )
        assert proc.returncode == 1
        assert b"cannot open /nonexistent" in proc.stderr
        assert reject.read_text() == "an old reject row\n"

    def test_duplicate_master_key_exits_2(self, tmp_path):
        master = tmp_path / "master"
        master.write_text("k A\nk B\n")
        proc = run_tool("cjoin1", "key=1", str(master), stdin=b"")
        assert proc.returncode == 2


class TestSortAggCli:
    def test_msort_sorts_stdin(self):
        proc = run_tool("msort", "key=1", stdin=b"b 2\na 1\nc 3\n")
        assert lines(proc.stdout) == ["a 1", "b 2", "c 3"]

    def test_msort_sorts_several_files_and_stdin_as_one_input(self, tmp_path):
        first = tmp_path / "first"
        first.write_text("b 1\na 1\n")
        # Stable across files; a second "-" finds stdin at its end.
        proc = run_tool("msort", "key=1", str(first), "-", str(first), "-", stdin=b"a 2\n")
        assert proc.returncode == 0, proc.stderr
        assert lines(proc.stdout) == ["a 1", "a 2", "a 1", "b 1", "b 1"]

    def test_msort_names_the_file_that_holds_a_bad_row(self, tmp_path):
        (tmp_path / "m1").write_text("a b c\nd e f\n")
        (tmp_path / "m2").write_text("x y\n")
        proc = run_tool("msort", "key=3", str(tmp_path / "m1"), str(tmp_path / "m2"))
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert lines(proc.stderr) == [
            f"msort: {tmp_path / 'm2'}: line 1: field 3 does not exist in a 2-field row"
        ]
        # Lines of stdin are counted from its own start, and it is not named.
        proc = run_tool("msort", "key=3", str(tmp_path / "m1"), "-", stdin=b"a b c\nx y\n")
        assert proc.returncode == 2
        assert lines(proc.stderr) == ["msort: line 2: field 3 does not exist in a 2-field row"]

    def test_msort_with_tiny_memory_budget(self, tmp_path):
        rows = "".join(f"k{i % 7} row{i}\n" for i in range(500)).encode()
        proc = run_tool("msort", "key=1", "--mem", "64", stdin=rows)
        assert proc.returncode == 0
        keys = [l.split()[0] for l in lines(proc.stdout)]
        assert keys == sorted(keys)

    def test_msort_takes_the_memory_budget_after_an_equals_sign(self):
        rows = "".join(f"k{i % 7} row{i}\n" for i in range(500)).encode()
        proc = run_tool("msort", "key=1", "--mem=64", stdin=rows)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_tool("msort", "key=1", stdin=rows).stdout

    def test_msort_rejects_a_bad_memory_budget(self):
        for bad in NOT_ASCII_DIGITS:
            proc = run_tool("msort", "key=1", "--mem", bad, stdin=b"b\na\n")
            assert proc.returncode == 1, bad
            assert proc.stdout == b""
            assert lines(proc.stderr) == [f"msort: invalid --mem value {bad!r}"]

    def test_msort_spill_dir_env_is_honored(self, tmp_path):
        spill = tmp_path / "spills"
        spill.mkdir()
        env = dict(os.environ, TMPDIR=str(spill))
        rows = "".join(f"k{i % 7} row{i}\n" for i in range(200)).encode()
        proc = run_tool(
            "msort", "key=1", "--mem", "64", stdin=rows, extra={"env": env}
        )
        assert proc.returncode == 0
        assert proc.stdout == b"".join(sorted(rows.splitlines(True), key=lambda r: r[:2]))

    def test_sm2_sums_by_type(self):
        rows = b"TYPE01 1.5\nTYPE01 2.25\nTYPE02 3\n"
        proc = run_tool("sm2", "1", "1", "2", "2", stdin=rows)
        assert lines(proc.stdout) == ["TYPE01 3.75", "TYPE02 3"]

    def test_sm2_rejects_bad_ranges(self):
        proc = run_tool("sm2", "2", "1", "3", "3", stdin=b"")
        assert proc.returncode == 1
        proc = run_tool("sm2", "1", "2", "2", "3", stdin=b"")
        assert proc.returncode == 1
        # Positions are ASCII digits only, like field specs.
        for bad in NOT_ASCII_DIGITS:
            proc = run_tool("sm2", "1", "1", "2", bad, stdin=b"K 1\nK 2\n")
            assert proc.returncode == 1, bad
            assert proc.stdout == b""
            assert lines(proc.stderr) == [f"sm2: invalid field position {bad!r}"]

    def test_sm2_malformed_decimal_exits_2(self):
        proc = run_tool("sm2", "1", "1", "2", "2", stdin=b"K oops\n")
        assert proc.returncode == 2

    def test_sm2_passes_an_oversized_value_exactly(self):
        # 5,000 digits exceed int()'s default limit of 4,300; sums have none.
        proc = run_tool("sm2", "1", "1", "2", "2", stdin=b"K " + b"9" * 5000 + b"\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"K " + b"9" * 5000 + b"\n"
        assert proc.stderr == b""

    def test_sm2_prints_an_oversized_sum_exactly(self):
        row = b"K " + b"9" * 4300 + b"\n"
        proc = run_tool("sm2", "1", "1", "2", "2", stdin=row * 2)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"K 1" + b"9" * 4299 + b"8\n"
        assert proc.stderr == b""


# The arguments each stream tool needs before its optional input file.
LEADING_ARGS = {
    "xmldir": [ELEMENT_PATH],
    "self": ["1"],
    "delf": ["1"],
    "delr": ["2", "x"],
    "filter-tags": [],
    "group-number": [],
    "map": ["num=1"],
    "cjoin1": ["key=2", "MASTER"],
    "msort": ["key=1"],
    "sm2": ["1", "1", "2", "2"],
}

# A row that cjoin1 discards with a warning, then one it joins.
UNMATCHED_THEN_MATCHED = f"a unknown b\na {MASTER_ROWS[0].split()[0]} c\n".encode()
MATCHED = f"a {MASTER_ROWS[0]} c\n".encode()


class TestStreamToolContract:
    @pytest.fixture
    def leading(self, tmp_path):
        master = tmp_path / "master"
        master.write_text("\n".join(MASTER_ROWS) + "\n")
        return lambda tool: [str(master) if a == "MASTER" else a for a in LEADING_ARGS[tool]]

    @pytest.mark.parametrize("tool", sorted(LEADING_ARGS))
    def test_help_usage_errors_and_missing_input(self, tool, leading, tmp_path):
        proc = run_tool(tool, "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith(f"usage: {tool} ".encode())
        assert proc.stderr == b""

        # One document, or one row: xmldir and msort take each trailing
        # argument as a file, and the others refuse a second one.
        one = tmp_path / "one"
        one.write_bytes(b"<a/>\n")
        extra = tmp_path / "extra"
        proc = run_tool(tool, *leading(tool), str(one), str(extra))
        assert proc.returncode == 1
        if tool in ("xmldir", "msort"):
            assert proc.stderr == (
                f"{tool}: cannot open {extra}: No such file or directory\n".encode()
            )
        else:
            assert proc.stderr.startswith(f"{tool}: unexpected argument ".encode())
        assert proc.stdout == b""

        proc = run_tool(tool, *leading(tool), str(tmp_path / "missing"))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"{tool}: cannot open ".encode())

    @pytest.mark.parametrize(
        "tool, args, limit",
        [("self", ["1"], 64 * 1024), ("map", ["num=1"], 16 * 1024)],
    )
    def test_a_failed_write_is_one_line_with_exit_2(self, tmp_path, tool, args, limit):
        # RLIMIT_FSIZE makes writes past the limit fail with EFBIG: self's
        # stdout is a file, and map spools its stdin to one.
        (tmp_path / "in.txt").write_text("".join(f"a{i} b c\n" for i in range(20000)))
        cells = "".join(f"{i} value {i}\n" for i in range(9000)).encode()
        with open(tmp_path / "out", "wb") as out:
            proc = subprocess.run(
                [sys.executable, "-m", "meterpipe", tool, *args]
                + ([] if tool == "map" else [str(tmp_path / "in.txt")]),
                input=cells if tool == "map" else None,
                stdout=out,
                stderr=subprocess.PIPE,
                env=dict(os.environ, TMPDIR=str(tmp_path)),
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
            )
        assert proc.returncode == 2
        assert lines(proc.stderr) == [f"{tool}: cannot write: File too large"]


    @pytest.mark.parametrize(
        "tool, args",
        [
            ("map", ["num=1", "--labels", "x", "--labels=x,y"]),
            ("msort", ["--mem", "100", "key=1", "--mem", "200"]),
            ("cjoin1", ["--reject", "R1", "--reject", "R2", "key=2", "MASTER"]),
        ],
    )
    def test_a_repeated_option_is_a_usage_error_naming_it(self, tool, args, leading, tmp_path):
        places = {"MASTER": leading("cjoin1")[1], "R1": tmp_path / "r1", "R2": tmp_path / "r2"}
        proc = run_tool(tool, *(str(places.get(a, a)) for a in args), stdin=b"K k 1\n")
        assert proc.returncode == 1
        assert proc.stdout == b""
        option = {"map": "labels", "msort": "mem", "cjoin1": "reject"}[tool]
        assert lines(proc.stderr)[0] == f"{tool}: repeated option --{option}"
        assert lines(proc.stderr)[1].startswith(f"usage: {tool} ")
        assert not places["R1"].exists() and not places["R2"].exists()

    @pytest.mark.parametrize("tool", sorted(LEADING_ARGS))
    def test_a_closed_stdin_is_one_line_naming_dash(self, tool, leading):
        proc = run_tool(tool, *leading(tool), extra=dict(preexec_fn=lambda: os.close(0)))
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert lines(proc.stderr) == [f"{tool}: cannot open -: Bad file descriptor"]

    @pytest.mark.parametrize("args, code", [(["3"], 2), (["0"], 1)])
    def test_a_closed_stderr_keeps_the_exit_code(self, args, code):
        # The diagnostic cannot be written; the exit code still tells.
        proc = run_tool("self", *args, stdin=b"a b\n", extra=dict(preexec_fn=lambda: os.close(2)))
        assert proc.returncode == code
        assert proc.stdout == b""

    def test_a_closed_stderr_keeps_cjoin1_warning_from_failing_it(self, leading):
        # The unmatched row's warning cannot be written; the matched row and
        # the exit code are as with stderr open.
        proc = run_tool("cjoin1", *leading("cjoin1"), stdin=UNMATCHED_THEN_MATCHED,
                        extra=dict(preexec_fn=lambda: os.close(2)))
        assert (proc.returncode, proc.stdout) == (0, MATCHED)

    def test_no_stderr_keeps_cjoin1_warning_out_of_stdout(self, leading):
        # An embedding caller with sys.stderr set to None.
        code = (
            "import sys\n"
            "from meterpipe.join import main\n"
            "sys.stderr = None\n"
            f"sys.exit(main({leading('cjoin1')!r}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], input=UNMATCHED_THEN_MATCHED,
                              capture_output=True)
        assert (proc.returncode, proc.stdout) == (0, MATCHED)

    @pytest.mark.parametrize("tool", sorted(LEADING_ARGS))
    def test_a_closed_stdout_is_one_cannot_write_line(self, tool, leading, tmp_path):
        one = tmp_path / "one"
        one.write_text(SAMPLE_XML if tool == "xmldir" else "K k 1\n")
        proc = run_tool(tool, *leading(tool), str(one), extra=dict(preexec_fn=lambda: os.close(1)))
        assert proc.returncode == 2
        assert lines(proc.stderr) == [f"{tool}: cannot write: Bad file descriptor"]


class TestDispatcher:
    def test_unknown_tool(self):
        proc = subprocess.run(
            [sys.executable, "-m", "meterpipe", "no-such-tool"],
            capture_output=True,
        )
        assert proc.returncode == 1
        assert b"unknown tool" in proc.stderr

    def test_console_scripts_match_the_dispatcher(self):
        from meterpipe.__main__ import _TOOLS

        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert len(scripts) == 12
        assert scripts == {name: f"{mod}:{fn}" for name, (mod, fn) in _TOOLS.items()}

    def test_lists_tools(self):
        proc = subprocess.run(
            [sys.executable, "-m", "meterpipe", "--help"], capture_output=True
        )
        assert proc.returncode == 0
        assert b"xmldir" in proc.stdout
        assert proc.stderr == b""

    def test_no_tool_is_a_usage_error_on_stderr(self):
        proc = subprocess.run([sys.executable, "-m", "meterpipe"], capture_output=True)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"usage: python -m meterpipe <tool>")
        assert b"xmldir" in proc.stderr


# meterpipe's own source tree, for interpreters started with -S.
SRC = str(Path(__file__).resolve().parents[1] / "src")


def importtime_of(code):
    """The modules that ``python -S -X importtime -c code`` and every process
    it forks import, in order; ``code`` runs with meterpipe's source tree
    first on sys.path."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c",
         f"import sys; sys.path.insert(0, {SRC!r}); {code}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return imported_modules(proc.stderr)


@pytest.mark.usefixtures("no_child_left")
class TestToolStartup:
    """Start-up guards: what a tool started alone imports, and what a stage
    forked from the orchestrator imports."""

    def test_tool_modules_do_not_import_re(self):
        # re and its compiled patterns would add to every start of a tool.
        imports = importtime_of(
            "import meterpipe.__main__, meterpipe.tabular, meterpipe.join, "
            "meterpipe.sortagg, meterpipe.xmlflat"
        )
        assert "meterpipe.xmlflat" in imports
        assert "re" not in imports

    @pytest.mark.parametrize("tool", sorted(LEADING_ARGS))
    def test_only_sm2_imports_decimal(self, tool, tmp_path):
        # decimal costs several ms per start, and only sm2 sums.
        master = tmp_path / "master"
        master.write_text("\n".join(MASTER_ROWS) + "\n")
        args = [str(master) if a == "MASTER" else a for a in LEADING_ARGS[tool]]
        one_row = tmp_path / "row"
        one_row.write_text({"xmldir": SAMPLE_XML, "sm2": "K 1\n"}.get(tool, "K label 1\n"))
        imports = importtime_of(
            "from meterpipe.pipeline import _run_stage; "
            f"_run_stage([{(tool, *args)!r}, ('self', '1')], [{str(tmp_path / 'out')!r}], "
            f"feed_paths=[{str(one_row)!r}])"
        )
        assert "meterpipe.core" in imports
        assert any("decimal" in name for name in imports) == (tool == "sm2")

    def test_no_socket_is_imported(self, tmp_path):
        # Nothing carries a stage over a socket: the tools are forks.
        rows = tmp_path / "rows"
        rows.write_text("K a\n")
        imports = importtime_of(
            "from meterpipe.pipeline import _run_stage; "
            f"_run_stage([('self', '1')], [{str(tmp_path / 'out')!r}], feed_paths=[{str(rows)!r}])"
        )
        assert "meterpipe.pipeline" in imports
        assert "meterpipe.__main__" in imports
        assert not [name for name in imports if "socket" in name]
        assert (tmp_path / "out").read_text() == "K\n"


def run_pipeline(tmp_path, readings, master, **kwargs):
    """``pipeline run`` over ``readings``, with its outputs under tmp_path;
    ``kwargs`` go to ``subprocess.run``."""
    cfg = tmp_path / "cfg"
    cfg.write_text(
        f"readings_dir={readings}\nparsed_dir={tmp_path / 'p'}\n"
        f"valid_dir={tmp_path / 'v'}\ncorrected_dir={tmp_path / 'c'}\n"
        f"master_path={master}\n"
    )
    return subprocess.run(
        [sys.executable, "-m", "meterpipe", "pipeline", "run", "--config", str(cfg)],
        capture_output=True,
        **kwargs,
    )


def imported_modules(err):
    """The modules that ``-X importtime`` lines on stderr name."""
    return [
        line.rpartition("|")[2].strip()
        for line in err.splitlines()
        if line.startswith("import time:")
    ]


@pytest.mark.usefixtures("no_child_left")
class TestPipelineCli:
    def test_gen_then_run(self, tmp_path):
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "meterpipe",
                "pipeline",
                "gen",
                "--files",
                "6",
                "--meters",
                "3",
                "--invalid-ratio",
                "0.5",
                "--seed",
                "8",
                "--out",
                str(tmp_path / "r"),
            ],
            capture_output=True,
        )
        assert out.returncode == 0, out.stderr
        cfg = tmp_path / "cfg"
        cfg.write_text(
            f"readings_dir={tmp_path / 'r'}\nparsed_dir={tmp_path / 'p'}\n"
            f"valid_dir={tmp_path / 'v'}\ncorrected_dir={tmp_path / 'c'}\n"
            f"master_path={tmp_path / 'r' / 'READING_TYPE_CONVERTER'}\n"
        )
        out = subprocess.run(
            [sys.executable, "-m", "meterpipe", "pipeline", "run", "--config", str(cfg)],
            capture_output=True,
        )
        assert out.returncode == 0, out.stderr
        assert b"total:" in out.stdout
        assert (tmp_path / "v" / "ALL_VALID_READINGS").exists()

    def test_unreadable_corpus_file_exits_2_naming_it(self, tmp_path, sample_dir):
        readings, master = sample_dir
        (readings / "zz.xml").symlink_to(tmp_path / "missing.xml")
        out = run_pipeline(tmp_path, readings, master)
        assert out.returncode == 2
        assert out.stdout == b""
        assert lines(out.stderr) == [
            f"xmldir: cannot open {readings / 'zz.xml'}: No such file or directory",
            f"pipeline: xmldir {ELEMENT_PATH} exited with status 1",
        ]
        assert list((tmp_path / "p").iterdir()) == []

    def test_an_unreadable_first_file_is_named_once(self, tmp_path, sample_dir):
        # xmldir stops at the file it cannot open; no later tool, and no
        # empty input, adds a line.
        _, master = sample_dir
        readings = tmp_path / "only"
        readings.mkdir()
        (readings / "a.xml").symlink_to(tmp_path / "missing.xml")
        out = run_pipeline(tmp_path, readings, master)
        assert out.returncode == 2
        assert out.stdout == b""
        assert lines(out.stderr) == [
            f"xmldir: cannot open {readings / 'a.xml'}: No such file or directory",
            f"pipeline: xmldir {ELEMENT_PATH} exited with status 1",
        ]
        assert list((tmp_path / "p").iterdir()) == []

    def test_a_malformed_file_is_named_with_its_own_byte_offset(self, tmp_path, sample_dir):
        readings, master = sample_dir
        # The first file's bytes would count towards a stream-wide offset.
        (readings / "b.xml").write_text("<MeterReadings><MeterReading></Meter>")
        out = run_pipeline(tmp_path, readings, master)
        assert out.returncode == 2
        assert out.stdout == b""
        err = lines(out.stderr)
        assert f"xmldir: {readings / 'b.xml'}: malformed XML at byte 31: mismatched tag" in err
        assert err[-1] == f"pipeline: xmldir {ELEMENT_PATH} exited with status 2"
        assert list((tmp_path / "p").iterdir()) == []

    @pytest.mark.parametrize("content", ["", "<!-- no readings yet -->\n"])
    def test_a_file_with_no_document_fails_the_parse_naming_it(
        self, tmp_path, sample_dir, content
    ):
        readings, master = sample_dir
        (readings / "b.xml").write_text(content)
        out = run_pipeline(tmp_path, readings, master)
        assert out.returncode == 2
        assert out.stdout == b""
        assert lines(out.stderr) == [
            f"xmldir: {readings / 'b.xml'}: no XML document found in input",
            f"pipeline: xmldir {ELEMENT_PATH} exited with status 2",
        ]
        assert list((tmp_path / "p").iterdir()) == []

    def test_missing_config_is_a_usage_error(self, tmp_path):
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "meterpipe",
                "pipeline",
                "parse",
                "--config",
                str(tmp_path / "none"),
            ],
            capture_output=True,
        )
        assert out.returncode == 1

    def test_a_config_that_is_not_utf8_is_one_line(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"readings_dir=\xff\n")
        out = subprocess.run(
            [sys.executable, "-m", "meterpipe", "pipeline", "run", "--config", str(bad)],
            capture_output=True,
        )
        assert out.returncode == 1
        assert out.stdout == b""
        assert lines(out.stderr) == [f"pipeline: cannot read config {bad}: not UTF-8 text"]

    @pytest.mark.parametrize("fd", [0, 1])
    def test_a_run_with_stdin_or_stdout_closed_succeeds(self, tmp_path, sample_dir, fd):
        # The tools are forks of a process that has no sys.stdin or sys.stdout.
        out = run_pipeline(tmp_path, *sample_dir, preexec_fn=lambda: os.close(fd))
        assert out.returncode == 0, out.stderr
        assert out.stderr == b""
        assert (tmp_path / "c" / "MEASURED_VALUES_by_TYPE").read_text().splitlines() == [
            "TYPE01 16.3959",
            "TYPE02 17.9735",
            "TYPE03 17.8280",
        ]

    def test_gen_rejects_bad_ratio(self, tmp_path):
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "meterpipe",
                "pipeline",
                "gen",
                "--files",
                "1",
                "--meters",
                "1",
                "--invalid-ratio",
                "2.0",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "r"),
            ],
            capture_output=True,
        )
        assert out.returncode == 1

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--files", "\u0663"),
            ("--meters", "1_0"),
            ("--seed", " +7"),
            ("--readings", "-3"),
            ("--invalid-ratio", "\u0660.\u0665"),
            ("--invalid-ratio", "5e-1"),
        ],
    )
    def test_gen_numbers_take_ascii_digits_only(self, tmp_path, option, value):
        argv = {"--files": "3", "--meters": "2", "--seed": "7", option: value}
        out = subprocess.run(
            [sys.executable, "-m", "meterpipe", "pipeline", "gen",
             *(arg for pair in argv.items() for arg in pair), "--out", str(tmp_path / "r")],
            capture_output=True,
        )
        assert out.returncode == 1
        assert out.stdout == b""
        assert lines(out.stderr) == [f"pipeline: invalid {option} value {value!r}"]
        assert not (tmp_path / "r").exists()

    def test_gen_refuses_more_files_than_meters_have_seconds(self, tmp_path):
        # One meter has 86,400 distinct seconds; file 86,401 has none left.
        out = subprocess.run(
            [sys.executable, "-m", "meterpipe", "pipeline", "gen", "--files", "86401",
             "--meters", "1", "--seed", "1", "--out", str(tmp_path / "r")],
            capture_output=True,
            timeout=60,
        )
        assert out.returncode == 1
        assert out.stdout == b""
        assert out.stderr.decode().splitlines() == [
            "pipeline: file count must be <= 86400: 86400 per meter"
        ]
        assert not (tmp_path / "r").exists()

    def test_a_failed_write_stops_the_run_and_keeps_the_last_outputs(self, tmp_path):
        generate_corpus(
            GeneratorConfig(file_count=200, meters=20, seed=5, out_dir=str(tmp_path / "r"))
        )
        out = run_pipeline(tmp_path, tmp_path / "r", tmp_path / "r" / "READING_TYPE_CONVERTER")
        assert out.returncode == 0, out.stderr
        outputs = {p: p.read_bytes() for p in tmp_path.glob("[vc]/*")}
        assert len(outputs) == 3
        # The parse stage's last tool writes PARSED_FILE, which is larger
        # than the limit, so that write fails.
        limit = 16 * 1024
        parse = [sys.executable, "-m", "meterpipe", "pipeline", "parse", "--config", str(tmp_path / "cfg")]
        subprocess.run(parse, check=True)
        assert (tmp_path / "p" / "PARSED_FILE").stat().st_size > limit
        (tmp_path / "p" / "PARSED_FILE").unlink()
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        out = subprocess.run(
            [sys.executable, "-m", "meterpipe", "pipeline", "run", "--config", str(tmp_path / "cfg")],
            capture_output=True,
            env=dict(os.environ, TMPDIR=str(scratch)),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
        )
        assert out.returncode == 2
        assert out.stdout == b""
        assert lines(out.stderr) == [
            "delr: cannot write: File too large",
            "pipeline: delr 3 0 exited with status 2",
        ]
        assert {p: p.read_bytes() for p in tmp_path.glob("[vc]/*")} == outputs
        assert not (tmp_path / "p" / "PARSED_FILE").exists()
        assert not list(tmp_path.rglob(".stage-*"))
        assert list(scratch.iterdir()) == []

    def test_gen_into_a_path_under_a_file_is_one_line(self, tmp_path):
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "r"
        out = subprocess.run(
            [sys.executable, "-m", "meterpipe", "pipeline", "gen", "--files", "1",
             "--meters", "1", "--seed", "1", "--out", str(target)],
            capture_output=True,
        )
        assert out.returncode == 2
        assert out.stdout == b""
        assert lines(out.stderr) == [f"pipeline: {target}: Not a directory"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["frob"],
            ["gen", "--files", "1", "--meters", "1", "--seed", "1", "--out", "{tmp}/r",
             "--date", "2021-01-01"],
            [],
        ],
    )
    def test_a_bad_argument_is_a_usage_error(self, tmp_path, argv):
        out = subprocess.run(
            [sys.executable, "-m", "meterpipe", "pipeline",
             *(arg.format(tmp=tmp_path) for arg in argv)],
            capture_output=True,
        )
        assert out.returncode == 1
        assert out.stdout == b""
        err = lines(out.stderr)
        assert err[0].startswith("usage: pipeline")
        assert err[-1].startswith("pipeline")
        assert ": error: " in err[-1]
        assert list(tmp_path.iterdir()) == []


class TestBenchCli:
    def test_cost_values(self):
        proc = run_tool("bench", "cost", "--D", "810", "--alpha", "0.01", "--months", "12")
        assert proc.stdout.strip() == b"631.80"
        proc = run_tool("bench", "cost", "--D", "49", "--alpha", "0.01", "--months", "12")
        assert proc.stdout.strip() == b"38.22"

    def test_cost_table(self):
        proc = run_tool(
            "bench", "cost", "--D", "10", "--alpha", "0.01", "--months", "3", "--table"
        )
        assert lines(proc.stdout) == ["1 0.10", "2 0.30", "3 0.60"]

    def test_volume(self):
        proc = run_tool(
            "bench",
            "volume",
            "--meters",
            "27000000",
            "--readings-per-day",
            "1",
            "--bytes-per-reading",
            "1000",
        )
        assert proc.stdout.strip() == b"27 GB/day"

    def test_reduction(self, tmp_path):
        xml = tmp_path / "xml"
        xml.mkdir()
        (xml / "a.xml").write_bytes(b"x" * 1000)
        parsed = tmp_path / "parsed"
        parsed.write_bytes(b"y" * 60)
        proc = run_tool("bench", "reduction", str(xml), str(parsed))
        assert proc.stdout.strip() == b"0.9400"

    def test_a_config_that_is_not_utf8_is_one_line(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"repetitions=1\n# r\xe9sum\xe9\n")
        report = tmp_path / "report.csv"
        proc = run_tool("bench", "run", "--config", str(bad), "--out", str(report))
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert lines(proc.stderr) == [f"bench: cannot read config {bad}: not UTF-8 text"]
        assert not report.exists()

    def test_reduction_of_a_directory_is_a_usage_error(self, tmp_path):
        xml = tmp_path / "xml"
        xml.mkdir()
        (xml / "a.xml").write_bytes(b"x" * 1000)
        proc = run_tool("bench", "reduction", str(xml), str(tmp_path))
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert lines(proc.stderr) == [f"bench: {tmp_path} is not a regular file"]

    @pytest.mark.parametrize(
        "option, value", [("--D", "-5"), ("--D", "abc"), ("--alpha", "-0.01"), ("--alpha", "1e3")]
    )
    def test_cost_takes_unsigned_decimals_only(self, option, value):
        argv = {"--D": "5", "--alpha": "0.01", "--months": "12", option: value}
        proc = run_tool("bench", "cost", *(arg for pair in argv.items() for arg in pair))
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert lines(proc.stderr) == [f"bench: invalid {option} value {value!r}"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["cost", "--D", "1", "--alpha", "2"],
            ["cost", "--D", "1", "--alpha", "2", "--months", "3", "--weeks", "1"],
            ["volume", "--meters", "1", "--readings-per-day", "2"],
            ["frob"],
        ],
    )
    def test_a_bad_argument_is_a_usage_error(self, argv):
        proc = run_tool("bench", *argv)
        assert proc.returncode == 1
        assert proc.stdout == b""
        err = lines(proc.stderr)
        assert err[0].startswith("usage: bench")
        assert ": error: " in err[-1]

    @pytest.mark.parametrize(
        "option, value",
        [("--months", "x"), ("--months", "\u0663"), ("--months", "1_2"), ("--meters", "1_0"),
         ("--readings-per-day", " 2"), ("--bytes-per-reading", "+3")],
    )
    def test_counts_take_ascii_digits_only(self, option, value):
        if option == "--months":
            argv = {"--D": "1", "--alpha": "2", option: value}
            command = "cost"
        else:
            argv = {"--meters": "1", "--readings-per-day": "2", "--bytes-per-reading": "3"}
            argv[option] = value
            command = "volume"
        proc = run_tool("bench", command, *(arg for pair in argv.items() for arg in pair))
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert lines(proc.stderr) == [f"bench: invalid {option} value {value!r}"]
