"""msort and sm2: stable external merge sort on one key field, and exact
grouped summation over consecutive runs of identical keys."""

import heapq
import sys

from .core import (
    DataError,
    UsageError,
    exact_context,
    format_decimal,
    input_rows,
    optional_file,
    parse_decimal,
    parse_digits,
    parse_fieldspec,
    resolve_field,
    row_bytes,
    scratch_file,
    split_fields,
    stream_tool,
)

DEFAULT_MEM_BYTES = 256 * 1024 * 1024

# What a held row costs beyond its key and line objects: the (key, line)
# tuple and its slot in the run list.
_PAIR_BYTES = sys.getsizeof((None, None)) + 8


def _key_of(spec, line, lineno):
    fields = line.split(" ")
    if "" in fields or "\t" in line:  # split_fields' own test, inline
        fields = split_fields(line)
    try:
        key = fields[spec - 1 if spec > 0 else spec]  # NF-k is a Python index
    except IndexError:
        resolve_field(spec, len(fields), lineno)  # raises the DataError
    # Compare as bytes so ordering is bytewise regardless of content.
    return row_bytes(key)


def merge_sort_rows(key_spec, rows, mem_bytes=DEFAULT_MEM_BYTES):
    """Yield rows ordered by the key field, bytewise and stable.

    Runs are sorted in memory until the (key, line) pairs they hold reach
    ``mem_bytes`` at their Python object size, then spilled to temporary
    files; spilled runs are merged lazily, so inputs larger than memory are
    fine.
    """
    return _merge_sort(key_spec, _keyed(key_spec, rows), mem_bytes)


def _keyed(key_spec, rows, path="-"):
    """(key, row) pairs; a bad row in a named file is ``path: line N``."""
    try:
        for lineno, line in enumerate(rows, 1):
            yield _key_of(key_spec, line, lineno), line
    except DataError as exc:
        if path == "-":
            raise
        raise DataError(f"{path}: {exc}") from None


def _merge_sort(key_spec, pairs, mem_bytes):
    run = []
    run_bytes = 0
    spills = []
    try:
        for key, line in pairs:
            run.append((key, line))
            run_bytes += _PAIR_BYTES + sys.getsizeof(key) + sys.getsizeof(line)
            if run_bytes >= mem_bytes:
                spills.append(_spill(run))
                run = []
                run_bytes = 0
        run.sort(key=_first)
        if not spills:
            for _, line in run:
                yield line
            return
        streams = [_read_run(f, key_spec) for f in spills]
        if run:
            streams.append(iter(run))
        # heapq.merge is stable: ties go to the earlier stream, and runs
        # were spilled in input order.
        for _, line in heapq.merge(*streams, key=_first):
            yield line
    finally:
        for f in spills:
            f.close()


def _first(item):
    return item[0]


def _spill(run):
    run.sort(key=_first)
    f = scratch_file()
    for _, line in run:
        f.write(line + "\n")
    f.seek(0)
    return f


def _read_run(f, key_spec):
    for line in f:
        # Drop only the LF the spill wrote: a CR left at the end of a row
        # belongs to the row (input_rows would strip it).
        line = line[:-1]
        yield _key_of(key_spec, line, None), line


def sum_groups(k_from, k_to, v_from, v_to, rows):
    """Collapse consecutive runs of identical key tuples into one row of
    key fields plus exact decimal sums of the value columns.  A sum is
    exact, at the largest scale of its addends, and a zero sum is
    unsigned, as ``decimal_add`` gives it; a group of one row keeps its
    value as written."""
    exact = exact_context()
    make, add = exact.create_decimal, exact.add
    current = totals = None
    summed = False  # whether the current group's totals are sums
    for lineno, line in enumerate(rows, 1):
        fields = line.split(" ")
        if "" in fields or "\t" in line:  # split_fields' own test, inline
            fields = split_fields(line)
        if len(fields) < v_to:
            raise DataError(
                f"line {lineno}: row has {len(fields)} fields, need {v_to}"
            )
        values = []
        for tok in fields[v_from - 1 : v_to]:
            # parse_decimal's grammar, [+-]digits[.digits] in ASCII, checked
            # inline; parse_decimal itself raises the error.
            body = tok[1:] if tok[0] in "+-" else tok
            digits = body.replace(".", "", 1)
            if tok.isascii() and digits.isdigit() and body[0] != "." and body[-1] != ".":
                values.append(make(tok))
            else:
                values.append(parse_decimal(tok, lineno))
        key = fields[k_from - 1 : k_to]
        if key == current:
            totals = [add(t, v) for t, v in zip(totals, values)]
            summed = True
        else:
            if current is not None:
                yield _group_row(current, totals, summed)
            current, totals, summed = key, values, False
    if current is not None:
        yield _group_row(current, totals, summed)


def _group_row(key, totals, summed):
    if summed:  # a zero sum is unsigned, as decimal_add gives it
        totals = [t if t else t.copy_abs() for t in totals]
    return " ".join(key + [format_decimal(t) for t in totals])


# --- CLI wrappers -----------------------------------------------------------


def msort_main(argv=None):
    usage = "usage: msort key=<spec> [--mem <bytes>] [file|-]..."

    def rows(args, mem=None):
        if not args or not args[0].startswith("key="):
            raise UsageError(f"expected key=<spec>\n{usage}")
        key_spec = parse_fieldspec(args[0][4:])
        mem_bytes = DEFAULT_MEM_BYTES
        if mem is not None:
            mem_bytes = parse_digits(mem, "--mem value")
            if mem_bytes < 1:
                raise UsageError("--mem must be positive")
        pairs = (p for path in args[1:] or ["-"] for p in _keyed(key_spec, input_rows(path), path))
        return _merge_sort(key_spec, pairs, mem_bytes)

    return stream_tool("msort", usage, argv, rows, options=("mem",))


def sm2_main(argv=None):
    usage = "usage: sm2 <k_from> <k_to> <v_from> <v_to> [file]"

    def rows(args):
        if len(args) < 4:
            raise UsageError(usage)
        k_from, k_to, v_from, v_to = (
            parse_digits(a, "field position") for a in args[:4]
        )
        if not (1 <= k_from <= k_to < v_from <= v_to):
            raise UsageError(
                "field ranges must satisfy 1 <= k_from <= k_to < v_from <= v_to"
            )
        path = optional_file(args[4:], usage)
        return sum_groups(k_from, k_to, v_from, v_to, input_rows(path))

    return stream_tool("sm2", usage, argv, rows)
