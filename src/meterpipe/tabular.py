"""Row and column stream operators: self, delf, delr, filter-tags,
group-number and map (the key/label/value pivot)."""

from .core import (
    DataError,
    UsageError,
    file_rows,
    input_rows,
    open_input,
    optional_file,
    parse_fieldspec,
    resolve_field,
    scratch_file,
    split_fields,
    stream_tool,
)

DEFAULT_TAGS = frozenset({"name", "timeStamp", "value", "ref"})


# Each core splits a row with one line.split(" ") and calls split_fields
# only when that left an empty field or the row holds a tab, the test
# split_fields makes itself; the call would cost more than the split.


def select_fields(specs, rows):
    """self: keep exactly the selected fields, in spec order."""
    width = None
    for lineno, line in enumerate(rows, 1):
        fields = line.split(" ")
        if "" in fields or "\t" in line:
            fields = split_fields(line)
        if len(fields) != width:  # positions are resolved once per row width
            picks = [resolve_field(s, len(fields), lineno) - 1 for s in specs]
            width = len(fields)
        yield " ".join([fields[i] for i in picks])


def delete_fields(specs, rows):
    """delf: drop the selected fields, keeping the rest in original order."""
    width = None
    for lineno, line in enumerate(rows, 1):
        fields = line.split(" ")
        if "" in fields or "\t" in line:
            fields = split_fields(line)
        if len(fields) != width:
            drop = {resolve_field(s, len(fields), lineno) - 1 for s in specs}
            keep = [i for i in range(len(fields)) if i not in drop]
            width = len(fields)
        yield " ".join([fields[i] for i in keep])


def delete_rows(spec, literal, rows):
    """delr: drop rows whose selected field equals the literal exactly.

    Rows too short to resolve the spec cannot match and are kept.
    """
    index = spec - 1 if spec > 0 else spec  # NF-k is already a Python index
    for line in rows:
        fields = line.split(" ")
        if "" in fields or "\t" in line:
            fields = split_fields(line)
        try:
            if fields[index] == literal:
                continue
        except IndexError:
            pass
        yield line


def _first_field(line):
    """The first field of a row that starts with a space or a tab, or
    whose first run of non-spaces holds one."""
    fields = split_fields(line)
    return fields[0] if fields else ""


def filter_tags(allowed, rows):
    """Keep rows whose first field is in the allowed tag set."""
    for line in rows:
        tag = line.partition(" ")[0]
        if not tag or "\t" in tag:
            tag = _first_field(line)
        if tag in allowed:
            yield line


def group_number(rows):
    """Number reading groups and re-emit the meter name before each reading.

    Remembers the most recent ``name`` row; every ``timeStamp`` row is
    preceded by a fresh copy of it.  A counter that increments on each
    emitted ``name`` row prefixes every output row, so the meter header
    and each individual reading become separately numbered groups.
    """
    count = 0
    remembered = None
    for lineno, line in enumerate(rows, 1):
        tag = line.partition(" ")[0]
        if not tag or "\t" in tag:
            tag = _first_field(line)
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


MISSING_CELL = "0"


def _parse_cell(line, lineno):
    fields = line.split(" ")
    if "" in fields or "\t" in line:
        fields = split_fields(line)
    if len(fields) < 3:
        raise DataError(f"line {lineno}: pivot cell needs key, label and value")
    return fields[0], fields[1], " ".join(fields[2:])


def _cell_runs(rows, labels=None):
    """Yield (key, {label: value}) for each run of consecutive cells that
    share a key.  A (key, label) pair repeated within its run, or a label
    outside ``labels`` when it is given, is a data error."""
    key = None
    cells = {}
    for lineno, line in enumerate(rows, 1):
        k, label, value = _parse_cell(line, lineno)
        if k != key:
            if key is not None:
                yield key, cells
            key = k
            cells = {}
        if label in cells:
            raise DataError(f"line {lineno}: duplicate cell ({k}, {label})")
        if labels is not None and label not in labels:
            raise DataError(f"line {lineno}: label {label!r} is not in --labels")
        cells[label] = value
    if key is not None:
        yield key, cells


def collect_labels(rows):
    """Pivot pass 1: the sorted union of labels, checking the cells as
    emit_pivot does."""
    labels = set()
    for _, cells in _cell_runs(rows):
        labels.update(cells)
    return sorted(labels)


def emit_pivot(rows, ordered_labels):
    """One wide row per consecutive key run, columns in the given label
    order, absent cells filled with "0".  No header row.  It streams: with
    labels fixed in advance it is the whole pivot, and after collect_labels
    it is pass 2."""
    known = frozenset(ordered_labels)
    for key, cells in _cell_runs(rows, known):
        yield _pivot_row(key, cells, ordered_labels)


def _pivot_row(key, cells, ordered_labels):
    return " ".join([key] + [cells.get(label, MISSING_CELL) for label in ordered_labels])


def pivot(cell_rows):
    """Pivot an in-memory sequence of cell rows (both passes in one call)."""
    cell_rows = list(cell_rows)
    return emit_pivot(iter(cell_rows), collect_labels(iter(cell_rows)))


# --- CLI wrappers -----------------------------------------------------------


def _spec_tool_main(prog, transform, argv):
    usage = f"usage: {prog} <spec>... [file]"

    def rows(args):
        specs = []
        for arg in args:  # leading field specs, then an optional file
            try:
                specs.append(parse_fieldspec(arg))
            except UsageError:
                if not specs:  # name the argument that should have been one
                    raise
                break
        if not specs:
            raise UsageError(f"at least one field spec (N, NF or NF-k) is required\n{usage}")
        return transform(specs, input_rows(optional_file(args[len(specs) :], usage)))

    return stream_tool(prog, usage, argv, rows)


def self_main(argv=None):
    return _spec_tool_main("self", select_fields, argv)


def delf_main(argv=None):
    return _spec_tool_main("delf", delete_fields, argv)


def delr_main(argv=None):
    usage = "usage: delr <spec> <literal> [file]"

    def rows(args):
        if len(args) < 2:
            raise UsageError(usage)
        spec = parse_fieldspec(args[0])
        return delete_rows(spec, args[1], input_rows(optional_file(args[2:], usage)))

    return stream_tool("delr", usage, argv, rows)


def _file_tool_main(prog, transform, argv):
    usage = f"usage: {prog} [file]"

    def rows(args):
        return transform(input_rows(optional_file(args, usage)))

    return stream_tool(prog, usage, argv, rows)


def filter_tags_main(argv=None):
    return _file_tool_main("filter-tags", lambda rows: filter_tags(DEFAULT_TAGS, rows), argv)


def group_number_main(argv=None):
    return _file_tool_main("group-number", group_number, argv)


def map_main(argv=None):
    usage = "usage: map num=1 [--labels a,b,...] [file]"

    def rows(args, labels=None):
        if not args or not args[0].startswith("num="):
            raise UsageError(f"expected num=<k>\n{usage}")
        if args[0] != "num=1":
            raise UsageError("only num=1 is supported")
        path = optional_file(args[1:], usage)
        if labels is None:
            return _pivot_file(path)
        labels = _parse_labels(labels)
        return emit_pivot(input_rows(path), labels)

    return stream_tool("map", usage, argv, rows, options=("labels",))


def _parse_labels(text):
    """``--labels``: a comma-separated list of distinct labels, each one
    field (not empty, no whitespace)."""
    labels = text.split(",")
    for label in labels:
        if label.split() != [label]:
            raise UsageError(f"invalid label {label!r} in --labels {text!r}")
        if labels.count(label) > 1:
            raise UsageError(f"repeated label {label!r} in --labels {text!r}")
    return labels


def _pivot_file(path):
    # Without --labels, two passes are needed for the global label set, so
    # stdin, or a named input that cannot seek (a FIFO, /dev/stdin on a
    # pipe), is spooled to a scratch file first.
    with _seekable_input(path) as f:
        labels = collect_labels(_rows_from_start(f))
        yield from emit_pivot(_rows_from_start(f), labels)


def _rows_from_start(f):
    """One pass over the rows of ``f``; ``f`` stays open for the next."""
    f.seek(0)
    return file_rows(open(f.fileno(), "rb", buffering=0, closefd=False))


def _seekable_input(path):
    f = open_input(path)
    if path != "-" and f.seekable():
        return f
    spool = scratch_file()
    import shutil  # already loaded by tempfile, which scratch_file imports

    with f:
        shutil.copyfileobj(f, spool.buffer)
    return spool
