"""Row and column stream operators: self, delf, delr, filter-tags,
group-number and map (the key/label/value pivot), the row tools."""

from .core import (
    DataError,
    UsageError,
    Verbatim,
    asks_usage,
    file_rows,
    input_fields,
    join_rows,
    open_input,
    optional_file,
    parse_fieldspec,
    resolve_field,
    scratch_file,
    split_options,
    split_rows,
    stream_tool,
)

DEFAULT_TAGS = frozenset({"name", "timeStamp", "value", "ref"})


# Each tool runs its core over rows of fields, and the function named after
# what the tool does runs the same core over text rows: split once on the
# way in, joined once on the way out, as the tool itself does.


def self_rows(specs, rows):
    """self: keep exactly the selected fields, in spec order."""
    picks_of = {}  # positions are resolved once per row width
    for lineno, fields in enumerate(rows, 1):
        picks = picks_of.get(len(fields))
        if picks is None:
            picks = [resolve_field(s, len(fields), lineno) - 1 for s in specs]
            picks_of[len(fields)] = picks
        yield [fields[i] for i in picks]


def select_fields(specs, rows):
    """self_rows over text rows."""
    return join_rows(self_rows(specs, split_rows(rows)))


def delf_rows(specs, rows):
    """delf: drop the selected fields, keeping the rest in original order.
    A row left with no fields is a Verbatim, as every empty row is."""
    keeps_of = {}
    for lineno, fields in enumerate(rows, 1):
        keep = keeps_of.get(len(fields))
        if keep is None:
            drop = {resolve_field(s, len(fields), lineno) - 1 for s in specs}
            keep = [i for i in range(len(fields)) if i not in drop]
            keeps_of[len(fields)] = keep
        yield [fields[i] for i in keep] if keep else Verbatim("")


def delete_fields(specs, rows):
    """delf_rows over text rows."""
    return join_rows(delf_rows(specs, split_rows(rows)))


def delr_rows(spec, literal, rows):
    """delr: drop rows whose selected field equals the literal exactly.

    Rows too short to resolve the spec cannot match and are kept.
    """
    index = spec - 1 if spec > 0 else spec  # NF-k is already a Python index
    for fields in rows:
        try:
            if fields[index] == literal:
                continue
        except IndexError:
            pass
        yield fields


def delete_rows(spec, literal, rows):
    """delr_rows over text rows."""
    return join_rows(delr_rows(spec, literal, split_rows(rows)))


def filter_tags_rows(allowed, rows):
    """filter-tags: keep rows whose first field is in the allowed tag set."""
    for fields in rows:
        if fields and fields[0] in allowed:
            yield fields


def filter_tags(allowed, rows):
    """filter_tags_rows over text rows."""
    return join_rows(filter_tags_rows(allowed, split_rows(rows)))


def group_number_rows(rows):
    """group-number: number reading groups and re-emit the meter name before
    each reading.

    Remembers the most recent ``name`` row; every ``timeStamp`` row is
    preceded by a fresh copy of it.  A counter that increments on each
    emitted ``name`` row prefixes every output row, so the meter header
    and each individual reading become separately numbered groups.
    """
    count = 0
    number = ["0"]
    remembered = None
    for lineno, fields in enumerate(rows, 1):
        tag = fields[0] if fields else None
        if tag == "name":
            remembered = fields
            count += 1
            number = [str(count)]
        elif tag == "timeStamp":
            if remembered is None:
                raise DataError(f"line {lineno}: reading before any meter name row")
            count += 1
            number = [str(count)]
            yield number + remembered
        yield number + fields


def group_number(rows):
    """group_number_rows over text rows."""
    return join_rows(group_number_rows(split_rows(rows)))


MISSING_CELL = ["0"]


def _cell_runs(rows, labels=None):
    """Yield (key, {label: value fields}) for each run of consecutive cells
    that share a key.  A (key, label) pair repeated within its run, or a
    label outside ``labels`` when it is given, is a data error."""
    key = None
    cells = {}
    for lineno, fields in enumerate(rows, 1):
        if len(fields) < 3:
            raise DataError(f"line {lineno}: pivot cell needs key, label and value")
        k, label = fields[0], fields[1]
        if k != key:
            if key is not None:
                yield key, cells
            key = k
            cells = {}
        if label in cells:
            raise DataError(f"line {lineno}: duplicate cell ({k}, {label})")
        if labels is not None and label not in labels:
            raise DataError(f"line {lineno}: label {label!r} is not in --labels")
        cells[label] = fields[2:]
    if key is not None:
        yield key, cells


def collect_labels(rows):
    """Pivot pass 1: the sorted union of labels, checking the cells as
    map_rows does."""
    labels = set()
    for _, cells in _cell_runs(rows):
        labels.update(cells)
    return sorted(labels)


def map_rows(rows, ordered_labels):
    """map: one wide row per consecutive key run, columns in the given label
    order, absent cells filled with "0".  No header row.  It streams: with
    labels fixed in advance it is the whole pivot, and after collect_labels
    it is pass 2."""
    known = frozenset(ordered_labels)
    for key, cells in _cell_runs(rows, known):
        row = [key]
        for label in ordered_labels:
            row += cells.get(label, MISSING_CELL)
        yield row


def emit_pivot(rows, ordered_labels):
    """map_rows over text rows."""
    return join_rows(map_rows(split_rows(rows), ordered_labels))


def pivot(cell_rows):
    """Pivot an in-memory sequence of cell rows (both passes in one call)."""
    cell_rows = list(split_rows(cell_rows))
    return join_rows(map_rows(iter(cell_rows), collect_labels(iter(cell_rows))))


# --- the row tools, declared once --------------------------------------------


class RowTool:
    """A row tool, declared once for its CLI and for a fused segment: its
    prog name, usage and options, and ``build(args, **opts)``, which parses
    its arguments and returns ``(path, core)``.  ``path`` is the input it
    reads, ``-`` for stdin; ``core`` is a function of that input's rows of
    fields that returns the generator of the rows of fields it writes.  A
    tool that opens its input itself has the path None, and a core that
    takes no rows; it never fuses."""

    def __init__(self, prog, usage, build, options=()):
        self.prog, self.usage, self.build, self.options = prog, usage, build, options

    def main(self, argv=None):
        """The tool as a process of its own: its core over its input's rows
        of fields, each row joined as it is written."""

        def rows(args, **opts):
            path, core = self.build(args, **opts)
            return join_rows(core(None if path is None else input_fields(path)))

        return stream_tool(self.prog, self.usage, argv, rows, self.options)


def segment_core(argv, rows):
    """``(prog, core)`` for the command ``argv`` in a fused segment, its core
    started on the rows of fields ``rows`` as its stdin; None when the
    command is no row tool, reads other than stdin, asks for its usage, or
    fails to start.  As a process of its own, it reports that itself.
    Building a core parses the command and reads nothing."""
    tool = ROW_TOOLS.get(argv[0])
    if tool is None or asks_usage(argv[1:]):
        return None
    try:
        args, opts = split_options(argv[1:], tool.options, tool.usage)
        path, core = tool.build(args, **opts)
    except UsageError:
        return None
    return (tool.prog, core(rows)) if path == "-" else None


def _spec_tool(prog, core):
    """self and delf: field specs, then an optional file; ``core(specs,
    rows)``."""
    usage = f"usage: {prog} <spec>... [file]"

    def build(args):
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
        return optional_file(args[len(specs) :], usage), lambda rows: core(specs, rows)

    return RowTool(prog, usage, build)


def _file_tool(prog, core):
    """filter-tags and group-number: an optional file."""
    usage = f"usage: {prog} [file]"
    return RowTool(prog, usage, lambda args: (optional_file(args, usage), core))


_DELR_USAGE = "usage: delr <spec> <literal> [file]"


def _build_delr(args):
    if len(args) < 2:
        raise UsageError(_DELR_USAGE)
    spec, literal = parse_fieldspec(args[0]), args[1]
    return optional_file(args[2:], _DELR_USAGE), lambda rows: delr_rows(spec, literal, rows)


_MAP_USAGE = "usage: map num=1 [--labels a,b,...] [file]"


def _build_map(args, labels=None):
    if not args or not args[0].startswith("num="):
        raise UsageError(f"expected num=<k>\n{_MAP_USAGE}")
    if args[0] != "num=1":
        raise UsageError("only num=1 is supported")
    path = optional_file(args[1:], _MAP_USAGE)
    if labels is None:
        return None, lambda _: _pivot_file(path)
    labels = _parse_labels(labels)
    return path, lambda rows: map_rows(rows, labels)


# The row tools by prog name: the ones a stage fuses.  Each passes its rows
# on as it reads them, holding at most one key's cells (map), so a run of
# them chained as generators keeps the stage's overlap.  Each core is looked
# up by name as it starts, not bound here, so one replaced at run time is
# the one that runs.
ROW_TOOLS = {
    tool.prog: tool
    for tool in (
        _spec_tool("self", lambda specs, rows: self_rows(specs, rows)),
        _spec_tool("delf", lambda specs, rows: delf_rows(specs, rows)),
        RowTool("delr", _DELR_USAGE, _build_delr),
        _file_tool("filter-tags", lambda rows: filter_tags_rows(DEFAULT_TAGS, rows)),
        _file_tool("group-number", lambda rows: group_number_rows(rows)),
        RowTool("map", _MAP_USAGE, _build_map, options=("labels",)),
    )
}

self_main = ROW_TOOLS["self"].main
delf_main = ROW_TOOLS["delf"].main
delr_main = ROW_TOOLS["delr"].main
filter_tags_main = ROW_TOOLS["filter-tags"].main
group_number_main = ROW_TOOLS["group-number"].main
map_main = ROW_TOOLS["map"].main


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
        yield from map_rows(_rows_from_start(f), labels)


def _rows_from_start(f):
    """One pass over the rows of fields of ``f``; ``f`` stays open for the
    next."""
    f.seek(0)
    return split_rows(file_rows(open(f.fileno(), "rb", buffering=0, closefd=False)))


def _seekable_input(path):
    f = open_input(path)
    if path != "-" and f.seekable():
        return f
    spool = scratch_file()
    import shutil  # already loaded by tempfile, which scratch_file imports

    with f:
        shutil.copyfileobj(f, spool.buffer)
    return spool
