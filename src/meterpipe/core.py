"""Shared field model, exact decimal values, and the stream-tool CLI contract.

Every tool in the suite reads whitespace-separated text rows from named
files or stdin, writes rows to stdout and diagnostics to stderr, and
exits 0 on success, 1 on usage errors, 2 on data errors.

In a pipeline run every tool runs in a fork of the orchestrator and
inherits its imports: a tool alone, or a run of row tools chained as
generators in one fork, each reporting its errors as it would alone
(``run_segment``).  Each row tool is declared once, in
``tabular.ROW_TOOLS``: its CLI and such a run both build its core from
there.  Row tools pass rows on as lists of fields, so such a run splits
each row once and joins it once.  A tool started alone (``python -m
meterpipe <tool>``) imports this module and its own, so they stay
deliberately light to import: no argparse, no dataclasses, no re.  The
heavier standard modules a tool needs (tempfile, decimal) are imported on
first use; in a pipeline run the orchestrator has imported them before it
forks the tools that use them.
"""

import codecs
import errno
import io
import os
import sys
from itertools import chain

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    """Bad invocation: unknown flag, malformed field spec, missing file."""

    exit_code = EXIT_USAGE


class DataError(Exception):
    """Malformed input data: the stream cannot be processed further."""

    exit_code = EXIT_DATA


def split_fields(line):
    """Split a line into fields on runs of ASCII space and tab."""
    fields = line.split(" ")
    # A row of single spaces, the tools' own output, splits in one call.
    if "" in fields or "\t" in line:
        return [tok for tok in line.replace("\t", " ").split(" ") if tok]
    return fields


# --- rows as field lists ------------------------------------------------------
#
# The row tools' cores take and yield rows as lists of fields.  A row is
# split once where it enters a tool, or a run of them fused in one process,
# and joined once where it leaves.


class Verbatim(list):
    """A row that single spaces do not join back into the text it was read
    as (tabs, runs of spaces, leading or trailing blanks), or that has no
    fields: its fields, and that text, which a core that passes the row on
    writes unchanged.  A core that rebuilds a row from fields makes a
    plain list, which is written joined by single spaces.  An empty row is
    a Verbatim, so that a number put in front of it keeps its space, as
    ``group-number`` writes ``1 `` for it."""

    __slots__ = ("text",)

    def __init__(self, text):
        super().__init__(split_fields(text))
        self.text = text

    def __radd__(self, head):
        """``head + row``: fields put in front, as group-number numbers a
        row, join to the row's text with single spaces, so the text after
        them stays as it was read."""
        return Verbatim(" ".join(head) + " " + self.text)


def split_rows(lines):
    """The entry split: each text row as its list of fields, a Verbatim
    when single spaces do not join the fields back into the row."""
    for line in lines:
        fields = line.split(" ")
        yield Verbatim(line) if "" in fields or "\t" in line else fields


def join_rows(rows):
    """The exit join: each row of fields as the text it is written as."""
    for row in rows:
        yield " ".join(row) if row.__class__ is list else row.text


def _is_digits(text):
    """True for a non-empty run of ASCII digits only (``str.isdigit`` alone
    also accepts digits such as ``²`` and ``٣``)."""
    return text.isascii() and text.isdigit()


def parse_digits(text, what):
    """Parse a run of ASCII digits, such as a field position or a byte
    count; anything else is a UsageError naming ``what``."""
    if not _is_digits(text):
        raise UsageError(f"invalid {what} {text!r}")
    try:
        return int(text)
    except ValueError:  # beyond int()'s limit on decimal digits
        raise UsageError(f"{what} of {len(text)} digits is too long") from None


def _unsigned(text, what):
    """``text`` if it is ASCII digits with an optional ``.digits`` fraction;
    anything else is a UsageError naming ``what``."""
    whole, dot, fraction = text.partition(".")
    if not _is_digits(whole) or (dot and not _is_digits(fraction)):
        raise UsageError(f"invalid {what} {text!r}")
    return text


def parse_ratio(text, what):
    """Parse an unsigned decimal number, such as a ratio, as a float."""
    return float(_unsigned(text, what))


def parse_amount(text, what):
    """Parse an unsigned decimal number, such as a price, exactly."""
    return parse_decimal(_unsigned(text, what))


def parse_fieldspec(text):
    """Parse ``N``, ``NF`` or ``NF-k`` into a signed int: ``N`` itself, or
    ``-(k+1)``, counting from the end as a Python index does (``NF`` is -1)."""
    if text == "NF":
        return -1
    relative = text.startswith("NF-")
    digits = text[3:] if relative else text
    if not _is_digits(digits):
        raise UsageError(f"invalid field spec {text!r} (expected N, NF or NF-k)")
    index = parse_digits(digits, "field spec")
    if relative:
        return -1 - index
    if index < 1:
        raise UsageError(f"invalid field spec {text!r}: index must be >= 1")
    return index


def format_fieldspec(spec):
    """A spec as ``N``, ``NF`` or ``NF-k``: as written, less leading zeros,
    and ``NF-0`` as ``NF``."""
    return str(spec) if spec > 0 else "NF" if spec == -1 else f"NF-{-1 - spec}"


def field_position(spec, nfields):
    """The 1-based position selected by ``spec`` in a row of ``nfields``
    fields, or 0 when the row is too short to have it."""
    pos = spec if spec > 0 else nfields + 1 + spec
    return pos if 1 <= pos <= nfields else 0


def resolve_field(spec, nfields, lineno=None):
    """Return the 1-based position selected by ``spec`` in a row of
    ``nfields`` fields, or raise a DataError naming the line."""
    pos = field_position(spec, nfields)
    if not pos:
        where = "" if lineno is None else f"line {lineno}: "
        text = format_fieldspec(spec)
        raise DataError(f"{where}field {text} does not exist in a {nfields}-field row")
    return pos


_exact = None


def exact_context():
    """The context every decimal is made and worked in: precision and
    exponents at their limits, and rounding an error, so each result is
    exact.  Made on first use, so only the tools that sum import decimal;
    the orchestrator imports it before it forks ``sm2``
    (``meterpipe.__main__._FIRST_USE``)."""
    global _exact
    if _exact is None:
        import decimal

        _exact = decimal.Context(
            prec=decimal.MAX_PREC,
            Emax=decimal.MAX_EMAX,
            Emin=decimal.MIN_EMIN,
            traps=[decimal.Inexact, decimal.Rounded],
        )
    return _exact


def parse_decimal(token, lineno=None):
    """Parse a signed decimal token (``[+-]digits[.digits]``) into an exact
    ``decimal.Decimal``; the scale (trailing zeros included) is kept."""
    body = token[1:] if token.startswith(("-", "+")) else token
    intpart, dot, frac = body.partition(".")
    if _is_digits(intpart) and (_is_digits(frac) or not dot):
        return exact_context().create_decimal(token)
    where = "" if lineno is None else f"line {lineno}: "
    raise DataError(f"{where}malformed decimal value {token!r}")


def format_decimal(value):
    """Format a decimal in plain notation, keeping its scale exactly."""
    return f"{value:f}"


def decimal_add(a, b):
    """Exact sum; the result scale is the larger of the two input scales,
    and a zero sum is unsigned."""
    total = exact_context().add(a, b)
    return total if total else total.copy_abs()


def decimal_mul(a, b):
    """Exact product; scales add, and a zero product is unsigned."""
    product = exact_context().multiply(a, b)
    return product if product else product.copy_abs()


# --- config files -----------------------------------------------------------


def read_config(path, keys):
    """Read a flat key=value file (``#`` comments, blank lines) into a dict.

    A key outside ``keys``, or one given twice, is a UsageError naming it
    and ``path:line``, so a misspelt or repeated setting fails instead of
    silently leaving its default, or its first value, out.
    """
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                key = key.strip()
                if not eq:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                if key not in keys:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                if key in values:
                    raise UsageError(f"{path}:{lineno}: repeated key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError:
        raise UsageError(f"cannot read config {path}: not UTF-8 text") from None
    return values


# --- stream I/O -------------------------------------------------------------

# Tool input/output is UTF-8 with LF row separators.  surrogateescape keeps
# arbitrary bytes round-tripping so pass-through streams stay verbatim.
_TEXT_KW = dict(encoding="utf-8", errors="surrogateescape", newline="\n")

# Input is read this many bytes at a time, one read per block, so rows from
# a pipe flow on as they arrive.  Larger blocks add to every tool's peak RSS.
_BLOCK_SIZE = io.DEFAULT_BUFFER_SIZE


def open_text(file, mode="r"):
    """Open a path or a file descriptor as a tool text stream."""
    return open(file, mode, **_TEXT_KW)


def open_input(path):
    """Open a named file, or fd 0 for ``-``, for unbuffered binary reads.
    Closing fd 0's file object leaves fd 0 open, so a later ``-`` reads on
    from there.  A file that cannot be opened, or a closed fd 0, is a
    UsageError naming it."""
    try:
        if path == "-":
            return open(0, "rb", buffering=0, closefd=False)
        return open(path, "rb", buffering=0)
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc.strerror}") from exc


def input_rows(path):
    """The rows of a named file, or of stdin for ``-``.  The file is opened
    at once, so a missing input fails before any output is opened."""
    return file_rows(open_input(path))


def input_fields(path):
    """The rows of ``input_rows(path)``, each split into its fields
    (``split_rows``)."""
    return split_rows(input_rows(path))


def stdin_fields():
    """The rows of stdin, as ``input_fields("-")`` gives them, but fd 0 is
    opened when the first row is asked for: a core chained in one process
    reads the stdin of the fork that runs it."""
    return split_rows(chain.from_iterable(_stdin_blocks()))


def _stdin_blocks():
    yield from _row_blocks(open_input("-"))


def file_rows(source):
    """The rows of an unbuffered binary file from where it stands, without
    their LF; a single trailing CR is dropped.  ``source`` is read a block
    at a time, and closed at the end."""
    return chain.from_iterable(_row_blocks(source))


def _row_blocks(source):
    """Yield a list of the rows that end in each block read from ``source``,
    then the last row if it has no LF."""
    with source:
        read = source.read
        size = _BLOCK_SIZE
        decode = codecs.getincrementaldecoder(_TEXT_KW["encoding"])(_TEXT_KW["errors"]).decode
        head = []  # the pieces of a row whose LF has not been read yet
        while block := read(size):
            text = decode(block)
            if "\n" not in text:
                head.append(text)
                continue
            if head:
                head.append(text)
                text = "".join(head)
            rows = text.split("\n")
            head = [rows.pop()]
            if "\r" in text:
                rows = [row[:-1] if row[-1:] == "\r" else row for row in rows]
            yield rows
        head.append(decode(b"", True))
        last = "".join(head)
        if last:
            yield [last[:-1] if last[-1] == "\r" else last]


def row_bytes(text):
    """The bytes a row or field was read from, for bytewise ordering."""
    return text.encode(_TEXT_KW["encoding"], _TEXT_KW["errors"])


def scratch_file():
    """An anonymous read/write text file for spills and spools, in the
    system temporary directory (``$TMPDIR`` if set)."""
    # On first use.  No stage tool spools or spills on its normal path: the
    # parse stage's map runs in one pass, and msort spills only past --mem.
    import tempfile

    return tempfile.TemporaryFile("w+", **_TEXT_KW)


def text_stdout():
    """``sys.stdout``, set up as a block-buffered tool text stream.  If fd 1
    was closed when the tool started, the write error comes at once."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    sys.stdout.reconfigure(line_buffering=False, write_through=False, **_TEXT_KW)
    return sys.stdout


# --- the stream-tool CLI contract -------------------------------------------


def run_tool(prog, body):
    """Run a tool body under the uniform CLI contract and return an exit code."""
    try:
        body()
    except (UsageError, DataError) as exc:
        diagnose(f"{prog}: {exc}")
        return exc.exit_code
    except OSError as exc:
        # Downstream closed early (EPIPE), or a write to stdout or a spool
        # failed (EFBIG, ENOSPC, EIO); the rows still buffered go too.
        try:
            if sys.stdout is not None:
                sys.stdout.close()
        except OSError:
            pass
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK  # die quietly like any pipeline filter
        diagnose(f"{prog}: {exc.filename or 'cannot write'}: {exc.strerror}")
        return EXIT_DATA
    return EXIT_OK


def diagnose(line):
    """Write a diagnostic line to stderr.  If stderr cannot take it (fd 2
    is closed), the line is dropped and the exit code alone tells."""
    try:
        if sys.stderr is not None:
            print(line, file=sys.stderr, flush=True)
    except OSError:
        pass


def optional_file(args, usage):
    """The input file named by the one optional trailing argument; ``-``
    (stdin) when there is none."""
    if len(args) > 1:
        raise UsageError(f"unexpected argument {args[1]!r}\n{usage}")
    return args[0] if args else "-"


def split_options(argv, names, usage):
    """Separate the named ``--name v`` / ``--name=v`` options from the
    positional arguments.  An option given twice is a UsageError naming
    it, so neither value is silently dropped."""
    args, opts = [], {}
    rest = iter(argv)
    for arg in rest:
        name, eq, value = arg[2:].partition("=")
        if not arg.startswith("--") or name not in names:
            args.append(arg)
            continue
        if name in opts:
            raise UsageError(f"repeated option --{name}\n{usage}")
        if not eq:
            value = next(rest, None)
            if value is None:
                raise UsageError(f"--{name} needs a value\n{usage}")
        opts[name] = value
    return args, opts


def stream_tool(prog, usage, argv, rows_of, options=()):
    """Run one stream tool under the CLI contract; returns the exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  ``-h`` or ``--help`` prints the
    usage only as the first argument (``asks_usage``); anywhere else it is
    data.  Each name in ``options`` is taken as ``--name v`` or
    ``--name=v``.  ``rows_of`` gets the positional arguments, plus the
    options given as keywords, and returns the text rows, which go to a
    buffered stdout flushed at the end.
    """
    argv = sys.argv[1:] if argv is None else argv
    if asks_usage(argv):
        print(usage)
        return EXIT_OK

    def body():
        args, opts = split_options(argv, options, usage)
        out = text_stdout()
        _write_rows(out, rows_of(args, **opts))

    return run_tool(prog, body)


def asks_usage(argv):
    """True when the first argument is ``-h`` or ``--help``."""
    return bool(argv) and argv[0] in ("-h", "--help")


def _write_rows(out, rows):
    write = out.write
    try:
        for row in rows:
            write(row + "\n")
    finally:
        out.flush()


# --- row tools chained in one process -----------------------------------------


def run_segment(cores, failed):
    """Run chained cores, each reading the one before it, as one tool: the
    last one's rows, joined once here, go to stdout under the CLI contract,
    and the exit code is returned.  Between the cores rows stay lists of
    fields, split once where the first core reads them.  An error is
    reported as the core that raised it reports it as a process of its
    own.  That core is the innermost one whose generator frame is on the
    traceback, so no core is wrapped and nothing is spent per row; when
    none is, the error is a failed write, and belongs to the last core,
    whose output it is.  ``failed`` gets that core's index in ``cores``
    before the error is reported."""
    frames = [core.gi_frame for _, core in cores]
    try:
        _write_rows(text_stdout(), join_rows(cores[-1][1]))
    except BaseException as exc:
        error = exc
    else:
        return EXIT_OK
    index = len(cores) - 1
    tb = error.__traceback__
    while tb is not None:
        if tb.tb_frame in frames:
            index = frames.index(tb.tb_frame)
        tb = tb.tb_next
    failed(index)

    def reraise():
        raise error

    return run_tool(cores[index][0], reraise)
