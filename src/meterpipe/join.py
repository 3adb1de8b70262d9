"""cjoin1: hash-join a transaction stream against an in-memory master file.

Matching rows gain the master payload right after the key field and go to
stdout; non-matching rows pass through verbatim to a reject target (a file
path or an inherited file descriptor, mirroring shell ``3>`` redirection).
"""

from .core import (
    DataError,
    UsageError,
    diagnose,
    input_rows,
    open_text,
    optional_file,
    parse_digits,
    parse_fieldspec,
    resolve_field,
    split_fields,
    stream_tool,
)


def load_master(rows):
    """Map each master key (field 1) to its payload fields; keys must be
    unique and payload widths uniform."""
    entries = {}
    width = None
    for lineno, line in enumerate(rows, 1):
        fields = split_fields(line)
        if len(fields) < 2:
            raise DataError(f"master line {lineno}: need a key and a payload")
        key, payload = fields[0], fields[1:]
        if key in entries:
            raise DataError(f"master line {lineno}: duplicate key {key!r}")
        if width is None:
            width = len(payload)
        elif len(payload) != width:
            raise DataError(
                f"master line {lineno}: payload width {len(payload)} != {width}"
            )
        entries[key] = payload
    return entries


def hash_join(key_spec, master, rows):
    """Yield (matched, output_line) pairs in input order.

    Matched rows are re-joined fields with the payload spliced in after
    the key; unmatched rows are the original line, untouched.
    """
    width = None
    for lineno, line in enumerate(rows, 1):
        fields = line.split(" ")
        if "" in fields or "\t" in line:  # split_fields' own test, inline
            fields = split_fields(line)
        if len(fields) != width:  # the key is resolved once per row width
            pos = resolve_field(key_spec, len(fields), lineno)
            width = len(fields)
        payload = master.get(fields[pos - 1])
        if payload is None:
            yield False, line
        else:
            fields[pos:pos] = payload
            yield True, " ".join(fields)


def _open_reject(target):
    if target.startswith("&"):
        try:
            fd = parse_digits(target[1:], "reject descriptor")
        except UsageError:
            raise UsageError(
                f"bad reject target {target!r}: expected &N or a path"
            ) from None
        try:
            return open_text(fd, "w")
        except OSError as exc:
            raise UsageError(f"reject descriptor {fd} is not open: {exc}") from exc
    try:
        return open_text(target, "w")
    except OSError as exc:
        raise UsageError(f"cannot open reject file {target}: {exc.strerror}") from exc


def _split_matches(joined, reject):
    """Yield the matched rows; send the rest to ``reject``, or count them
    and warn on stderr when there is no reject target."""
    dropped = 0
    try:
        for matched, line in joined:
            if matched:
                yield line
            elif reject is not None:
                reject.write(line + "\n")
            else:
                dropped += 1
    finally:
        if reject is not None:
            reject.close()
    if dropped:
        diagnose(f"cjoin1: warning: {dropped} unmatched row(s) discarded (no --reject target)")


def main(argv=None):
    usage = "usage: cjoin1 [--reject <path|&N>] key=<spec> <masterfile> [txnfile|-]"

    def rows(args, reject=None):
        if len(args) < 2:
            raise UsageError(usage)
        if not args[0].startswith("key="):
            raise UsageError(f"expected key=<spec>, got {args[0]!r}")
        key_spec = parse_fieldspec(args[0][4:])
        # Both inputs are opened before the reject target, so a missing
        # input leaves an existing reject file as it was.
        master = load_master(input_rows(args[1]))
        txn = input_rows(optional_file(args[2:], usage))
        reject_file = None if reject is None else _open_reject(reject)
        return _split_matches(hash_join(key_spec, master, txn), reject_file)

    return stream_tool("cjoin1", usage, argv, rows, options=("reject",))
