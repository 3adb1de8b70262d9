"""xmldir: flatten XML files into path-prefixed text rows.

For every element whose root path matches the requested absolute path,
each text-only descendant element becomes one row (path components then
the text) and each attribute becomes one row (path components including
the owning element, then the attribute name and value).  Each CR or LF in
a text or an attribute value becomes a space, so that one row holds it.
Rows come out in document order.

Each named file is parsed on its own, in order, and an error names it.
Stdin may hold any number of well-formed documents back to back, as
produced by concatenating files; parser state resets at each new root.
"""

from xml.parsers import expat

from .core import (
    DataError,
    UsageError,
    open_input,
    stream_tool,
    text_stdout,
)

_CHUNK_SIZE = 64 * 1024

# Error codes that mark the start of the next concatenated document once a
# root element has closed: raw junk, or a fresh <?xml ...?> declaration.
_BOUNDARY_CODES = frozenset(
    expat.errors.codes[msg]
    for msg in (
        expat.errors.XML_ERROR_JUNK_AFTER_DOC_ELEMENT,
        expat.errors.XML_ERROR_MISPLACED_XML_PI,
    )
)


class _DocFlattener:
    """Expat handlers for one document; emits rows for one match subtree.

    Only the innermost open element can still be a text-only leaf, so one
    flag and one text buffer serve every depth.
    """

    __slots__ = (
        "parser",
        "target",
        "emit",
        "names",
        "leaf",
        "text",
        "match_depth",
        "started",
        "root_end",
    )

    def __init__(self, target, emit):
        self.target = target
        self.emit = emit
        self.names = []
        self.leaf = False
        self.text = []
        self.match_depth = None
        self.started = False
        self.root_end = None  # where the root's end tag starts, once seen
        parser = expat.ParserCreate()
        if hasattr(parser, "SetReparseDeferralEnabled"):  # expat >= 2.6
            # Each Parse call must parse all it can: flatten_stream keeps
            # only the bytes fed since the root closed.
            parser.SetReparseDeferralEnabled(False)
        parser.buffer_text = True
        parser.ordered_attributes = True
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end
        parser.CharacterDataHandler = self._chars
        self.parser = parser

    def _start(self, name, attrs):
        names = self.names
        self.started = True
        names.append(name)
        self.leaf = True
        self.text = []
        if self.match_depth is None and names == self.target:
            self.match_depth = len(names)
        if self.match_depth is not None and attrs:
            prefix = " ".join(names)
            emit = self.emit
            for i in range(0, len(attrs), 2):
                value = attrs[i + 1]
                if "\n" in value or "\r" in value:  # as in leaf text
                    value = value.replace("\r", " ").replace("\n", " ")
                emit(f"{prefix} {attrs[i]} {value}")

    def _chars(self, data):
        if self.match_depth is not None and self.leaf:
            self.text.append(data)

    def _end(self, name):
        names = self.names
        if self.match_depth is not None:
            if self.leaf:
                text = "".join(self.text)
                if text and not text.isspace():
                    if "\n" in text or "\r" in text:
                        # Keep one row per leaf: embedded line breaks would
                        # split the record.
                        text = text.replace("\r", " ").replace("\n", " ")
                    self.emit(" ".join(names) + " " + text)
            if len(names) == self.match_depth:
                self.match_depth = None
        names.pop()
        self.leaf = False  # the parent has a child now
        if not names:
            self.root_end = self.parser.CurrentByteIndex


def parse_element_path(text):
    """Parse an absolute /A/B/... element path into its components."""
    if not text.startswith("/"):
        raise UsageError(f"element path must be absolute: {text!r}")
    components = text.split("/")[1:]
    if not components or any(not c or " " in c or "\t" in c for c in components):
        raise UsageError(f"invalid element path: {text!r}")
    return components


def flatten_stream(read_chunk, target, emit):
    """Drive expat over concatenated documents, emitting rows via ``emit``.

    ``read_chunk()`` returns the next byte chunk, empty at end of input.
    Raises DataError with the global byte offset on malformed XML.
    """
    doc = _DocFlattener(target, emit)
    base = 0  # global offset of the current parser's first byte
    documents = 0
    chunk = read_chunk()
    fed = len(chunk)  # bytes fed to the current parser, this chunk included
    tail = bytearray(chunk)  # the bytes fed since the root element closed
    while True:
        final = not chunk
        try:
            doc.parser.Parse(chunk, final)
        except expat.ExpatError as exc:
            if not final and doc.root_end is not None and exc.code in _BOUNDARY_CODES:
                # Document boundary: restart a fresh parser at the junk byte.
                err_index = doc.parser.ErrorByteIndex
                del tail[: err_index - (fed - len(tail))]
                chunk = bytes(tail)
                fed = len(chunk)
                documents += 1
                base += err_index
                doc = _DocFlattener(target, emit)
                continue
            if final and not doc.started and documents == 0:
                raise DataError("no XML document found in input") from exc
            offset = base + doc.parser.ErrorByteIndex
            message = expat.errors.messages.get(exc.code, "parse error")
            raise DataError(f"malformed XML at byte {offset}: {message}") from exc
        if final:
            if doc.root_end is not None:
                documents += 1
            elif documents == 0:
                raise DataError("no XML document found in input")
            return documents
        # The next document can only start after the root's end tag.
        keep_from = fed if doc.root_end is None else doc.root_end
        del tail[: max(0, keep_from - (fed - len(tail)))]
        chunk = read_chunk()
        tail += chunk
        fed += len(chunk)


def flatten_bytes(data, path):
    """Flatten one in-memory byte stream; returns the rows as a list."""
    target = parse_element_path(path)
    rows = []
    stream = memoryview(data)
    pos = 0

    def read_chunk():
        nonlocal pos
        chunk = bytes(stream[pos : pos + _CHUNK_SIZE])
        pos += len(chunk)
        return chunk

    flatten_stream(read_chunk, target, rows.append)
    return rows


def main(argv=None):
    usage = "usage: xmldir <absolute-element-path> [file|-]..."

    def rows(args):
        if not args:
            raise UsageError(usage)
        target = parse_element_path(args[0])
        write = text_stdout().write

        def emit(row):
            write(row + "\n")

        # expat pushes rows as it parses, so they are written here as they
        # come.  The bytes are read unbuffered: a buffered or text stream
        # costs more to set up than a small corpus file takes to read.
        for path in args[1:] or ["-"]:
            with open_input(path) as source:
                read = source.read
                try:
                    flatten_stream(lambda: read(_CHUNK_SIZE), target, emit)
                except DataError as exc:
                    if path == "-":
                        raise
                    raise DataError(f"{path}: {exc}") from exc
        return ()

    return stream_tool("xmldir", usage, argv, rows)
