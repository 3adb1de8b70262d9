import random
import re
import xml.etree.ElementTree as ET

import pytest

from conftest import ELEMENT_PATH, SAMPLE_FLAT_ROWS, SAMPLE_XML
from meterpipe.core import DataError, UsageError
from meterpipe.xmlflat import flatten_bytes, flatten_stream, parse_element_path


def flatten_oracle(doc_bytes, path):
    """Reference flattener: DOM-parse one document, enumerate leaves and
    attributes in document order under each matched path instance."""
    components = path.strip("/").split("/")
    root = ET.fromstring(doc_bytes)
    rows = []

    def emit(elem, elem_path):
        for name, value in elem.attrib.items():
            value = value.replace("\r", " ").replace("\n", " ")
            rows.append(" ".join(elem_path) + f" {name} {value}")
        children = list(elem)
        if children:
            for child in children:
                emit(child, elem_path + [child.tag])
        else:
            text = elem.text or ""
            if text and not text.isspace():
                text = text.replace("\r", " ").replace("\n", " ")
                rows.append(" ".join(elem_path) + " " + text)

    if root.tag == components[0]:
        level = [root]
        for comp in components[1:]:
            level = [child for el in level for child in el if child.tag == comp]
        for match in level:
            emit(match, components)
    return rows


def chunked_flatten(data, path, chunk_size):
    rows = []
    pos = 0

    def read_chunk():
        nonlocal pos
        chunk = data[pos : pos + chunk_size]
        pos += len(chunk)
        return chunk

    flatten_stream(read_chunk, parse_element_path(path), rows.append)
    return rows


class TestGoldenDocument:
    def test_flattens_to_the_twelve_reference_rows(self):
        rows = flatten_bytes(SAMPLE_XML.encode(), ELEMENT_PATH)
        assert rows == SAMPLE_FLAT_ROWS

    def test_matches_dom_oracle(self):
        rows = flatten_bytes(SAMPLE_XML.encode(), ELEMENT_PATH)
        assert rows == flatten_oracle(SAMPLE_XML.encode(), ELEMENT_PATH)

    def test_row_count_is_text_leaves_plus_attributes(self):
        # 11 text-only leaf elements + 1 attribute... the sample has 8 text
        # leaves (name, description, name, 3x timeStamp interleaved with
        # 3x value) and 3 ref attributes, 12 rows total with the meter block.
        rows = flatten_bytes(SAMPLE_XML.encode(), ELEMENT_PATH)
        assert len(rows) == 12

    def test_unmatched_root_yields_no_rows(self):
        assert flatten_bytes(SAMPLE_XML.encode(), "/Other/MeterReading") == []
        assert flatten_bytes(SAMPLE_XML.encode(), "/MeterReadings/Nope") == []

    def test_whitespace_between_tags_is_insignificant(self):
        minified = re.sub(rb">\s+<", b"><", SAMPLE_XML.encode())
        assert flatten_bytes(minified, ELEMENT_PATH) == SAMPLE_FLAT_ROWS


class TestConcatenatedDocuments:
    def test_two_copies_emit_rows_twice_in_order(self):
        data = SAMPLE_XML.encode() * 2
        assert flatten_bytes(data, ELEMENT_PATH) == SAMPLE_FLAT_ROWS * 2

    def test_declarations_between_documents(self):
        doc = b"<?xml version='1.0' encoding='UTF-8'?>\n" + SAMPLE_XML.encode()
        assert flatten_bytes(doc * 3, ELEMENT_PATH) == SAMPLE_FLAT_ROWS * 3

    def test_boundary_is_chunk_size_independent(self):
        data = (b"<?xml version='1.0'?>" + SAMPLE_XML.encode()) * 3
        expected = SAMPLE_FLAT_ROWS * 3
        for chunk_size in (1, 7, 64, 1024, len(data)):
            assert chunked_flatten(data, ELEMENT_PATH, chunk_size) == expected

    def test_boundary_token_longer_than_a_chunk(self):
        # Everything fed since the root closed is kept, so the next
        # document's first token may span any number of chunks.
        doc = SAMPLE_XML.encode()
        data = doc * 2 + b'<?xml version="1.0"' + b" " * 150_000 + b"?>" + doc
        assert flatten_bytes(data, ELEMENT_PATH) == SAMPLE_FLAT_ROWS * 3
        for chunk_size in (1000, 4096):
            assert chunked_flatten(data, ELEMENT_PATH, chunk_size) == SAMPLE_FLAT_ROWS * 3

    def test_mixed_roots_contribute_only_matching_documents(self):
        data = SAMPLE_XML.encode() + b"<Other><a>1</a></Other>" + SAMPLE_XML.encode()
        assert flatten_bytes(data, ELEMENT_PATH) == SAMPLE_FLAT_ROWS * 2


class TestLeafRules:
    def test_empty_elements_emit_no_row(self):
        doc = b"<A><B><x/><y></y><z>  </z></B></A>"
        assert flatten_bytes(doc, "/A/B") == []

    def test_text_is_verbatim_including_inner_whitespace(self):
        doc = b"<A><B><t>one  two</t><u> padded </u></B></A>"
        assert flatten_bytes(doc, "/A/B") == ["A B t one  two", "A B u  padded "]

    def test_newlines_in_text_become_spaces(self):
        doc = b"<A><B><t>line1\nline2</t></B></A>"
        assert flatten_bytes(doc, "/A/B") == ["A B t line1 line2"]

    def test_line_breaks_in_attribute_values_become_spaces(self):
        # Literal line breaks in a value are normalized by the parser;
        # character references reach the flattener as CR and LF.
        doc = b'<A><B ref="a&#10;b&#13;&#10;c&#13;" n="x\ny"><t k="&#10;">x</t></B></A>'
        assert flatten_bytes(doc, "/A/B") == ["A B ref a b  c ", "A B n x y", "A B t k  ", "A B t x"]

    def test_mixed_content_emits_no_text_row(self):
        doc = b"<A><B>stray<t>x</t>tail</B></A>"
        assert flatten_bytes(doc, "/A/B") == ["A B t x"]

    def test_entities_are_decoded(self):
        doc = b"<A><B><t>a &amp; b &lt;c&gt;</t></B></A>"
        assert flatten_bytes(doc, "/A/B") == ["A B t a & b <c>"]

    def test_cdata_is_verbatim(self):
        doc = b"<A><B><t><![CDATA[<raw & data>]]></t></B></A>"
        assert flatten_bytes(doc, "/A/B") == ["A B t <raw & data>"]

    def test_attribute_rows_follow_document_order(self):
        doc = b'<A><B a="1" b="2"><t c="3">x</t></B></A>'
        assert flatten_bytes(doc, "/A/B") == [
            "A B a 1",
            "A B b 2",
            "A B t c 3",
            "A B t x",
        ]

    def test_attributes_on_the_matched_element_itself(self):
        doc = b'<A><B id="7"><t>x</t></B></A>'
        assert flatten_bytes(doc, "/A/B") == ["A B id 7", "A B t x"]

    def test_namespace_prefixes_kept_as_written(self):
        doc = b'<m:A xmlns:m="urn:x"><m:B><m:t>x</m:t></m:B></m:A>'
        assert flatten_bytes(doc, "/m:A/m:B") == ["m:A m:B m:t x"]
        assert flatten_bytes(doc, "/m:A") == [
            "m:A xmlns:m urn:x",
            "m:A m:B m:t x",
        ]

    def test_match_must_start_at_root(self):
        # The path is absolute: a deeper element with the same names does
        # not match.
        doc = b"<X><A><B><t>x</t></B></A></X>"
        assert flatten_bytes(doc, "/A/B") == []


class TestErrors:
    def test_malformed_xml_reports_byte_offset(self):
        with pytest.raises(DataError, match=r"byte \d+"):
            flatten_bytes(b"<a><b></a>", "/a")

    def test_offset_is_global_across_documents(self):
        first = SAMPLE_XML.encode()
        data = first + b"<a><b></a>"
        with pytest.raises(DataError) as err:
            flatten_bytes(data, ELEMENT_PATH)
        offset = int(re.search(r"byte (\d+)", str(err.value)).group(1))
        assert offset >= len(first)

    def test_truncated_document(self):
        with pytest.raises(DataError):
            flatten_bytes(b"<a><b>unfinished", "/a")

    def test_empty_input(self):
        with pytest.raises(DataError, match="no XML document"):
            flatten_bytes(b"", "/a")
        with pytest.raises(DataError, match="no XML document"):
            flatten_bytes(b"   \n  ", "/a")

    def test_trailing_garbage_after_last_document(self):
        with pytest.raises(DataError):
            flatten_bytes(b"<a><t>x</t></a>not xml", "/a")

    @pytest.mark.parametrize(
        "after, message",
        [
            # A malformed second document: the end tag does not match.
            (
                b'<?xml version="1.0"?>\n<MeterReadings><MeterReading></MeterReadings>',
                "mismatched tag",
            ),
            (b"\nnot xml", "syntax error"),  # junk after the last document
        ],
    )
    def test_error_is_chunk_size_independent(self, after, message):
        first = SAMPLE_XML.encode()
        data = first + after
        if message == "mismatched tag":
            offset = data.index(b"</MeterReadings>", len(first)) + 2
        else:
            offset = len(first) + 1
        for chunk_size in (1, 7, 65536):
            with pytest.raises(DataError) as err:
                chunked_flatten(data, ELEMENT_PATH, chunk_size)
            assert str(err.value) == f"malformed XML at byte {offset}: {message}"

    @pytest.mark.parametrize("bad", ["relative/path", "", "/", "/a b/c", "//x"])
    def test_bad_paths_are_usage_errors(self, bad):
        with pytest.raises(UsageError):
            parse_element_path(bad)


def random_document(rng, max_depth=4):
    """A small random XML document with known structure for oracle checks."""
    names = ["alpha", "beta", "gamma", "delta", "eps"]

    def build(depth):
        name = rng.choice(names)
        attrs = {
            f"k{i}": f"v{rng.randrange(100)}" for i in range(rng.randrange(3))
        }
        attr_text = "".join(f' {k}="{v}"' for k, v in attrs.items())
        if depth >= max_depth or rng.random() < 0.4:
            text = rng.choice(["", "plain", "two words", "1.5", "  "])
            return f"<{name}{attr_text}>{text}</{name}>"
        children = "".join(build(depth + 1) for _ in range(rng.randrange(1, 4)))
        return f"<{name}{attr_text}>{children}</{name}>"

    return f"<Root><Node>{build(0)}</Node></Root>".encode()


class TestOracleEquivalence:
    def test_random_documents_match_dom_oracle(self):
        rng = random.Random(20210308)
        for _ in range(60):
            doc = random_document(rng)
            assert flatten_bytes(doc, "/Root/Node") == flatten_oracle(
                doc, "/Root/Node"
            ), doc

    def test_random_concatenations_match_per_document_oracle(self):
        rng = random.Random(99)
        for _ in range(20):
            docs = [random_document(rng) for _ in range(rng.randrange(1, 5))]
            expected = []
            for doc in docs:
                expected.extend(flatten_oracle(doc, "/Root/Node"))
            data = b"".join(docs)
            assert flatten_bytes(data, "/Root/Node") == expected
            assert chunked_flatten(data, "/Root/Node", 13) == expected
