"""Every parser fails closed: malformed bytes or text raise a PhyskeyError.

Each property feeds a parser mutated, truncated or arbitrary input and
accepts exactly two outcomes: a parse, or a domain error.  Anything else
(struct.error, a bare ValueError, IndexError, OverflowError) fails the test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physkey.coding import BchCode, BchSketch, ss_sketch
from physkey.errors import PhyskeyError
from physkey.protocol import Transcript
from physkey.quantize import BitString
from physkey.traces import CSV_HEADER, FRAME_TYPES, MeasurementTrace, TraceFile

FUZZ = settings(deadline=None, max_examples=150)

_rng = np.random.default_rng(7)
BCH_SKETCH = ss_sketch(BitString(_rng.integers(0, 2, size=600)), BchCode(10, 7)).to_bytes()
# the seed of a 16-bit key from the sketch's 600-bit string: t + l - 1 bits
SEED = BitString(_rng.integers(0, 2, size=600 + 16 - 1)).to_hex().encode("ascii")


@st.composite
def damaged(draw, raw: bytes):
    """raw with a few bytes overwritten, then cut or extended."""
    blob = bytearray(raw)
    for _ in range(draw(st.integers(0, 4))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    tail = draw(st.binary(max_size=8)) if draw(st.booleans()) else b""
    return bytes(blob[:cut]) + tail


def parses_or_fails_closed(parse, blob):
    try:
        return parse(blob)
    except PhyskeyError:
        return None


@pytest.mark.parametrize("raw", [BCH_SKETCH], ids=["pooled"])
class TestSketchBytes:
    @FUZZ
    @given(data=st.data())
    def test_damaged_sketch_parses_or_fails_closed(self, raw, data):
        blob = data.draw(damaged(raw))
        sketch = parses_or_fails_closed(BchSketch.from_bytes, blob)
        if sketch is not None:
            # whatever parses is the canonical encoding of what it parsed to
            assert sketch.to_bytes() == blob
        parses_or_fails_closed(BchSketch.byte_length, blob)

    @FUZZ
    @given(data=st.data())
    def test_damaged_transcript_parses_or_fails_closed(self, raw, data):
        blob = data.draw(damaged(raw + SEED))
        parses_or_fails_closed(lambda b: Transcript.from_bytes(b, l=16), blob)


row_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@st.composite
def trace_rows(draw):
    """Rows that are well formed, nearly well formed, or arbitrary text."""
    well_formed = st.builds(
        lambda seq, node, frame, rssi: f"{seq},{node},{frame},{rssi}",
        st.integers(-2 ** 70, 2 ** 70), st.sampled_from(["alice", "bob", "", "a b"]),
        st.sampled_from(FRAME_TYPES + ("ping", "")), st.integers(-2 ** 70, 2 ** 70))
    return draw(st.lists(st.one_of(well_formed, row_text), max_size=6))


class TestTraceText:
    @FUZZ
    @given(trace_rows())
    def test_rows_parse_or_fail_closed(self, rows):
        tf = parses_or_fails_closed(TraceFile.parse, "\n".join([CSV_HEADER, *rows]))
        if tf is not None and tf.node_id is not None:
            # a parsed file is one node's trace, seq strictly increasing
            MeasurementTrace(tf.seq, tf.rssi, tf.node_id, tf.frame_type)

    @FUZZ
    @given(row_text)
    def test_arbitrary_text_parses_or_fails_closed(self, text):
        parses_or_fails_closed(TraceFile.parse, text)
