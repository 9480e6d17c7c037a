"""The column-wise trace parser against the row-loop oracle.

Every text either parses to the same rows, node ids, traces and serialized
text as ``oracles.RowLoopTraceFile``, or fails with a ``PhyskeyError`` on
the same line.  One difference is intended: a seq or rssi that does not fit
in 64 bits fails at parse, on its own line, where the row loop accepted it
and only ``trace`` failed.
"""

import re

from hypothesis import example, given, settings

from physkey.errors import PhyskeyError
from physkey.traces import CSV_HEADER, TraceFile

from .oracles import RowLoopTraceFile
from .test_fail_closed import trace_rows

PATH = "t.csv"


def outcome(parse, text):
    try:
        return parse(text, PATH)
    except PhyskeyError as exc:
        return exc


def error_line(exc: PhyskeyError):
    found = re.match(rf"{re.escape(PATH)}:(\d+): ", str(exc))
    return int(found.group(1)) if found else None


def first_overflow_line(text: str):
    """The first line of four cells with integer seq and rssi, one of them
    outside int64."""
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            continue
        try:
            values = int(parts[0]), int(parts[3])
        except ValueError:
            continue
        if not all(-2 ** 63 <= v < 2 ** 63 for v in values):
            return lineno
    return None


def trace_outcome(tf, node_id):
    try:
        t = tf.trace(node_id)
    except (PhyskeyError, ValueError) as exc:
        return type(exc), str(exc)
    return t.node_id, t.seqs.tolist(), t.levels.tolist(), t.frame_type


@settings(deadline=None, max_examples=400)
@given(trace_rows())
@example(["1,a,PING,2,3,b,PING", "4"])  # cells balance across two bad rows
@example(["1,alice,PING,-3", "", "   ", "2,alice,PING,-4"])
@example([" 1,alice,PING,+3", "1_0,alice,PING,٣", "007,alice,PING,-0"])
@example(["1000000000000000000,a,OBS,-9223372036854775808", "-5,a,OBS,0"])
@example([f"{2 ** 63},alice,PING,0"])
@example(["1,alice,PING,0", f"2,alice,PING,{-2 ** 63 - 1}", "3,alice,BEEP,0"])
@example(["1,alice,PING,0", "1,alice,PING,-1", "0,bob,PONG,-2"])
@example([])
def test_matches_row_loop(rows):
    text = "\n".join([CSV_HEADER, *rows])
    want = outcome(RowLoopTraceFile.parse, text)
    got = outcome(TraceFile.parse, text)
    overflow = first_overflow_line(text)
    want_line = error_line(want) if isinstance(want, PhyskeyError) else None
    if overflow is not None and (want_line is None or overflow < want_line):
        assert isinstance(got, PhyskeyError) and error_line(got) == overflow
        assert "does not fit in 64 bits" in str(got)
    elif want_line is not None:
        assert isinstance(got, PhyskeyError) and str(got) == str(want)
    else:
        assert not isinstance(got, PhyskeyError)
        assert len(got.rows) == len(want.rows)
        assert got.serialize() == want.serialize()
        assert got.node_ids() == want.node_ids()
        for node_id in want.node_ids():
            assert trace_outcome(got, node_id) == trace_outcome(want, node_id)
