"""The column-wise trace parser against the row-loop oracle.

Every text either parses to the same rows, node id, columns and serialized
text as ``oracles.RowLoopTraceFile``, or fails with the same
``PhyskeyError`` on the same line.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physkey.channel import family_config, simulate_run
from physkey.errors import PhyskeyError
from physkey.traces import CSV_HEADER, FRAME_TYPES, TraceFile, trace_to_file

from .oracles import RowLoopTraceFile
from .test_fail_closed import row_text, trace_rows

PATH = "t.csv"


def outcome(parse, text):
    try:
        return parse(text, PATH)
    except PhyskeyError as exc:
        return exc


def error_line(exc: PhyskeyError):
    found = re.match(rf"{re.escape(PATH)}:(\d+): ", str(exc))
    return int(found.group(1)) if found else None


def assert_matches_row_loop(text):
    want = outcome(RowLoopTraceFile.parse, text)
    got = outcome(TraceFile.parse, text)
    if isinstance(want, PhyskeyError):
        assert isinstance(got, PhyskeyError) and str(got) == str(want)
    else:
        assert not isinstance(got, PhyskeyError)
        assert got.rows == want.rows
        assert got.serialize() == want.serialize()
        # the oracle keeps every node id; a parsed file holds one, or none without rows
        assert ([] if got.node_id is None else [got.node_id]) == want.node_ids()
        for node_id in want.node_ids():
            t = want.trace(node_id)
            assert got.node_id == t.node_id and got.frame_type == t.frame_type
            assert got.seq.tolist() == t.seqs.tolist() and got.rssi.tolist() == t.levels.tolist()


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
# 19 digits are the widest cell; int64's ends parse, one past them fails
@example(["123456789012345678,a,OBS,-987654321098765432",
          "1234567890123456789,a,OBS,-9876543210987654321"])
@example([f"{2 ** 63 - 1},a,OBS,{-(2 ** 63 - 1)}", f"{-2 ** 63},a,OBS,{-2 ** 63}"])
@example([f"1,a,OBS,{-2 ** 63}", f"2,a,OBS,{2 ** 63 - 1}"])
@example(["1,a,OBS,-1", "00000000000000000001,a,OBS,-2"])  # zero-padded to 20 digits
@example(["1,a,OBS,-1", " \t", "2,a,OBS,-2"])  # a whitespace-only line
@example(["1,a,OBS,0", f"2,a,OBS,{2 ** 63}"])
@example(["1,a,OBS,-"])
@example([",a,OBS,1"])
@example(["1,a,OBS,"])
@example(["-0,a,OBS,007", "00,a,OBS,-00"])
@example(["1,a,OBS,-1\r\n2,a,OBS,-2\r\n"])
@example(["1,a,OBS,-1\r2,a,OBS,x"])
@example(["1,a,OBS,-1\x852,a,OBS,-2", "3,a,OBS,-3\u20284,a,OBS,-4"])
@example(["1,ålice,OBS,-1", "2,ëve,PING,-2", "3,ålice,OBS,-3", "4,ålicé,OBS,-4"])
@example([f"{i},{'ab'[i % 2]},OBS,{-i}" for i in range(9)])
@example(["1,a,OBS,-1", "2,a,OBS,-2", ""])  # a trailing newline; all others end without
@example([f"{-2 ** 63},a,OBS,0", f"{2 ** 63 - 1},a,OBS,0"])  # seq[1] - seq[0] overflows int64
@example(["1,a,OBS,0", "1,a,OBS,0"])  # a repeated seq fails at line 3
def test_matches_row_loop(rows):
    assert_matches_row_loop("\n".join([CSV_HEADER, *rows]))


damaged_rows = st.one_of(row_text, st.integers(2 ** 63, 2 ** 65).map(lambda v: f"1,a,OBS,-{v}"))


@st.composite
def many_rows(draw):
    """Up to 300 rows of one node and one frame type from a drawn seed, seq
    and rssi each up to 1, 7 or 19 digits wide at random and seq strictly
    increasing, and in some texts a few damaged rows inserted among them:
    arbitrary text, an rssi out of range, or a copy of a row with a foreign
    node, a foreign frame type, the same seq or a smaller one right after
    it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(0, 300))
    seq, rssi = (rng.integers(-high, high, endpoint=True).tolist()
                 for high in rng.choice(np.array([9, 10 ** 6, 2 ** 63 - 1]), (2, size)))
    seq = sorted(set(seq))
    node = rng.choice(["alice", "bob", "eve", "ëve", ""])
    frame, other_frame = rng.permutation(FRAME_TYPES)[:2]
    rows = [f"{s},{node},{frame},{r}" for s, r in zip(seq, rssi)]
    well_formed = list(rows)
    for _ in range(draw(st.integers(0, 3))):
        if well_formed and draw(st.booleans()):
            k = draw(st.integers(0, len(well_formed) - 1))
            s, r = seq[k], rssi[k]
            damaged = draw(st.sampled_from([f"{s},mallory,{frame},{r}",
                                            f"{s},{node},{other_frame},{r}",
                                            f"{s},{node},{frame},{r - 1}",
                                            f"{s - 1},{node},{frame},{r}"]))
            rows.insert(rows.index(well_formed[k]) + 1, damaged)
        else:
            rows.insert(draw(st.integers(0, len(rows))), draw(damaged_rows))
    return rows


@settings(deadline=None, max_examples=150)
@given(many_rows())
def test_many_rows_match_row_loop(rows):
    assert_matches_row_loop("\n".join([CSV_HEADER, *rows]) + "\n")


def test_simulated_files_match_row_loop(tmp_path):
    # files of the run_dir channel at the size the analyze walkthrough reads
    run = simulate_run(family_config(levels=9, decay=1.0, spread=0.4, band=2, q=0.02,
                                     n=10_000, seed=3))
    for trace in (run.alice, run.bob, run.eve):
        path = tmp_path / f"{trace.node_id}.csv"
        trace_to_file(trace).save(path)
        text = path.read_text()
        assert text.count("\n") == 10_001
        assert_matches_row_loop(text)


@pytest.mark.parametrize("text, line", [
    (f"{CSV_HEADER}\n 1,alice,PING,-3\n", 2),  # int()'s whitespace
    (f"{CSV_HEADER}\n1,alice,PING,+3\n", 2),  # int()'s sign
    (f"{CSV_HEADER}\n1_0,alice,PING,-3\n", 2),  # int()'s digit separator
    (f"{CSV_HEADER}\n1,alice,PING,\u0663\n", 2),  # a non-ASCII digit
    (f"{CSV_HEADER}\n1,a,OBS,-1\n00000000000000000001,a,OBS,-2\n", 3),
    (f"{CSV_HEADER}\n1,a,OBS,-1\r\n2,a,OBS,-2\r\n", 2),  # parse ends lines at \n only
    (f"{CSV_HEADER}\n1,a,OBS,-1\x852,a,OBS,-2\n", 2),
    (f"{CSV_HEADER}\n1,a,OBS,-1\u20282,a,OBS,-2\n", 2),
    (f"{CSV_HEADER}\n1,a,OBS,-1\n   \n2,a,OBS,-2\n", 3),  # a whitespace-only line
    (f"{CSV_HEADER} \n1,a,OBS,-1\n", None),  # a padded header
])
def test_outside_the_grammar_fails(text, line):
    got = outcome(TraceFile.parse, text)
    assert isinstance(got, PhyskeyError) and error_line(got) == line
    assert_matches_row_loop(text)
