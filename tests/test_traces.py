import numpy as np
import pytest

from physkey.errors import PhyskeyError
from physkey.traces import (MeasurementTrace, TraceFile, assert_aligned,
                            ingest_traces, make_trace, trace_to_file)

SAMPLE = """seq,node_id,frame_type,rssi
1,alice,PING,-3
2,alice,PING,-4
3,alice,PING,-2
1,eve0,OBS,-5
3,eve0,OBS,-4
"""


class TestTrace:
    def test_strictly_increasing_seq_required(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MeasurementTrace(np.array([1, 1, 2]), np.array([0, 0, 0]), "alice")

    def test_aligned_check(self):
        a = make_trace([0, -1], "alice")
        b = make_trace([0, -1], "bob")
        assert_aligned(a, b)
        c = make_trace([0, -1], "bob", seq_start=5)
        with pytest.raises(ValueError, match="sequence numbers"):
            assert_aligned(a, c)


class TestTraceFile:
    def test_parse(self):
        tf = TraceFile.parse(SAMPLE)
        assert tf.node_ids() == ["alice", "eve0"]
        alice = tf.trace("alice")
        assert np.array_equal(alice.levels, [-3, -4, -2])
        assert alice.frame_type() == "PING"

    def test_round_trip_identity(self):
        tf = TraceFile.parse(SAMPLE)
        assert tf.serialize() == SAMPLE

    def test_serialize_parse_fixpoint(self, rng):
        trace = make_trace(rng.integers(-8, 1, size=40), "bob", frame_type="PONG")
        text = trace_to_file(trace).serialize()
        again = TraceFile.parse(text).trace("bob")
        assert np.array_equal(again.levels, trace.levels)
        assert np.array_equal(again.seqs, trace.seqs)
        assert TraceFile.parse(text).serialize() == text

    def test_missing_header(self):
        with pytest.raises(PhyskeyError, match="header"):
            TraceFile.parse("a,b,c,d\n1,alice,PING,-3\n")

    def test_malformed_row_names_line(self):
        bad = SAMPLE + "oops\n"
        with pytest.raises(PhyskeyError, match=":7"):
            TraceFile.parse(bad)

    def test_bad_frame_type(self):
        bad = "seq,node_id,frame_type,rssi\n1,alice,BEEP,-3\n"
        with pytest.raises(PhyskeyError, match="frame_type"):
            TraceFile.parse(bad)

    def test_non_integer_rssi(self):
        bad = "seq,node_id,frame_type,rssi\n1,alice,PING,x\n"
        with pytest.raises(PhyskeyError, match=":2"):
            TraceFile.parse(bad)


class TestIngest:
    def trio(self):
        return {
            "alice": make_trace([-1, -2, -3], "alice"),          # seqs 0,1,2
            "bob": MeasurementTrace(np.array([1, 2, 3]), np.array([-2, -3, -4]), "bob"),
            "eve": MeasurementTrace(np.array([2]), np.array([-5]), "eve"),
        }

    def test_identical_seq_sets_no_drops(self):
        traces = {"alice": make_trace([-1, -2], "alice"),
                  "bob": make_trace([-1, -1], "bob")}
        aligned, report = ingest_traces(traces)
        assert report["kept"] == 2
        assert report["dropped"] == {"alice": 0, "bob": 0}

    def test_intersection(self):
        aligned, report = ingest_traces(self.trio(), eve_filter=True)
        assert report["kept"] == 1
        assert np.array_equal(aligned["alice"].seqs, [2])
        assert np.array_equal(aligned["bob"].seqs, [2])
        assert np.array_equal(aligned["eve"].seqs, [2])

    def test_without_eve_filter(self):
        aligned, report = ingest_traces(self.trio(), eve_filter=False)
        assert report["kept"] == 2  # alice {0,1,2} & bob {1,2,3}
        assert np.array_equal(aligned["alice"].seqs, [1, 2])
        assert len(aligned["eve"]) == 1  # eve keeps what it saw of the kept set

    def test_clamping_counted(self):
        traces = {"alice": make_trace([-30, -2], "alice"),
                  "bob": make_trace([-1, 4], "bob")}
        aligned, report = ingest_traces(traces, magnitude=8)
        assert report["clamped"] == 2
        assert aligned["alice"].levels.min() == -8
        assert aligned["bob"].levels.max() == 0

    def test_empty_intersection(self):
        traces = {"alice": make_trace([0], "alice", seq_start=0),
                  "bob": make_trace([0], "bob", seq_start=10)}
        with pytest.raises(PhyskeyError, match="empty"):
            ingest_traces(traces)

    def test_requires_alice_and_bob(self):
        with pytest.raises(PhyskeyError, match="requires"):
            ingest_traces({"alice": make_trace([0], "alice")})

    def test_order_insensitive(self):
        t = self.trio()
        a1, _ = ingest_traces(dict(t), eve_filter=True)
        a2, _ = ingest_traces(dict(reversed(list(t.items()))), eve_filter=True)
        for role in t:
            assert np.array_equal(a1[role].levels, a2[role].levels)
