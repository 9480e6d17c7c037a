import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physkey.errors import PhyskeyError
from physkey.traces import (CSV_HEADER, FRAME_TYPES, MeasurementTrace, TraceFile,
                            assert_aligned, ingest_traces, load_trace, make_trace,
                            trace_to_file)

from .oracles import intersecting_ingest

SAMPLE = """seq,node_id,frame_type,rssi
1,alice,PING,-3
2,alice,PING,-4
3,alice,PING,-2
5,alice,PING,-5
7,alice,PING,-4
"""


class TestTrace:
    def test_strictly_increasing_seq_required(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MeasurementTrace(np.array([1, 1, 2]), np.array([0, 0, 0]), "alice")

    def test_aligned_check(self):
        a = make_trace([0, -1], "alice")
        b = make_trace([0, -1], "bob")
        assert_aligned(a, b)
        c = MeasurementTrace([5, 6], [0, -1], "bob")
        with pytest.raises(ValueError, match="sequence numbers"):
            assert_aligned(a, c)


class TestIntegerSamples:
    """Levels and seqs are checked before their int64 cast, which would cut
    1.7 to 1 and read the string '3' as 3; the error names the first sample."""

    @pytest.mark.parametrize("build, message", [
        (lambda: make_trace([1.7, -0.5]), "level at sample 0 is not an int64 integer: 1.7"),
        (lambda: make_trace([0, -1, np.nan]), "level at sample 2 is not an int64 integer: nan"),
        (lambda: make_trace([0, np.inf]), "level at sample 1 is not an int64 integer: inf"),
        (lambda: make_trace(["3"]),
         "level at sample 0 is '3': <U1 arrays hold no int64 integers"),
        (lambda: make_trace([True, False]),
         "level at sample 0 is True: bool arrays hold no int64 integers"),
        (lambda: make_trace([1, 2 ** 70]),
         "level at sample 0 is 1: object arrays hold no int64 integers"),
        (lambda: MeasurementTrace([0.5, 1.5], [0, -1]),
         "seq at sample 0 is not an int64 integer: 0.5"),
        (lambda: MeasurementTrace(np.array([1, 2 ** 64 - 1], dtype=np.uint64), [0, -1]),
         "seq at sample 1 is not an int64 integer: 18446744073709551615"),
        (lambda: MeasurementTrace([0, 1], [0, 2.0 ** 63]),
         "level at sample 1 is not an int64 integer: 9.223372036854776e+18"),
    ])
    def test_refused_by_name(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("levels", [
        [0, -3, 2], np.array([0, -3, 2], dtype=np.int8), np.array([0, 3, 2], dtype=np.uint32),
        np.array([0.0, -3.0, 2.0]), np.array([-2.0 ** 63, 0.0])])
    def test_whole_numbers_load(self, levels):
        trace = make_trace(levels)
        assert trace.levels.dtype == np.int64 and trace.seqs.dtype == np.int64
        assert trace.levels.tolist() == np.asarray(levels).astype(np.int64).tolist()

    def test_empty_trace_loads(self):
        assert len(make_trace([])) == 0

    def test_copies_its_input(self):
        levels = np.array([0, -1, -2])
        trace = make_trace(levels)
        levels[0] = -5
        assert trace.levels.tolist() == [0, -1, -2]


class TestTraceFile:
    def test_parse(self):
        tf = TraceFile.parse(SAMPLE)
        assert (tf.node_id, tf.frame_type) == ("alice", "PING")
        assert np.array_equal(tf.seq, [1, 2, 3, 5, 7])
        assert np.array_equal(tf.rssi, [-3, -4, -2, -5, -4])

    @pytest.mark.parametrize("row, line", [
        ("2,eve0,PING,-1", 3),  # a second node id
        ("4,alice,PONG,-1", 5),  # a second frame type
        ("7,alice,PING,-1", 7),  # a repeated seq
        ("2,alice,PING,-1", 5),  # a smaller seq
    ])
    def test_second_node_frame_or_unordered_seq_fails(self, row, line):
        lines = SAMPLE.splitlines()
        lines.insert(line - 1, row)
        with pytest.raises(PhyskeyError, match=f"^t.csv:{line}: row {row!r} is not "):
            TraceFile.parse("\n".join(lines), "t.csv")

    def test_int64_ends_are_increasing(self):
        # seq[1:] - seq[:-1] would wrap to -1 here
        tf = TraceFile.parse(f"{CSV_HEADER}\n{-2 ** 63},a,OBS,0\n{2 ** 63 - 1},a,OBS,-1\n")
        assert tf.seq.tolist() == [-2 ** 63, 2 ** 63 - 1]

    def test_round_trip_identity(self):
        tf = TraceFile.parse(SAMPLE)
        assert tf.serialize() == SAMPLE

    def test_serialize_parse_fixpoint(self, rng):
        trace = make_trace(rng.integers(-8, 1, size=40), "bob", frame_type="PONG")
        text = trace_to_file(trace).serialize()
        again = TraceFile.parse(text)
        assert np.array_equal(again.rssi, trace.levels)
        assert np.array_equal(again.seq, trace.seqs)
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

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_file_loads_as_its_lf_twin(self, tmp_path, newline):
        # load reads with universal newlines; parse ends lines at "\n" only
        text = SAMPLE.replace("\n", newline)
        (tmp_path / "lf.csv").write_text(SAMPLE)
        (tmp_path / "crlf.csv").write_bytes(text.encode())
        lf, crlf = TraceFile.load(tmp_path / "lf.csv"), TraceFile.load(tmp_path / "crlf.csv")
        for field in ("seq", "rssi"):
            assert np.array_equal(getattr(crlf, field), getattr(lf, field))
        assert (crlf.node_id, crlf.frame_type) == (lf.node_id, lf.frame_type) == ("alice", "PING")
        with pytest.raises(PhyskeyError, match="^t.csv: missing header"):
            TraceFile.parse(text, "t.csv")
        body = text.partition(newline)[2]
        with pytest.raises(PhyskeyError, match="^t.csv:2: row "):
            TraceFile.parse(f"{CSV_HEADER}\n{body}", "t.csv")


class TestLoad:
    """TraceFile.load parses the bytes it read; parse keeps its text API."""

    @pytest.mark.parametrize("name, raw", [
        ("no final newline", SAMPLE.rstrip("\n").encode()),
        ("CRLF", SAMPLE.replace("\n", "\r\n").encode()),
        ("CR", SAMPLE.replace("\n", "\r").encode()),
        ("CRLF, no final newline", SAMPLE.rstrip("\n").replace("\n", "\r\n").encode())])
    def test_loads_as_its_lf_twin(self, tmp_path, name, raw):
        (tmp_path / "t.csv").write_bytes(raw)
        got, want = TraceFile.load(tmp_path / "t.csv"), TraceFile.parse(SAMPLE)
        assert (got.node_id, got.frame_type) == (want.node_id, want.frame_type)
        assert np.array_equal(got.seq, want.seq) and np.array_equal(got.rssi, want.rssi)

    @pytest.mark.parametrize("raw", [CSV_HEADER.encode(), f"{CSV_HEADER}\n".encode(),
                                     f"{CSV_HEADER}\r\n\r\n".encode()])
    def test_header_only_file_loads_without_rows(self, tmp_path, raw):
        (tmp_path / "t.csv").write_bytes(raw)
        tf = TraceFile.load(tmp_path / "t.csv")
        assert (tf.node_id, tf.frame_type, tf.seq.size, tf.rssi.size) == (None, None, 0, 0)

    def test_non_ascii_node_id_loads(self, tmp_path):
        (tmp_path / "t.csv").write_bytes(SAMPLE.replace("alice", "\u00e9ve").encode())
        assert TraceFile.load(tmp_path / "t.csv").node_id == "\u00e9ve"

    @pytest.mark.parametrize("bad, line", [(b"\xff", 3), (b"\xc3(", 3), (b"\xed\xa0\x80", 3)])
    def test_non_utf8_byte_names_path_line_and_offset(self, tmp_path, bad, line):
        lines = SAMPLE.encode().split(b"\n")
        lines[line - 1] = lines[line - 1].replace(b"alice", b"al" + bad + b"ice")
        raw = b"\r\n".join(lines)
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        offset = raw.index(bad)
        with pytest.raises(PhyskeyError, match=f"^{re.escape(str(path))}:{line}: byte "
                                               f"{bad[0]:#04x} at offset {offset} is not UTF-8$"):
            TraceFile.load(path)

    def test_bad_row_names_its_line_and_text(self, tmp_path):
        (tmp_path / "t.csv").write_bytes(SAMPLE.replace("3,alice", "3,\u00e9").encode())
        with pytest.raises(PhyskeyError, match=f":4: row '3,\u00e9,PING,-2' is not "):
            TraceFile.load(tmp_path / "t.csv")


class TestLoadTrace:
    def test_loads_the_one_trace_under_the_given_name(self, tmp_path):
        (tmp_path / "t.csv").write_text(SAMPLE)
        trace = load_trace(tmp_path / "t.csv", "bob")
        assert (trace.node_id, trace.frame_type) == ("bob", "PING")
        assert np.array_equal(trace.seqs, [1, 2, 3, 5, 7])
        assert np.array_equal(trace.levels, [-3, -4, -2, -5, -4])

    @pytest.mark.parametrize("body", ["", "\n", "\n\n\n"])
    def test_file_without_rows_fails(self, tmp_path, body):
        path = tmp_path / "t.csv"
        path.write_text(f"{CSV_HEADER}\n{body}")
        with pytest.raises(PhyskeyError, match=f"^{re.escape(str(path))}: no data rows$"):
            load_trace(path, "alice")

    def test_reads_through_tracefile_load(self, tmp_path, monkeypatch):
        # the benchmark times and counts every trace file read as TraceFile.load
        (tmp_path / "t.csv").write_text(SAMPLE)
        loaded = []
        load = TraceFile.load
        monkeypatch.setattr(TraceFile, "load", lambda path: loaded.append(path) or load(path))
        load_trace(tmp_path / "t.csv", "alice")
        assert loaded == [tmp_path / "t.csv"]


class TestTraceWriter:
    @pytest.mark.parametrize("node_id, frame_type, field", [
        ("a,b", "OBS", "node_id"), ("a\nb", "OBS", "node_id"), ("a\rb", "PING", "node_id"),
        ("a", "BEEP", "frame_type")])
    def test_rejects_what_the_reader_rejects(self, node_id, frame_type, field):
        with pytest.raises(ValueError, match=field):
            trace_to_file(make_trace([0, -1], node_id, frame_type=frame_type))

    def test_empty_trace_writes_the_header_alone(self):
        tf = trace_to_file(make_trace([], "alice"))
        assert tf.serialize() == f"{CSV_HEADER}\n"
        assert TraceFile.parse(tf.serialize()).node_id is None

    @settings(deadline=None, max_examples=150)
    @given(st.text(st.sampled_from(",\n\r a\u00e9") | st.characters(blacklist_categories=("Cs",)),
                   max_size=6),
           st.sampled_from(FRAME_TYPES + ("BEEP", "ping", "OBS ", "")))
    def test_writes_what_reads_back(self, tmp_path_factory, node_id, frame_type):
        trace = MeasurementTrace([7, 8, 9], [0, -3, -1], node_id, frame_type)
        try:
            tf = trace_to_file(trace)
        except ValueError:
            return
        path = tmp_path_factory.getbasetemp() / "written.csv"
        tf.save(path)
        for again in (TraceFile.parse(tf.serialize()), TraceFile.load(path)):
            assert (again.node_id, again.frame_type) == (node_id, frame_type)
            assert np.array_equal(again.seq, trace.seqs)
            assert np.array_equal(again.rssi, trace.levels)
        back = load_trace(path, node_id)
        assert (back.node_id, back.frame_type) == (node_id, frame_type)
        assert np.array_equal(back.seqs, trace.seqs)
        assert np.array_equal(back.levels, trace.levels)


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
        aligned, report = ingest_traces(self.trio())
        assert report["kept"] == 1
        assert report["eve_ids"] == ["eve"]
        assert np.array_equal(aligned["alice"].seqs, [2])
        assert np.array_equal(aligned["bob"].seqs, [2])
        assert np.array_equal(aligned["eve"].seqs, [2])

    def test_clamping_counted(self):
        traces = {"alice": make_trace([-30, -2], "alice"),
                  "bob": make_trace([-1, 4], "bob")}
        aligned, report = ingest_traces(traces, magnitude=8)
        assert report["clamped"] == 2
        assert aligned["alice"].levels.min() == -8
        assert aligned["bob"].levels.max() == 0

    @pytest.mark.parametrize("magnitude", [-1, 0])
    def test_magnitude_below_one_fails_closed(self, magnitude):
        with pytest.raises(PhyskeyError, match=f"^magnitude must be at least 1 .* {magnitude}$"):
            ingest_traces(self.trio(), magnitude=magnitude)

    def test_empty_intersection(self):
        traces = {"alice": make_trace([0], "alice"),
                  "bob": MeasurementTrace([10], [0], "bob")}
        with pytest.raises(PhyskeyError, match="empty"):
            ingest_traces(traces)

    def test_requires_alice_and_bob(self):
        with pytest.raises(PhyskeyError, match="requires"):
            ingest_traces({"alice": make_trace([0], "alice")})
        with pytest.raises(PhyskeyError, match="requires"):
            ingest_traces({"bob": make_trace([0], "bob"), "eve": make_trace([0], "eve")})

    def test_aligns_without_bob(self):
        traces = {"alice": make_trace([-1, -2, -3], "alice"),                 # seqs 0,1,2
                  "eve": MeasurementTrace(np.array([1, 2, 5]), np.array([-4, -5, -6]), "eve")}
        aligned, report = ingest_traces(traces)
        assert np.array_equal(aligned["alice"].seqs, [1, 2])
        assert np.array_equal(aligned["eve"].levels, [-4, -5])
        assert report["dropped"] == {"alice": 1, "eve": 1}
        assert report["eve_ids"] == ["eve"]

    def test_eve_filter_applies_every_eavesdropper(self):
        traces = {**self.trio(),
                  "eve2": MeasurementTrace(np.array([1, 2]), np.array([-1, -1]), "eve2")}
        traces["eve"] = MeasurementTrace(np.array([1, 3]), np.array([-5, -5]), "eve")
        aligned, report = ingest_traces(traces)
        assert report["kept"] == 1  # alice {0,1,2} & bob {1,2,3} & eve {1,3} & eve2 {1,2}
        assert all(np.array_equal(t.seqs, [1]) for t in aligned.values())
        assert report["eve_ids"] == ["eve", "eve2"]

    @pytest.mark.parametrize("gap, kept", [(None, 10), ("drop 0", 9), ("drop 4", 9),
                                           ("drop 9", 9), ("shift 4", 4), ("shift 9", 9)])
    def test_equals_set_algebra(self, gap, kept):
        # an aligned trio skips the set algebra; with one seq missing from
        # bob, or bob's seqs shifted by 1 from one index on (same length,
        # other seqs), it takes it; either way the oracle's report and arrays
        rng = np.random.default_rng(3)
        trio = {role: MeasurementTrace(np.arange(10) * 3 + 5, rng.integers(-11, 2, size=10),
                                       role, "PING")
                for role in ("alice", "bob", "eve")}
        if gap is not None:
            how, at = gap.split()
            seqs, levels = trio["bob"].seqs, trio["bob"].levels
            if how == "drop":
                seqs, levels = np.delete(seqs, int(at)), np.delete(levels, int(at))
            else:
                seqs = seqs + (np.arange(10) >= int(at))
            trio["bob"] = MeasurementTrace(seqs, levels, "bob", "PING")
        aligned, report = ingest_traces(trio, magnitude=8)
        want_aligned, want_report = intersecting_ingest(trio, magnitude=8)
        assert report == want_report
        assert report["kept"] == kept
        for role, want in want_aligned.items():
            got = aligned[role]
            assert (got.node_id, got.frame_type) == (want.node_id, want.frame_type)
            assert np.array_equal(got.seqs, want.seqs)
            assert np.array_equal(got.levels, want.levels)

    def test_order_insensitive(self):
        t = self.trio()
        a1, _ = ingest_traces(dict(t))
        a2, _ = ingest_traces(dict(reversed(list(t.items()))))
        for role in t:
            assert np.array_equal(a1[role].levels, a2[role].levels)
