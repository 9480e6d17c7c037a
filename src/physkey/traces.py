"""Measurement traces, trace-file CSV parsing and aligned ingestion.

Trace CSV format (fixed): header ``seq,node_id,frame_type,rssi``, one row per
observation, frame_type in {PING, PONG, OBS}, rssi as signed integer dBm.

A parsed ``TraceFile`` holds one column per field: seq and rssi as int64
arrays, node_id and frame_type as lists of strings.  Parsing converts whole
columns at once: one split of the joined rows, one int() pass per numeric
column, one set check of the frame types.  Only when that fails are the
rows walked, to raise a ``PhyskeyError`` naming ``path:line`` of the first
bad one; a seq or rssi outside int64 is such a line.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import PhyskeyError
from .quantize import BITS_PER_SAMPLE

FRAME_TYPES = ("PING", "PONG", "OBS")
CSV_HEADER = "seq,node_id,frame_type,rssi"


@dataclass(frozen=True)
class MeasurementTrace:
    """Time-ordered quantized signal levels keyed by frame sequence number."""

    seqs: np.ndarray
    levels: np.ndarray
    node_id: str = "node"
    frame_type: str = "OBS"

    def __post_init__(self):
        seqs = np.array(self.seqs, dtype=np.int64)
        levels = np.array(self.levels, dtype=np.int64)
        if seqs.shape != levels.shape or seqs.ndim != 1:
            raise ValueError("seqs and levels must be equal-length 1-d arrays")
        if seqs.size > 1 and not np.all(np.diff(seqs) > 0):
            raise ValueError(f"sequence numbers not strictly increasing in {self.node_id!r}")
        seqs.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "seqs", seqs)
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return int(self.seqs.size)


def make_trace(levels, node_id: str = "node", seq_start: int = 0,
               frame_type: str = "OBS") -> MeasurementTrace:
    """Build a trace with consecutive sequence numbers from a level array."""
    levels = np.asarray(levels, dtype=np.int64)
    seqs = np.arange(seq_start, seq_start + levels.size, dtype=np.int64)
    return MeasurementTrace(seqs, levels, node_id, frame_type)


def assert_aligned(*traces: MeasurementTrace) -> None:
    """Raise unless all traces share length and sequence numbers."""
    first = traces[0]
    for t in traces[1:]:
        if len(t) != len(first):
            raise ValueError(
                f"unaligned traces: {first.node_id!r} has {len(first)} samples, "
                f"{t.node_id!r} has {len(t)}")
        if not np.array_equal(t.seqs, first.seqs):
            raise ValueError(
                f"unaligned traces: sequence numbers of {t.node_id!r} "
                f"differ from {first.node_id!r}")


@dataclass(eq=False)
class TraceFile:
    """Parsed trace CSV, one column per CSV field, in file row order."""

    seq: np.ndarray
    node_id: list
    frame_type: list
    rssi: np.ndarray
    path: str = ""

    @classmethod
    def parse(cls, text: str, path: str = "") -> "TraceFile":
        where = path or "<string>"
        lines = text.splitlines()
        if not lines or lines[0].strip() != CSV_HEADER:
            raise PhyskeyError(f"{where}: missing header {CSV_HEADER!r}")
        body = list(filter(str.strip, lines[1:]))  # blank lines are skipped
        try:
            if set(map(str.count, body, repeat(","))) - {3}:
                raise ValueError("a row without 4 cells")
            cells = ",".join(body).split(",") if body else []
            seq, rssi = (np.fromiter(map(int, cells[i::4]), np.int64, len(body))
                         for i in (0, 3))
            if not set(cells[2::4]) <= set(FRAME_TYPES):
                raise ValueError("an unknown frame type")
        except (ValueError, OverflowError):
            _raise_first_bad_row(lines, where)
            raise  # not reached: the row walk meets the row that failed
        return cls(seq, cells[1::4], cells[2::4], rssi, path)

    @classmethod
    def load(cls, path) -> "TraceFile":
        return cls.parse(Path(path).read_text(), str(path))

    @property
    def rows(self) -> list:
        """(seq, node_id, frame_type, rssi) tuples, one per data row."""
        return list(zip(self.seq.tolist(), self.node_id, self.frame_type,
                        self.rssi.tolist()))

    def serialize(self) -> str:
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for seq, node_id, frame_type, rssi in self.rows:
            out.write(f"{seq},{node_id},{frame_type},{rssi}\n")
        return out.getvalue()

    def save(self, path) -> None:
        Path(path).write_text(self.serialize())

    def node_ids(self) -> list:
        return list(dict.fromkeys(self.node_id))

    def trace(self, node_id: str) -> MeasurementTrace:
        picked = np.flatnonzero(np.array(self.node_id, dtype=object) == node_id)
        if not picked.size:
            raise PhyskeyError(f"no rows for node {node_id!r} in {self.path or '<string>'}")
        picked = picked[np.argsort(self.seq[picked], kind="stable")]
        return MeasurementTrace(self.seq[picked], self.rssi[picked], node_id,
                                self.frame_type[picked[0]])


def _raise_first_bad_row(lines: list, where: str) -> None:
    """Raise a PhyskeyError naming the first data line that does not parse."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise PhyskeyError(f"{where}:{lineno}: malformed row {line!r}")
        try:
            values = int(parts[0]), int(parts[3])
        except ValueError as exc:
            raise PhyskeyError(f"{where}:{lineno}: {exc}") from None
        if parts[2] not in FRAME_TYPES:
            raise PhyskeyError(f"{where}:{lineno}: unknown frame_type {parts[2]!r}")
        if not all(-2 ** 63 <= v < 2 ** 63 for v in values):
            raise PhyskeyError(
                f"{where}:{lineno}: a seq or rssi value does not fit in 64 bits")


def trace_to_file(trace: MeasurementTrace) -> TraceFile:
    n = len(trace)
    return TraceFile(trace.seqs, [trace.node_id] * n, [trace.frame_type] * n,
                     trace.levels)


def ingest_traces(traces: dict, eve_filter: bool = False,
                  magnitude: int = BITS_PER_SAMPLE):
    """Align traces on shared sequence numbers and clamp levels into [-magnitude, 0].

    ``traces`` maps role -> MeasurementTrace; every role other than 'alice'
    and 'bob' is an eavesdropper.  Only the sequence numbers seen by Alice,
    by Bob when given and, with ``eve_filter``, by every eavesdropper are
    kept, which takes 'alice' and, with ``eve_filter``, an eavesdropper,
    else 'bob'.  ``magnitude`` must be at least 1.

    Returns (aligned role->trace dict, report dict with drop/clamp counts and
    ``eve_ids``, the eavesdroppers that constrained the intersection).
    """
    required = [role for role in traces if eve_filter or role in ("alice", "bob")]
    eve_ids = [role for role in required if role not in ("alice", "bob")]
    if "alice" not in traces or not (eve_ids if eve_filter else "bob" in traces):
        raise PhyskeyError("ingestion requires 'alice' and, under eve_filter, "
                           "an eavesdropper trace, else 'bob'")
    if magnitude < 1:
        raise PhyskeyError(f"magnitude must be at least 1 (2 levels), got {magnitude}")

    # sequence numbers are strictly increasing, so each trace's are unique
    # and every required trace keeps all of the intersection
    kept = traces[required[0]].seqs
    for role in required[1:]:
        kept = np.intersect1d(kept, traces[role].seqs, assume_unique=True)
    if not kept.size:
        raise PhyskeyError("empty sequence-number intersection across required traces")

    aligned = {}
    dropped = {}
    clamped = 0
    for role, trace in traces.items():
        mask = np.isin(trace.seqs, kept)
        levels = trace.levels[mask]
        dropped[role] = len(trace) - levels.size
        clamped += int(np.count_nonzero((levels < -magnitude) | (levels > 0)))
        aligned[role] = MeasurementTrace(trace.seqs[mask], np.clip(levels, -magnitude, 0),
                                         trace.node_id, trace.frame_type)

    report = {
        "kept": int(kept.size),
        "dropped": dropped,
        "clamped": clamped,
        "magnitude": magnitude,
        "eve_filter": bool(eve_filter),
        "eve_ids": eve_ids,
    }
    return aligned, report
