"""Measurement traces, trace-file CSV parsing and aligned ingestion.

Trace CSV format (fixed): header ``seq,node_id,frame_type,rssi``, one row per
observation, frame_type in {PING, PONG, OBS}, rssi as signed integer dBm.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import PhyskeyError

FRAME_TYPES = ("PING", "PONG", "OBS")
CSV_HEADER = "seq,node_id,frame_type,rssi"


@dataclass(frozen=True)
class MeasurementTrace:
    """Time-ordered quantized signal levels keyed by frame sequence number."""

    seqs: np.ndarray
    levels: np.ndarray
    node_id: str = "node"
    meta: dict = field(default_factory=dict)

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

    def head(self, n: int) -> "MeasurementTrace":
        return MeasurementTrace(self.seqs[:n], self.levels[:n], self.node_id, dict(self.meta))

    def frame_type(self) -> str:
        return self.meta.get("frame_type", "OBS")


def make_trace(levels, node_id: str = "node", seq_start: int = 0, **meta) -> MeasurementTrace:
    """Build a trace with consecutive sequence numbers from a level array."""
    levels = np.asarray(levels, dtype=np.int64)
    seqs = np.arange(seq_start, seq_start + levels.size, dtype=np.int64)
    return MeasurementTrace(seqs, levels, node_id, meta)


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


@dataclass
class TraceFile:
    """Parsed trace CSV preserving row order for byte-faithful round-trips."""

    rows: list  # (seq, node_id, frame_type, rssi)
    path: str = ""

    @classmethod
    def parse(cls, text: str, path: str = "") -> "TraceFile":
        lines = text.splitlines()
        if not lines or lines[0].strip() != CSV_HEADER:
            raise PhyskeyError(f"{path or '<string>'}: missing header {CSV_HEADER!r}")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise PhyskeyError(f"{path or '<string>'}:{lineno}: malformed row {line!r}")
            try:
                seq = int(parts[0])
                rssi = int(parts[3])
            except ValueError as exc:
                raise PhyskeyError(f"{path or '<string>'}:{lineno}: {exc}") from None
            node_id, frame_type = parts[1], parts[2]
            if frame_type not in FRAME_TYPES:
                raise PhyskeyError(
                    f"{path or '<string>'}:{lineno}: unknown frame_type {frame_type!r}")
            rows.append((seq, node_id, frame_type, rssi))
        return cls(rows, path)

    @classmethod
    def load(cls, path) -> "TraceFile":
        return cls.parse(Path(path).read_text(), str(path))

    def serialize(self) -> str:
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for seq, node_id, frame_type, rssi in self.rows:
            out.write(f"{seq},{node_id},{frame_type},{rssi}\n")
        return out.getvalue()

    def save(self, path) -> None:
        Path(path).write_text(self.serialize())

    def node_ids(self) -> list:
        seen = dict.fromkeys(node_id for _, node_id, _, _ in self.rows)
        return list(seen)

    def trace(self, node_id: str, **meta) -> MeasurementTrace:
        picked = [(s, f, r) for s, nid, f, r in self.rows if nid == node_id]
        if not picked:
            raise PhyskeyError(f"no rows for node {node_id!r} in {self.path or '<string>'}")
        picked.sort(key=lambda t: t[0])
        seqs = np.array([s for s, _, _ in picked], dtype=np.int64)
        levels = np.array([r for _, _, r in picked], dtype=np.int64)
        meta.setdefault("frame_type", picked[0][1])
        return MeasurementTrace(seqs, levels, node_id, meta)


def trace_to_file(trace: MeasurementTrace) -> TraceFile:
    ft = trace.frame_type()
    rows = [(int(s), trace.node_id, ft, int(v))
            for s, v in zip(trace.seqs, trace.levels)]
    return TraceFile(rows)


def ingest_traces(traces: dict, eve_filter: bool = False,
                  eve_id: str | None = None, magnitude: int = 8):
    """Align traces on shared sequence numbers and clamp levels into [-magnitude, 0].

    ``traces`` maps role -> MeasurementTrace and must contain 'alice' and
    'bob'; remaining entries are eavesdroppers.  With ``eve_filter`` the
    designated eavesdropper (``eve_id``, default the first extra role) also
    constrains the intersection, dropping samples Eve missed.

    Returns (aligned role->trace dict, report dict with drop/clamp counts).
    """
    if "alice" not in traces or "bob" not in traces:
        raise PhyskeyError("ingestion requires 'alice' and 'bob' traces")
    eve_ids = [k for k in traces if k not in ("alice", "bob")]
    required = ["alice", "bob"]
    if eve_filter:
        if eve_id is None:
            if not eve_ids:
                raise PhyskeyError("eve_filter requires an eavesdropper trace")
            eve_id = eve_ids[0]
        required.append(eve_id)

    shared = None
    for role in required:
        s = set(traces[role].seqs.tolist())
        shared = s if shared is None else (shared & s)
    if not shared:
        raise PhyskeyError("empty sequence-number intersection across required traces")
    kept = np.array(sorted(shared), dtype=np.int64)

    aligned = {}
    clamped = 0
    for role, trace in traces.items():
        mask = np.isin(trace.seqs, kept)
        seqs = trace.seqs[mask]
        levels = trace.levels[mask]
        if role in required:
            if seqs.size != kept.size:
                raise PhyskeyError(f"required trace {role!r} lost samples during alignment")
        lo, hi = -magnitude, 0
        out_of_range = np.count_nonzero((levels < lo) | (levels > hi))
        clamped += int(out_of_range)
        levels = np.clip(levels, lo, hi)
        aligned[role] = MeasurementTrace(seqs, levels, trace.node_id, dict(trace.meta))

    report = {
        "kept": int(kept.size),
        "dropped": {role: int(len(traces[role]) - int(np.isin(traces[role].seqs, kept).sum()))
                    for role in traces},
        "clamped": clamped,
        "magnitude": magnitude,
        "eve_filter": bool(eve_filter),
        "eve_id": eve_id,
    }
    return aligned, report
