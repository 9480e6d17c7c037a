"""Measurement traces, trace-file CSV parsing and aligned ingestion.

Trace CSV grammar, the one ``trace_to_file`` writes and the only one read:
the header line ``seq,node_id,frame_type,rssi`` exactly, then one row per
observation, ``-?[0-9]{1,19},<node>,PING|PONG|OBS,-?[0-9]{1,19}`` with seq
and rssi (signed dBm) in int64 and ``<node>`` any text without ``,`` or
``\\n``.  A file is one node's trace: every row carries the first row's
node id and frame type, and each row's seq is above the previous row's.
Empty lines are skipped.  ``TraceFile.parse`` splits lines on ``\\n`` only;
``TraceFile.load`` parses the bytes it read with universal newlines, so a
CRLF or CR file loads as its LF twin, and a byte that is not UTF-8 (checked
only in a file with a non-ASCII byte) is a ``PhyskeyError`` naming
``path:line`` and the byte's offset.

A parsed ``TraceFile`` holds seq and rssi as int64 arrays in file order
and the one node id and frame type; ``load_trace`` reads a file as its one
``MeasurementTrace``, under the name the caller gives it.  Parsing works
on the UTF-8 bytes of the body, a view of the bytes read with no copy when
they end in a newline, in one pass per column: the positions of
commas and newlines bound every line and cell, the digits of every seq
(or rssi) cell are gathered and summed together, and node and frame
cells are compared bytewise with the first row's.  The same pass marks
every line outside the grammar, and a ``PhyskeyError`` names
``path:line`` of the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PhyskeyError
from .quantize import BITS_PER_SAMPLE, int64_samples

FRAME_TYPES = ("PING", "PONG", "OBS")
CSV_HEADER = "seq,node_id,frame_type,rssi"
_HEADER_LINE = f"{CSV_HEADER}\n".encode()


@dataclass(frozen=True)
class MeasurementTrace:
    """Time-ordered quantized signal levels keyed by frame sequence number."""

    seqs: np.ndarray
    levels: np.ndarray
    node_id: str = "node"
    frame_type: str = "OBS"

    def __post_init__(self):
        seqs = int64_samples(self.seqs, "seq", copy=True)
        levels = int64_samples(self.levels, copy=True)
        if seqs.shape != levels.shape or seqs.ndim != 1:
            raise ValueError("seqs and levels must be equal-length 1-d arrays")
        if np.any(seqs[1:] <= seqs[:-1]):  # neighbours: a difference overflows int64
            raise ValueError(f"sequence numbers not strictly increasing in {self.node_id!r}")
        seqs.setflags(write=False)
        levels.setflags(write=False)
        object.__setattr__(self, "seqs", seqs)
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return int(self.seqs.size)


def make_trace(levels, node_id: str = "node", frame_type: str = "OBS") -> MeasurementTrace:
    """Build a trace with sequence numbers 0, 1, .. from a level array."""
    levels = np.asarray(levels)
    return MeasurementTrace(np.arange(levels.size), levels, node_id, frame_type)


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
    """One node's parsed trace CSV: seq and rssi as int64 arrays in file row
    order, and the node_id and frame_type every row carries (None for a file
    with no rows)."""

    seq: np.ndarray
    rssi: np.ndarray
    node_id: str | None = None
    frame_type: str | None = None

    @classmethod
    def parse(cls, text: str, path: str = "") -> "TraceFile":
        return cls._parse(text.encode("utf-8", "surrogatepass"), path or "<string>")

    @classmethod
    def load(cls, path) -> "TraceFile":
        raw = Path(path).read_bytes()
        if not raw.isascii():  # only a file with a byte above 0x7f can fail to decode
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = len(raw[:exc.start + 1].splitlines())  # a bad byte is never a newline
                raise PhyskeyError(f"{path}:{line}: byte {raw[exc.start]:#04x} at offset "
                                   f"{exc.start} is not UTF-8") from None
        if b"\r" in raw:  # universal newlines; an LF file skips two copies
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return cls._parse(raw, str(path))

    @classmethod
    def _parse(cls, raw: bytes, where: str) -> "TraceFile":
        """The trace CSV whose UTF-8 bytes are raw; where names it in errors."""
        if not raw.endswith(b"\n"):
            raw += b"\n"  # a newline ends every line
        if not raw.startswith(_HEADER_LINE):
            raise PhyskeyError(f"{where}: missing header {CSV_HEADER!r}")
        body = np.frombuffer(raw, np.uint8, offset=len(_HEADER_LINE))
        *columns, starts, ends, bad = _columns(body)
        if bad.any():
            k = int(bad.argmax())
            line = body[starts[k]:ends[k]].tobytes().decode("utf-8", "surrogatepass")
            raise PhyskeyError(f"{where}:{k + 2}: row {line!r} is not {CSV_HEADER} ({_CELLS})")
        return cls(*columns)

    @property
    def rows(self) -> list:
        """(seq, node_id, frame_type, rssi) tuples, one per data row."""
        return [(seq, self.node_id, self.frame_type, rssi)
                for seq, rssi in zip(self.seq.tolist(), self.rssi.tolist())]

    def serialize(self) -> str:
        middle = f",{self.node_id},{self.frame_type},"
        return "".join([f"{CSV_HEADER}\n"] + [f"{seq}{middle}{rssi}\n" for seq, rssi
                                               in zip(self.seq.tolist(), self.rssi.tolist())])

    def save(self, path) -> None:
        Path(path).write_text(self.serialize())


_CELLS = ("decimal int64 seq and rssi, frame_type PING, PONG or OBS, the first row's "
          "node_id and frame_type, seq above the previous row's")
# digits of the widest seq or rssi cell: 10**19 - 1 < 2**64, so a uint64 sum is exact
_DIGITS = 19
_POW10 = 10 ** np.arange(_DIGITS - 1, -1, -1, dtype=np.uint64)


def _columns(b: np.ndarray) -> tuple:
    """(seq, rssi, node_id, frame_type, starts, ends, bad) of the lines of b,
    the UTF-8 bytes after the header line, each line ended by a newline: the
    first row's node_id and frame_type (None with no rows), where each line
    starts and ends, and a mask of every line that is neither empty nor a row
    of the grammar.

    Commas and newlines never occur inside a multi-byte UTF-8 character, so
    their byte positions bound every line and cell.  When line k holds
    commas 3k to 3k + 2, as in every file ``trace_to_file`` writes, the cells
    come from the comma positions as they are; otherwise each line's commas
    are counted by a search.
    """
    ends = np.flatnonzero(b == ord("\n"))
    starts = np.concatenate(([0], ends + 1))[:-1]
    commas = np.flatnonzero(b == ord(","))
    if (commas.size == 3 * ends.size and (commas[::3] >= starts).all()
            and (commas[2::3] < ends).all()):
        rows = np.ones(ends.size, bool)
        cut = commas.reshape(-1, 3)
    else:
        per_line = np.diff(np.searchsorted(commas, ends), prepend=0)
        rows = per_line == 3
        cut = commas[np.repeat(rows, per_line)].reshape(-1, 3)
    bad = ~rows & (ends > starts)
    seq, bad_seq = _integers(b, starts[rows], cut[:, 0])
    node_id, other_node = _unlike_first(b, cut[:, 0] + 1, cut[:, 1])
    frame_type, other_frame = _unlike_first(b, cut[:, 1] + 1, cut[:, 2])
    rssi, bad_rssi = _integers(b, cut[:, 2] + 1, ends[rows])
    bad_seq[1:] |= seq[1:] <= seq[:-1]  # neighbours: a difference overflows int64
    bad[rows] = (bad_seq | bad_rssi | other_node | other_frame
                 | (frame_type not in FRAME_TYPES))
    return seq, rssi, node_id, frame_type, starts, ends, bad


def _integers(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """(values, bad): every cell b[lo:hi] of the form -?[0-9]{1,19} as an
    int64 array, and a mask of the cells not of that form or outside int64.

    The digits of all cells are gathered at once, right-aligned on the cell
    end, and summed in uint64.
    """
    neg = b[lo] == ord("-")
    width = hi - lo - neg
    w = min(_DIGITS, int(width.max(initial=0)))
    offsets = np.arange(-w, 0)[:, None]
    # row k holds the k-th of the last w bytes of every cell; a position
    # before the buffer wraps to its end, is before its cell and is zeroed
    digits = b[hi + offsets] - ord("0")  # uint8: 10 or more unless a digit
    digits[offsets < -width] = 0
    values = _POW10[_DIGITS - w:] @ digits
    bad = ((width < 1) | (width > _DIGITS) | (digits >= 10).any(axis=0)
           | (values > np.uint64(2 ** 63 - 1) + neg))  # -2**63 is in range
    np.negative(values, out=values, where=neg)
    return values.view(np.int64), bad


def _unlike_first(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """(first, differs): the text of the first cell b[lo:hi] (None with no
    cells) and a mask of the cells whose bytes differ from it."""
    if not lo.size:
        return None, np.zeros(0, bool)
    first = b[lo[0]:hi[0]].tobytes()
    differs = hi - lo != len(first)
    for k, byte in enumerate(first, start=-len(first)):
        differs |= b[hi + k] != byte  # as in _integers, a wrapped position is outside its cell
    return first.decode("utf-8", "surrogatepass"), differs


def load_trace(path, name: str) -> MeasurementTrace:
    """The one trace in the trace CSV at path, named name; a file with no
    data rows raises."""
    tf = TraceFile.load(path)
    if tf.node_id is None:
        raise PhyskeyError(f"{path}: no data rows")
    return MeasurementTrace(tf.seq, tf.rssi, name, tf.frame_type)


def trace_to_file(trace: MeasurementTrace) -> TraceFile:
    """The trace as a TraceFile; ValueError when its node_id or frame_type
    would not read back (a ``\\r`` reads as a line break through ``load``)."""
    if any(c in trace.node_id for c in ",\n\r"):
        raise ValueError(f"node_id {trace.node_id!r} holds a comma or a line break")
    if trace.frame_type not in FRAME_TYPES:
        raise ValueError(f"frame_type {trace.frame_type!r} is not PING, PONG or OBS")
    return TraceFile(trace.seqs, trace.levels, trace.node_id, trace.frame_type)


def ingest_traces(traces: dict, magnitude: int = BITS_PER_SAMPLE):
    """Keep the sequence numbers every trace holds and clamp levels into
    [-magnitude, 0].

    ``traces`` maps role -> MeasurementTrace: 'alice' and at least one other
    role, where every role other than 'alice' and 'bob' is an eavesdropper.
    ``magnitude`` must be at least 1.

    Returns (aligned role->trace dict, whose traces share their sequence
    numbers, and a report dict with drop/clamp counts and ``eve_ids``).
    """
    if "alice" not in traces or len(traces) < 2:
        raise PhyskeyError("ingestion requires 'alice' and another trace")
    if magnitude < 1:
        raise PhyskeyError(f"magnitude must be at least 1 (2 levels), got {magnitude}")

    # sequence numbers are strictly increasing, so each trace's are unique;
    # traces that all hold the same seqs (the files of one simulated run)
    # keep every sample with no set algebra
    first, *others = traces.values()
    kept = first.seqs
    shared = all(np.array_equal(trace.seqs, kept) for trace in others)
    if not shared:
        for trace in others:
            kept = np.intersect1d(kept, trace.seqs, assume_unique=True)
    if not kept.size:
        raise PhyskeyError("empty sequence-number intersection across traces")

    aligned = {}
    dropped = {}
    clamped = 0
    for role, trace in traces.items():
        mask = slice(None) if shared else np.isin(trace.seqs, kept)
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
        "eve_ids": [role for role in traces if role not in ("alice", "bob")],
    }
    return aligned, report
