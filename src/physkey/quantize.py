"""Unary quantization of signal levels into Hamming-metric bitstrings.

Integer levels live in an L1 metric; the unary embedding maps a level of
magnitude ``a`` (with ``a <= m``, m = ``BITS_PER_SAMPLE``) to ``m - a``
zeros followed by ``a`` ones, so Hamming distance between two same-sign
embeddings equals the L1 distance between the levels.  A level and its
negation embed alike.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

# the paper's word: every sample quantizes to one 8-bit unary word
BITS_PER_SAMPLE = 8

_HEX_FORM = re.compile(r"(0|[1-9][0-9]*):((?:[0-9a-f]{2})*)")


class BitString:
    """Immutable sequence of bits with Hamming-metric semantics.

    Serializes as ``len:hex`` with bits packed most-significant-bit first
    and the final byte zero-padded.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] | np.ndarray):
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        arr = arr.astype(np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bits must be 0 or 1")
        self._bits = arr
        self._bits.setflags(write=False)

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    def __len__(self) -> int:
        return int(self._bits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return len(self) == len(other) and bool(np.all(self._bits == other._bits))

    def __hash__(self) -> int:
        return hash((len(self), self._bits.tobytes()))

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitString({''.join(str(b) for b in self._bits)})"
        return f"BitString(len={len(self)})"

    def __xor__(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        return BitString(np.bitwise_xor(self._bits, other._bits))

    def to_hex(self) -> str:
        """Serialize as ``len:hex`` (MSB-first, zero-padded final byte)."""
        packed = np.packbits(self._bits) if len(self) else np.zeros(0, np.uint8)
        return f"{len(self)}:{packed.tobytes().hex()}"

    @classmethod
    def from_hex(cls, text: str) -> "BitString":
        """Parse exactly the form ``to_hex`` writes (no sign, space or case)."""
        form = _HEX_FORM.fullmatch(text)
        if form is None:
            raise ValueError("expected a decimal bit length, ':', then lowercase hex bytes")
        n = int(form[1])
        raw = bytes.fromhex(form[2])
        if len(raw) != (n + 7) // 8:
            raise ValueError(f"hex payload holds {len(raw)} bytes, need {(n + 7) // 8}")
        bits = np.unpackbits(np.frombuffer(raw, np.uint8))
        if bits[n:].any():
            raise ValueError("nonzero padding bits in final byte")
        return cls(bits[:n])


def embed_unary(x: int) -> BitString:
    """Embed one integer level: (m - |x|) zeros ++ |x| ones."""
    m = BITS_PER_SAMPLE
    a = abs(int(x))
    if a > m:
        raise ValueError(f"level out of range: |{x}| > {m}")
    body = np.zeros(m, np.uint8)
    if a:
        body[m - a:] = 1
    return BitString(body)


def _magnitudes(levels) -> np.ndarray:
    # |level| of every sample, each checked against the max magnitude
    arr = np.asarray(levels, dtype=np.int64)
    mag = np.abs(arr)
    bad = np.nonzero(mag > BITS_PER_SAMPLE)[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"level out of range at sample {i}: |{arr[i]}| > {BITS_PER_SAMPLE}")
    return mag


def embed_trace(levels) -> BitString:
    """Concatenate per-sample embeddings; n levels give n * m bits."""
    mag = _magnitudes(levels)
    # column j of the body holds 1 where magnitude >= m - j
    cols = np.arange(BITS_PER_SAMPLE)
    body = (mag[:, None] >= (BITS_PER_SAMPLE - cols)[None, :]).astype(np.uint8)
    return BitString(body.reshape(-1))


def neighbor_bits(levels) -> np.ndarray:
    """Ascending positions in embed_trace(levels) whose flip moves a
    level's magnitude by exactly one.

    These are the two bits at each word's 0 -> 1 boundary: for magnitude a
    in word i, bit m*i + m-1-a (its last zero, when a < m) and bit
    m*i + m-a (its first one, when a > 0).  A copy of the string that
    differs from the levels' embedding only by off-by-one levels differs
    from it only at these positions.
    """
    m = BITS_PER_SAMPLE
    mag = _magnitudes(levels)
    last_zero = m * np.arange(mag.size) + m - 1 - mag
    positions = np.stack([last_zero, last_zero + 1], axis=1).ravel()
    return positions[np.stack([mag < m, mag > 0], axis=1).ravel()]


def hamming_distance(a: BitString, b: BitString) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return int(np.count_nonzero(a.bits != b.bits))
