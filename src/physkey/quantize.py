"""Unary quantization of signal levels into Hamming-metric bitstrings.

Integer levels live in an L1 metric; the unary embedding maps a level of
magnitude ``a`` (with ``a <= m``) to ``m - a`` zeros followed by ``a`` ones,
so Hamming distance between two same-sign embeddings equals the L1 distance
between the levels.  A level and its negation embed alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# the paper's word: every sample quantizes to one 8-bit unary word
BITS_PER_SAMPLE = 8


@dataclass(frozen=True)
class QuantizerConfig:
    """Unary embedding parameters: the max magnitude, also the word length."""

    m: int = BITS_PER_SAMPLE

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"max magnitude must be >= 1, got {self.m}")


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
        length_str, _, hexpart = text.strip().partition(":")
        n = int(length_str)
        if n < 0:
            raise ValueError(f"negative bit length in {text!r}")
        raw = bytes.fromhex(hexpart)
        if len(raw) != (n + 7) // 8:
            raise ValueError(f"hex payload holds {len(raw)} bytes, need {(n + 7) // 8}")
        bits = np.unpackbits(np.frombuffer(raw, np.uint8))[:n]
        tail = np.unpackbits(np.frombuffer(raw, np.uint8))[n:]
        if tail.any():
            raise ValueError("nonzero padding bits in final byte")
        return cls(bits)

    def to_words(self) -> np.ndarray:
        """Pack into 8-bit words (MSB first); length must be a multiple of 8."""
        if len(self) % 8:
            raise ValueError(f"bit length {len(self)} is not a multiple of 8")
        return np.packbits(self._bits).astype(np.int64)

    @classmethod
    def from_words(cls, words: np.ndarray | Iterable[int]) -> "BitString":
        arr = np.asarray(list(words) if not isinstance(words, np.ndarray) else words)
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ValueError("words must be in [0, 255]")
        return cls(np.unpackbits(arr.astype(np.uint8)))


def embed_unary(x: int, config: QuantizerConfig) -> BitString:
    """Embed one integer level: (m - |x|) zeros ++ |x| ones."""
    a = abs(int(x))
    if a > config.m:
        raise ValueError(f"level out of range: |{x}| > {config.m}")
    body = np.zeros(config.m, np.uint8)
    if a:
        body[config.m - a:] = 1
    return BitString(body)


def _magnitudes(levels, config: QuantizerConfig) -> np.ndarray:
    # |level| of every sample, each checked against the max magnitude
    arr = np.asarray(levels, dtype=np.int64)
    mag = np.abs(arr)
    bad = np.nonzero(mag > config.m)[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"level out of range at sample {i}: |{arr[i]}| > {config.m}")
    return mag


def embed_trace(levels, config: QuantizerConfig) -> BitString:
    """Concatenate per-sample embeddings; n levels give n * m bits."""
    mag = _magnitudes(levels, config)
    # column j of the body holds 1 where magnitude >= m - j
    cols = np.arange(config.m)
    body = (mag[:, None] >= (config.m - cols)[None, :]).astype(np.uint8)
    return BitString(body.reshape(-1))


def neighbor_bits(levels, config: QuantizerConfig) -> np.ndarray:
    """Ascending positions in embed_trace(levels, config) whose flip moves a
    level's magnitude by exactly one.

    These are the two bits at each word's 0 -> 1 boundary: for magnitude a
    in word i, bit m*i + m-1-a (its last zero, when a < m) and bit
    m*i + m-a (its first one, when a > 0).  A copy of the string that
    differs from the levels' embedding only by off-by-one levels differs
    from it only at these positions.
    """
    mag = _magnitudes(levels, config)
    last_zero = config.m * np.arange(mag.size) + config.m - 1 - mag
    positions = np.stack([last_zero, last_zero + 1], axis=1).ravel()
    return positions[np.stack([mag < config.m, mag > 0], axis=1).ravel()]


def hamming_distance(a: BitString, b: BitString) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return int(np.count_nonzero(a.bits != b.bits))
