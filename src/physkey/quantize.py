"""Unary quantization of signal levels into Hamming-metric bitstrings.

Integer levels live in an L1 metric; the unary embedding maps a level of
magnitude ``a`` (with ``a <= m``, m = ``BITS_PER_SAMPLE``) to ``m - a``
zeros followed by ``a`` ones, so Hamming distance between two same-sign
embeddings equals the L1 distance between the levels.  A level and its
negation embed alike.

The exchange reconciles a shorter string: ``residue_words`` keeps only
|level| mod 8 in 3-bit reflected Gray code, which is enough for a party
whose own level lies within 3 of it (``residue_levels``).

Every per-sample encoding is a table over the magnitudes 0..m, built once
at import from the rule that defines it; quantizing a trace is one gather.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

# the paper's word: every sample quantizes to one 8-bit unary word
BITS_PER_SAMPLE = 8
# the reconciled word: |level| mod 8 in 3-bit reflected Gray code, which
# names a level uniquely among the 7 within MAX_RESIDUE_OFFSET of a guess
RESIDUE_BITS = 3
RESIDUE_MODULUS = 1 << RESIDUE_BITS
MAX_RESIDUE_OFFSET = (RESIDUE_MODULUS - 1) // 2

# a residue word's bits, MSB first, as the weights that read it as a number
_WORD_WEIGHTS = (1 << np.arange(RESIDUE_BITS - 1, -1, -1)).astype(np.uint8)

_HEX_FORM = re.compile(r"(0|[1-9][0-9]*):((?:[0-9a-f]{2})*)")


class BitString:
    """Immutable sequence of bits with Hamming-metric semantics.

    Serializes as ``len:hex`` with bits packed most-significant-bit first
    and the final byte zero-padded.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] | np.ndarray):
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        # checked before the cast, which would wrap 256 to 0 and cut 1.7 to 1
        if arr.size and not (arr.max() <= 1 if arr.dtype.kind in "ub"
                             else np.all((arr == 0) | (arr == 1))):
            raise ValueError("bits must be 0 or 1")
        self._bits = arr.astype(np.uint8)
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

    def __repr__(self) -> str:
        if len(self) <= 32:
            return f"BitString({''.join(str(b) for b in self._bits)})"
        return f"BitString(len={len(self)})"

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
    return embed_trace([x])


def _word_bits(codes: np.ndarray) -> np.ndarray:
    # the RESIDUE_BITS-bit words of codes, MSB first, one row per code
    return ((codes[:, None] & _WORD_WEIGHTS) > 0).astype(np.uint8)


def _gray(r):
    return r ^ (r >> 1)


def _encoding_tables():
    """Every per-sample encoding as a table over the magnitudes 0..m, one
    row each: the unary word (m bits), the Gray residue word and the bits
    of it a +1 or a -1 move flips (RESIDUE_BITS bits each), and, for each
    received residue word read as a number MSB first, the magnitude within
    MAX_RESIDUE_OFFSET that has it (-1 where none in 0..m does), with the
    residue each word names."""
    mag = np.arange(BITS_PER_SAMPLE + 1)
    # column j of a unary word holds 1 where magnitude >= m - j
    unary = (mag[:, None] >= BITS_PER_SAMPLE - np.arange(BITS_PER_SAMPLE)).astype(np.uint8)
    r = mag % RESIDUE_MODULUS
    up = _gray(r) ^ _gray((r + 1) % RESIDUE_MODULUS)
    down = _gray(r) ^ _gray((r - 1) % RESIDUE_MODULUS)
    flips = np.where(mag < BITS_PER_SAMPLE, up, 0) | np.where(mag > 0, down, 0)
    # a Gray word's binary digits are the running xor of its bits, MSB first
    words = np.arange(RESIDUE_MODULUS)
    named = np.bitwise_xor.accumulate(_word_bits(words), axis=1) @ _WORD_WEIGHTS
    offset = (named[None, :] - mag[:, None] + MAX_RESIDUE_OFFSET) % RESIDUE_MODULUS \
        - MAX_RESIDUE_OFFSET
    found = mag[:, None] + offset
    found[(offset > MAX_RESIDUE_OFFSET) | (found < 0) | (found > BITS_PER_SAMPLE)] = -1
    return unary, _word_bits(_gray(r)), _word_bits(flips).astype(bool), found.ravel(), named


# rows are gathered with take(axis=0), several times faster than fancy
# indexing for rows this short; _RECOVERED is flat, entry 8 * magnitude +
# received word
_UNARY, _RESIDUE, _NEIGHBOR, _RECOVERED, _NAMED = _encoding_tables()


def int64_samples(values, what: str = "level", copy: bool = False) -> np.ndarray:
    """``values`` as an int64 array, checked before the cast, which would
    cut 1.7 to 1 and read the string '3' as 3.

    An integer array an int64 holds passes on its dtype alone.  A float or
    uint64 array must hold whole numbers an int64 holds; an array of any
    other kind (bools, strings, objects) is refused whole.  The ValueError
    names the first sample that fails, as ``what``.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "i" or arr.dtype.kind == "u" and arr.dtype.itemsize < 8:
        return arr.astype(np.int64, copy=copy)
    flat = arr.reshape(-1)
    if arr.dtype.kind not in "fu":
        if arr.size:
            raise ValueError(f"{what} at sample 0 is {flat[:1].tolist()[0]!r}: {arr.dtype} "
                             "arrays hold no int64 integers")
        return np.zeros(arr.shape, dtype=np.int64)
    with np.errstate(invalid="ignore"):  # NaN, inf and the too large cast to junk
        ints = arr.astype(np.int64)
    bad = (ints != arr).reshape(-1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{what} at sample {i} is not an int64 integer: {flat[i].item()!r}")
    return ints


def _magnitudes(levels) -> np.ndarray:
    # |level| of every sample, each checked against the max magnitude; the
    # unsigned view also refuses the int64 minimum, whose abs stays negative
    arr = int64_samples(levels)
    mag = np.abs(arr)
    if mag.size and mag.view(np.uint64).max() > BITS_PER_SAMPLE:
        i = int(np.argmax(mag.view(np.uint64) > BITS_PER_SAMPLE))
        raise ValueError(f"level out of range at sample {i}: |{arr[i]}| > {BITS_PER_SAMPLE}")
    return mag


def embed_trace(levels) -> BitString:
    """Concatenate per-sample embeddings; n levels give n * m bits."""
    return BitString(_UNARY.take(_magnitudes(levels), axis=0).reshape(-1))


def residue_words(levels) -> BitString:
    """The reflected Gray code of each |level| mod 8, RESIDUE_BITS bits MSB
    first; n levels give 3n bits.

    The code is cyclic, so magnitudes up to 3 apart have words that differ
    in at most that many bits, and a +1 or a -1 move flips one bit each,
    not the same one.
    """
    return BitString(_RESIDUE.take(_magnitudes(levels), axis=0).reshape(-1))


def residue_neighbor_bits(levels) -> np.ndarray:
    """Ascending positions in residue_words(levels) whose flip moves a
    level's magnitude by exactly one.

    These are, in each sample's word, the bit a +1 move flips (when its
    magnitude is below m) and the bit a -1 move flips (when it is above 0).
    A copy of the string that differs from the levels' words only by
    off-by-one levels differs from it only at these positions.
    """
    return np.flatnonzero(_NEIGHBOR.take(_magnitudes(levels), axis=0))


def residue_levels(words: BitString, levels) -> np.ndarray:
    """Invert residue_words against nearby levels: for each sample, the one
    magnitude within MAX_RESIDUE_OFFSET of |level| whose word is given.

    Raises ValueError, naming the first sample, when no magnitude in 0..m
    within the window has the residue: the residue is 4 levels from
    |level|, or the one level within 3 that has it is below 0 or above m.
    """
    mag = _magnitudes(levels)
    if len(words) != RESIDUE_BITS * mag.size:
        raise ValueError(f"{len(words)} residue bits for {mag.size} levels")
    received = words.bits.reshape(-1, RESIDUE_BITS) @ _WORD_WEIGHTS
    found = _RECOVERED.take(mag * RESIDUE_MODULUS + received)
    bad = np.flatnonzero(found < 0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"residue of sample {i} is {_NAMED[received[i]]}, and no level in "
                         f"0..{BITS_PER_SAMPLE} within {MAX_RESIDUE_OFFSET} of "
                         f"magnitude {mag[i]} has it")
    return found


def hamming_distance(a: BitString, b: BitString) -> int:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return int(np.count_nonzero(a.bits != b.bits))
