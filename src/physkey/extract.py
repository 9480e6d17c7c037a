"""Toeplitz-hash randomness extraction and the leftover-hash length bound.

The 2-universal family is the set of l x t binary Toeplitz matrices: a seed
of t + l - 1 bits defines T[i, j] = seed[(i - j) + t - 1], and the output is
T x over GF(2).  Universal hashing is an average-case strong extractor
whenever the source min-entropy s satisfies s >= l + 2*log2(1/eps) - 2, so
with eps = 2^-lambda the longest extractable key is
floor(s - 2*lambda + 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantize import BitString

# extract convolves in float32, exact for integers below 2^24
MAX_INPUT_BITS = (1 << 24) - 1


@dataclass(frozen=True)
class ExtractorSeed:
    """Toeplitz seed of t + l - 1 bits for a t-bit input and l-bit output."""

    bits: BitString
    t: int
    l: int

    def __post_init__(self):
        if self.t < 1 or self.l < 1:
            raise ValueError("input and output lengths must be >= 1")
        if self.t > MAX_INPUT_BITS:
            raise ValueError(f"input length {self.t} exceeds {MAX_INPUT_BITS} bits")
        if len(self.bits) != self.t + self.l - 1:
            raise ValueError(
                f"seed has {len(self.bits)} bits, expected t + l - 1 = "
                f"{self.t + self.l - 1}")

    def to_hex(self) -> str:
        return self.bits.to_hex()


def random_seed(rng: np.random.Generator, t: int, l: int) -> ExtractorSeed:
    return ExtractorSeed(BitString(rng.integers(0, 2, size=t + l - 1, dtype=np.uint8)), t, l)


def extract(input_bits: BitString, seed: ExtractorSeed) -> BitString:
    """Multiply by the seed's Toeplitz matrix over GF(2); deterministic.

    Row i of T x is sum_j seed[i - j + t - 1] x[j]: the valid part of the
    integer convolution of the seed with the input, taken mod 2.  The
    convolution runs in float32, where every partial sum is an integer of
    at most t < 2^24 (``ExtractorSeed`` refuses a longer input) and so
    exact; no l x t matrix is formed.
    """
    if len(input_bits) != seed.t:
        raise ValueError(f"input has {len(input_bits)} bits, seed expects {seed.t}")
    sums = np.convolve(seed.bits.bits.astype(np.float32),
                       input_bits.bits.astype(np.float32), mode="valid")
    return BitString((sums.astype(np.int64) & 1).astype(np.uint8))


def max_extractable_length(s_bits: float, epsilon_log2: float) -> int:
    """Longest l with s >= l + 2*lambda - 2; floor, never negative."""
    if s_bits < 0:
        raise ValueError("source min-entropy must be >= 0")
    if epsilon_log2 < 0:
        raise ValueError("security exponent must be >= 0")
    return max(0, math.floor(s_bits - 2.0 * epsilon_log2 + 2.0))
