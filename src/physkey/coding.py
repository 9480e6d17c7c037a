"""Finite-field arithmetic, syndrome decoding and the two secure sketches.

Two codes reconcile two noisy copies through a syndrome sketch, whose
linearity makes syn(w) xor syn(w') the syndrome of the error pattern
alone.  Only the pooled BCH sketch has a wire format (``PKB1``) and is
published; the RS sketch is one in-memory block.  Decoding is fail-closed: any
inconsistency reports an uncorrectable block rather than a silently wrong
correction.

Both codes compute in one field layer: ``field_tables(m)``, the log/antilog
tables of GF(2^m) under the primitive polynomial ``PRIMITIVE_POLYS[m]`` with
generator alpha = x.  Their one layout gives zero a logarithm that points
into a zero tail of the antilog table, so a product is one gather with no
mask for a zero operand.  Both codes locate error positions with one
strength-reduced Chien loop, ``_chien``, which reads a cached table of
several periods of alpha's powers, ``_power_periods(m)``, so that it
reduces its exponents only every few coefficients; every other sum of the form
sum_i c_i alpha^(e_i x) (RS syndromes and Forney evaluations, and both
syndrome re-checks) goes through one array evaluator, ``_gf_sums``.

* ``BchCode`` (what the planner uses): one binary narrow-sense BCH code over
  GF(2^m) covering the whole bitstring, with 2^m - 1 >= its length.  Bit i
  sits at alpha^i and the sketch is the odd syndromes S_1, S_3, ..,
  S_{2t-1} (the even ones are their squares), m*t bits in all.  They are
  computed from the string's remainder modulo the generator polynomial g,
  which vanishes at every alpha^j, so only deg g <= m*t bits are
  evaluated.  Bob runs Berlekamp-Massey in its binary form (with
  S_2j = S_j^2 every other discrepancy is zero and its step is skipped)
  and a Chien search over the bit positions, so the exchange succeeds
  whenever the two strings differ in at most t bits anywhere: one pooled
  error budget, not one per block.  The Chien search first visits the
  positions the caller names as likely (Bob's one-level-off bits) and
  falls back to every position only when those do not hold all the
  locator's roots.
* ``RsCode``: one block of at most 255 8-bit words over a shortened
  (255, k) Reed-Solomon code in GF(2^8) = ``field_tables(8)`` (polynomial
  x^8+x^4+x^3+x^2+1, 0x11D, and alpha = 0x02); the code roots are
  alpha^1 .. alpha^2t.  Word j sits at polynomial degree 254 - j, and a
  shorter block is zero-padded at the tail.  ``rs_sketch``/``rs_recover``
  sketch and decode (Berlekamp-Massey / Chien / Forney) one such block in
  memory, for acceptance criterion 4; ``ss_sketch``/``ss_recover`` are
  the pooled BCH sketch's.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import SketchFormatError, UncorrectableBlockError
from .quantize import BitString

# primitive polynomial of GF(2^m) for each supported m, bit i holding the
# coefficient of x^i; field_tables rejects one that is not primitive
PRIMITIVE_POLYS = {
    3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x89, 8: 0x11D, 9: 0x211,
    10: 0x409, 11: 0x805, 12: 0x1053, 13: 0x201B, 14: 0x4443, 15: 0x8003,
    16: 0x1100B, 17: 0x20009, 18: 0x40081, 19: 0x80027, 20: 0x100009,
}


@dataclass(frozen=True)
class GfTables:
    """Log/antilog tables for GF(2^m) under its fixed primitive polynomial.

    exp[log[a] + log[b]] is a * b, and exp[log[a] + k] is a * alpha^k for
    0 <= k <= order, for every a and b, zero included: log[0] = 2 * order
    points into a zero tail of exp long enough for both sums.
    """

    exp: np.ndarray  # alpha^i for i < 2 * order, then 2 * order + 1 zeros
    log: np.ndarray  # length 2^m; log[0] = 2 * order

    @property
    def order(self) -> int:
        """Multiplicative group order 2^m - 1."""
        return self.log.size - 1


@functools.lru_cache(maxsize=None)
def field_tables(m: int) -> GfTables:
    """Tables of GF(2^m), built on first use (one entry per supported m)."""
    if m not in PRIMITIVE_POLYS:
        raise ValueError(f"no primitive polynomial for GF(2^{m})")
    order = (1 << m) - 1
    poly = PRIMITIVE_POLYS[m]
    powers = [0] * order
    x = 1
    for i in range(order):
        powers[i] = x
        x <<= 1  # multiply by the generator alpha = x
        if x >> m:
            x ^= poly
    exp = np.zeros(4 * order + 1, dtype=np.int64)
    exp[:order] = exp[order:2 * order] = powers
    log = np.zeros(order + 1, dtype=np.int64)
    log[exp[:order]] = np.arange(order)
    if np.count_nonzero(log) != order - 1:  # alpha's powers repeat early
        raise ValueError(f"polynomial {poly:#x} is not primitive for GF(2^{m})")
    log[0] = 2 * order
    exp.setflags(write=False)
    log.setflags(write=False)
    return GfTables(exp, log)


def _gf_sums(coefs, exps, points, tables: GfTables) -> np.ndarray:
    # sum_i coefs[..., i] * alpha^(exps[i] * x) in GF(2^m) for each point x,
    # as an (..., len(points)) array
    c = np.asarray(coefs, dtype=np.int64)[..., None]
    terms = tables.exp[tables.log[c] + np.multiply.outer(exps, points) % tables.order]
    return np.bitwise_xor.reduce(terms, axis=-2)


@dataclass(frozen=True)
class RsCode:
    """Shortened Reed-Solomon code parameters over GF(2^8)."""

    n_sym: int = 255
    k_sym: int = 229

    def __post_init__(self):
        if not (1 <= self.k_sym < self.n_sym <= 255):
            raise ValueError(f"invalid RS parameters ({self.n_sym}, {self.k_sym})")

    @property
    def t(self) -> int:
        return (self.n_sym - self.k_sym) // 2

    @property
    def n_syndromes(self) -> int:
        return self.n_sym - self.k_sym


def rs_syndrome(words, code: RsCode) -> np.ndarray:
    """Evaluate the (zero-padded) word block at the 2t code roots.

    Returns S_1 .. S_2t; all zeros iff the padded block is a codeword of
    the shortened code.  The zero padding adds nothing to any sum.
    """
    w = np.asarray(words, dtype=np.int64)
    if w.size > code.n_sym:
        raise ValueError(f"block of {w.size} words exceeds n_sym={code.n_sym}")
    if w.ndim != 1 or w.size and (w.min() < 0 or w.max() > 255):
        raise ValueError("words must be a 1-d array of values in [0, 255]")
    return _gf_sums(w, np.arange(code.n_sym - 1, code.n_sym - 1 - w.size, -1),
                    np.arange(1, code.n_syndromes + 1), field_tables(8))


def _bm_locator(synd, tables: GfTables, binary: bool = False):
    """Berlekamp-Massey over GF(2^m); synd[i] = S_{i+1}.

    Returns the locator Lambda as a low-degree-first coefficient list
    [1, l1, l2, ...] with Lambda(x) = prod_p (1 - X_p x), and its degree.
    With binary=True the syndromes must satisfy S_2j = S_j^2; every
    discrepancy at an even-indexed syndrome is then zero, so only the steps
    at odd-indexed syndromes are run (Berlekamp's binary simplification).
    """
    exp, log = tables.exp, tables.log
    s = np.asarray(synd, dtype=np.int64)
    log_s = log[s]
    n = s.size
    step = 2 if binary else 1
    c = np.zeros(n + 1, dtype=np.int64)  # current connection polynomial
    c[0] = 1
    log_b = log[c]                       # logs of the previous best
    L = 0
    mshift = 1
    log_bb = 0                           # log of the discrepancy at last length change
    for i in range(0, n, step):
        d = int(s[i]) ^ int(np.bitwise_xor.reduce(exp[log[c[1:L + 1]] + log_s[i - L:i][::-1]]))
        if d == 0:
            mshift += step
            continue
        update = exp[log_b[:n + 1 - mshift] + (int(log[d]) - log_bb) % tables.order]
        if 2 * L <= i:
            log_b = log[c]
            c[mshift:] ^= update
            L = i + 1 - L
            log_bb = int(log[d])
            mshift = step
        else:
            c[mshift:] ^= update
            mshift += step
    return c[:L + 1].tolist(), L


def decode_error_from_syndrome(syndrome_diff, code: RsCode) -> list:
    """Unique error pattern of word weight <= t matching the given syndromes.

    Returns a list of (position, magnitude) pairs in ascending position,
    position 0 being the block's first word, at degree n_sym - 1.  Raises
    UncorrectableBlockError (block 0: the sketch is one block) when the
    syndromes are inconsistent with any weight-<= t error.
    """
    synd = np.asarray(syndrome_diff, dtype=np.int64)
    if synd.size != code.n_syndromes:
        raise ValueError(f"expected {code.n_syndromes} syndromes, got {synd.size}")
    if not synd.any():
        return []

    tables = field_tables(8)
    lam, degree = _bm_locator(synd, tables)
    if degree > code.t:
        raise UncorrectableBlockError(0, f"locator degree {degree} exceeds t={code.t}")

    # Chien search: position p is in error iff Lambda(X_p^-1) = 0, where
    # X_p = alpha^(n_sym - 1 - p); searching log X_p from the top keeps the
    # positions ascending.
    x_logs = _chien(lam, np.arange(code.n_sym - 1, -1, -1), tables)
    if x_logs.size != degree:
        raise UncorrectableBlockError(
            0, f"locator has {x_logs.size} roots, expected {degree}")
    positions = code.n_sym - 1 - x_logs

    # Forney with fcr = 1: Omega(x) = S(x) Lambda(x) mod x^2t,
    # Y_p = Omega(X_p^-1) / Lambda'(X_p^-1).
    exp, log, order = tables.exp, tables.log, tables.order
    log_synd = log[synd]
    omega = np.zeros(synd.size, dtype=np.int64)  # both low-degree-first
    for j, coef in enumerate(lam):
        omega[j:] ^= exp[log_synd[:synd.size - j] + log[coef]]
    lam_deriv = np.zeros(degree, dtype=np.int64)  # d/dx in char 2: odd terms
    lam_deriv[0::2] = lam[1::2]
    x_inv = -x_logs % order
    num = _gf_sums(omega, np.arange(omega.size), x_inv, tables)
    den = _gf_sums(lam_deriv, np.arange(degree), x_inv, tables)
    if not den.all():
        raise UncorrectableBlockError(0, "zero locator derivative at a root")
    mags = exp[log[num] + order - log[den]]

    # fail-closed: the reconstructed pattern must reproduce the syndromes
    if not mags.all():
        raise UncorrectableBlockError(0, "zero error magnitude")
    located = _gf_sums(mags, code.n_sym - 1 - positions,
                       np.arange(1, code.n_syndromes + 1), tables)
    if not np.array_equal(located, synd):
        raise UncorrectableBlockError(0, "syndrome re-check failed")
    return list(zip(positions.tolist(), mags.tolist()))


@dataclass(frozen=True)
class RsSketch:
    """One block's 2t syndromes (16t bits) and word count; in memory only."""

    syndromes: np.ndarray
    code: RsCode
    n_words: int

    def __post_init__(self):
        arr = np.asarray(self.syndromes, dtype=np.int64)
        if arr.shape != (self.code.n_syndromes,):
            raise ValueError(f"expected {self.code.n_syndromes} syndromes, got {arr.size}")
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("syndromes must be elements of GF(2^8)")
        if not 0 <= self.n_words <= self.code.n_sym:
            raise ValueError(f"word count {self.n_words} outside 0..{self.code.n_sym}")
        object.__setattr__(self, "syndromes", arr)


def rs_sketch(words, code: RsCode) -> RsSketch:
    """Syndrome sketch of one block of at most n_sym words in [0, 255]."""
    return RsSketch(rs_syndrome(words, code), code, np.size(words))


def rs_recover(noisy_words, sketch: RsSketch) -> np.ndarray:
    """Recover the sketched words from a noisy copy within capacity.

    Decodes the error pattern of syn(w') xor u and subtracts it (xor).
    Raises UncorrectableBlockError beyond t word errors, or when the
    decoded pattern falls in the zero padding.
    """
    words = np.array(noisy_words, dtype=np.int64)
    if words.size != sketch.n_words:
        raise ValueError(f"noisy copy has {words.size} words; sketch covers {sketch.n_words}")
    diff = rs_syndrome(words, sketch.code) ^ sketch.syndromes
    for p, mag in decode_error_from_syndrome(diff, sketch.code):
        if p >= sketch.n_words:
            raise UncorrectableBlockError(0, f"decoded error in zero padding (position {p})")
        words[p] ^= mag
    return words


@dataclass(frozen=True)
class BchCode:
    """Binary narrow-sense BCH code of length 2^m - 1 bits correcting t bit errors.

    A string shorter than 2^m - 1 bits is sketched as a shortened codeword:
    its missing high positions are zero, and its length travels in the
    sketch.  The designed distance 2t + 1 must stay below the length.
    """

    m: int
    t: int

    def __post_init__(self):
        if self.m not in PRIMITIVE_POLYS:
            raise ValueError(f"field degree m={self.m} outside the supported "
                             f"{min(PRIMITIVE_POLYS)}..{max(PRIMITIVE_POLYS)}")
        if self.t < 1 or 2 * self.t >= self.n_sym:
            raise ValueError(f"BCH capacity t={self.t} does not fit length {self.n_sym}")

    @classmethod
    def for_length(cls, n_bits: int, t: int) -> "BchCode":
        """Code over the smallest field whose length 2^m - 1 covers n_bits bits."""
        return cls(max(min(PRIMITIVE_POLYS), int(n_bits).bit_length()), t)

    @property
    def n_sym(self) -> int:
        """Code length 2^m - 1, in bits."""
        return (1 << self.m) - 1

    def to_dict(self) -> dict:
        return {"kind": "bch", "m": self.m, "t": self.t, "n_sym": self.n_sym}


def _cyclotomic_cosets(code: BchCode) -> list:
    # the cosets {j 2^k mod 2^m - 1} of the odd j < 2t, each once
    order = code.n_sym
    seen, cosets = set(), []
    for j in range(1, 2 * code.t, 2):
        if j in seen:
            continue
        coset, e = [], j
        while e not in seen:
            seen.add(e)
            coset.append(e)
            e = 2 * e % order
        cosets.append(coset)
    return cosets


@functools.lru_cache(maxsize=32)
def bch_generator(code: BchCode) -> int:
    """Generator polynomial g of the code as a bitmask, bit i holding the
    coefficient of x^i: the product of the minimal polynomials of alpha^1,
    alpha^3, .., alpha^(2t-1), of degree at most m*t.
    """
    tables = field_tables(code.m)
    cosets = _cyclotomic_cosets(code)
    g = 1
    for size in sorted({len(c) for c in cosets}):
        # minimal polynomials of the cosets of this size, one per row, built
        # as prod (x - alpha^e) over the coset, low degree first
        roots = np.array([c for c in cosets if len(c) == size], dtype=np.int64)
        poly = np.zeros((len(roots), size + 1), dtype=np.int64)
        poly[:, 0] = 1
        for k in range(size):
            scaled = tables.exp[tables.log[poly] + roots[:, k:k + 1]]
            scaled[:, 1:] ^= poly[:, :-1]  # + x * poly
            poly = scaled
        if poly.max() > 1:
            raise ValueError(f"GF(2^{code.m}) minimal polynomial is not binary")
        for row in poly:  # g *= row in GF(2)[x]
            g = functools.reduce(int.__xor__, (g << i for i in np.flatnonzero(row).tolist()))
    return g


@dataclass(frozen=True)
class _RemainderTables:
    """What bch_syndrome needs besides g: a byte-wise reduction table, and
    the logs of each byte's value and of each byte offset's power at every
    odd root alpha^j."""

    degree: int             # D = deg g
    reduce: tuple           # h << D xor (h x^D mod g), for each byte h
    byte_log: np.ndarray    # (t, 256) log of byte h evaluated at alpha^j
    offset_log: np.ndarray  # (t, ceil(D / 8)) log alpha^(8 k j) for byte k


@functools.lru_cache(maxsize=32)
def _remainder_tables(code: BchCode) -> _RemainderTables:
    g = bch_generator(code)
    degree = g.bit_length() - 1
    shifted = []  # x^(D + b) mod g, b = 0..7, with the x^(D + b) term kept
    r = g ^ (1 << degree)
    for b in range(8):
        shifted.append(r ^ (1 << (degree + b)))
        r <<= 1
        if r >> degree & 1:
            r ^= g
    reduce = [0] * 256
    for h in range(1, 256):
        low = (h & -h).bit_length() - 1
        reduce[h] = reduce[h & (h - 1)] ^ shifted[low]

    tables = field_tables(code.m)
    js = np.arange(1, 2 * code.t, 2, dtype=np.int64)
    powers = tables.exp[np.multiply.outer(js, np.arange(8)) % tables.order]  # alpha^(j b)
    bytes_ = np.arange(256)
    value = np.zeros((code.t, 256), dtype=np.int64)
    for b in range(8):
        value ^= powers[:, b:b + 1] * ((bytes_ >> b) & 1)
    byte_log = tables.log[value].astype(np.int32)
    offsets = 8 * np.arange(-(-degree // 8), dtype=np.int64)
    offset_log = (np.multiply.outer(js, offsets) % tables.order).astype(np.int32)
    for arr in (byte_log, offset_log):
        arr.setflags(write=False)
    return _RemainderTables(degree, tuple(reduce), byte_log, offset_log)


def bch_syndrome(bits, code: BchCode) -> np.ndarray:
    """Odd syndromes S_1, S_3, .., S_{2t-1} of a bit vector, bit i at alpha^i.

    The string is first reduced modulo the generator g, a byte at a time as
    in a table-driven CRC; g vanishes at every alpha^j, so S_j is the
    remainder, at most deg g bits, evaluated at alpha^j.
    """
    bits = np.asarray(bits).ravel()
    if bits.size > code.n_sym:
        beyond = np.flatnonzero(bits[code.n_sym:])
        if beyond.size:
            raise ValueError(
                f"bit {code.n_sym + beyond[-1]} is beyond the code length {code.n_sym}")
    rt = _remainder_tables(code)
    degree, reduce = rt.degree, rt.reduce
    # bytes of the string polynomial, highest degree first
    packed = np.packbits(bits != 0, bitorder="little")[::-1].tobytes()
    head = degree // 8  # these bytes already sit below x^D
    r = int.from_bytes(packed[:head], "big")
    for byte in packed[head:]:
        r = r << 8 | byte
        r ^= reduce[r >> degree]
    # sum over the remainder's bytes k of byte_k(alpha^j) * alpha^(8 k j)
    rem = np.frombuffer(r.to_bytes(rt.offset_log.shape[1], "little"), dtype=np.uint8)
    terms = field_tables(code.m).exp[rt.byte_log[:, rem] + rt.offset_log]
    return np.bitwise_xor.reduce(terms, axis=1)


@functools.lru_cache(maxsize=None)
def _power_periods(m: int) -> np.ndarray:
    """alpha^i for 0 <= i < P * (2^m - 1), read-only: P periods of the
    antilog table, in uint16 with P = 16 up to m = 16 and in uint32 with
    P = 8 above, so no larger in bytes than ``field_tables(m).exp``."""
    tables = field_tables(m)
    dtype, periods = (np.uint16, 16) if m <= 16 else (np.uint32, 8)
    powers = np.tile(tables.exp[:tables.order].astype(dtype), periods)
    powers.setflags(write=False)
    return powers


def _chien(lam, points: np.ndarray, tables: GfTables) -> np.ndarray:
    # the points p with Lambda(alpha^-p) = 0, in the order given.  One pass
    # per coefficient over a running exponent k * log alpha^-p per point
    # (not _gf_sums' coefficients x points temporary), left unreduced for
    # P - 2 coefficients: below (P - 1) * order, plus log lambda_k < order,
    # it indexes the P-period power table directly, so a coefficient costs
    # an add, a gather and an xor, and a zero one only the add.  On the
    # exchange's candidate sets (about 4 100 points, about 100 coefficients,
    # m = 13) this took 0.67 ms per search against 1.52 ms for a loop that
    # reduced at every coefficient, and 1.2 ms against 2.6 ms over all
    # 6 975 bits (best of 7, 2-vCPU Xeon).
    powers = _power_periods(tables.order.bit_length())
    log, order = tables.log, tables.order
    period = powers.size // order - 2
    step = (order - points.astype(np.intp)) % order  # log alpha^-p
    exponent = np.zeros(points.size, dtype=np.intp)  # k log alpha^-p, unreduced
    value = np.ones(points.size, dtype=powers.dtype)  # lambda_0 = 1
    for k, coef in enumerate(lam[1:], 1):
        exponent += step
        if coef:
            value ^= powers[log[coef]:].take(exponent)
        if k % period == 0:
            np.remainder(exponent, order, out=exponent)
    return points[value == 0]


def bch_decode(syndrome_diff, code: BchCode, n_bits: int, candidates=()) -> np.ndarray:
    """Positions, all below n_bits, of the unique error pattern of weight <= t
    whose odd syndromes are syndrome_diff.

    candidates are distinct ascending positions below n_bits where errors
    are likely; they are searched first, and the full search over all
    n_bits positions runs only when they do not hold every root of the
    locator.  The positions returned, and any error raised, are the same
    whatever the candidates.  Raises UncorrectableBlockError (block 0:
    the sketch is one block) when no such pattern exists.
    """
    odd = np.asarray(syndrome_diff, dtype=np.int64)
    if odd.shape != (code.t,):
        raise ValueError(f"expected {code.t} odd syndromes, got {odd.size}")
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.ndim != 1 or candidates.size and (
            candidates[0] < 0 or candidates[-1] >= n_bits or (np.diff(candidates) <= 0).any()):
        raise ValueError(f"candidates must be distinct ascending positions below {n_bits}")
    if not odd.any():
        return np.zeros(0, dtype=np.int64)
    tables = field_tables(code.m)

    # S_2j = S_j^2 for a binary error pattern, so S_i = S_j^(2^a) for
    # i = 2^a j with j odd: log S_i = 2^a log S_j, and a zero stays zero
    i = np.arange(1, 2 * code.t + 1)
    power = i & -i                # 2^a
    base = odd[i // power >> 1]   # S_j, at index (j - 1) / 2
    synd = np.where(base != 0, tables.exp[tables.log[base] * power % tables.order], 0)
    lam, degree = _bm_locator(synd, tables, binary=True)
    if degree > code.t:
        raise UncorrectableBlockError(0, f"locator degree {degree} exceeds t={code.t}")

    # Chien search: position p is in error iff Lambda(alpha^-p) = 0.  The
    # alpha^-p of distinct p < n_bits <= 2^m - 1 are distinct, and Lambda
    # has at most `degree` roots, so when the candidates hold `degree` of
    # them they hold every root the full search would find.
    positions = _chien(lam, candidates, tables)
    if positions.size != degree:
        positions = _chien(lam, np.arange(n_bits), tables)
    if positions.size != degree:
        raise UncorrectableBlockError(
            0, f"locator has {positions.size} roots among {n_bits} bits, expected {degree}")
    # fail-closed: the located pattern must reproduce the syndromes
    located = _gf_sums(np.ones(positions.size, dtype=np.int64), positions,
                       np.arange(1, 2 * code.t, 2), tables)
    if not np.array_equal(located, odd):
        raise UncorrectableBlockError(0, "syndrome re-check failed")
    return positions


@dataclass(frozen=True)
class BchSketch:
    """Public reconciliation message of the pooled sketch: the odd BCH
    syndromes of the whole bitstring and its length.

    Wire format: magic ``PKB1``, then m (1 byte), t (4 bytes) and the string
    length in bits (4 bytes), big-endian, then the t syndromes as m-bit
    fields packed most-significant-bit first, the last byte zero-padded.
    """

    syndromes: np.ndarray
    code: BchCode
    n_bits: int

    MAGIC = b"PKB1"
    HEADER = struct.Struct(">BII")

    def __post_init__(self):
        arr = np.asarray(self.syndromes, dtype=np.int64)
        if arr.shape != (self.code.t,):
            raise ValueError(f"expected {self.code.t} syndromes, got {arr.size}")
        if arr.min() < 0 or arr.max() > self.code.n_sym:
            raise ValueError(f"syndromes must be elements of GF(2^{self.code.m})")
        if not 1 <= self.n_bits <= self.code.n_sym:
            raise ValueError(f"string length {self.n_bits} outside 1..{self.code.n_sym}")
        object.__setattr__(self, "syndromes", arr)

    @property
    def bit_length(self) -> int:
        """Public leakage |u| in bits: m * t."""
        return self.code.m * self.code.t

    def to_bytes(self) -> bytes:
        m = self.code.m
        fields = (self.syndromes[:, None] >> np.arange(m - 1, -1, -1)) & 1
        return (self.MAGIC + self.HEADER.pack(m, self.code.t, self.n_bits)
                + np.packbits(fields.astype(np.uint8)).tobytes())

    @classmethod
    def _read_header(cls, raw: bytes):
        if raw[:4] != cls.MAGIC:
            raise SketchFormatError("bad sketch magic")
        if len(raw) < 4 + cls.HEADER.size:
            raise SketchFormatError(
                f"pooled sketch header needs {4 + cls.HEADER.size} bytes, got {len(raw)}")
        return cls.HEADER.unpack_from(raw, 4)

    @classmethod
    def byte_length(cls, raw: bytes) -> int:
        """Total serialized length implied by the header (for framed parsing)."""
        m, t, _ = cls._read_header(raw)
        return 4 + cls.HEADER.size + -(-m * t // 8)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BchSketch":
        m, t, n_bits = cls._read_header(raw)
        try:
            code = BchCode(m, t)
        except ValueError as exc:
            raise SketchFormatError(f"pooled sketch header: {exc}") from None
        body = raw[4 + cls.HEADER.size:]
        need = -(-m * t // 8)
        if len(body) != need:
            raise SketchFormatError(f"pooled sketch body holds {len(body)} bytes, need {need}")
        bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8))
        if bits[m * t:].any():
            raise SketchFormatError("nonzero padding bits after the last syndrome")
        if not 1 <= n_bits <= code.n_sym:
            raise SketchFormatError(f"string length {n_bits} outside 1..{code.n_sym}")
        weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
        return cls(bits[:m * t].reshape(t, m).astype(np.int64) @ weights, code, n_bits)


def ss_sketch(rho: BitString, code: BchCode) -> BchSketch:
    """Pooled syndrome sketch of a whole bitstring under one BCH code."""
    if not 1 <= len(rho) <= code.n_sym:
        raise ValueError(f"string of {len(rho)} bits does not fit code length {code.n_sym}")
    return BchSketch(bch_syndrome(rho.bits, code), code, len(rho))


def ss_recover(rho_prime: BitString, sketch: BchSketch, candidates=()) -> BitString:
    """Recover the sketched string from a noisy copy within capacity.

    Decodes the error pattern of syn(rho') xor u and subtracts it (xor):
    up to t bit errors anywhere in the string.  Raises
    UncorrectableBlockError (block 0) beyond capacity.  candidates are
    ascending bit positions of rho' where errors are likely; the decoder
    searches them first (see bch_decode), and the result never depends on
    them.
    """
    if len(rho_prime) != sketch.n_bits:
        raise ValueError(f"noisy copy has {len(rho_prime)} bits; sketch covers {sketch.n_bits}")
    diff = bch_syndrome(rho_prime.bits, sketch.code) ^ sketch.syndromes
    bits = rho_prime.bits.copy()
    bits[bch_decode(diff, sketch.code, sketch.n_bits, candidates)] ^= 1
    return BitString(bits)
