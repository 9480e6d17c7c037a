import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physkey.quantize import (BITS_PER_SAMPLE, BitString, embed_trace, embed_unary,
                              hamming_distance, residue_levels, residue_neighbor_bits,
                              residue_words)

from .oracles import (arith_embed_trace, arith_residue_levels, arith_residue_neighbor_bits,
                      arith_residue_words, gray_residue_word,
                      residue_neighbor_bits_brute_force)

INT64_MIN = -2 ** 63


def bits(s: str) -> BitString:
    return BitString([int(c) for c in s.replace(" ", "")])


class TestEmbedUnary:
    def test_reference_encoding(self):
        # -3 with m=8, no sign: five zeros then three ones
        assert embed_unary(-3) == bits("00000111")

    def test_zero(self):
        assert embed_unary(0) == bits("00000000")

    def test_boundary_with_sign(self):
        # magnitude m fills the word, whichever the level's sign
        assert embed_unary(-8) == bits("11111111")
        assert embed_unary(8) == bits("11111111")

    def test_positive_with_sign(self):
        # no sign bit: a positive level embeds as its negation does
        assert embed_unary(2) == bits("00000011")
        assert embed_unary(-2) == bits("00000011")

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            embed_unary(-9)

    def test_int64_minimum_out_of_range(self):
        # its abs stays negative, so a signed "> 8" test passed it
        with pytest.raises(ValueError, match=r"^level out of range at sample 0: "
                                             r"\|-9223372036854775808\| > 8$"):
            embed_trace([INT64_MIN, -3])


class TestEmbedTrace:
    def test_length_is_800_for_100_samples(self):
        out = embed_trace([-(i % 9) for i in range(100)])
        assert len(out) == 800

    def test_empty(self):
        assert len(embed_trace([])) == 0

    def test_two_samples(self):
        assert embed_trace([-1, -2]) == bits("00000001 00000011")

    def test_error_names_sample(self):
        with pytest.raises(ValueError, match="sample 1"):
            embed_trace([0, -9])

    def test_matches_per_sample_embedding(self):
        levels = [-8, -1, 0, 3, 8, -4]
        joined = embed_trace(levels)
        manual = BitString(np.concatenate([embed_unary(x).bits for x in levels]))
        assert joined == manual

    def test_length_homomorphism(self):
        assert len(embed_trace([0, -1, -2, -3])) == 4 * BITS_PER_SAMPLE


MAGNITUDES = range(BITS_PER_SAMPLE + 1)


class TestResidueWords:
    def test_gray_code_of_magnitude_mod_8(self):
        levels = [-8, -7, -3, 0, 1, 4, 5, 8]
        expect = [b for x in levels for b in gray_residue_word(x)]
        assert residue_words(levels).bits.tolist() == expect
        assert len(residue_words(levels)) == 3 * len(levels)

    def test_offsets_up_to_3_move_at_most_as_many_bits(self):
        for a in MAGNITUDES:
            for b in MAGNITUDES:
                if abs(a - b) <= 3:
                    d = hamming_distance(residue_words([a]), residue_words([b]))
                    assert d <= abs(a - b) and (d == 0) == (a == b), (a, b)

    def test_every_level_within_3_recovered(self):
        # Bob's own level is b; Alice's residue names a, either sign
        for a in MAGNITUDES:
            for b in MAGNITUDES:
                if abs(a - b) <= 3:
                    for bob in (b, -b):
                        assert residue_levels(residue_words([-a]), [bob]).tolist() == [a]

    def test_offset_of_4_names_no_level(self):
        for a in MAGNITUDES:
            for b in MAGNITUDES:
                if abs(a - b) == 4:
                    with pytest.raises(ValueError, match=f"^residue of sample 1 is {a % 8}, "
                                                         "and no level in 0..8 within 3 of "
                                                         f"magnitude {b} has it$"):
                        residue_levels(residue_words([0, a]), [0, b])

    def test_level_outside_range_fails(self):
        # residue 7 within 3 of magnitude 2 is -1, not a level
        with pytest.raises(ValueError, match="^residue of sample 0 is 7, and no level in "
                                             "0..8 within 3 of magnitude 2 has it$"):
            residue_levels(residue_words([7]), [2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="6 residue bits for 3 levels"):
            residue_levels(residue_words([1, 2]), [1, 2, 3])

    def test_int64_minimum_out_of_range(self):
        for levels in ([INT64_MIN, -3], np.array([INT64_MIN, -3])):
            with pytest.raises(ValueError, match=r"^level out of range at sample 0: "
                                                 r"\|-9223372036854775808\| > 8$"):
                residue_words(levels)
            with pytest.raises(ValueError, match="^level out of range at sample 0: "):
                residue_neighbor_bits(levels)
            with pytest.raises(ValueError, match="^level out of range at sample 0: "):
                residue_levels(residue_words([0, 3]), levels)


class TestIntegerLevels:
    """Every encoding checks its levels before the int64 cast."""

    ENCODINGS = [embed_trace, residue_words, residue_neighbor_bits,
                 lambda levels: residue_levels(residue_words([0, 0]), levels)]

    @pytest.mark.parametrize("levels, message", [
        ([1.7, 0], "level at sample 0 is not an int64 integer: 1.7"),
        (np.array([2.9, 1]), "level at sample 0 is not an int64 integer: 2.9"),
        ([0, np.nan], "level at sample 1 is not an int64 integer: nan"),
        (["3", "0"], "level at sample 0 is '3': <U1 arrays hold no int64 integers")])
    def test_refused_naming_the_first_bad_sample(self, levels, message):
        for encode in self.ENCODINGS:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                encode(levels)

    def test_whole_floats_encode_as_their_integers(self):
        assert embed_trace(np.array([3.0, -1.0])) == embed_trace([3, -1])
        assert residue_words(np.array([5.0, 0.0])) == residue_words(np.array([5, 0], np.uint8))


LEVEL_LISTS = st.lists(st.integers(-BITS_PER_SAMPLE, BITS_PER_SAMPLE), max_size=40)


class TestTablesMatchArithmetic:
    """Each table lookup against the per-sample arithmetic it replaced."""

    @given(LEVEL_LISTS)
    @settings(max_examples=300)
    def test_embed_trace(self, levels):
        assert embed_trace(levels).bits.tolist() == arith_embed_trace(levels).tolist()

    @given(LEVEL_LISTS)
    @settings(max_examples=300)
    def test_residue_words(self, levels):
        assert residue_words(levels).bits.tolist() == arith_residue_words(levels).tolist()

    @given(LEVEL_LISTS)
    @settings(max_examples=300)
    def test_residue_neighbor_bits(self, levels):
        assert residue_neighbor_bits(levels).tolist() == \
            arith_residue_neighbor_bits(levels).tolist()

    @staticmethod
    def assert_same_recovery(words, levels):
        # equal magnitudes, or the same message naming the same first sample
        try:
            want = arith_residue_levels(words.bits, levels).tolist()
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                residue_levels(words, levels)
            assert str(got.value) == str(exc)
        else:
            assert residue_levels(words, levels).tolist() == want

    @given(st.lists(st.tuples(st.integers(-BITS_PER_SAMPLE, BITS_PER_SAMPLE),
                              st.integers(-5, 5)), max_size=40))
    @settings(max_examples=500)
    def test_residue_levels(self, pairs):
        # Alice's magnitude lies up to 5 from Bob's, so her residue may be 4
        # away or name a level past either end of 0..8
        words = BitString([b for bob, off in pairs
                           for b in gray_residue_word((abs(bob) + off) % 8)])
        self.assert_same_recovery(words, [bob for bob, _ in pairs])

    def test_every_pair_of_magnitude_and_word(self):
        # the table's whole domain, one sample at a time and as one array
        levels = [b for b in MAGNITUDES for _ in range(8)]
        words = BitString([int(c) for _ in MAGNITUDES for w in range(8)
                           for c in format(w, "03b")])
        for i, level in enumerate(levels):
            self.assert_same_recovery(BitString(words.bits[3 * i:3 * i + 3]), [level])
        self.assert_same_recovery(words, levels)

    def test_empty_arrays(self):
        empty = np.zeros(0, dtype=np.int64)
        assert len(embed_trace(empty)) == len(residue_words(empty)) == 0
        assert residue_neighbor_bits(empty).size == 0
        assert residue_levels(BitString([]), empty).size == 0


class TestResidueNeighborBits:
    @given(st.lists(st.integers(-BITS_PER_SAMPLE, BITS_PER_SAMPLE), max_size=12))
    @settings(max_examples=200)
    def test_matches_brute_force_flips(self, levels):
        assert residue_neighbor_bits(levels).tolist() == \
            residue_neighbor_bits_brute_force(levels)

    def test_reference_words(self):
        # 0 (000) -> its +1 bit only; 3 (010) -> the MSB to 4 (110) and the
        # LSB to 2 (011); 8 (000) -> the MSB to 7 (100) only
        assert residue_neighbor_bits([0, -3, -8]).tolist() == [2, 3, 5, 6]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="sample 1"):
            residue_neighbor_bits([0, -9])


class TestHamming:
    def test_equal(self):
        a = bits("00000111")
        assert hamming_distance(a, a) == 0

    def test_forced_count(self):
        assert hamming_distance(bits("00000111"), bits("00011111")) == 2

    def test_random_recount(self, rng):
        a = BitString(rng.integers(0, 2, 64, dtype=np.uint8))
        b = BitString(rng.integers(0, 2, 64, dtype=np.uint8))
        direct = sum(int(x != y) for x, y in zip(a.bits, b.bits))
        assert hamming_distance(a, b) == direct

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hamming_distance(bits("01"), bits("011"))


class TestIsometry:
    def test_same_sign_isometry_exhaustive(self):
        for x in range(-8, 1):
            for y in range(-8, 1):
                d = hamming_distance(embed_unary(x), embed_unary(y))
                assert d == abs(x - y), (x, y)

    def test_mixed_sign_distance_documented(self):
        # opposite-sign levels differ by ||x|-|y||: the map is not an
        # isometry across zero
        for x in range(-8, 0):
            for y in range(1, 9):
                d = hamming_distance(embed_unary(x), embed_unary(y))
                assert d == abs(abs(x) - abs(y))


class TestBitString:
    def test_hex_round_trip(self):
        b = bits("101011001110")
        assert b.to_hex() == "12:ace0"
        assert BitString.from_hex("12:ace0") == b

    @given(st.lists(st.integers(0, 1), max_size=64))
    @settings(max_examples=200)
    def test_hex_round_trip_property(self, raw):
        b = BitString(raw)
        assert BitString.from_hex(b.to_hex()) == b

    @pytest.mark.parametrize("text", [
        "012:ace0", "12:ACE0", "12:ac e0", " 12:ace0", "12:ace0\n", "+12:ace0", "1_2:ace0",
        "12:ace", "\u0661\u0662:ace0", "12ace0"])
    def test_only_the_written_form_parses(self, text):
        # to_hex writes "12:ace0" for these bits and nothing else
        with pytest.raises(ValueError):
            BitString.from_hex(text)

    def test_bad_padding_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            BitString.from_hex("4:ff")

    @pytest.mark.parametrize("raw", [[256], [1.7], np.array([257]), [0, 2], [-1],
                                     np.array([0, 256], dtype=np.uint16), [float("nan")]])
    def test_values_checked_before_the_cast(self, raw):
        # a cast to uint8 first wrapped 256 to 0 and 257 to 1 and cut 1.7 to 1
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            BitString(raw)

    @pytest.mark.parametrize("raw", [[True, False], np.array([1, 0, 1], dtype=np.uint8),
                                     [0, 1, 1], np.array([0.0, 1.0]), []])
    def test_zero_one_values_load(self, raw):
        b = BitString(raw)
        assert b.bits.dtype == np.uint8
        assert b.bits.tolist() == [int(x) for x in raw]

    def test_copies_its_input(self):
        raw = np.array([0, 1], dtype=np.uint8)
        b = BitString(raw)
        raw[0] = 1
        assert b.bits.tolist() == [0, 1] and not b.bits.flags.writeable
