import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physkey.quantize import (BITS_PER_SAMPLE, BitString, embed_trace, embed_unary,
                              hamming_distance, neighbor_bits)

from .oracles import neighbor_bits_brute_force


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


class TestNeighborBits:
    @given(st.lists(st.integers(-BITS_PER_SAMPLE, BITS_PER_SAMPLE), max_size=12))
    @settings(max_examples=200)
    def test_matches_brute_force_flips(self, levels):
        assert neighbor_bits(levels).tolist() == neighbor_bits_brute_force(levels)

    def test_reference_words(self):
        # 0 -> last zero only; 3 -> bits 4 and 5; 8 -> first one only
        assert neighbor_bits([0, -3, -8]).tolist() == [7, 12, 13, 16]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="sample 1"):
            neighbor_bits([0, -9])


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

    def test_xor(self):
        assert (bits("0110") ^ bits("0011")) == bits("0101")
