import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physkey import coding
from physkey.channel import family_config, simulate_run
from physkey.coding import (PRIMITIVE_POLYS, BchCode, BchSketch, RsCode, RsSketch,
                            _bm_locator, bch_decode, bch_generator, bch_syndrome,
                            decode_error_from_syndrome, field_tables, rs_recover,
                            rs_sketch, rs_syndrome, ss_recover, ss_sketch)
from physkey.errors import PhyskeyError, SketchFormatError, UncorrectableBlockError
from physkey.extract import ExtractorSeed, extract, random_seed
from physkey.protocol import Transcript, plan_parameters, run_exchange
from physkey.quantize import BitString

from .oracles import (alpha_power, bch_generator_product, gf2m_power_sums, peasant_mul,
                      toeplitz_int64)

GF256 = field_tables(8)  # the RS code's field


def encode_codeword(msg, code: RsCode, rng=None):
    """Test-side systematic RS encoder: message plus generator-poly remainder.

    Built from the generator polynomial with roots alpha^1..alpha^2t in
    table-free peasant arithmetic, independently of the field tables and
    the syndrome machinery under test.
    """
    gen = [1]
    for i in range(1, code.n_syndromes + 1):
        gen = _poly_mul_ref(gen, [1, alpha_power(i, 8)])
    msg = list(msg)
    out = msg + [0] * (len(gen) - 1)
    for i in range(len(msg)):
        coef = out[i]
        if coef:
            for j in range(1, len(gen)):
                out[i + j] ^= peasant_mul(gen[j], coef, 8)
    return np.array(msg + out[len(msg):], dtype=np.int64)


def _poly_mul_ref(p, q):
    r = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            r[i + j] ^= peasant_mul(pi, qj, 8)
    return r


def table_mul(a, b, tables=GF256):
    # products through the log/antilog tables, as the decoders form them:
    # one gather, zero operands included, with no mask
    return tables.exp[tables.log[a] + tables.log[b]]


class TestField:
    """GF(2^8) as field_tables(8) computes it, against the peasant oracle."""

    def test_add_self_is_zero(self):
        # in characteristic 2 the cross term ab + ab of (a + b)^2 vanishes
        a, b = np.meshgrid(np.arange(256), np.arange(256))
        assert np.array_equal(table_mul(a ^ b, a ^ b), table_mul(a, a) ^ table_mul(b, b))

    def test_mul_identity(self):
        x = np.arange(256)
        assert np.array_equal(table_mul(x, 1), x)

    def test_mul_div_round_trip(self, rng):
        a = rng.integers(0, 256, size=1000)
        b = rng.integers(1, 256, size=1000)
        ab = table_mul(a, b)
        # the RS Forney quotient's form: a zero numerator lands in the zero tail
        quotient = GF256.exp[GF256.log[ab] + GF256.order - GF256.log[b]]
        assert np.array_equal(quotient, a)

    def test_full_multiplication_table_matches_peasant_oracle(self):
        a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        oracle = [[peasant_mul(x, y, 8) for y in range(256)] for x in range(256)]
        assert np.array_equal(table_mul(a, b), oracle)

    def test_table_involution(self):
        x = np.arange(1, 256)
        assert np.array_equal(GF256.exp[GF256.log[x]], x)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=300)
    def test_field_laws(self, a, b, c):
        assert table_mul(a, b) == table_mul(b, a)
        assert table_mul(table_mul(a, b), c) == table_mul(a, table_mul(b, c))
        assert table_mul(a, b ^ c) == table_mul(a, b) ^ table_mul(a, c)


class TestSyndrome:
    def test_zero_word(self):
        code = RsCode()
        assert not rs_syndrome(np.zeros(255, int), code).any()

    def test_codeword_has_zero_syndrome(self, rng):
        code = RsCode(255, 229)
        msg = rng.integers(0, 256, size=code.k_sym)
        cw = encode_codeword(msg, code)
        assert not rs_syndrome(cw, code).any()

    def test_single_error_matches_direct_evaluation(self, rng):
        code = RsCode(255, 229)
        msg = rng.integers(0, 256, size=code.k_sym)
        cw = encode_codeword(msg, code)
        p = int(rng.integers(0, 255))
        mag = int(rng.integers(1, 256))
        corrupted = cw.copy()
        corrupted[p] ^= mag
        synd = rs_syndrome(corrupted, code)
        # direct evaluation of the error monomial mag * x^(254 - p)
        for i in range(1, code.n_syndromes + 1):
            expect = peasant_mul(mag, alpha_power(i * (254 - p), 8), 8)
            assert int(synd[i - 1]) == expect

    def test_linearity(self, rng):
        code = RsCode(255, 229)
        for _ in range(20):
            a = rng.integers(0, 256, size=255)
            b = rng.integers(0, 256, size=255)
            assert np.array_equal(rs_syndrome(a ^ b, code),
                                  rs_syndrome(a, code) ^ rs_syndrome(b, code))

    def test_length_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            rs_syndrome(np.zeros(256, int), RsCode())


class TestDecode:
    def test_zero_syndrome_empty_error(self):
        code = RsCode()
        assert decode_error_from_syndrome(np.zeros(code.n_syndromes, int), code) == []

    def test_random_weight_13_round_trip(self, rng):
        code = RsCode(255, 229)
        for _ in range(100):
            positions = rng.choice(255, size=13, replace=False)
            mags = rng.integers(1, 256, size=13)
            err = np.zeros(255, dtype=np.int64)
            err[positions] = mags
            decoded = decode_error_from_syndrome(rs_syndrome(err, code), code)
            assert {(int(p), int(m)) for p, m in decoded} == \
                   {(int(p), int(m)) for p, m in zip(positions, mags)}

    def test_varied_weights(self, rng):
        code = RsCode(255, 229)
        for w in (1, 2, 5, 12):
            positions = rng.choice(255, size=w, replace=False)
            mags = rng.integers(1, 256, size=w)
            err = np.zeros(255, dtype=np.int64)
            err[positions] = mags
            decoded = decode_error_from_syndrome(rs_syndrome(err, code), code)
            assert len(decoded) == w

    def test_weight_14_never_silently_decodes_to_truth(self, rng):
        code = RsCode(255, 229)
        caught = 0
        for _ in range(60):
            positions = rng.choice(255, size=14, replace=False)
            mags = rng.integers(1, 256, size=14)
            err = np.zeros(255, dtype=np.int64)
            err[positions] = mags
            try:
                decoded = decode_error_from_syndrome(rs_syndrome(err, code), code)
            except UncorrectableBlockError:
                caught += 1
                continue
            rebuilt = np.zeros(255, dtype=np.int64)
            for p, m in decoded:
                rebuilt[p] = m
            assert not np.array_equal(rebuilt, err)
        assert caught > 0

    def test_syndrome_count_guard(self):
        with pytest.raises(ValueError, match="syndromes"):
            decode_error_from_syndrome(np.zeros(4, int), RsCode(255, 229))

    def test_short_code_round_trip(self, rng):
        # n_sym below 255 changes the position-to-root mapping
        code = RsCode(100, 90)
        for _ in range(25):
            w = int(rng.integers(1, code.t + 1))
            positions = rng.choice(code.n_sym, size=w, replace=False)
            err = np.zeros(code.n_sym, dtype=np.int64)
            err[positions] = rng.integers(1, 256, size=w)
            decoded = decode_error_from_syndrome(rs_syndrome(err, code), code)
            rebuilt = np.zeros(code.n_sym, dtype=np.int64)
            for p, m in decoded:
                rebuilt[p] = m
            assert np.array_equal(rebuilt, err)


class TestSketch:
    def test_800_bit_geometry(self, rng):
        sk = rs_sketch(rng.integers(0, 256, size=100), RsCode(255, 229))
        assert sk.syndromes.size == 26
        assert 8 * sk.syndromes.size == 208  # bits of leakage
        assert sk.n_words == 100
        assert sk.code.n_sym - sk.n_words == 155  # words of zero padding

    def test_zero_string(self):
        sk = rs_sketch(np.zeros(100, dtype=np.int64), RsCode(255, 229))
        assert not sk.syndromes.any()

    def test_word_range_required(self):
        for bad in ([0, 256, 7], [0, -1, 7], [[0, 1, 7]], 7):
            with pytest.raises(ValueError, match=r"1-d array of values in \[0, 255\]"):
                rs_sketch(bad, RsCode())

    # a sketch built by hand fails closed at construction, not in the decoder
    def test_syndrome_count_checked(self):
        for bad in ([7], np.zeros(25, dtype=np.int64), np.zeros((2, 13), dtype=np.int64)):
            with pytest.raises(ValueError, match="expected 26 syndromes"):
                RsSketch(bad, RsCode(255, 229), 100)

    def test_syndrome_range_checked(self):
        for value in (999, 256, -1):
            synd = np.zeros(26, dtype=np.int64)
            synd[3] = value
            with pytest.raises(ValueError, match=r"elements of GF\(2\^8\)"):
                RsSketch(synd, RsCode(255, 229), 100)

    def test_word_count_checked(self):
        for n_words in (300, 256, -1):
            with pytest.raises(ValueError, match=r"word count .* outside 0\.\.255"):
                RsSketch(np.zeros(26, dtype=np.int64), RsCode(255, 229), n_words)
        assert RsSketch(np.zeros(26, dtype=np.int64), RsCode(255, 229), 0).n_words == 0


class TestRecover:
    def test_identity(self, rng):
        words = rng.integers(0, 256, size=300)
        for block in (words[:255], words[255:]):  # a full block and a short one
            sk = rs_sketch(block, RsCode(255, 229))
            assert np.array_equal(rs_recover(block, sk), block)

    def test_within_capacity_multi_block(self, rng):
        # a 600-word string sketched block by block, 255 + 255 + 90 words,
        # with 13 (= t), 7 and 5 word errors
        code = RsCode(255, 229)
        words = rng.integers(0, 256, size=600)
        bounds = ((0, 255), (255, 510), (510, 600))
        sketches = [rs_sketch(words[lo:hi], code) for lo, hi in bounds]
        noisy = words.copy()
        for n_err, (lo, hi) in zip((13, 7, 5), bounds):
            for p in rng.choice(hi - lo, size=n_err, replace=False):
                noisy[lo + p] ^= int(rng.integers(1, 256))
        for (lo, hi), sk in zip(bounds, sketches):
            assert np.array_equal(rs_recover(noisy[lo:hi], sk), words[lo:hi])

    def test_beyond_capacity_raises_with_block(self, rng):
        code = RsCode(255, 229)
        words = rng.integers(0, 256, size=255)
        sk = rs_sketch(words, code)
        noisy = words.copy()
        for p in rng.choice(255, size=14, replace=False):
            noisy[p] ^= int(rng.integers(1, 256))
        try:
            recovered = rs_recover(noisy, sk)
            # miscorrection must not masquerade as success
            assert not np.array_equal(recovered, words)
        except UncorrectableBlockError as exc:
            assert str(exc) == f"uncorrectable sketch: {exc.detail}"

    def test_failed_block_named_once(self, rng):
        code = RsCode(255, 229)
        words = rng.integers(0, 256, size=255)
        sk = rs_sketch(words, code)
        noisy = words.copy()
        noisy[rng.choice(255, size=20, replace=False)] ^= 0x5A
        with pytest.raises(UncorrectableBlockError) as info:
            rs_recover(noisy, sk)
        exc = info.value
        assert exc.detail and "uncorrectable" not in exc.detail
        assert str(exc) == f"uncorrectable sketch: {exc.detail}"

    def test_length_mismatch(self, rng):
        sk = rs_sketch(rng.integers(0, 256, size=100), RsCode())
        with pytest.raises(ValueError, match="words"):
            rs_recover(rng.integers(0, 256, size=99), sk)

    def test_error_in_zero_padding_fails_closed(self, rng):
        # the syndromes of a 100-word block whose zero padding holds one
        # non-zero word at position 200: the one error decodes into the padding
        code = RsCode(255, 229)
        words = rng.integers(0, 256, size=100)
        extended = np.concatenate([words, np.zeros(155, dtype=np.int64)])
        extended[200] = 0x5A
        sk = RsSketch(rs_syndrome(extended, code), code, 100)
        with pytest.raises(UncorrectableBlockError,
                           match=r"decoded error in zero padding \(position 200\)"):
            rs_recover(words, sk)

    def test_round_trip_property(self, rng):
        # fuzzy-extractor correctness over random strings and error patterns,
        # each string sketched in blocks of at most 255 words
        code = RsCode(255, 241)  # t = 7, cheaper loop
        for _ in range(25):
            n_words = int(rng.integers(1, 300))
            words = rng.integers(0, 256, size=n_words)
            for lo in range(0, n_words, code.n_sym):
                block = words[lo:lo + code.n_sym]
                sk = rs_sketch(block, code)
                noisy = block.copy()
                n_err = int(rng.integers(0, min(code.t, block.size) + 1))
                for p in rng.choice(block.size, size=n_err, replace=False):
                    noisy[p] ^= int(rng.integers(1, 256))
                assert np.array_equal(rs_recover(noisy, sk), block)


class TestExtensionFields:
    @pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYS))
    def test_tables_primitive_and_match_peasant_oracle(self, m, rng):
        tables = field_tables(m)
        order = (1 << m) - 1
        assert tables.order == order
        assert np.unique(tables.exp[:order]).size == order  # alpha generates
        for _ in range(200):
            a, b = (int(v) for v in rng.integers(0, order + 1, size=2))
            assert table_mul(a, b, tables) == peasant_mul(a, b, m)
        # zero times every element, and zero times alpha^k up to k = order,
        # land in the zero tail
        assert not table_mul(0, np.arange(order + 1), tables).any()
        assert not tables.exp[tables.log[0] + np.arange(order + 1)].any()
        # a * alpha^k for k = 0..3 and k = order, against the oracle
        a = np.arange(1, order + 1)
        assert np.array_equal(tables.exp[tables.log[a] + order], a)
        for k in (0, 1, 2, 3):
            expected = [peasant_mul(int(x), alpha_power(k, m), m) for x in a[:64]]
            assert tables.exp[tables.log[a[:64]] + k].tolist() == expected

    @pytest.mark.parametrize("m", [3, 8, 13, 16, 17])
    def test_antilog_layout(self, m):
        # P periods of alpha's powers, then a zero tail that zero's log
        # points into, long enough for the sum of two logs
        tables = field_tables(m)
        order = tables.order
        dtype, periods = (np.uint16, 16) if m <= 16 else (np.uint32, 8)
        assert tables.exp.dtype == dtype
        assert tables.exp.size == 2 * periods * order + 1
        assert tables.log[0] == periods * order
        assert not tables.exp.flags.writeable
        head, tail = np.split(tables.exp, [periods * order])
        assert np.array_equal(head, np.tile(tables.exp[:order], periods))
        assert not tail.any()
        assert tables.exp[tables.log[0] + tables.log[0]] == 0


class TestBchCode:
    def test_sizing(self):
        assert BchCode.for_length(18600, 121) == BchCode(15, 121)
        assert BchCode.for_length(16383, 5).m == 14
        assert BchCode.for_length(16384, 5).m == 15
        assert BchCode(15, 121).n_sym == 32767

    def test_invalid(self):
        with pytest.raises(ValueError, match="field degree"):
            BchCode(21, 3)
        with pytest.raises(ValueError, match="capacity"):
            BchCode(4, 8)
        with pytest.raises(ValueError, match="capacity"):
            BchCode(10, 0)

    def test_syndrome_matches_direct_evaluation(self, rng):
        code = BchCode(6, 5)
        bits = rng.integers(0, 2, size=50)
        expect = []
        for j in range(1, 2 * code.t, 2):
            acc = 0
            for i in np.flatnonzero(bits):
                acc ^= alpha_power(j * int(i), code.m)
            expect.append(acc)
        assert bch_syndrome(bits, code).tolist() == expect

    def test_decode_locates_every_weight_up_to_t(self, rng):
        code = BchCode(10, 12)
        for w in range(1, code.t + 1):
            positions = np.sort(rng.choice(900, size=w, replace=False))
            err = np.zeros(900, dtype=np.uint8)
            err[positions] = 1
            assert np.array_equal(bch_decode(bch_syndrome(err, code), code, 900),
                                  positions)

    def test_decode_guards_syndrome_count(self):
        with pytest.raises(ValueError, match="odd syndromes"):
            bch_decode(np.zeros(3, int), BchCode(10, 12), 900)

    def test_decode_refuses_a_locator_longer_than_t(self):
        # beyond capacity: Berlekamp-Massey gives this weight-6 pattern a
        # locator of degree 6, which a t = 5 code cannot trust
        code = BchCode(8, 5)
        err = np.zeros(200, dtype=np.uint8)
        err[[109, 140, 152, 154, 163, 165]] = 1
        with pytest.raises(UncorrectableBlockError,
                           match="^uncorrectable sketch: locator degree 6 exceeds t=5$"):
            bch_decode(bch_syndrome(err, code), code, 200)


class TestPooledSketch:
    CODE = BchCode.for_length(18600, 121)  # the reference operating point

    def noisy(self, rho, weight, rng):
        bits = rho.bits.copy()
        bits[rng.choice(len(rho), size=weight, replace=False)] ^= 1
        return BitString(bits)

    def test_leakage_is_m_times_t(self, rng):
        sk = ss_sketch(BitString(rng.integers(0, 2, size=18600)), self.CODE)
        assert sk.bit_length == 15 * 121
        assert sk.n_bits == 18600

    def test_recovers_at_weight_t(self, rng):
        for _ in range(3):
            rho = BitString(rng.integers(0, 2, size=18600))
            sk = ss_sketch(rho, self.CODE)
            assert ss_recover(self.noisy(rho, self.CODE.t, rng), sk) == rho

    def test_weight_t_plus_1_never_silently_recovers(self, rng):
        for _ in range(3):
            rho = BitString(rng.integers(0, 2, size=18600))
            sk = ss_sketch(rho, self.CODE)
            try:
                recovered = ss_recover(self.noisy(rho, self.CODE.t + 1, rng), sk)
            except UncorrectableBlockError as exc:
                assert str(exc) == f"uncorrectable sketch: {exc.detail}"
                continue
            assert recovered != rho

    def test_length_guards(self, rng):
        sk = ss_sketch(BitString(rng.integers(0, 2, size=100)), BchCode(7, 3))
        with pytest.raises(ValueError, match="bits"):
            ss_recover(BitString(rng.integers(0, 2, size=99)), sk)
        with pytest.raises(ValueError, match="does not fit"):
            ss_sketch(BitString(np.zeros(128, np.uint8)), BchCode(7, 3))

    def test_wire_round_trip(self, rng):
        sk = ss_sketch(BitString(rng.integers(0, 2, size=1000)), BchCode(10, 7))
        raw = sk.to_bytes()
        assert raw[:4] == b"PKB1"
        assert raw[4] == 10 and int.from_bytes(raw[5:9], "big") == 7
        assert int.from_bytes(raw[9:13], "big") == 1000
        assert len(raw) == 13 + 9  # 70 syndrome bits in 9 bytes
        assert BchSketch.byte_length(raw + b"tail") == len(raw)
        back = BchSketch.from_bytes(raw)
        assert back.code == sk.code and back.n_bits == sk.n_bits
        assert np.array_equal(back.syndromes, sk.syndromes)

    def test_malformed_bytes_fail_closed(self, rng):
        raw = ss_sketch(BitString(rng.integers(0, 2, size=1000)), BchCode(10, 7)).to_bytes()
        for cut in range(len(raw)):
            with pytest.raises(PhyskeyError):
                BchSketch.from_bytes(raw[:cut])
        bad = [raw[:4] + bytes([21]) + raw[5:],                  # field degree
               raw[:5] + (0).to_bytes(4, "big") + raw[9:],       # capacity t = 0
               raw[:9] + (2000).to_bytes(4, "big") + raw[13:],   # length > 2^m - 1
               raw[:-1] + bytes([raw[-1] | 1]),                  # padding bit
               b"PKX1" + raw[4:],                                # magic
               # the retired per-block RS format: one (255, 229) block of
               # 100 words, 155 of padding, 26 syndromes, then a seed
               b"PKS1" + bytes([255, 229]) + (1).to_bytes(4, "big")
               + (155).to_bytes(2, "big") + bytes(26) + b"40:0123456789"]
        for blob in bad:
            for parse in (BchSketch.from_bytes, lambda b: Transcript.from_bytes(b, l=16)):
                with pytest.raises(SketchFormatError):
                    parse(blob)


def bch_code_params(max_m: int = 16, max_t: int = 40):
    # (m, t) of a BCH code: t below both max_t and the designed-distance limit
    return st.integers(3, max_m).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(1, min(max_t, ((1 << m) - 2) // 2))))


class TestGeneratorRemainder:
    @settings(max_examples=40, deadline=None)
    @given(bch_code_params(), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_syndrome_matches_direct_evaluation(self, mt, full_length, seed):
        m, t = mt
        code = BchCode(m, t)
        rng = np.random.default_rng(seed)
        # a full-length string, or a shorter one whose length is rarely a
        # multiple of 8
        n_bits = code.n_sym if full_length else int(rng.integers(1, code.n_sym))
        bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        expect = gf2m_power_sums(bits, range(1, 2 * t, 2), m)
        assert bch_syndrome(bits, code).tolist() == expect.tolist()

    @pytest.mark.parametrize("n_bits", [1, 7, 8, 9, 63, 64, 65, 127])
    def test_syndrome_at_lengths_around_byte_boundaries(self, n_bits, rng):
        code = BchCode(7, 9)
        bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        expect = gf2m_power_sums(bits, range(1, 2 * code.t, 2), code.m)
        assert bch_syndrome(bits, code).tolist() == expect.tolist()
        assert bch_syndrome(BitString(bits).bits, code).tolist() == expect.tolist()

    def test_syndrome_guards_bits_beyond_the_code(self):
        bits = np.zeros(40, dtype=np.uint8)
        bits[[31, 37]] = 1
        with pytest.raises(ValueError, match="bit 37 is beyond the code length 31"):
            bch_syndrome(bits, BchCode(5, 2))
        assert not bch_syndrome(np.zeros(40, dtype=np.uint8), BchCode(5, 2)).any()

    @settings(max_examples=30, deadline=None)
    @given(bch_code_params(max_m=16, max_t=60))
    def test_generator_degree_and_roots(self, mt):
        m, t = mt
        g = bch_generator(BchCode(m, t))
        degree = g.bit_length() - 1
        assert 1 <= degree <= m * t
        coefs = [(g >> i) & 1 for i in range(degree + 1)]
        assert not gf2m_power_sums(coefs, range(1, 2 * t + 1), m).any()

    @settings(max_examples=15, deadline=None)
    @given(bch_code_params(max_m=7, max_t=12))
    def test_generator_is_the_binary_root_product(self, mt):
        # the product over GF(2^m) has 0/1 coefficients and equals the bitmask
        m, t = mt
        product = bch_generator_product(m, t)
        assert set(product) <= {0, 1}
        g = bch_generator(BchCode(m, t))
        assert product == [(g >> i) & 1 for i in range(g.bit_length())]

    def test_reference_generator(self):
        # 121 odd roots in distinct cosets of size 15: deg g = m t = 1815
        g = bch_generator(BchCode(15, 121))
        assert g.bit_length() - 1 == 1815
        coefs = [(g >> i) & 1 for i in range(1816)]
        assert not gf2m_power_sums(coefs, range(1, 243), 15).any()


class TestBinaryBerlekampMassey:
    @settings(max_examples=40, deadline=None)
    @given(bch_code_params(max_m=12, max_t=30), st.integers(0, 2 ** 32 - 1))
    def test_same_locator_as_the_general_loop(self, mt, seed):
        m, t = mt
        code = BchCode(m, t)
        rng = np.random.default_rng(seed)
        # weights up to 2t: within capacity and beyond it
        weight = int(rng.integers(1, min(2 * t, code.n_sym) + 1))
        err = np.zeros(code.n_sym, dtype=np.uint8)
        err[rng.choice(code.n_sym, size=weight, replace=False)] = 1
        synd = gf2m_power_sums(err, range(1, 2 * t + 1), m)
        tables = field_tables(m)
        assert _bm_locator(synd, tables, binary=True) == _bm_locator(synd, tables)

    def test_same_locator_on_conjugate_constrained_syndromes(self, rng):
        # GF(16) with t = 5: S_9 = S_3^8, so most odd-syndrome tuples belong to
        # no bit pattern; the shortcut must still agree with the general loop
        tables = field_tables(4)
        for _ in range(300):
            odd = rng.integers(0, 16, size=5)
            synd = np.zeros(10, dtype=np.int64)
            synd[0::2] = odd
            for j in range(2, 11, 2):
                half = synd[j // 2 - 1]
                synd[j - 1] = tables.exp[2 * tables.log[half]] if half else 0
            assert _bm_locator(synd, tables, binary=True) == _bm_locator(synd, tables)


def rooted_locator(roots, power, tables):
    # prod_r (1 + alpha^r x)^power, low degree first: zero at every x = alpha^-r,
    # and for power > 1 a polynomial in x^power, zero between its terms
    lam = np.array([1], dtype=np.int64)
    for r in roots:
        lam = np.append(lam, 0) ^ np.append(0, tables.exp[tables.log[lam] + r])
    spread = np.zeros(power * (lam.size - 1) + 1, dtype=np.int64)
    spread[::power] = tables.exp[tables.log[lam] * power % tables.order] * (lam != 0)
    return spread


class TestChien:
    # m = 8 is the RS field; m = 17 takes the uint32 antilog table
    FIELDS = [*range(3, 14), 8, 17]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FIELDS), st.integers(0, 45), st.sampled_from([1, 2, 4]),
           st.sampled_from([0.0, 0.3, 1.0]), st.booleans(), st.integers(0, 2 ** 32 - 1))
    @example(17, 40, 1, 0.0, True, 1)   # 40 coefficients: 4 reductions at P = 8
    @example(17, 12, 4, 0.0, False, 2)  # 48 coefficients, 36 of them zero
    @example(13, 35, 1, 0.3, False, 3)  # 35 coefficients: 2 reductions at P = 16
    @example(8, 13, 1, 0.0, False, 4)   # an RS-sized locator, descending points
    def test_roots_match_direct_evaluation(self, m, n_roots, power, zero_share,
                                           ascending, seed):
        tables = field_tables(m)
        order = tables.order
        rng = np.random.default_rng(seed)
        points = np.sort(rng.choice(order, size=min(order, int(rng.integers(1, 600))),
                                    replace=False))
        if not ascending:
            points = points[::-1]
        # roots mostly among the points, some elsewhere in the field
        roots = np.where(rng.random(n_roots) < 0.8, rng.choice(points, size=n_roots),
                         rng.integers(0, order, size=n_roots))
        lam = rooted_locator(roots, power, tables)
        # zeroing coefficients keeps zeros in the loop and usually moves the roots
        hit = rng.random(lam.size) < zero_share
        hit[0] = False
        lam[hit] = 0
        values = coding._gf_sums(lam, np.arange(lam.size), -points % order, tables)
        found = coding._chien(lam.tolist(), points, tables)
        assert found.tolist() == points[values == 0].tolist()


def decode_outcome(odd, code, n_bits, candidates=()):
    # the decoded positions, or the text of the error the decoder raised
    try:
        return bch_decode(odd, code, n_bits, candidates).tolist()
    except UncorrectableBlockError as exc:
        return str(exc)


class TestCandidateSearch:
    @settings(max_examples=60, deadline=None)
    @given(bch_code_params(max_m=11, max_t=20), st.integers(0, 2 ** 32 - 1))
    def test_candidates_never_change_the_outcome(self, mt, seed):
        m, t = mt
        code = BchCode(m, t)
        rng = np.random.default_rng(seed)
        n_bits = int(rng.integers(2, code.n_sym + 1))
        inside = rng.random(n_bits) < rng.random()
        candidates = np.flatnonzero(inside)
        # weights 0 .. t + 5, each error inside or outside the candidates
        # with a per-example share, so some patterns lie wholly on one side
        weight = int(rng.integers(0, min(t + 6, n_bits) + 1))
        share = rng.choice([0.0, 1.0, rng.random()])
        n_in = min(int(rng.binomial(weight, share)), candidates.size)
        n_out = min(weight - n_in, n_bits - candidates.size)
        err = np.zeros(n_bits, dtype=np.uint8)
        err[rng.choice(candidates, size=n_in, replace=False)] = 1
        err[rng.choice(np.flatnonzero(~inside), size=n_out, replace=False)] = 1
        odd = bch_syndrome(err, code)
        assert decode_outcome(odd, code, n_bits, candidates) == decode_outcome(odd, code, n_bits)

    @pytest.mark.parametrize("candidates", [[3, 2], [2, 2], [-1, 4], [5, 900], [[1, 2]]])
    def test_bad_candidates_rejected(self, candidates):
        code = BchCode(10, 12)
        err = np.zeros(900, dtype=np.uint8)
        err[[2, 3]] = 1
        with pytest.raises(ValueError, match="candidates"):
            bch_decode(bch_syndrome(err, code), code, 900, candidates)


class TestExtractReference:
    @pytest.mark.parametrize("l", [1, 128, 1024])
    def test_matches_int64_convolution(self, l, rng):
        t = 18_600
        x = BitString(rng.integers(0, 2, size=t, dtype=np.uint8))
        seed = random_seed(rng, t, l)
        out = extract(x, seed)
        assert np.array_equal(out.bits, toeplitz_int64(seed.bits.bits, x.bits))

    def test_all_ones_sums_reach_t(self):
        # every sum is t: the largest the float32 convolution has to hold
        t, l = 18_601, 128
        seed = ExtractorSeed(BitString(np.ones(t + l - 1, dtype=np.uint8)), t, l)
        out = extract(BitString(np.ones(t, dtype=np.uint8)), seed)
        assert np.array_equal(out.bits, np.ones(l, dtype=np.uint8))


class TestSeededOutputs:
    """Transcripts, keys and RS sketches pinned to fixed digests."""

    EXCHANGES = {  # channel seed: (transcript sha256, Alice's key, corrected words)
        11: ("8266de5a6deeec9b2e9f2b74d0a5dad0214d119689b3d100617cb7188b840469",
             "128:945968859d4ad6304dad5b73c89acd88", 83),
        12: ("2d40bb84f503a28721405408b5e32a342a93b945fa639a9c5989590bb9aaa19a",
             "128:9d2cf90b3d40ad29de8600be78d6958c", 89),
        13: ("d437a1f385a270acdbdbca6be3848b0ac361569620c16e33eabd4a1e3c4e5719",
             "128:443089ce8e5582ca3e93fa0150e4b329", 97),
    }

    PARAMS = plan_parameters(l=128, lambda_=80, c=1)
    CHANNEL = family_config(spread=0.41324816852731083, q=0.023456787109375002,
                            n=PARAMS.n)

    def exchange(self, sim_seed):
        run = simulate_run(replace(self.CHANNEL, seed=sim_seed))
        return run_exchange(run.alice, run.bob, self.PARAMS, seed=100 + sim_seed)

    @staticmethod
    def searched_sizes(monkeypatch):
        # the number of positions each Chien search of the pooled decoder visits
        sizes, chien = [], coding._chien

        def spy(lam, points, tables):
            sizes.append(points.size)
            return chien(lam, points, tables)

        monkeypatch.setattr(coding, "_chien", spy)
        return sizes

    def test_pooled_exchange_golden(self, monkeypatch):
        sizes = self.searched_sizes(monkeypatch)
        for sim_seed, (digest, key, corrected) in self.EXCHANGES.items():
            result = self.exchange(sim_seed)
            assert hashlib.sha256(result.transcript.to_bytes()).hexdigest() == digest
            assert result.alice_key.to_hex() == key
            assert result.success and result.bob_key == result.alice_key
            assert result.n_corrected_bits == corrected
            assert result.failure_reason is None
        # Bob's one-level-off bits held every error: no full-range search
        assert len(sizes) == 3 and max(sizes) < 3 * self.PARAMS.n

    def test_pooled_exchange_failure_golden(self, monkeypatch):
        sizes = self.searched_sizes(monkeypatch)
        result = self.exchange(26)
        assert hashlib.sha256(result.transcript.to_bytes()).hexdigest() == (
            "35f1a30221d76aefa427c1c5d9e2d61cd494742cc5ea97276b01f50155d72e63")
        assert result.alice_key.to_hex() == "128:2562a90d3c7f22e8b469b792a96b4955"
        assert not result.success and result.bob_key is None
        assert result.n_corrected_bits == 0
        assert result.failure_reason == (
            "uncorrectable sketch: locator has 1 roots among 6975 bits, expected 121")
        # the candidates fell short of the locator degree, so every bit was searched
        assert sizes[-1] == 3 * self.PARAMS.n

    def test_rs_sketch_golden(self):
        # 600 words sketched as blocks of 255, 255 and 90 words
        rng = np.random.default_rng(2024)
        words = rng.integers(0, 256, size=600)
        starts = range(0, 600, 255)
        sketches = [rs_sketch(words[lo:lo + 255], RsCode(255, 229)) for lo in starts]
        syndromes = np.concatenate([sk.syndromes for sk in sketches])
        assert hashlib.sha256(syndromes.astype(np.uint8).tobytes()).hexdigest() == (
            "4f52ae2fb4a7a34123e12ea8a216ea8b71885a9b8b18b3a8df972ede953c7ab5")
        noisy = words.copy()
        noisy[rng.choice(600, size=25, replace=False)] ^= 0x33
        for lo, sk in zip(starts, sketches):
            assert np.array_equal(rs_recover(noisy[lo:lo + 255], sk), words[lo:lo + 255])

    def test_rs_decode_golden(self):
        # decode_error_from_syndrome on 100 seeded RS(255, 229) error blocks,
        # 20 at each word weight 12-16: the (position, magnitude) list or the
        # error text of every block
        code, rng = RsCode(255, 229), np.random.default_rng(14)
        outcomes = []
        for weight in range(12, 17):
            for _ in range(20):
                err = np.zeros(255, dtype=np.int64)
                err[rng.choice(255, size=weight, replace=False)] = rng.integers(
                    1, 256, size=weight)
                try:
                    outcomes.append(decode_error_from_syndrome(rs_syndrome(err, code), code))
                except UncorrectableBlockError as exc:
                    outcomes.append(exc.detail)
        assert [len(o) for o in outcomes[:40]] == [12] * 20 + [13] * 20
        assert all(isinstance(o, str) for o in outcomes[40:])
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == (
            "ae96b72819c08906ff52b46424da520daefc6df827899c2f6d1ff5a0402d93f6")
