import numpy as np
import pytest

from physkey.extract import (ExtractorSeed, extract, max_extractable_length,
                             random_seed)
from physkey.quantize import BitString


def test_dimensions_enforced():
    seed = ExtractorSeed(BitString([1, 0, 1, 1]), t=3, l=2)
    with pytest.raises(ValueError, match="bits"):
        extract(BitString([1, 0]), seed)
    with pytest.raises(ValueError, match="seed"):
        ExtractorSeed(BitString([1, 0]), t=3, l=2)


def test_input_beyond_float32_exact_range_refused():
    # every convolution sum must stay an exact float32 integer, below 2^24
    with pytest.raises(ValueError, match="input length 16777216 exceeds 16777215 bits"):
        ExtractorSeed(BitString([1]), t=2 ** 24, l=1)
    with pytest.raises(ValueError, match="seed has 1 bits"):
        ExtractorSeed(BitString([1]), t=2 ** 24 - 1, l=1)


def test_zero_input_maps_to_zero(rng):
    for _ in range(20):
        seed = random_seed(rng, t=40, l=8)
        out = extract(BitString(np.zeros(40, np.uint8)), seed)
        assert not out.bits.any()


def test_one_by_one():
    seed = ExtractorSeed(BitString([1]), t=1, l=1)
    assert extract(BitString([1]), seed) == BitString([1])
    assert extract(BitString([0]), seed) == BitString([0])


def test_explicit_small_matrix():
    # t=3, l=2: T[i][j] = seed[(i-j)+2]; seed = s0..s3
    seed_bits = [1, 0, 1, 1]
    seed = ExtractorSeed(BitString(seed_bits), t=3, l=2)
    # row 0: seed[2], seed[1], seed[0] = 1,0,1 ; row 1: seed[3], seed[2], seed[1] = 1,1,0
    x = BitString([1, 1, 1])
    out = extract(x, seed)
    assert list(out.bits) == [(1 + 0 + 1) % 2, (1 + 1 + 0) % 2]


def test_matches_dense_toeplitz_product(rng):
    # the definition, T[i, j] = seed[i - j + t - 1], as an explicit matrix
    for t, l in ((1, 5), (7, 1), (64, 16), (300, 128), (40, 200)):
        seed = random_seed(rng, t=t, l=l)
        x = rng.integers(0, 2, t, dtype=np.uint8)
        s = seed.bits.bits.astype(np.int64)
        matrix = s[(np.arange(l)[:, None] - np.arange(t)[None, :]) + t - 1]
        expect = (matrix @ x.astype(np.int64)) & 1
        assert np.array_equal(extract(BitString(x), seed).bits, expect)


def test_linearity(rng):
    for _ in range(50):
        seed = random_seed(rng, t=64, l=16)
        a = rng.integers(0, 2, 64, dtype=np.uint8)
        b = rng.integers(0, 2, 64, dtype=np.uint8)
        key = [extract(BitString(x), seed).bits for x in (a ^ b, a, b)]
        assert np.array_equal(key[0], key[1] ^ key[2])


def test_deterministic(rng):
    seed = random_seed(rng, t=128, l=32)
    x = BitString(rng.integers(0, 2, 128, dtype=np.uint8))
    assert extract(x, seed) == extract(x, seed)


class TestMaxExtractable:
    def test_reference_value(self):
        assert max_extractable_length(260, 80) == 102

    def test_boundary_zero(self):
        assert max_extractable_length(2 * 80 - 2, 80) == 0
        assert max_extractable_length(0, 0) == 2

    def test_floor(self):
        assert max_extractable_length(100.9, 0) == 102
        assert max_extractable_length(100.9, 1) == 100

    def test_never_negative(self):
        assert max_extractable_length(0, 50) == 0

    def test_monotonicity(self):
        prev = -1
        for s in range(0, 400, 7):
            cur = max_extractable_length(s, 40)
            assert cur >= prev
            prev = cur
        prev = 10 ** 9
        for lam in range(0, 120, 5):
            cur = max_extractable_length(250, lam)
            assert cur <= prev
            prev = cur

    def test_input_validation(self):
        with pytest.raises(ValueError):
            max_extractable_length(-1, 0)
        with pytest.raises(ValueError):
            max_extractable_length(10, -1)


class TestUniversality:
    def test_collision_bound_small_l(self):
        # collision probability over random seeds is exactly 2^-l for any
        # fixed nonzero difference; check the empirical rate at the stated
        # tolerance for output lengths where it has statistical teeth
        rng = np.random.default_rng(20260809)
        trials = 100_000
        t = 64
        for l in (1, 2, 4):
            diffs = rng.integers(0, 2, size=(trials, t), dtype=np.uint8)
            diffs[diffs.sum(axis=1) == 0, 0] = 1  # force x != y
            seeds = rng.integers(0, 2, size=(trials, t + l - 1), dtype=np.uint8)
            idx = (np.arange(l)[:, None] - np.arange(t)[None, :]) + t - 1
            # T z = 0  <=>  extract(x) == extract(y) for z = x xor y
            prod = np.einsum("rij,rj->ri", seeds[:, idx], diffs) & 1
            collisions = float((~prod.any(axis=1)).mean())
            bound = 2.0 ** -l * (1.0 + 5.0 / np.sqrt(trials))
            assert collisions <= bound, (l, collisions, bound)

    def test_collision_rate_matches_theory_l8(self):
        # sanity at l=8 with a two-sided window (3 sigma) around 2^-8
        rng = np.random.default_rng(7)
        trials = 100_000
        t, l = 64, 8
        diffs = rng.integers(0, 2, size=(trials, t), dtype=np.uint8)
        diffs[diffs.sum(axis=1) == 0, 0] = 1
        seeds = rng.integers(0, 2, size=(trials, t + l - 1), dtype=np.uint8)
        idx = (np.arange(l)[:, None] - np.arange(t)[None, :]) + t - 1
        prod = np.einsum("rij,rj->ri", seeds[:, idx], diffs) & 1
        rate = float((~prod.any(axis=1)).mean())
        sigma = np.sqrt(2.0 ** -l * (1 - 2.0 ** -l) / trials)
        assert abs(rate - 2.0 ** -l) <= 3 * sigma

    def test_output_bit_bias_uniform_input(self):
        # uniform input through a fixed random seed: every output bit unbiased
        rng = np.random.default_rng(99)
        t, l, samples = 64, 16, 100_000
        seed = random_seed(rng, t, l)
        xs = rng.integers(0, 2, size=(samples, t), dtype=np.uint8)
        idx = (np.arange(l)[:, None] - np.arange(t)[None, :]) + t - 1
        matrix = seed.bits.bits[idx].astype(np.int64)
        outs = (xs @ matrix.T) & 1
        ones = outs.mean(axis=0)
        sigma = 0.5 / np.sqrt(samples)
        assert (np.abs(ones - 0.5) <= 3 * sigma).all()
