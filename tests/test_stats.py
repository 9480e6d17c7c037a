import hashlib
import json
import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov, stdtr
from scipy.stats import binom

import physkey.stats
from physkey.channel import ChannelConfig, family_config, simulate_run
from physkey.hmm import HmmModel
from physkey.protocol import REFERENCE_ERROR_FIT
from physkey.stats import (KsReport, _kolmogorov_sf, _ks_counts, _pearson_p_value,
                           _random_halves, _ranks, _window_counts, binomial_cdf, ks_two_sample,
                           lag_correlation_profile, pearson_significance,
                           validate_assumptions)
from physkey.traces import MeasurementTrace, make_trace

from .oracles import decimal_binomial_cdf, sorted_ks_two_sample


def assert_matches_sorted_ks(rep, x, y, alpha):
    ref = sorted_ks_two_sample(x, y, alpha)
    assert rep.statistic == ref.statistic
    assert rep.p_value == ref.p_value
    assert rep.reject == ref.reject


def ks_row(c1, c2, alpha):
    # _ks_counts on one pair of count vectors, as a one-row batch
    return KsReport(*(v[0] for v in _ks_counts(c1[None], c2[None], alpha)))


def binomial_cases(seed: int, count: int, max_n: int):
    """(k, n, p) with n log-uniform up to max_n, p uniform or log-uniform
    down to 1e-4, and k uniform on 0..n-1 or within two standard deviations
    of the mean, where the continued fraction converges slowest."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        n = int(10 ** rng.uniform(0, math.log10(max_n)))
        p = float(rng.random() if i % 2 else 10 ** rng.uniform(-4, 0))
        mean, sd = n * p, math.sqrt(n * p * (1 - p))
        k = int(rng.integers(n)) if i % 3 == 0 else int(mean + rng.uniform(-2, 2) * sd)
        cases.append((min(max(k, 0), n - 1), n, p))
    return cases


class TestBinomialCdf:
    """P[Binomial(n, p) <= k] from the incomplete beta, against an exact sum
    and against SciPy."""

    def test_matches_exact_sum(self):
        # the planner's reference point is one of the cases
        cases = binomial_cases(1, 150, 3000) + [(121, 2325, REFERENCE_ERROR_FIT(2325) / 2325)]
        checked = 0
        for k, n, p in cases:
            exact = decimal_binomial_cdf(k, n, p)
            if exact >= 1e-6:
                assert binomial_cdf(k, n, p) == pytest.approx(exact, rel=1e-11, abs=0)
                checked += 1
        assert checked >= 100

    def test_matches_scipy_up_to_1e5(self):
        for k, n, p in binomial_cases(2, 400, 100_000):
            assert abs(binomial_cdf(k, n, p) - binom.cdf(k, n, p)) <= 1e-10

    @pytest.mark.parametrize("k, n, p, cdf", [
        (-1, 5, 0.3, 0.0), (5, 5, 0.3, 1.0), (7, 5, 0.3, 1.0), (0, 5, 0.0, 1.0),
        (4, 5, 1.0, 0.0), (0, 1, 0.25, 0.75), (0, 3, 0.5, 0.125), (1, 2, 0.5, 0.75),
    ])
    def test_edges(self, k, n, p, cdf):
        assert binomial_cdf(k, n, p) == pytest.approx(cdf, rel=1e-15, abs=0)


class TestPearsonPValue:
    def test_matches_student_t(self):
        # t = r sqrt(df / (1 - r^2)) on df = n - 2 degrees of freedom
        rng = np.random.default_rng(3)
        for _ in range(2000):
            df = int(10 ** rng.uniform(0, 5))
            r = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-4, 0))
            if abs(r) == 1.0:
                continue
            t = r * math.sqrt(df / (1.0 - r * r))
            expected = 2.0 * float(stdtr(df, -abs(t)))
            if expected > 1e-300:
                assert _pearson_p_value(r, df + 2) == pytest.approx(expected, rel=1e-8, abs=0)

    def test_ends(self):
        assert _pearson_p_value(0.0, 50) == 1.0
        assert _pearson_p_value(1.0, 50) == _pearson_p_value(-1.0, 50) == 0.0


class TestKolmogorovTail:
    LAMBDAS = np.linspace(0.0, 4.0, 40_001)

    def test_matches_scipy(self):
        expected = kolmogorov(self.LAMBDAS)
        assert _kolmogorov_sf(self.LAMBDAS) == pytest.approx(expected, rel=1e-13, abs=0)
        assert _kolmogorov_sf(0.0) == 1.0

    def test_alone_as_in_any_batch(self):
        # every entry's tail is the same bits alone (as a one-entry array and
        # as a scalar), in the full grid and in a shuffled sub-batch; an
        # axis reduction over the series terms fails this near lambda = 1
        batch = _kolmogorov_sf(self.LAMBDAS)
        pick = np.random.default_rng(4).permutation(self.LAMBDAS.size)[:4001]
        assert np.array_equal(_kolmogorov_sf(self.LAMBDAS[pick]), batch[pick])
        alone = [_kolmogorov_sf(self.LAMBDAS[i:i + 1])[0] for i in range(0, self.LAMBDAS.size, 4)]
        assert np.array_equal(alone, batch[::4])
        assert all(_kolmogorov_sf(self.LAMBDAS[i]) == batch[i] for i in pick[:200])


class TestPearson:
    def test_self_correlation(self, rng):
        x = rng.normal(size=100)
        r, sig = pearson_significance(x, x, 0.05)
        assert r == pytest.approx(1.0) and sig

    def test_anti_correlation(self, rng):
        x = rng.normal(size=100)
        r, sig = pearson_significance(x, -x, 0.05)
        assert r == pytest.approx(-1.0) and sig

    def test_matches_direct_covariance(self, rng):
        x, y = rng.normal(size=200), rng.normal(size=200)
        r, _ = pearson_significance(x, y, 0.05)
        direct = (np.mean(x * y) - x.mean() * y.mean()) / (x.std() * y.std())
        assert r == pytest.approx(direct, abs=1e-9)

    def test_zero_variance_error(self):
        with pytest.raises(ValueError, match="zero-variance"):
            pearson_significance([1.0] * 10, list(range(10)), 0.05)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(self, bad):
        # a NaN r would clamp to 1.0 and pass as a significant correlation
        y = np.arange(10.0)
        y[4] = bad
        with pytest.raises(ValueError, match=rf"^non-finite sample: y\[4\] = {bad}$"):
            pearson_significance(np.arange(10.0), y, 0.05)
        with pytest.raises(ValueError, match=rf"^non-finite sample: x\[4\] = {bad}$"):
            pearson_significance(y, y[::-1], 0.05)  # x's is the first named

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    def test_variance_product_outside_the_float_range(self, scale):
        # vx * vy overflows to inf (r was 0.0) or underflows to 0 (r divided by it)
        x = np.array([1.0, -1.0, 0.0, 0.5]) * scale
        assert pearson_significance(x, x, 0.05)[0] == pytest.approx(1.0)
        assert pearson_significance(x, -x, 0.05)[0] == pytest.approx(-1.0)

    def test_overflowing_variance_refused(self):
        with pytest.raises(ValueError, match="^samples too large: their variance overflows"):
            pearson_significance([1e200, -1e200, 3.0], [1.0, 2.0, 3.0], 0.05)

    def test_false_positive_calibration(self):
        rng = np.random.default_rng(31)
        alpha = 0.05
        fp = 0
        trials = 400
        for _ in range(trials):
            x = rng.uniform(size=2000)
            y = rng.uniform(size=2000)
            _, sig = pearson_significance(x, y, alpha)
            fp += sig
        assert 0.6 * alpha <= fp / trials <= 1.6 * alpha


class TestLagProfile:
    def test_lag_zero_is_one(self, rng):
        trace = make_trace(rng.integers(-8, 1, size=3000), "alice")
        prof = lag_correlation_profile(trace, max_lag=2, rows=1000, seed=0)
        assert prof.r[0] == pytest.approx(1.0)
        assert prof.significant[0]

    def test_iid_trace_rarely_significant(self):
        rng = np.random.default_rng(17)
        hits = np.zeros(3)
        trials = 50
        for s in range(trials):
            trace = make_trace(rng.integers(-8, 1, size=3000), "alice")
            prof = lag_correlation_profile(trace, max_lag=3, rows=1000, seed=s)
            hits += np.array(prof.significant[1:], dtype=float)
        assert (hits / trials <= 0.10 + 0.08).all()  # near alpha per lag

    def test_sticky_markov_lag1_significant(self):
        model = HmmModel(states=(-1, 0), symbols=(-1, 0), pi=[0.5, 0.5],
                         trans=[[0.95, 0.05], [0.05, 0.95]],
                         emit=[[1.0, 0.0], [0.0, 1.0]])
        cfg = ChannelConfig(model=model, bob_error={0: 1.0}, n=6000, seed=8)
        run = simulate_run(cfg)
        prof = lag_correlation_profile(run.alice, max_lag=2, rows=2000, seed=0)
        assert prof.significant[1]

    def test_constant_trace_zero_variance(self):
        trace = make_trace([0] * 2000, "alice")
        with pytest.raises(ValueError, match="zero-variance"):
            lag_correlation_profile(trace, max_lag=2, rows=500, seed=0)

    def test_csv_shape(self, rng):
        trace = make_trace(rng.integers(-8, 1, size=2000), "alice")
        prof = lag_correlation_profile(trace, max_lag=4, rows=500, seed=1)
        assert len(prof.lags) == len(prof.r) == len(prof.significant) == 5

    @pytest.mark.parametrize("options, reason", [
        ({"max_lag": -1, "rows": 100}, "max_lag must be at least 1, got -1"),
        ({"max_lag": 0, "rows": 100}, "max_lag must be at least 1, got 0"),
        ({"max_lag": 2, "rows": -1}, "rows must be at least 3, got -1"),
        ({"max_lag": 2, "rows": 2}, "rows must be at least 3, got 2")])
    def test_too_few_lags_or_rows_refused(self, rng, options, reason):
        trace = make_trace(rng.integers(-8, 1, size=2000), "alice")
        with pytest.raises(ValueError, match=f"^{reason}$"):
            lag_correlation_profile(trace, **options)


class TestKs:
    def test_identical_multiset(self):
        x = [1.0, 2, 2, 3, 4, 5, 6, 7]
        rep = ks_two_sample(x, list(x), 0.05)
        assert rep.statistic == 0.0
        assert not rep.reject

    def test_disjoint_constants(self):
        rep = ks_two_sample([0.0] * 20, [5.0] * 20, 0.05)
        assert rep.statistic == 1.0
        assert rep.reject

    def test_symmetry(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=80) + 0.3
        a = ks_two_sample(x, y, 0.05)
        b = ks_two_sample(y, x, 0.05)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value

    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 8"):
            ks_two_sample([1.0] * 7, [1.0] * 20, 0.05)

    def test_nan_sample_refused(self):
        # a NaN has no rank: it would count as a value above every other.
        # Infinities do rank, and TestKsOnSamples draws them
        reason = r"; a K-S test ranks its samples$"
        with pytest.raises(ValueError, match=r"^NaN sample: x\[0\] = nan" + reason):
            ks_two_sample([math.nan] * 10, range(10))
        with pytest.raises(ValueError, match=r"^NaN sample: y\[9\] = nan" + reason):
            ks_two_sample(range(10), [*range(9), math.nan])

    def test_detects_shift(self, rng):
        x = rng.normal(size=500)
        y = rng.normal(size=500) + 1.0
        assert ks_two_sample(x, y, 0.05).reject

    @pytest.mark.parametrize("lam, q", [(0.5, 0.9639452436648751),
                                        (1.0, 0.26999967167735456)])
    def test_kolmogorov_tail_known_values(self, lam, q):
        # D = 0.5 at 8 lambda^2 samples a side: [2, 0] against [1, 1] gives
        # lambda = 0.5, [8, 0] against [4, 4] gives 1
        m = round(8 * lam ** 2)
        d, p, reject = _ks_counts(np.array([[m, 0]]), np.array([[m // 2, m // 2]]), 0.05)
        assert d[0] == 0.5 and np.sqrt(m / 2) * d[0] == lam
        assert p[0] == pytest.approx(q, rel=1e-12) and not reject[0]

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.01, 0.02])
    def test_kolmogorov_tail_near_one_for_tiny_lambda(self, lam):
        # one sample of 1 / (2 lambda^2) a side moved across two levels gives
        # lambda (none moved gives 0); a series cut after 100 terms gave 0.02
        # at 1e-3 and 0.87 at 0.01
        m = round(0.5 / lam ** 2) if lam else 8
        moved = int(lam > 0)
        d, p, reject = _ks_counts(np.array([[moved, m - moved]]), np.array([[0, m]]), 0.05)
        assert np.sqrt(m / 2) * d[0] == pytest.approx(lam, rel=1e-12)
        assert p[0] == pytest.approx(1.0, abs=1e-12) and not reject[0]

    def test_tiny_statistic_does_not_reject(self):
        # unequal sizes leave D = 3.2e-6; it once gave p = 5.7e-5 and rejected
        x, y = [0] + [1] * 560, [0] + [1] * 559
        for rep in (ks_two_sample(x, y, 0.05), ks_row(np.array([1, 560]),
                                                      np.array([1, 559]), 0.05)):
            assert 0 < rep.statistic < 1e-5
            assert rep.p_value == pytest.approx(1.0) and not rep.reject

    def test_identical_halves_rejection_rate(self, calibrated_config):
        # discrete, heavily tied data: asymptotic K-S is conservative
        run = simulate_run(replace(calibrated_config, n=4000, seed=55))
        x = run.alice.levels.astype(float)
        rng = np.random.default_rng(56)
        rejects = 0
        trials = 800
        for _ in range(trials):
            perm = rng.permutation(x.size)
            rejects += ks_two_sample(x[perm[:2000]], x[perm[2000:]], 0.05).reject
        assert rejects / trials <= 2 * 0.05


LEVEL_SAMPLES = st.lists(st.integers(-8, 0), min_size=8, max_size=80)
# ties come from a small pool; the full float range (infinities too) from st.floats
TIED_FLOATS = st.lists(st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 7.0]),
                                 st.floats(allow_nan=False)), min_size=8, max_size=80)


class TestKsOnSamples:
    """ks_two_sample ranks the samples and counts; the sorted-sample test
    in the oracles is the reference."""

    @settings(deadline=None, max_examples=300)
    @given(TIED_FLOATS, TIED_FLOATS, st.sampled_from([0.01, 0.05, 0.5]))
    def test_matches_sorted_samples(self, x, y, alpha):
        assert_matches_sorted_ks(ks_two_sample(x, y, alpha), x, y, alpha)

    def test_continuous_samples(self, rng):
        x, y = rng.normal(size=500), rng.normal(size=700) + 0.1
        assert_matches_sorted_ks(ks_two_sample(x, y, 0.05), x, y, 0.05)


class TestKsCounts:
    """The suite's count-based K-S against the sorted-sample reference."""

    @staticmethod
    def counts(x, y, extra=()):
        # counts over the sorted union of both samples and of levels neither has
        support = np.union1d(np.union1d(x, y), extra)
        return [np.bincount(np.searchsorted(support, v), minlength=support.size)
                for v in (x, y)]

    @settings(deadline=None, max_examples=300)
    @given(LEVEL_SAMPLES, LEVEL_SAMPLES, st.lists(st.integers(-12, 3), max_size=3),
           st.sampled_from([0.01, 0.05, 0.5]))
    def test_matches_ks_two_sample(self, x, y, extra, alpha):
        assert_matches_sorted_ks(ks_row(*self.counts(x, y, extra), alpha), x, y, alpha)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(LEVEL_SAMPLES, LEVEL_SAMPLES), min_size=1, max_size=6),
           st.sampled_from([0.01, 0.05, 0.5]))
    def test_rows_match_ks_two_sample(self, pairs, alpha):
        # pairs of unequal sizes in one batch, counted over their shared support
        support = np.unique(np.concatenate([v for pair in pairs for v in pair]))
        c1, c2 = (np.array([np.bincount(np.searchsorted(support, pair[side]),
                                        minlength=support.size) for pair in pairs])
                  for side in (0, 1))
        d, p, reject = _ks_counts(c1, c2, alpha)
        assert d.shape == p.shape == reject.shape == (len(pairs),)
        for row, (x, y) in enumerate(pairs):
            assert_matches_sorted_ks(KsReport(d[row], p[row], reject[row]), x, y, alpha)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.integers(-8, -4), min_size=8, max_size=40),
           st.lists(st.integers(-4, 0), min_size=8, max_size=90))
    def test_levels_on_one_side_only(self, x, y):
        assert_matches_sorted_ks(ks_row(*self.counts(x, y), 0.05), x, y, 0.05)

    @pytest.mark.parametrize("x, y", [
        ([-3] * 9, [-3] * 31),
        ([0] * 8, [0] * 8),
        ([-8] * 10, [0] * 12),
        (list(range(-8, 1)), list(range(-8, 1)) * 3),
    ], ids=["all-equal", "all-equal-same-size", "disjoint", "same-levels"])
    def test_edge_samples(self, x, y):
        assert_matches_sorted_ks(ks_row(*self.counts(x, y), 0.05), x, y, 0.05)


class TestRandomHalves:
    def test_complement_sizes(self):
        counts = np.array([3, 0, 5, 1])  # n = 9: halves of 4 and 5
        h1, h2 = _random_halves(np.random.default_rng(0), counts, 50)
        assert h1.shape == h2.shape == (50, 4)
        assert (h1 >= 0).all() and (h2 >= 0).all()
        assert (h1 + h2 == counts).all()
        assert (h1.sum(axis=1) == 4).all() and (h2.sum(axis=1) == 5).all()

    def test_count_draws_match_permutation_halves(self, calibrated_config):
        # per level, a random half's count has one law whether the half is
        # drawn as counts or as the first n/2 indices of a permutation
        levels = simulate_run(replace(calibrated_config, n=10_000, seed=61)).alice.levels
        codes = np.unique(levels, return_inverse=True)[1]
        counts = np.bincount(codes)
        draws = 2000
        drawn = _random_halves(np.random.default_rng(62), counts, draws)[0]
        rng = np.random.default_rng(63)
        permuted = np.array([np.bincount(codes[rng.permutation(codes.size)[:codes.size // 2]],
                                         minlength=counts.size) for _ in range(draws)])
        assert counts.size == 9 and (counts >= 50).all()
        for level in range(counts.size):
            assert not ks_two_sample(drawn[:, level], permuted[:, level], 0.001).reject


class TestWindowCounts:
    @pytest.mark.parametrize("n, levels, w", [(50, 2, 8), (1000, 9, 125), (3000, 256, 400)])
    def test_equals_per_window_bincounts(self, n, levels, w):
        # random starts in a (2, trials) array, plus the windows at both ends
        rng = np.random.default_rng(n)
        codes = rng.integers(0, levels, size=n)
        codes[rng.integers(0, n, size=n // 3)] = levels - 1  # one frequent level
        starts = rng.integers(0, n - w + 1, size=(2, 30))
        starts[:, :2] = [[0, n - w], [n - w, 0]]
        got = _window_counts(codes, starts, w, levels)
        want = np.array([[np.bincount(codes[s:s + w], minlength=levels) for s in row]
                         for row in starts])
        assert got.shape == (2, 30, levels)
        assert np.array_equal(got, want)

    def test_unsorted_and_repeated_starts(self):
        # the searches run over sorted starts; each count goes back to its start
        rng = np.random.default_rng(3)
        n, levels, w = 200, 5, 40
        codes = rng.integers(0, levels, size=n)
        starts = np.array([[160, 7, 7, 0, 99, 7], [0, 160, 3, 160, 99, 12]])
        got = _window_counts(codes, starts, w, levels)
        want = np.array([[np.bincount(codes[s:s + w], minlength=levels) for s in row]
                         for row in starts])
        assert np.array_equal(got, want)

    def test_memory_is_linear_in_samples_and_in_windows_by_levels(self):
        # an (n, levels) cumulative table would be 102 MB here
        n, levels, w = 50_000, 256, 2000
        rng = np.random.default_rng(0)
        codes = rng.integers(0, levels, size=n)
        starts = rng.integers(0, n - w + 1, size=(2, 200))
        tracemalloc.start()
        try:
            _window_counts(codes, starts, w, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * (n + starts.size * levels)


class TestRanks:
    @pytest.mark.parametrize("levels", [
        [-8, -8, -3, 0, -3, -5],    # gaps between the levels
        [-4], [0, 0, 0],            # a single value
        [-7, -1, -7, -2, -1, -9],   # negative only
        [5, -3, 17, 5, -3, 0]])     # both signs, unsorted
    def test_equal_the_unique_inverse(self, levels):
        levels = np.array(levels, dtype=np.int64)
        got = _ranks(levels)
        assert np.array_equal(got, np.unique(levels, return_inverse=True)[1])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-300, 300), min_size=1, max_size=60))
    def test_equal_the_unique_inverse_on_drawn_levels(self, levels):
        levels = np.array(levels, dtype=np.int64)
        assert np.array_equal(_ranks(levels), np.unique(levels, return_inverse=True)[1])


class TestDownsample:
    def test_removes_short_range_dependence(self):
        # moving sum over a 6-sample window: lags 1..5 correlated, lag 6+ not
        rng = np.random.default_rng(23)
        ok = 0
        trials = 30
        for s in range(trials):
            base = rng.integers(-2, 1, size=36_600)
            dependent = np.convolve(base, np.ones(6, int), mode="valid")
            trace = make_trace(dependent, "alice")
            pre = lag_correlation_profile(trace, max_lag=1, rows=1500, seed=s)
            assert pre.significant[1]  # dependence visible before downsampling
            post = lag_correlation_profile(make_trace(trace.levels[::6], "alice"),
                                           max_lag=1, rows=800, seed=s)
            ok += not post.significant[1]
        assert ok / trials >= 0.90


class TestValidateAssumptions:
    def test_calibrated_channel_passes(self, calibrated_config):
        run = simulate_run(replace(calibrated_config, n=4000, seed=77))
        report = validate_assumptions(run.alice, run.eve, levels=9)
        alpha = report.alpha
        assert report.identical_distribution_rejection_rate <= 2 * alpha
        assert report.stationary_transition_rejection_rate <= 2 * alpha
        assert report.stationary_observation_rejection_rate <= 2 * alpha
        assert not any(report.markov_lag_profile.significant[1:])
        cv = report.stable_entropy.std_bits / report.stable_entropy.mean_bits
        assert cv <= 0.25
        cross = report.details["cross_lag"]
        assert cross["lag0_significant"]
        assert not any(v["significant_forward"] or v["significant_backward"]
                       for v in cross["nonzero_lags"].values())

    def test_odd_length_trace(self, calibrated_config):
        # the complement half holds one sample more than the drawn half
        run = simulate_run(replace(calibrated_config, n=4001, seed=78))
        report = validate_assumptions(run.alice, run.eve, levels=9)
        alpha = report.alpha
        assert report.identical_distribution_rejection_rate <= 2 * alpha
        assert report.stationary_transition_rejection_rate <= 2 * alpha
        assert report.stationary_observation_rejection_rate <= 2 * alpha

    def test_regime_change_detected(self):
        # transition structure swapped mid-trace: successors shift regimes
        def regime(levels_subset, seed):
            k = 9
            trans = np.zeros((k, k))
            trans[:, levels_subset] = 1.0 / len(levels_subset)
            pi = trans[0]
            states = tuple(range(-8, 1))
            emit = np.eye(k)
            model = HmmModel(states=states, symbols=states, pi=pi,
                             trans=trans, emit=emit)
            cfg = ChannelConfig(model=model, bob_error={0: 1.0}, n=3000, seed=seed)
            return simulate_run(cfg)

        first = regime([6, 7, 8], 1)    # levels -2..0
        second = regime([0, 1, 2], 2)   # levels -8..-6
        levels = np.concatenate([first.alice.levels, second.alice.levels])
        eve = np.concatenate([first.eve.levels, second.eve.levels])
        alice_t = make_trace(levels, "alice")
        eve_t = make_trace(eve, "eve")
        # levels -5..-3 never occur: their fitted rows are uniform, with a warning
        with pytest.warns(UserWarning, match="rows default to uniform"):
            report = validate_assumptions(alice_t, eve_t, levels=9)
        assert report.stationary_transition_rejection_rate > 0.5

    def test_independent_eve_decouples(self, calibrated_config):
        run = simulate_run(replace(calibrated_config, n=6000, seed=91))
        rng = np.random.default_rng(92)
        fake_eve = MeasurementTrace(run.alice.seqs,
                                    rng.integers(-8, 1, size=6000), "eve")
        report = validate_assumptions(run.alice, fake_eve, levels=9)
        # observation law is stationary (uniform everywhere) ...
        assert report.stationary_observation_rejection_rate <= 0.10
        # ... but eve learns nothing: entropy approaches the 100 * log2(9)
        # ceiling (counting noise in the fitted rows costs a few percent,
        # spent by the path maximization)
        ceiling = 100 * np.log2(9)
        assert report.stable_entropy.mean_bits >= 0.80 * ceiling
        coupled = validate_assumptions(run.alice, run.eve, levels=9)
        assert report.stable_entropy.mean_bits \
            >= 2.0 * coupled.stable_entropy.mean_bits

    def test_too_short_rejected(self, rng):
        t = make_trace(rng.integers(-8, 1, size=500), "alice")
        e = make_trace(rng.integers(-8, 1, size=500), "eve")
        with pytest.raises(ValueError, match="at least"):
            validate_assumptions(t, e, levels=9)

    @pytest.mark.parametrize("flat", ["alice", "eve"])
    def test_single_level_trace_rejected(self, rng, flat):
        # the correlation probes divide by each trace's variance: Alice's
        # lag profile probes her first, at lag 0, and the cross-lag probe
        # Eve, from lag 1
        traces = {role: make_trace(rng.integers(-8, 1, size=2000), role)
                  for role in ("alice", "eve")}
        traces[flat] = make_trace(np.zeros(2000, dtype=np.int64), flat)
        lag = {"alice": 0, "eve": 1}[flat]
        with pytest.raises(ValueError, match=rf"^zero-variance input: the {flat} samples of "
                                             rf"the lag-{lag} probe hold a single level "
                                             r"\(0\); the correlation probes need two$"):
            validate_assumptions(traces["alice"], traces["eve"], levels=9)

    def test_single_level_probe_slice_names_trace_and_lag(self, rng):
        # Eve's one -1 is her last sample, which no forward cross-lag probe reads
        eve = np.zeros(2000, dtype=np.int64)
        eve[-1] = -1
        alice = make_trace(rng.integers(-8, 1, size=2000), "alice")
        with pytest.raises(ValueError, match=r"^zero-variance input: the eve samples of the "
                                             r"lag-1 probe hold a single level \(0\); "
                                             "the correlation probes need two$"):
            validate_assumptions(alice, make_trace(eve, "eve"), levels=9)

    @pytest.mark.parametrize("role, level", [("alice", 3), ("eve", -9), ("alice", 2 ** 62)])
    def test_levels_outside_the_model_refused_first(self, rng, role, level):
        # checked before any stage, so the ranks' bincount spans at most
        # ``levels`` values: a level of 2^62 allocates nothing for its span
        traces = {r: rng.integers(-8, 1, size=2000) for r in ("alice", "eve")}
        traces[role][7] = level
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^{role} trace has levels outside "
                                                 r"\[-8, 0\]; clamp during ingestion$"):
                validate_assumptions(make_trace(traces["alice"], "alice"),
                                     make_trace(traces["eve"], "eve"), levels=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_options_are_keywords(self, rng):
        t = make_trace(rng.integers(-8, 1, size=2000), "alice")
        e = make_trace(rng.integers(-8, 1, size=2000), "eve")
        with pytest.raises(TypeError):
            validate_assumptions(t, e, {"trials": 5}, levels=9)
        with pytest.raises(TypeError):
            validate_assumptions(t, e, trails=5, levels=9)  # misspelt option
        with pytest.raises(TypeError):
            validate_assumptions(t, e)  # the level count has no default

    @pytest.mark.parametrize("option", [{"alpha": 0.05}, {"max_lag": 6}, {"trials": 200},
                                        {"seed": 0}, {"slice_len": 100}])
    def test_thresholds_are_not_options(self, rng, option):
        # the suite runs every test at ALPHA, both probes to MAX_LAG, TRIALS
        # partitions per K-S test, SLICE_LEN-sample slices and seed 0
        t = make_trace(rng.integers(-8, 1, size=2000), "alice")
        e = make_trace(rng.integers(-8, 1, size=2000), "eve")
        with pytest.raises(TypeError):
            validate_assumptions(t, e, levels=9, **option)

    def test_report_serializes(self, calibrated_config):
        import json
        run = simulate_run(replace(calibrated_config, n=2000, seed=13))
        report = validate_assumptions(run.alice, run.eve, levels=9)
        doc = json.dumps(report.to_dict())
        assert "stable_entropy" in doc

    def test_one_ks_call_per_test(self, monkeypatch):
        calls = []

        def spy(c1, c2, alpha):
            calls.append(c1.shape)
            return _ks_counts(c1, c2, alpha)

        monkeypatch.setattr(physkey.stats, "_ks_counts", spy)
        run = simulate_run(family_config(levels=9, n=3000, seed=14))
        report = validate_assumptions(run.alice, run.eve, levels=9)
        tests = report.details["stationary_observation_tests"]
        assert calls == [(200, 9), (200, 9), (tests, 9)]


def rare_level_pair():
    # level -4 holds about 8 of 2000 samples, too few for test (d) in a half
    rng = np.random.default_rng(5)
    a = rng.choice(np.arange(-4, 1), p=[0.004, 0.249, 0.249, 0.249, 0.249], size=2000)
    e = np.clip(a + rng.integers(-1, 2, size=2000), -4, 0)
    return make_trace(a, "alice"), make_trace(e, "eve")


def simulated_pair(**family):
    run = simulate_run(family_config(**family))
    return run.alice, run.eve


class TestSeededOutputs:
    """Assumption-suite reports pinned to the sha256 of their sorted-key JSON:
    a change to how the K-S tests are batched must reproduce every byte."""

    # case: (trace pair, level count, sha256); "odd-n-one-trial" keeps the
    # id it had when the suite's trial count was an option
    REPORTS = {
        "odd-n-one-trial": (
            partial(simulated_pair, levels=9, n=2001, seed=11), 9,
            "63cbfe8cc435e6b790f6fed2759466bc1903bc10018a2fede3519bad13d79353"),
        "chain-with-memory": (
            partial(simulated_pair, levels=5, decay=0.5, n=3000, seed=12), 5,
            "2c828766772499090d3037ead23de823d1145a21db889ed0009fc9d0617b9cc9"),
        "reference-trials": (
            partial(simulated_pair, levels=9, n=10_000, seed=13), 9,
            "4d524a1e768764d032e1505ac3032cf86a64704f1327012d179a9958cb5232d1"),
        "skipped-level": (
            rare_level_pair, 5,
            "8355a7b3549da90f5e01092ba6fa174ad10f46aa85ae80d975c6c9e71c0917ee"),
    }

    @pytest.mark.parametrize("case", sorted(REPORTS))
    def test_report_digest(self, case):
        pair, levels, digest = self.REPORTS[case]
        report = validate_assumptions(*pair(), levels=levels)
        doc = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest
        assert (report.details["stationary_observation_skipped"] > 0) == (case == "skipped-level")
