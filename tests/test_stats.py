from dataclasses import replace

import numpy as np
import pytest

from physkey.channel import ChannelConfig, simulate_run
from physkey.hmm import HmmModel
from physkey.stats import (downsample, ks_two_sample, lag_correlation_profile,
                           pearson_significance, validate_assumptions)
from physkey.traces import MeasurementTrace, make_trace


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
        lines = prof.to_csv().strip().splitlines()
        assert lines[0] == "lag,r,significant"
        assert len(lines) == 6


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

    def test_detects_shift(self, rng):
        x = rng.normal(size=500)
        y = rng.normal(size=500) + 1.0
        assert ks_two_sample(x, y, 0.05).reject

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


class TestDownsample:
    def test_identity(self, rng):
        t = make_trace(rng.integers(-8, 1, size=100), "alice")
        d = downsample(t, 1)
        assert np.array_equal(d.levels, t.levels)

    def test_8100_by_6(self, rng):
        t = make_trace(rng.integers(-8, 1, size=8100), "alice")
        assert len(downsample(t, 6)) == 1350

    def test_keeps_sequence_numbers(self):
        t = MeasurementTrace(np.arange(10, 40), np.zeros(30, int) - 1, "alice")
        d = downsample(t, 7)
        assert np.array_equal(d.seqs, [10, 17, 24, 31, 38])

    def test_composition(self, rng):
        t = make_trace(rng.integers(-8, 1, size=500), "alice")
        a = downsample(downsample(t, 2), 3)
        b = downsample(t, 6)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.seqs, b.seqs)

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
            post = lag_correlation_profile(downsample(trace, 6), max_lag=1,
                                           rows=800, seed=s)
            ok += not post.significant[1]
        assert ok / trials >= 0.90


class TestValidateAssumptions:
    def test_calibrated_channel_passes(self, calibrated_config):
        run = simulate_run(replace(calibrated_config, n=4000, seed=77))
        report = validate_assumptions(run.alice, run.eve,
                                      trials=120, slice_len=100, seed=3)
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
        report = validate_assumptions(alice_t, eve_t,
                                      trials=60, slice_len=100, seed=5)
        assert report.stationary_transition_rejection_rate > 0.5

    def test_independent_eve_decouples(self, calibrated_config):
        run = simulate_run(replace(calibrated_config, n=6000, seed=91))
        rng = np.random.default_rng(92)
        fake_eve = MeasurementTrace(run.alice.seqs,
                                    rng.integers(-8, 1, size=6000), "eve")
        report = validate_assumptions(run.alice, fake_eve,
                                      trials=60, slice_len=100, levels=9, seed=6)
        # observation law is stationary (uniform everywhere) ...
        assert report.stationary_observation_rejection_rate <= 0.10
        # ... but eve learns nothing: entropy approaches the 100 * log2(9)
        # ceiling (counting noise in the fitted rows costs a few percent,
        # spent by the path maximization)
        ceiling = 100 * np.log2(9)
        assert report.stable_entropy.mean_bits >= 0.80 * ceiling
        coupled = validate_assumptions(run.alice, run.eve,
                                       trials=20, slice_len=100, levels=9, seed=7)
        assert report.stable_entropy.mean_bits \
            >= 2.0 * coupled.stable_entropy.mean_bits

    def test_too_short_rejected(self, rng):
        t = make_trace(rng.integers(-8, 1, size=500), "alice")
        e = make_trace(rng.integers(-8, 1, size=500), "eve")
        with pytest.raises(ValueError, match="at least"):
            validate_assumptions(t, e, slice_len=100)

    def test_options_are_keywords(self, rng):
        t = make_trace(rng.integers(-8, 1, size=2000), "alice")
        e = make_trace(rng.integers(-8, 1, size=2000), "eve")
        with pytest.raises(TypeError):
            validate_assumptions(t, e, {"trials": 5})
        with pytest.raises(TypeError):
            validate_assumptions(t, e, trails=5)  # misspelt option

    def test_report_serializes(self, calibrated_config):
        import json
        run = simulate_run(replace(calibrated_config, n=2000, seed=13))
        report = validate_assumptions(run.alice, run.eve,
                                      trials=20, slice_len=100, seed=1)
        doc = json.dumps(report.to_dict())
        assert "stable_entropy" in doc
