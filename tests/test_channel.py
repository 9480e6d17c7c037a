import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physkey.channel import (ChannelConfig, calibrate_to_reference_rates, family_config,
                             measure_rates, simulate_run)
from physkey.errors import CalibrationError
from physkey.hmm import HmmModel
from physkey.stats import lag_correlation_profile, pearson_significance

from .oracles import choice_simulate_run, walk_chain


def two_state_config(n=1000, seed=0, q=0.1):
    model = HmmModel(states=(-1, 0), symbols=(-1, 0), pi=[0.5, 0.5],
                     trans=[[0.9, 0.1], [0.1, 0.9]], emit=[[0.8, 0.2], [0.2, 0.8]])
    return ChannelConfig(model=model, bob_error={-1: q / 2, 0: 1 - q, 1: q / 2},
                         n=n, seed=seed)


class TestSimulate:
    def test_same_seed_bit_identical(self):
        cfg = two_state_config(n=500, seed=42)
        a, b = simulate_run(cfg), simulate_run(cfg)
        for x, y in ((a.alice, b.alice), (a.bob, b.bob), (a.eve, b.eve)):
            assert np.array_equal(x.levels, y.levels)
            assert np.array_equal(x.seqs, y.seqs)

    def test_different_seed_differs(self):
        a = simulate_run(two_state_config(n=500, seed=1))
        b = simulate_run(two_state_config(n=500, seed=2))
        assert not np.array_equal(a.alice.levels, b.alice.levels)

    def test_traces_aligned(self):
        run = simulate_run(two_state_config(n=300))
        assert np.array_equal(run.alice.seqs, run.bob.seqs)
        assert np.array_equal(run.alice.seqs, run.eve.seqs)

    def test_zero_noise_bob_equals_alice(self):
        cfg = two_state_config(n=400, q=0.0)
        cfg = replace(cfg, bob_error={0: 1.0})
        run = simulate_run(cfg)
        assert np.array_equal(run.alice.levels, run.bob.levels)

    def test_deterministic_emission_relabels_alice(self):
        model = HmmModel(states=(-1, 0), symbols=(-1, 0), pi=[0.5, 0.5],
                         trans=[[0.5, 0.5], [0.5, 0.5]],
                         emit=[[0.0, 1.0], [1.0, 0.0]])  # swap levels
        cfg = ChannelConfig(model=model, bob_error={0: 1.0}, n=200, seed=3)
        run = simulate_run(cfg)
        relabel = {-1: 0, 0: -1}
        assert np.array_equal(run.eve.levels,
                              np.array([relabel[v] for v in run.alice.levels]))

    def test_empirical_transitions_match(self):
        cfg = two_state_config(n=100_000, seed=9)
        run = simulate_run(cfg)
        idx = run.alice.levels + 1  # states (-1, 0) -> (0, 1)
        counts = np.zeros((2, 2))
        np.add.at(counts, (idx[:-1], idx[1:]), 1)
        freq = counts / counts.sum(axis=1, keepdims=True)
        assert np.abs(freq - cfg.model.trans).max() < 0.01

    def test_bob_clamped_to_level_range(self):
        cfg = family_config(levels=3, q=0.45, n=5000, seed=4)
        run = simulate_run(cfg)
        assert run.bob.levels.min() >= -2
        assert run.bob.levels.max() <= 0

    @pytest.mark.parametrize("levels,decay", [(2, 1.0), (2, 0.3), (9, 1.0), (9, 0.5), (4, 0.9)])
    @pytest.mark.parametrize("n", [1, 2, 3, 2325, 10_000])
    def test_chain_matches_per_sample_walk(self, levels, decay, n):
        cfg = family_config(levels=levels, decay=decay, spread=0.4, band=1, n=n, seed=n + levels)
        run = simulate_run(cfg)
        states = np.array(cfg.model.states)
        assert np.array_equal(run.alice.levels, states[walk_chain(cfg.model, n, cfg.seed)])

    @pytest.mark.parametrize("stay", [0.9, 0.9995])
    def test_sticky_chain_matches_per_sample_walk(self, stay):
        # a chain this sticky keeps the scan from stopping early
        model = HmmModel(states=(-2, -1, 0), symbols=(-2, -1, 0), pi=[0.2, 0.3, 0.5],
                         trans=[[stay, 1 - stay, 0.0],
                                [(1 - stay) / 2, stay, (1 - stay) / 2],
                                [0.0, 1 - stay, stay]], emit=np.eye(3))
        cfg = ChannelConfig(model=model, bob_error={0: 1.0}, n=4097, seed=11)
        run = simulate_run(cfg)
        states = np.array(model.states)
        assert np.array_equal(run.alice.levels, states[walk_chain(model, 4097, 11)])

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(-4, 4), st.integers(0, 5), min_size=1, max_size=6)
           .filter(lambda w: sum(w.values()) > 0),
           st.sampled_from([1, 2, 2325]), st.integers(0, 2 ** 32 - 1))
    @example({3: 1, -2: 2}, 2325, 0)
    @example({0: 0, 2: 3, -1: 0, -3: 1}, 2, 5)
    def test_bob_offsets_match_choice_draw(self, weights, n, seed):
        # any offset order and gaps, zero-probability offsets included
        total = sum(weights.values())
        bob_error = {o: w / total for o, w in weights.items()}
        cfg = replace(family_config(levels=5, decay=0.7, spread=0.4, band=1),
                      bob_error=bob_error, n=n, seed=seed)
        run = simulate_run(cfg)
        alice, bob, eve = choice_simulate_run(cfg)
        assert np.array_equal(run.alice.levels, alice)
        assert np.array_equal(run.bob.levels, bob)
        assert np.array_equal(run.eve.levels, eve)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="bob_error"):
            two_state_config(q=0.1).__class__(
                model=two_state_config().model, bob_error={0: 0.9}, n=10)

    def test_config_json_round_trip(self):
        cfg = two_state_config(n=77, seed=5)
        back = ChannelConfig.from_dict(cfg.to_dict())
        assert back.n == 77 and back.seed == 5
        assert np.allclose(back.model.trans, cfg.model.trans)
        assert back.bob_error == cfg.bob_error


class TestCalibration:
    def test_calibration_hits_targets(self, calibrated_config):
        cal = calibrated_config.calibration
        assert abs(cal["achieved_entropy_per_sample_bits"]
                   - cal["target_entropy_per_sample_bits"]) \
            <= 0.10 * cal["target_entropy_per_sample_bits"]
        assert abs(cal["achieved_word_error_per_word"]
                   - cal["target_word_error_per_word"]) \
            <= 0.10 * cal["target_word_error_per_word"]

    def test_entropy_target_means_100_samples(self, calibrated_config):
        rates = measure_rates(calibrated_config, n_samples=20_000, seed=404)
        per100 = rates["per_sample_entropy_bits"] * 100
        assert per100 == pytest.approx(99.82, rel=0.10)

    def test_word_error_target_means_429_per_string(self, calibrated_config):
        rates = measure_rates(calibrated_config, n_samples=20_000, seed=405)
        per100 = rates["word_error_rate_per_word"] * 100
        assert per100 == pytest.approx(4.29, rel=0.12)

    @pytest.mark.parametrize("seed", [1177726414, 284816770])
    def test_probe_within_criterion_is_returned(self, seed):
        # these seeds once failed: the bisection met its 0.5% criterion at a
        # probe, then returned and re-measured the bracket midpoint instead
        cfg = calibrate_to_reference_rates(0.1248, 0.0054, levels=9, seed=seed)
        cal = cfg.calibration
        for what in ("entropy_per_sample_bits", "word_error_per_word"):
            target = cal[f"target_{what}"]
            assert abs(cal[f"achieved_{what}"] - target) <= 0.10 * target
        rates = measure_rates(cfg, seed=seed)
        assert rates["per_sample_entropy_bits"] == cal["achieved_entropy_per_sample_bits"]
        assert rates["word_error_rate_per_word"] == cal["achieved_word_error_per_word"]

    def test_zero_entropy_target_fails(self):
        with pytest.raises(CalibrationError, match="calibration failed"):
            calibrate_to_reference_rates(0.0, 0.0054)

    def test_unreachable_entropy_fails(self):
        with pytest.raises(CalibrationError, match="calibration failed"):
            calibrate_to_reference_rates(0.9, 0.0054, levels=3)


class TestSeededOutputs:
    """Calibrations and simulated traces pinned to fixed values."""

    CALIBRATIONS = {
        2026: {"target_entropy_per_sample_bits": 0.9984,
               "achieved_entropy_per_sample_bits": 0.9980483750046841,
               "target_word_error_per_word": 0.0432,
               "achieved_word_error_per_word": 0.0431,
               "spread": 0.41324816852731083, "band": 2, "q": 0.023456787109375002,
               "levels": 9, "measure_seed": 2026},
        1177726414: {"target_entropy_per_sample_bits": 0.9984,
                     "achieved_entropy_per_sample_bits": 1.0028387571428092,
                     "target_word_error_per_word": 0.0432,
                     "achieved_word_error_per_word": 0.0434,
                     "spread": 0.4160453045834137, "band": 2, "q": 0.022978281250000003,
                     "levels": 9, "measure_seed": 1177726414},
        284816770: {"target_entropy_per_sample_bits": 0.9984,
                    "achieved_entropy_per_sample_bits": 0.9977777989037981,
                    "target_word_error_per_word": 0.0432,
                    "achieved_word_error_per_word": 0.0434,
                    "spread": 0.41324816852731083, "band": 2, "q": 0.022978281250000003,
                    "levels": 9, "measure_seed": 284816770},
    }

    @pytest.mark.parametrize("seed", sorted(CALIBRATIONS))
    def test_calibration(self, seed):
        cfg = calibrate_to_reference_rates(0.1248, 0.0054, levels=9, seed=seed)
        assert cfg.calibration == self.CALIBRATIONS[seed]

    def test_markov_run(self):
        run = simulate_run(family_config(levels=4, decay=0.5, spread=0.3, band=1, q=0.1,
                                         n=5000, seed=17))
        h = hashlib.sha256()
        for trace in (run.alice, run.bob, run.eve):
            h.update(trace.levels.astype(np.int64).tobytes())
        assert h.hexdigest() == \
            "7c05604977b39d0250cc32328f2575c13f697e681823035f55762d76722f46ed"


class TestChannelStatistics:
    def test_eve_correlates_at_lag_zero_only(self, calibrated_config):
        # lag 0 significant; lags >= 1 rarely significant across seeds
        insignificant = np.zeros(3)
        trials = 40
        for seed in range(trials):
            run = simulate_run(replace(calibrated_config, n=4000, seed=seed))
            x = run.alice.levels.astype(float)
            y = run.eve.levels.astype(float)
            _, sig0 = pearson_significance(x, y, 0.05)
            assert sig0
            for lag in (1, 2, 3):
                _, sig = pearson_significance(x[:-lag], y[lag:], 0.05)
                insignificant[lag - 1] += not sig
        assert (insignificant / trials >= 0.90).all()

    def test_alice_lag_profile_insignificant_when_iid(self, calibrated_config):
        miss = 0
        trials = 30
        for seed in range(trials):
            run = simulate_run(replace(calibrated_config, n=3000, seed=seed + 1000))
            prof = lag_correlation_profile(run.alice, max_lag=3, rows=1500,
                                           alpha=0.05, seed=seed)
            miss += any(prof.significant[1:])
        # union over 3 lags at alpha = 0.05 leaves ample headroom below 50%
        assert miss / trials <= 0.40
