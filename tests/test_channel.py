import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import physkey.channel
from physkey.channel import (_COUNT_MAX, ChannelConfig, _banded_rows, _bisect,
                             _bob_error_count, _bob_levels, _cdf, _count_le, _distances, _draw,
                             _eve_counts, _eve_levels, _inf_tail, _memoryless_entropy_bits,
                             _memoryless_law, _offset_cdf, _sample_chain, _sorted_by_state,
                             _state_order, calibrate_to_reference_rates, family_config,
                             measure_rates, simulate_run)
from physkey.errors import CalibrationError, ImpossibleObservationError
from physkey.hmm import SLICE_LEN, HmmModel, entropy_profile_batch, \
    estimate_avg_conditional_min_entropy, slice_experiments, validate_model
from physkey.protocol import plan_parameters, run_exchange
from physkey.stats import lag_correlation_profile, pearson_significance

from .oracles import argmax_eve_levels, choice_simulate_run, walk_chain


def closed_form_bits(model, ue_by_state):
    # the spread probe's closed form for a memoryless model, its CDF tails
    # taken from the emission rows themselves
    counts = _eve_counts(_cdf(model.emit), ue_by_state)
    return _memoryless_entropy_bits(_memoryless_law(model), model.emit, model.symbols, counts)


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

    @pytest.mark.parametrize("levels", [3, 9])
    @pytest.mark.parametrize("band", [1, 2, 3, 4])
    @pytest.mark.parametrize("spread", [1e-3, 0.3, 1.0])
    def test_eve_never_draws_a_zero_probability_symbol(self, levels, band, spread):
        # a row whose sum rounds below 1 leaves [sum, 1) to its last positive
        # symbol; it once fell to symbol 0 (band 1, spread 0.3: state 0 drew -8)
        model = family_config(levels=levels, spread=spread, band=band).model
        states = np.arange(levels)
        symbols = _eve_levels(model, states, np.full(levels, np.nextafter(1.0, 0.0)))
        cols = [model.symbols.index(v) for v in symbols]
        assert (model.emit[states, cols] > 0).all()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.floats(1e-3, 1.0), st.integers(0, 4),
           st.integers(0, 2 ** 32 - 1), st.integers(0, 300))
    @example(9, 0.3, 1, 0, 2325)
    @example(2, 1e-3, 0, 1, 0)
    def test_eve_counts_match_argmax_draw(self, levels, spread, band, seed, n):
        # banded rows (band 0 is the identity) hold zero-probability symbols;
        # uniforms fall on every CDF entry, at 0 and just below 1 as well
        model = family_config(levels=levels, spread=spread, band=band).model
        rng = np.random.default_rng(seed)
        idx = np.r_[rng.integers(0, levels, n), np.repeat(np.arange(levels), levels + 2)]
        edges = np.c_[np.zeros(levels), np.cumsum(model.emit, axis=1),
                      np.full(levels, np.nextafter(1.0, 0.0))]
        ue = np.r_[rng.random(n), edges.ravel()]
        assert _eve_levels(model, idx, ue).tolist() == \
            argmax_eve_levels(model, idx, ue).tolist()

    def test_eve_skips_a_symbol_no_state_emits(self):
        # symbol 1 has probability 0 in every row, and symbol 3 is never drawn
        model = HmmModel(states=(0, 1), symbols=(-5, 1, 2, 7), pi=[0.5, 0.5],
                         trans=[[0.5, 0.5]] * 2,
                         emit=[[0.5, 0.0, 0.5, 0.0], [0.25, 0.0, 0.75, 0.0]])
        idx = np.array([0, 0, 0, 1, 1, 1, 1])
        ue = np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 0.2, 0.25, 0.9, 0.999])
        got = _eve_levels(model, idx, ue)
        assert got.tolist() == [-5, 2, 2, -5, 2, 2, 2]
        assert got.tolist() == argmax_eve_levels(model, idx, ue).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 2325, 10_000])
    def test_iid_chain_matches_per_sample_walk(self, n):
        # equal rows that differ from pi, with a zero-probability state
        row = [0.25, 0.0, 0.5, 0.25]
        model = HmmModel(states=(-3, -2, -1, 0), symbols=(-3, -2, -1, 0),
                         pi=[0.1, 0.2, 0.3, 0.4], trans=[row] * 4, emit=np.eye(4))
        u = np.random.default_rng(n).random(n)
        assert _sample_chain(model.pi, model.trans, u).tolist() == \
            walk_chain(model, n, n).tolist()

    def test_chain_never_enters_a_zero_probability_state(self):
        # 0.6 + 0.3 + 0.1 rounds to 1 - 2^-53, and state 3 has probability 0
        row = [0.6, 0.3, 0.1, 0.0]
        u = np.full(5, np.nextafter(1.0, 0.0))
        assert _sample_chain(np.array(row), np.array([row] * 4), u).tolist() == [2] * 5

    @pytest.mark.parametrize("levels", [2, 5, 9, 12])
    @pytest.mark.parametrize("decay", [1e-3, 0.1, 0.5, 0.9, 1.0])
    def test_family_law_is_stationary(self, levels, decay):
        # slow-mixing chains (decay 1e-3) included: pi comes in closed form
        model = family_config(levels=levels, decay=decay).model
        assert np.abs(model.pi @ model.trans - model.pi).max() <= 1e-15
        assert model.pi.sum() == pytest.approx(1.0, abs=1e-15)

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


class TestDrawHelpers:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40).filter(any), st.booleans(),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=60))
    @example([1] * _COUNT_MAX, True, [0.5])
    @example([2, 0, 1] * 11, False, [0.25])
    @example([0, 3, 0, 0, 1, 0], True, [])
    def test_count_le_matches_searchsorted(self, weights, inf_tail, uniforms):
        # both sides of the cutover; zero weights repeat a CDF entry, and
        # the uniforms take 0.0, every entry and the float just below it
        p = np.array(weights, dtype=float) / sum(weights)
        cum = np.cumsum(p)
        cdf = _cdf(p) if inf_tail else cum / cum[-1]
        finite = cdf[np.isfinite(cdf) & (cdf < 1.0)]
        u = np.r_[uniforms, 0.0, finite, np.nextafter(finite, 0.0)]
        counted = _count_le(cdf, u)
        assert counted.dtype == np.intp
        assert counted.tolist() == np.searchsorted(cdf, u, side="right").tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 256]), st.data())
    def test_sorted_by_state_matches_masked_sorts(self, levels, data):
        # empty states included (most of them at 256), repeated uniforms too
        n = data.draw(st.integers(0, 300))
        idx = np.array(data.draw(st.lists(st.integers(0, levels - 1), min_size=n,
                                          max_size=n)), dtype=np.int64)
        u = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75])
                                        | st.floats(0.0, 1.0, exclude_max=True),
                                        min_size=n, max_size=n)), dtype=float)
        order, starts = _state_order(idx, levels)
        assert order.tolist() == np.argsort(idx, kind="stable").tolist()
        assert starts.tolist() == np.bincount(idx, minlength=levels).cumsum()[:-1].tolist()
        grouped = _sorted_by_state(u, order, starts)
        masked = [np.sort(u[idx == s]) for s in range(levels)]
        assert len(grouped) == levels
        for g, m in zip(grouped, masked):
            assert g.dtype == m.dtype and g.tolist() == m.tolist()


class TestPerModelState:
    def test_reseeding_checks_the_model_once(self, monkeypatch):
        # a config re-seeded with replace keeps its model, already checked;
        # an equal but distinct model is checked anew
        calls = []

        def spy(model):
            calls.append(model)
            return validate_model(model)

        monkeypatch.setattr(physkey.channel, "validate_model", spy)
        cfg = two_state_config(n=50)
        runs = [simulate_run(replace(cfg, seed=s)) for s in range(5)]
        assert len(calls) == 1
        assert runs[0].alice.levels.tolist() != runs[1].alice.levels.tolist()
        two_state_config(n=50)
        assert len(calls) == 2

    def test_invalid_model_refused_on_every_build(self):
        bad = HmmModel(states=(-1, 0), symbols=(-1, 0), pi=[0.5, 0.5],
                       trans=[[0.5, 0.4], [0.1, 0.9]], emit=[[0.8, 0.2], [0.2, 0.8]])
        assert validate_model(bad) == ["row 0 of trans sums to 0.9"]
        message = "^" + re.escape("invalid channel model: row 0 of trans sums to 0.9") + "$"
        good = two_state_config(n=50)
        for _ in range(2):  # the second time, its check is the kept one
            with pytest.raises(ValueError, match=message):
                ChannelConfig(model=bad, bob_error=good.bob_error, n=50)
            with pytest.raises(ValueError, match=message):
                replace(good, model=bad)

    def test_eve_mapped_on_first_read(self):
        # decay 0.6 samples the chain by pointer doubling
        cfg = family_config(levels=9, decay=0.6, n=2000, seed=3)
        run = simulate_run(cfg)
        idx, ue, _ = _draw(cfg.model, 3, 2000)
        eve = run.eve
        assert eve.levels.tolist() == argmax_eve_levels(cfg.model, idx, ue).tolist()
        assert eve.seqs.tolist() == list(range(2000))
        assert (eve.node_id, eve.frame_type) == ("eve", "OBS")
        assert run.eve is eve

    def test_exchange_never_maps_eve(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return _eve_levels(*args)

        monkeypatch.setattr(physkey.channel, "_eve_levels", spy)
        params = plan_parameters(l=128, lambda_=80, c=1)
        run = simulate_run(family_config(levels=9, spread=0.41325, n=params.n, seed=11))
        assert run_exchange(run.alice, run.bob, params, seed=12).success
        assert calls == []
        assert run.eve is run.eve
        assert len(calls) == 1


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
        # the reported entropy is the closed form over measure_rates' own
        # draw, bitwise, and measure_rates' kernel mean agrees with it
        idx, ue, _ = _draw(cfg.model, seed, 10_000)
        ue_by_state = [np.sort(ue[idx == s]) for s in range(9)]
        closed = float(closed_form_bits(cfg.model, ue_by_state))
        assert cal["achieved_entropy_per_sample_bits"] == closed / 10_000
        rates = measure_rates(cfg, seed=seed)
        assert rates["per_sample_entropy_bits"] == \
            pytest.approx(cal["achieved_entropy_per_sample_bits"], rel=1e-12)
        assert rates["word_error_rate_per_word"] == cal["achieved_word_error_per_word"]

    def test_no_entropy_estimate_per_calibration(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return estimate_avg_conditional_min_entropy(*args)

        monkeypatch.setattr(physkey.channel, "estimate_avg_conditional_min_entropy", spy)
        cfg = calibrate_to_reference_rates(0.1248, 0.0054, levels=9, seed=2026)
        assert cfg.calibration == TestSeededOutputs.CALIBRATIONS[2026]
        assert len(calls) == 0

    def test_models_validated_a_fixed_number_of_times(self, monkeypatch):
        # the returned config, built once with its calibration dict; neither
        # the base model nor any probe builds or validates a config
        calls = []

        def spy(model):
            calls.append(model)
            return validate_model(model)

        monkeypatch.setattr(physkey.channel, "validate_model", spy)
        cfg = calibrate_to_reference_rates(0.1248, 0.0054, levels=9, seed=2026)
        assert cfg.calibration == TestSeededOutputs.CALIBRATIONS[2026]
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [0, 2026])
    # at q = 0.08 the offset probabilities sum to 1 - 2^-53, so the
    # thresholds depend on the order they are summed and normalised in
    @pytest.mark.parametrize("q", [0.0, 1e-5, 0.023456787109375002, 0.08, 0.25, 0.49])
    def test_error_count_matches_word_error_rate(self, seed, q):
        # the sorted-uniform count against Bob's errors in the simulated run,
        # and in Bob's levels at uniforms on and just below both CDF
        # boundaries (those below 1), 0 and just below 1 at every state, the
        # two clamp states among them
        cfg = family_config(levels=9, q=q, n=2000, seed=seed)
        run = simulate_run(cfg)
        idx, _, ub = _draw(cfg.model, seed, 2000)
        cdf = _offset_cdf(cfg.bob_error)[1]
        edges = [u for u in (0.0, cdf[0], np.nextafter(cdf[0], 0.0), cdf[1],
                             np.nextafter(cdf[1], 0.0), np.nextafter(1.0, 0.0)) if u < 1.0]
        idx = np.r_[idx, np.repeat(np.arange(9), len(edges))]
        ub = np.r_[ub, np.tile(edges, 9)]
        alice = np.r_[run.alice.levels, idx[2000:] - 8]
        bob = np.r_[run.bob.levels,
                    _bob_levels(cfg.model, cfg.bob_error, alice[2000:], ub[2000:])]
        count = _bob_error_count(q, np.sort(ub[idx > 0]), np.sort(ub[idx < 8]))
        assert count == np.count_nonzero(alice != bob)
        # each direction alone, so a miss at one threshold cannot offset one at the other
        down = _bob_error_count(q, np.sort(ub[idx > 0]), ub[:0])
        up = _bob_error_count(q, ub[:0], np.sort(ub[idx < 8]))
        assert (down, up) == (np.count_nonzero(bob < alice), np.count_nonzero(bob > alice))

    @pytest.mark.parametrize("seed", [2026, 1177726414, 284816770, 1888305565, 1, 2])
    @pytest.mark.parametrize("band,target", [(2, 0.9984), (3, 1.5)])
    def test_closed_form_decides_as_the_kernel(self, seed, band, target):
        # the spread search driven by the kernel over Eve's simulated trace,
        # and driven by the closed form, pick the same probe
        idx, ue, _ = _draw(family_config(levels=9).model, seed, 10_000)
        ue_by_state = [np.sort(ue[idx == s]) for s in range(9)]

        def kernel(spread):
            cfg = family_config(levels=9, spread=spread, band=band, n=10_000, seed=seed)
            experiments = slice_experiments(cfg.model, simulate_run(cfg).eve.levels, SLICE_LEN)
            return estimate_avg_conditional_min_entropy(cfg.model, experiments).mean_bits \
                / SLICE_LEN

        def closed(spread):
            model = family_config(levels=9, spread=spread, band=band).model
            return float(closed_form_bits(model, ue_by_state)) / idx.size

        def geometric(a, b):
            return math.sqrt(a * b)

        assert _bisect(closed, target, 1e-3, 1.0, geometric)[0] == \
            _bisect(kernel, target, 1e-3, 1.0, geometric)[0]

    def test_zero_entropy_target_fails(self):
        with pytest.raises(CalibrationError, match="calibration failed"):
            calibrate_to_reference_rates(0.0, 0.0054)

    def test_unreachable_entropy_fails(self):
        with pytest.raises(CalibrationError, match="calibration failed"):
            calibrate_to_reference_rates(0.9, 0.0054, levels=3)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_sample_count_below_one_fails_before_drawing(self, monkeypatch, n_samples):
        monkeypatch.setattr(physkey.channel, "_draw", lambda *args: pytest.fail("drew a run"))
        with pytest.raises(CalibrationError, match=r"^calibration failed: n_samples must be "
                                                   rf">= 1, got {n_samples}$"):
            calibrate_to_reference_rates(0.1248, 0.0054, n_samples=n_samples)

    @pytest.mark.parametrize("levels", [2, 5, 9, 17, 256])
    @pytest.mark.parametrize("band", [1, 2, 3, 4])
    @pytest.mark.parametrize("spread", [1e-3, 1.0])
    def test_band_mask_is_the_emission_support(self, levels, band, spread):
        # calibration takes each band's CDF tails from the band itself; at
        # both ends of the searched spreads no weight within it underflows
        d = _distances(levels)
        emit = _banded_rows(d, spread, band)[0]
        assert ((emit > 0) == (d <= band)).all()
        assert (_inf_tail(d <= band) == _inf_tail(emit)).all()


class TestClosedFormEntropy:
    @pytest.mark.parametrize("levels", [2, 5, 9])
    @pytest.mark.parametrize("band", [1, 2, 3, 4])
    @pytest.mark.parametrize("spread", [1e-3, 0.01, 0.1, 0.41, 1.0])
    def test_matches_kernel(self, levels, band, spread):
        model = family_config(levels=levels, spread=spread, band=band).model
        obs = np.random.default_rng(levels * 100 + band).integers(0, levels, size=(20, 100))
        counts = np.stack([np.bincount(row, minlength=levels) for row in obs])
        np.testing.assert_allclose(_memoryless_entropy_bits(model.pi, model.emit,
                                                            model.symbols, counts),
                                   entropy_profile_batch(model, obs, [100])[:, 0],
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("levels", range(2, 33))
    def test_every_iid_family_member_is_in_the_domain(self, levels):
        # the stationary law of a chain with equal rows is that row, exactly
        model = family_config(levels=levels).model
        _memoryless_entropy_bits(_memoryless_law(model), model.emit, model.symbols,
                                 np.ones(levels))

    def test_refuses_a_chain_with_memory(self):
        model = family_config(levels=5, decay=0.5).model
        with pytest.raises(ValueError, match="transition row equal to pi"):
            _memoryless_law(model)

    def test_refuses_equal_rows_that_are_not_pi(self):
        row = [0.5, 0.3, 0.2]
        model = HmmModel(states=(-2, -1, 0), symbols=(-2, -1, 0), pi=[0.2, 0.3, 0.5],
                         trans=[row] * 3, emit=np.eye(3))
        with pytest.raises(ValueError, match="transition row equal to pi"):
            _memoryless_law(model)

    def test_impossible_symbol_raises_as_the_kernel(self):
        # no state emits symbol 0
        model = HmmModel(states=(-2, -1, 0), symbols=(-2, -1, 0), pi=[0.5, 0.25, 0.25],
                         trans=[[0.5, 0.25, 0.25]] * 3,
                         emit=[[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        obs = np.array([[0, 1, 0, 0], [1, 1, 2, 0]])
        counts = np.stack([np.bincount(row, minlength=3) for row in obs])
        assert _memoryless_entropy_bits(model.pi, model.emit, model.symbols, counts[0]) == \
            pytest.approx(entropy_profile_batch(model, obs[:1], [4])[0, 0], abs=1e-12)
        with pytest.raises(ImpossibleObservationError, match="impossible observation"):
            entropy_profile_batch(model, obs, [4])
        with pytest.raises(ImpossibleObservationError,
                           match="impossible observation sequence: symbol 0 "):
            _memoryless_entropy_bits(model.pi, model.emit, model.symbols, counts)

    @pytest.mark.parametrize("seed", [0, 2026])
    def test_counts_bin_as_eve_draws(self, seed):
        # the sorted-uniform counts against _eve_levels, including uniforms
        # on every CDF boundary and just below 1
        model = family_config(levels=9, spread=0.3, band=2).model
        idx, ue, _ = _draw(model, seed, 2000)
        cum = np.cumsum(model.emit, axis=1)
        idx = np.r_[idx, np.repeat(np.arange(9), 10)]
        ue = np.r_[ue, np.c_[cum, np.full(9, np.nextafter(1.0, 0.0))].ravel()]
        ue_by_state = [np.sort(ue[idx == s]) for s in range(9)]
        levels = _eve_levels(model, idx, ue)
        assert _eve_counts(_cdf(model.emit), ue_by_state).tolist() == \
            np.bincount(levels - model.symbols[0], minlength=9).tolist()

    def test_rate_matches_calibration(self, calibrated_config):
        # the calibrated run's closed-form rate is the reported rate
        cal = calibrated_config.calibration
        model = calibrated_config.model
        idx, ue, _ = _draw(model, cal["measure_seed"], 10_000)
        ue_by_state = [np.sort(ue[idx == s]) for s in range(9)]
        rate = float(closed_form_bits(model, ue_by_state)) / 10_000
        assert rate == pytest.approx(cal["achieved_entropy_per_sample_bits"], rel=1e-12)


class TestSeededOutputs:
    """Calibrations and simulated traces pinned to fixed values."""

    CALIBRATIONS = {
        2026: {"target_entropy_per_sample_bits": 0.9984,
               "achieved_entropy_per_sample_bits": 0.9980483750046832,
               "target_word_error_per_word": 0.0432,
               "achieved_word_error_per_word": 0.0431,
               "spread": 0.41324816852731083, "band": 2, "q": 0.023456787109375002,
               "levels": 9, "measure_seed": 2026},
        1177726414: {"target_entropy_per_sample_bits": 0.9984,
                     "achieved_entropy_per_sample_bits": 1.0028387571428015,
                     "target_word_error_per_word": 0.0432,
                     "achieved_word_error_per_word": 0.0434,
                     "spread": 0.4160453045834137, "band": 2, "q": 0.022978281250000003,
                     "levels": 9, "measure_seed": 1177726414},
        284816770: {"target_entropy_per_sample_bits": 0.9984,
                    "achieved_entropy_per_sample_bits": 0.9977777989037975,
                    "target_word_error_per_word": 0.0432,
                    "achieved_word_error_per_word": 0.0434,
                    "spread": 0.41324816852731083, "band": 2, "q": 0.022978281250000003,
                    "levels": 9, "measure_seed": 284816770},
        # the calibration seeds perfbench derives from workload seeds 5 and 23
        1440510675: {"target_entropy_per_sample_bits": 0.9984,
                     "achieved_entropy_per_sample_bits": 0.9939654256306311,
                     "target_word_error_per_word": 0.0432,
                     "achieved_word_error_per_word": 0.0433,
                     "spread": 0.4104698380436544, "band": 2, "q": 0.022739028320312504,
                     "levels": 9, "measure_seed": 1440510675},
        77115417: {"target_entropy_per_sample_bits": 0.9984,
                   "achieved_entropy_per_sample_bits": 0.9938317448520615,
                   "target_word_error_per_word": 0.0432,
                   "achieved_word_error_per_word": 0.0431,
                   "spread": 0.4104698380436544, "band": 2, "q": 0.02393529296875,
                   "levels": 9, "measure_seed": 77115417},
    }

    # other level counts and targets, keyed (levels, entropy rate, word error
    # rate, seed): band 2 at 5 levels, and band 4 at 17 levels, where no
    # spread in bands 2, 1 or 3 reaches 2.4 bits per sample
    OTHER_CALIBRATIONS = {
        (5, 0.1248, 0.0054, 2026): {
            "target_entropy_per_sample_bits": 0.9984,
            "achieved_entropy_per_sample_bits": 0.996915784925622,
            "target_word_error_per_word": 0.0432,
            "achieved_word_error_per_word": 0.0434,
            "spread": 0.4572526698969311, "band": 2, "q": 0.025370810546875004,
            "levels": 5, "measure_seed": 2026},
        (17, 0.3, 0.01, 2026): {
            "target_entropy_per_sample_bits": 2.4,
            "achieved_entropy_per_sample_bits": 2.4074900640601493,
            "target_word_error_per_word": 0.08,
            "achieved_word_error_per_word": 0.0801,
            "spread": 0.8167880496440614, "band": 4, "q": 0.042118515625000005,
            "levels": 17, "measure_seed": 2026},
    }

    @staticmethod
    def assert_family_member(cfg):
        # the returned config is the family member its calibration names
        cal = cfg.calibration
        member = family_config(levels=cal["levels"], spread=cal["spread"], band=cal["band"],
                               q=cal["q"], seed=cal["measure_seed"])
        assert cfg.to_dict() == replace(member, calibration=cal).to_dict()

    @pytest.mark.parametrize("seed", sorted(CALIBRATIONS))
    def test_calibration(self, seed):
        cfg = calibrate_to_reference_rates(0.1248, 0.0054, levels=9, seed=seed)
        assert cfg.calibration == self.CALIBRATIONS[seed]
        self.assert_family_member(cfg)

    @pytest.mark.parametrize("key", sorted(OTHER_CALIBRATIONS))
    def test_other_calibration(self, key):
        levels, entropy_rate, word_error_rate, seed = key
        cfg = calibrate_to_reference_rates(entropy_rate, word_error_rate, levels=levels,
                                           seed=seed)
        assert cfg.calibration == self.OTHER_CALIBRATIONS[key]
        self.assert_family_member(cfg)

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
