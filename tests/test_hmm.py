import hashlib
import math
import warnings

import numpy as np
import pytest

from physkey.errors import ImpossibleObservationError
from physkey.channel import family_config
from physkey.hmm import (HmmModel, ObservationSequence, _recursions,
                         conditional_min_entropy_given_obs, entropy_profile_batch,
                         estimate_avg_conditional_min_entropy,
                         exact_avg_conditional_min_entropy, fit_hmm_from_traces,
                         fit_linear_growth, forward_likelihood, obs_from_values,
                         slice_experiments, validate_model, viterbi_max_joint)
from physkey.traces import make_trace

from .oracles import (brute_exact_avg_bits, brute_forward, brute_viterbi, random_model,
                      scalar_forward_log2, scalar_viterbi_log2)


@pytest.fixture()
def two_state():
    return HmmModel(states=(0, 1), symbols=(0, 1), pi=[0.5, 0.5],
                    trans=[[0.9, 0.1], [0.1, 0.9]], emit=[[0.8, 0.2], [0.2, 0.8]])


@pytest.fixture()
def uniform2():
    return HmmModel(states=(0, 1), symbols=(0, 1), pi=[0.5, 0.5],
                    trans=[[0.5, 0.5], [0.5, 0.5]], emit=[[0.5, 0.5], [0.5, 0.5]])


def permutation_model():
    # deterministic emissions: the state path is readable from the symbols
    return HmmModel(states=(0, 1), symbols=(0, 1), pi=[0.3, 0.7],
                    trans=[[0.6, 0.4], [0.2, 0.8]], emit=[[1.0, 0.0], [0.0, 1.0]])


class TestValidate:
    def test_degenerate_ok(self):
        one = HmmModel(states=(0,), symbols=(0,), pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        assert validate_model(one) == []

    def test_non_stochastic_row(self, two_state):
        bad = HmmModel(states=(0, 1), symbols=(0, 1), pi=[0.5, 0.5],
                       trans=[[0.5, 0.4], [0.1, 0.9]], emit=two_state.emit)
        violations = validate_model(bad)
        assert any("row 0 of trans sums to 0.9" in v for v in violations)

    def test_negative_entry(self, two_state):
        bad = HmmModel(states=(0, 1), symbols=(0, 1), pi=[0.5, 0.5],
                       trans=two_state.trans, emit=[[1.1, -0.1], [0.2, 0.8]])
        violations = validate_model(bad)
        assert any("negative" in v for v in violations)

    def test_dimension_mismatch(self, two_state):
        bad = HmmModel(states=(0, 1), symbols=(0, 1), pi=[1.0],
                       trans=two_state.trans, emit=two_state.emit)
        assert any("pi has shape" in v for v in validate_model(bad))


class TestViterbi:
    def test_deterministic_chain(self):
        model = HmmModel(states=(5,), symbols=(3,), pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        lp, path = viterbi_max_joint(model, ObservationSequence([0] * 6))
        assert lp == 0.0
        assert np.array_equal(path.states, np.zeros(6))

    def test_two_state_oo(self, two_state):
        lp, path = viterbi_max_joint(two_state, ObservationSequence([0, 0]))
        assert 2 ** lp == pytest.approx(0.288, rel=1e-12)
        assert np.array_equal(path.states, [0, 0])

    def test_two_state_o1o2_matches_enumeration(self, two_state):
        obs = [0, 1]
        lp, path = viterbi_max_joint(two_state, ObservationSequence(obs))
        p_ref, path_ref = brute_viterbi(two_state, obs)
        assert 2 ** lp == pytest.approx(p_ref, rel=1e-12)
        # 0.072 is attained twice; lowest-index tie-break keeps (0, 0)
        assert np.array_equal(path.states, [0, 0])

    def test_impossible_sequence(self):
        model = permutation_model()
        broken = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=model.pi,
                          trans=model.trans,
                          emit=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ImpossibleObservationError, match="impossible observation"):
            viterbi_max_joint(broken, ObservationSequence([0, 2]))

    def test_random_models_match_enumeration(self, rng):
        for _ in range(40):
            k, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            model = random_model(rng, k, m)
            obs = rng.integers(0, m, size=n)
            lp, path = viterbi_max_joint(model, ObservationSequence(obs))
            p_ref, _ = brute_viterbi(model, obs)
            assert 2 ** lp == pytest.approx(p_ref, rel=1e-9)


class TestForward:
    def test_deterministic_chain(self):
        model = HmmModel(states=(5,), symbols=(3,), pi=[1.0], trans=[[1.0]], emit=[[1.0]])
        assert forward_likelihood(model, ObservationSequence([0] * 4)) == 0.0

    def test_two_state_oo(self, two_state):
        lp = forward_likelihood(two_state, ObservationSequence([0, 0]))
        assert 2 ** lp == pytest.approx(0.322, rel=1e-12)

    def test_single_step_formula(self, rng):
        for _ in range(20):
            model = random_model(rng, 3, 3)
            q = int(rng.integers(0, 3))
            lp = forward_likelihood(model, ObservationSequence([q]))
            assert 2 ** lp == pytest.approx(float(model.pi @ model.emit[:, q]), rel=1e-12)

    def test_long_sequence_no_underflow(self, two_state, rng):
        obs = ObservationSequence(rng.integers(0, 2, size=10_000))
        lp = forward_likelihood(two_state, obs)
        assert math.isfinite(lp) and lp < 0

    def test_random_models_match_enumeration(self, rng):
        for _ in range(40):
            k, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            model = random_model(rng, k, m)
            obs = rng.integers(0, m, size=n)
            lp = forward_likelihood(model, ObservationSequence(obs))
            assert 2 ** lp == pytest.approx(brute_forward(model, obs), rel=1e-9)

    def test_total_probability_sums_to_one(self, rng):
        # sum over all observation sequences of forward P equals 1
        for _ in range(5):
            model = random_model(rng, 2, 3)
            n = 5
            total = 0.0
            for idx in range(3 ** n):
                obs = [(idx // 3 ** t) % 3 for t in range(n)]
                total += 2 ** forward_likelihood(model, ObservationSequence(obs))
            assert total == pytest.approx(1.0, abs=1e-6)


class TestConditionalEntropy:
    def test_deterministic_emissions_zero_bits(self, rng):
        model = permutation_model()
        for _ in range(10):
            obs = ObservationSequence(rng.integers(0, 2, size=12))
            assert conditional_min_entropy_given_obs(model, obs) == 0.0

    def test_two_state_value(self, two_state):
        h = conditional_min_entropy_given_obs(two_state, ObservationSequence([0, 0]))
        assert h == pytest.approx(-math.log2(0.288 / 0.322), rel=1e-12)
        assert h == pytest.approx(0.161, abs=5e-4)

    def test_uniform_model_gives_n_bits(self, uniform2):
        h = conditional_min_entropy_given_obs(uniform2, ObservationSequence([0, 1, 0]))
        assert h == pytest.approx(3.0, abs=1e-12)

    def test_never_negative(self, rng):
        for _ in range(50):
            model = random_model(rng, 3, 2)
            obs = ObservationSequence(rng.integers(0, 2, size=int(rng.integers(1, 9))))
            assert conditional_min_entropy_given_obs(model, obs) >= 0.0

    def test_impossible_sequence_names_its_step(self):
        # no state emits symbol 2, which first appears at step 1
        model = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=[0.3, 0.7],
                         trans=[[0.6, 0.4], [0.2, 0.8]],
                         emit=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ImpossibleObservationError,
                           match="impossible observation sequence: zero probability at step 1"
                           ) as info:
            conditional_min_entropy_given_obs(model, ObservationSequence([0, 2, 1]))
        assert info.value.row == 0

    def test_equals_batch_row(self, rng):
        # a matrix product over more rows may sum in another order
        for _ in range(20):
            model = random_model(rng, 3, 4)
            obs = rng.integers(0, 4, size=(5, int(rng.integers(1, 30))))
            batch = entropy_profile_batch(model, obs, [obs.shape[1]])[:, 0]
            for row, want in zip(obs, batch):
                got = conditional_min_entropy_given_obs(model, ObservationSequence(row))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestExactAverage:
    def test_deterministic_emissions(self):
        assert exact_avg_conditional_min_entropy(permutation_model(), 5) == 0.0

    def test_two_state_n2_matches_joint_table(self, two_state):
        got = exact_avg_conditional_min_entropy(two_state, 2)
        assert got == pytest.approx(brute_exact_avg_bits(two_state, 2), abs=1e-9)
        assert got == pytest.approx(-math.log2(0.72), abs=1e-12)

    def test_uniform_three_bits(self, uniform2):
        assert exact_avg_conditional_min_entropy(uniform2, 3) == pytest.approx(3.0, abs=1e-12)

    def test_guard(self, uniform2):
        with pytest.raises(ValueError, match="enumeration too large"):
            exact_avg_conditional_min_entropy(uniform2, 21)

    @pytest.mark.parametrize("trans, bits", [([[0.6, 0.4], [0.2, 0.8]], 0.27566),
                                             ([[1.0, 0.0], [0.2, 0.8]], 0.11569)])
    def test_zero_probabilities_match_enumeration(self, trans, bits):
        # zero emissions rule out hidden paths; the zero transition also
        # makes 473 of the 729 observation sequences impossible, and the
        # enumeration sums their zero P* with the rest
        model = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=[0.3, 0.7], trans=trans,
                         emit=[[0.9, 0.1, 0.0], [0.0, 0.5, 0.5]])
        got = exact_avg_conditional_min_entropy(model, 6)
        assert got == pytest.approx(brute_exact_avg_bits(model, 6), abs=1e-9)
        assert got == pytest.approx(bits, abs=5e-6)

    def test_banded_family_matches_enumeration(self):
        model = family_config(levels=5, decay=0.5, spread=0.4, band=1).model
        got = exact_avg_conditional_min_entropy(model, 4)
        assert got == pytest.approx(brute_exact_avg_bits(model, 4), abs=1e-9)
        assert got == pytest.approx(2.58402, abs=5e-6)

    def test_upper_bound_n_log_k(self, rng):
        for _ in range(10):
            model = random_model(rng, 3, 3)
            n = int(rng.integers(1, 6))
            h = exact_avg_conditional_min_entropy(model, n)
            assert -1e-9 <= h <= n * math.log2(3) + 1e-9


class TestSeededOutputs:
    """Both recursions' values, vanishing steps and argmax paths pinned to
    fixed digests."""

    @staticmethod
    def digest(model, obs, checkpoints):
        h = hashlib.sha256()
        for out in _recursions(model, obs, checkpoints, keep_path=True):
            h.update(np.ascontiguousarray(out).tobytes())
        return h.hexdigest()

    def test_iid_family(self):
        # decay = 1: every transition from a state ties, so paths test the tie-break
        model = family_config(levels=9, spread=0.4, band=2).model
        obs = np.random.default_rng(99).integers(0, 9, size=(30, 100))
        assert self.digest(model, obs, [1, 37, 100]) == \
            "36ffe1373545cd7a57b780b952b7594780a9028b60f4a0dcd75afba5c3b6f5d3"

    def test_sticky_with_zeros(self):
        model = HmmModel(states=(0, 1, 2), symbols=(0, 1, 2), pi=[0.6, 0.4, 0.0],
                         trans=[[0.9, 0.1, 0.0], [0.05, 0.9, 0.05], [0.0, 0.1, 0.9]],
                         emit=[[0.7, 0.3, 0.0], [0.2, 0.6, 0.2], [0.0, 0.3, 0.7]])
        obs = np.random.default_rng(7).integers(0, 3, size=(12, 40))
        assert self.digest(model, obs, [1, 2, 40]) == \
            "4df9b1bb4ddb4e708cdaa73f441c53c53df33e7e4bd54e70788983c2695335d4"

    def test_batch_with_vanishing_row(self):
        model = HmmModel(states=(0, 1, 2), symbols=(0, 1, 2), pi=[0.5, 0.3, 0.2],
                         trans=[[0.5, 0.5, 0.0], [0.3, 0.4, 0.3], [0.2, 0.2, 0.6]],
                         emit=np.eye(3))
        obs = np.random.default_rng(8).integers(0, 3, size=(6, 25))
        # state 0 never moves to state 2: keep that step out of every row but one
        obs[:, 1:][(obs[:, :-1] == 0) & (obs[:, 1:] == 2)] = 1
        obs[3, 10:12] = (0, 2)
        assert list(_recursions(model, obs, [25])[2]) == [-1, -1, -1, 11, -1, -1]
        assert self.digest(model, obs, [5, 11, 25]) == \
            "b83d3cfb3dd990a33d67983e243dc682f5ab5b491f5e0d14e01cabf8bb629c39"


class TestEstimator:
    def test_single_experiment(self, two_state):
        obs = ObservationSequence([0, 0])
        est = estimate_avg_conditional_min_entropy(two_state, [obs])
        assert est.mean_bits == pytest.approx(
            conditional_min_entropy_given_obs(two_state, obs))
        assert est.std_bits == 0.0
        assert est.n_experiments == 1

    def test_deterministic_model_zero(self, rng):
        model = permutation_model()
        exps = [ObservationSequence(rng.integers(0, 2, size=10)) for _ in range(20)]
        est = estimate_avg_conditional_min_entropy(model, exps)
        assert est.mean_bits == 0.0 and est.std_bits == 0.0

    def test_mean_matches_invariant(self, two_state, rng):
        exps = [ObservationSequence(rng.integers(0, 2, size=6)) for _ in range(30)]
        est = estimate_avg_conditional_min_entropy(two_state, exps)
        assert est.mean_bits == pytest.approx(np.mean(est.per_experiment_bits), abs=1e-12)
        assert est.std_bits == pytest.approx(np.std(est.per_experiment_bits, ddof=1), abs=1e-12)

    def test_impossible_experiment_named(self):
        model = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=[0.3, 0.7],
                         trans=[[0.6, 0.4], [0.2, 0.8]],
                         emit=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        good = ObservationSequence([0, 1])
        bad = ObservationSequence([0, 2])
        with pytest.raises(ImpossibleObservationError, match="experiment 1"):
            estimate_avg_conditional_min_entropy(model, [good, bad])

    def test_impossible_first_symbol_named(self):
        model = HmmModel(states=(0, 1), symbols=(0, 1, 2), pi=[1.0, 0.0],
                         trans=[[0.6, 0.4], [0.2, 0.8]],
                         emit=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        exps = [ObservationSequence([0, 1, 1])] * 2 + [ObservationSequence([1, 1, 0])]
        with pytest.raises(ImpossibleObservationError,
                           match="experiment 2: .* at step 0"):
            estimate_avg_conditional_min_entropy(model, exps)

    def test_out_of_range_symbol_rejected(self, two_state):
        with pytest.raises(ValueError, match="out of range"):
            estimate_avg_conditional_min_entropy(
                two_state, [ObservationSequence([0, 1]), ObservationSequence([0, 2])])

    def test_batched_matches_per_sequence(self, rng):
        # one batched pass gives each experiment's -log2(P*/P) as computed
        # by separate single-sequence Viterbi and forward loops
        for _ in range(40):
            k, m = (int(v) for v in rng.integers(1, 6, size=2))
            model = random_model(rng, k, m)
            n = int(rng.integers(1, 60))
            exps = [ObservationSequence(rng.integers(0, m, size=n))
                    for _ in range(int(rng.integers(1, 25)))]
            est = estimate_avg_conditional_min_entropy(model, exps)
            expected = [max(0.0, scalar_forward_log2(model, e.symbols)
                            - scalar_viterbi_log2(model, e.symbols)) for e in exps]
            assert est.n_experiments == len(exps)
            assert est.n_samples_per_experiment == n
            assert np.allclose(est.per_experiment_bits, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("checkpoints, message", [
        ([], "at least one checkpoint"), ([0, 3], "unreachable"),
        ([-2], "unreachable"), ([4], "beyond"), ([2, 2], "duplicate")])
    def test_profile_rejects_bad_checkpoints(self, two_state, checkpoints, message):
        with pytest.raises(ValueError, match=message):
            entropy_profile_batch(two_state, np.zeros((2, 3), dtype=np.int64), checkpoints)

    def test_mixed_lengths_rejected(self, two_state):
        with pytest.raises(ValueError, match="mixed lengths"):
            estimate_avg_conditional_min_entropy(
                two_state, [ObservationSequence([0]), ObservationSequence([0, 1])])

    def test_order_independence(self, two_state, rng):
        # per-experiment results do not depend on evaluation order
        exps = [ObservationSequence(rng.integers(0, 2, size=6)) for _ in range(12)]
        fwd = estimate_avg_conditional_min_entropy(two_state, exps)
        rev = estimate_avg_conditional_min_entropy(two_state, exps[::-1])
        assert fwd.per_experiment_bits == rev.per_experiment_bits[::-1]
        assert fwd.mean_bits == pytest.approx(rev.mean_bits, abs=1e-12)

    def test_cross_check_against_exact_at_reduced_scale(self):
        # 80 experiments of 100 symbols on a 3-level reduction of the
        # calibrated channel family; the sampled mean must sit within 3
        # per-experiment standard deviations of the enumerated value
        # (entropy is per-symbol additive for the i.i.d. chain, so the
        # n = 10 exact value scales to 100 samples)
        from dataclasses import replace
        from physkey.channel import family_config, simulate_run
        cfg = family_config(levels=3, decay=1.0, spread=0.415, band=2,
                            q=0.024, n=8000, seed=55)
        exact10 = exact_avg_conditional_min_entropy(cfg.model, 10)
        run = simulate_run(replace(cfg, n=80 * 100, seed=56))
        exps = [obs_from_values(cfg.model, run.eve.levels[i * 100:(i + 1) * 100])
                for i in range(80)]
        est = estimate_avg_conditional_min_entropy(cfg.model, exps)
        assert abs(est.mean_bits - 10 * exact10) <= 3 * est.std_bits


class TestFitFromTraces:
    def test_constant_trace_self_transition(self):
        hidden = make_trace([-1] * 50, "alice")
        observed = make_trace([-1] * 50, "eve")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_hmm_from_traces(hidden, observed, levels=3, smoothing=0.0)
        i = model.states.index(-1)
        assert model.trans[i, i] == 1.0
        assert model.pi[i] == 1.0

    def test_alternating_forced_counts(self):
        hidden = make_trace([-1, 0] * 20, "alice")
        observed = make_trace([-1, 0] * 20, "eve")
        model = fit_hmm_from_traces(hidden, observed, levels=2, smoothing=0.0)
        a, b = model.states.index(-1), model.states.index(0)
        assert model.trans[a, b] == 1.0
        assert model.trans[b, a] == 1.0

    def test_unvisited_rows_uniform_with_warning(self):
        hidden = make_trace([0] * 30, "alice")
        observed = make_trace([0] * 30, "eve")
        with pytest.warns(UserWarning, match="uniform"):
            model = fit_hmm_from_traces(hidden, observed, levels=4, smoothing=0.0)
        i = model.states.index(-3)
        assert np.allclose(model.trans[i], 0.25)

    def test_smoothing(self):
        hidden = make_trace([-1, 0] * 10, "alice")
        observed = make_trace([-1, 0] * 10, "eve")
        model = fit_hmm_from_traces(hidden, observed, levels=2, smoothing=1.0)
        a, b = model.states.index(-1), model.states.index(0)
        # 9 observed -1 -> 0 transitions out of 9, plus smoothing mass
        assert model.trans[a, b] == pytest.approx((10 + 1) / (10 + 2), abs=1e-9)

    def test_unaligned_rejected(self):
        h = make_trace([0, -1, 0], "alice")
        o = make_trace([0, -1], "eve")
        with pytest.raises(ValueError, match="unaligned"):
            fit_hmm_from_traces(h, o, levels=2)

    def test_levels_smaller_than_alphabet(self):
        h = make_trace([0, -1, -2, 0], "alice")
        o = make_trace([0, -1, -2, 0], "eve")
        with pytest.raises(ValueError, match="smaller than"):
            fit_hmm_from_traces(h, o, levels=2)

    def test_refit_recovers_generator(self):
        from physkey.channel import family_config, simulate_run
        from dataclasses import replace
        cfg = family_config(levels=3, decay=0.5, spread=0.6, band=1, q=0.02,
                            n=100_000, seed=5)
        run = simulate_run(cfg)
        model = fit_hmm_from_traces(run.alice, run.eve, levels=3, smoothing=0.0)
        assert np.abs(model.trans - cfg.model.trans).max() < 0.02
        assert np.abs(model.emit - cfg.model.emit).max() < 0.02

    def test_refit_converges_with_length(self):
        from physkey.channel import family_config, simulate_run
        from dataclasses import replace
        cfg = family_config(levels=3, decay=0.4, spread=0.5, band=1, q=0.02, seed=11)
        tv = []
        for n in (1_000, 10_000, 100_000):
            run = simulate_run(replace(cfg, n=n))
            model = fit_hmm_from_traces(run.alice, run.eve, levels=3, smoothing=0.0)
            tv.append(0.5 * np.abs(model.trans - cfg.model.trans).sum(axis=1).max())
        assert tv[0] >= tv[1] >= tv[2]


class TestLinearFit:
    def test_exact_line(self):
        fit = fit_linear_growth([(0, 1.0), (1, 3.0), (2, 5.0), (3, 7.0)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_sum_squares <= 1e-9

    def test_reference_fixtures(self):
        # fitted growth lines used throughout planning, kept as fixtures
        from physkey.protocol import REFERENCE_ENTROPY_FIT, REFERENCE_ERROR_FIT
        assert REFERENCE_ENTROPY_FIT.slope == 985 / 1000
        assert REFERENCE_ENTROPY_FIT.intercept == 1467 / 1000
        assert REFERENCE_ERROR_FIT.slope == 43 / 1000
        assert REFERENCE_ERROR_FIT.intercept == 48 / 1000

    def test_needs_two_distinct_x(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_linear_growth([(1, 2.0), (1, 3.0)])

    def test_minimizes_rss(self, rng):
        pts = [(int(x), float(y)) for x, y in
               zip(range(10), rng.normal(size=10) + 0.5 * np.arange(10))]
        fit = fit_linear_growth(pts)

        def rss(s, i):
            return sum((y - (s * x + i)) ** 2 for x, y in pts)

        base = rss(fit.slope, fit.intercept)
        for ds in (-1e-3, 1e-3):
            assert rss(fit.slope + ds, fit.intercept) >= base
            assert rss(fit.slope, fit.intercept + ds) >= base


class TestSerialization:
    def test_json_round_trip(self, two_state):
        doc = two_state.to_dict()
        assert set(doc) == {"k", "m", "states", "symbols", "pi", "trans", "emit"}
        back = HmmModel.from_dict(doc)
        assert back.states == two_state.states
        assert np.allclose(back.trans, two_state.trans)

    def test_from_dict_validates(self, two_state):
        doc = two_state.to_dict()
        doc["trans"][0][0] = 0.5  # row now sums to 0.6
        with pytest.raises(ValueError, match="invalid model"):
            HmmModel.from_dict(doc)

    def test_obs_from_values(self, two_state):
        obs = obs_from_values(two_state, [0, 1, 0])
        assert np.array_equal(obs.symbols, [0, 1, 0])
        with pytest.raises(ValueError, match="alphabet"):
            obs_from_values(two_state, [7])

    def test_obs_from_values_matches_the_dict_lookup(self, rng):
        # unsorted alphabets, repeated symbols (the last index wins) and
        # values outside the alphabet, against a per-symbol dict reference
        for _ in range(300):
            m = int(rng.integers(1, 8))
            symbols = tuple(int(v) for v in rng.integers(-5, 6, size=m))
            model = HmmModel(states=(0,), symbols=symbols, pi=np.ones(1),
                             trans=np.ones((1, 1)), emit=np.full((1, m), 1.0 / m))
            values = rng.integers(-7, 8, size=int(rng.integers(1, 40)))
            lut = {v: i for i, v in enumerate(symbols)}
            missing = [int(v) for v in values if int(v) not in lut]
            if missing:
                with pytest.raises(ValueError, match=f"^symbol {missing[0]} is not in"):
                    obs_from_values(model, values)
            else:
                assert obs_from_values(model, values).symbols.tolist() == [
                    lut[int(v)] for v in values]

    def test_slice_experiments_matches_per_slice_mapping(self, rng):
        model = HmmModel(states=(0,), symbols=(4, -2, 7), pi=np.ones(1),
                         trans=np.ones((1, 1)), emit=np.full((1, 3), 1 / 3))
        levels = rng.choice([4, -2, 7], size=103)
        got = slice_experiments(model, levels, 10)
        assert [e.symbols.tolist() for e in got] == [
            obs_from_values(model, levels[i:i + 10]).symbols.tolist()
            for i in range(0, 100, 10)]
        assert slice_experiments(model, levels[:9], 10) == []

    def test_slice_experiments_ignores_the_dropped_tail(self, two_state):
        got = slice_experiments(two_state, [0, 1, 1, 0, 9], 2)
        assert [e.symbols.tolist() for e in got] == [[0, 1], [1, 0]]

    def test_slice_experiments_names_first_missing_symbol(self, two_state):
        with pytest.raises(ValueError, match="^symbol 5 is not in"):
            slice_experiments(two_state, [0, 1, 0, 5, 1, 3, 0, 0], 4)

    @pytest.mark.parametrize("slice_len", [0, -5])
    def test_slice_experiments_rejects_short_slices(self, two_state, slice_len):
        with pytest.raises(ValueError, match="slice length must be at least 1"):
            slice_experiments(two_state, [0, 1, 0], slice_len)

    def test_obs_from_values_accepts_any_iterable(self, two_state):
        assert obs_from_values(two_state, iter([1, 0])).symbols.tolist() == [1, 0]
        assert obs_from_values(two_state, (v for v in [0, 0])).symbols.tolist() == [0, 0]
        with pytest.raises(ValueError, match="non-empty"):
            obs_from_values(two_state, [])
