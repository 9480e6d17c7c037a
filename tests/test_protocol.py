import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom

from physkey.channel import family_config, measure_rates, simulate_run
from physkey.coding import BchCode, BchSketch, RsCode, ss_sketch
from physkey.errors import InfeasiblePlanError, PhyskeyError, SketchFormatError
from physkey.extract import max_extractable_length, random_seed
from physkey.hmm import LinearFit
from physkey.protocol import (REFERENCE_ENTROPY_FIT, REFERENCE_ERROR_FIT,
                              ProtocolParams, Transcript, bob_respond,
                              correctness_bound, entropy_ledger, plan_parameters,
                              run_exchange, alice_messages)
from physkey.quantize import BitString
from physkey.stats import binomial_cdf, lag_correlation_profile, validate_assumptions
from physkey.traces import make_trace


class TestPlanner:
    def test_reference_instantiation(self):
        p = plan_parameters(l=128, lambda_=80, c=1)
        assert p.report["published_formula_n"] == 2325.0
        assert p.n == 2325
        assert 1790 <= p.report["entropy_bound_n"] <= 1815
        assert 1790 <= p.report["published_entropy_bound_n"] <= 1815
        assert p.report["correctness_bound_n"] == 2325

    def test_constant_discrepancy_surfaced(self):
        p = plan_parameters(l=128, lambda_=80, c=1)
        assert p.report["margin_constant_published"] == pytest.approx(549.4)
        assert p.report["margin_constant_recomputed"] == pytest.approx(545.4)
        assert p.report["margin_constant_discrepancy"] == pytest.approx(4.0)

    def test_entropy_only_bound_matches_published_figure(self):
        # dropping the correctness condition lands near 1800 measurements
        p = plan_parameters(l=128, lambda_=80, c=0)
        assert p.n == p.report["entropy_bound_n"]
        assert 1790 <= p.n <= 1815

    def test_code_sizing(self):
        p = plan_parameters(l=128, lambda_=80, c=1)
        # one pooled code over the 3 * 2325 = 6975-bit residue string:
        # t = ceil(1.2 * e(2325)) = ceil(120.03) = 121 bit errors, and
        # 2^12 - 1 < 6975 <= 2^13 - 1 gives m = 13
        assert p.report["bits"] == 3 * 2325
        assert p.code == BchCode(m=13, t=121)
        assert p.report["code"] == {"kind": "bch", "m": 13, "t": 121, "n_sym": 2 ** 13 - 1}
        assert p.report["sketch_bits"] == 13 * 121 == 1573

    def test_symbolic_solve(self):
        # unit entropy slope, flat error line, l=10, lambda=0:
        # n must satisfy n >= l - 2 exactly
        p = plan_parameters(l=10, lambda_=0, c=0,
                            entropy_fit=LinearFit(1.0, 0.0),
                            error_fit=LinearFit(0.0, 0.0))
        assert p.n == 8

    def test_symbolic_solve_with_intercepts(self):
        p = plan_parameters(l=10, lambda_=0, c=0,
                            entropy_fit=LinearFit(1.0, 0.5),
                            error_fit=LinearFit(0.0, 0.0))
        assert p.n == 8  # ceil(7.5)

    def test_infeasible_when_sketch_outpaces_entropy(self):
        with pytest.raises(InfeasiblePlanError, match="slope"):
            plan_parameters(l=16, lambda_=8, c=1,
                            entropy_fit=LinearFit(0.5, 0.0),
                            error_fit=LinearFit(0.05, 0.0))

    def test_correctness_needs_error_slope(self):
        with pytest.raises(InfeasiblePlanError, match="correctness"):
            plan_parameters(l=10, lambda_=0, c=1,
                            entropy_fit=LinearFit(1.0, 0.0),
                            error_fit=LinearFit(0.0, 0.0))

    def test_first_principles_vs_closed_form_within_1pc(self):
        p = plan_parameters(l=128, lambda_=80, c=1)
        assert abs(p.n - p.report["published_formula_n"]) / p.report["published_formula_n"] <= 0.01

    def test_planner_surfaces_blockwise_overshoot(self):
        # the report carries the real sketch bits next to the idealized
        # 19.2 * e(n) and certifies the residual from the real ones:
        # 13 * 121 = 1573 <= 19.2 * 100.023 = 1920.4
        p = plan_parameters(l=128, lambda_=80, c=1)
        assert p.report["idealized_sketch_bits"] == pytest.approx(19.2 * 100.023)
        assert p.report["sketch_bits"] <= p.report["idealized_sketch_bits"]
        residual = REFERENCE_ENTROPY_FIT(2325) - 1573
        assert p.report["predicted_residual_bits"] == pytest.approx(residual)
        assert residual >= 286
        assert p.report["residual_certified"] is True

    def test_exact_success_probability_and_feasibility(self):
        # P[Binomial(2325, e(2325)/2325) <= 121] with e(2325) = 100.023,
        # against the 1 - 1/e target at c = 1; the Chernoff figure stays
        p = plan_parameters(l=128, lambda_=80, c=1)
        exact = binom.cdf(121, 2325, REFERENCE_ERROR_FIT(2325) / 2325)
        assert p.report["predicted_success_exact"] == pytest.approx(exact, rel=1e-12)
        assert 0.98 < p.report["predicted_success_exact"] < 0.99
        assert p.report["predicted_correctness_bound"] == pytest.approx(
            math.exp(-100.023 / 100))
        assert p.report["feasible"] is True
        # a certified residual alone is not enough: at n = 50 the budget is
        # t = ceil(1.2 * 2.198) = 3 errors, met with probability ~0.82,
        # short of 1 - e^-3 but above 1 - e^-0.5
        rich = LinearFit(slope=5.0, intercept=0.0)
        for c, feasible in ((3.0, False), (0.5, True)):
            p = plan_parameters(l=16, lambda_=2, c=c, entropy_fit=rich, n=50)
            assert p.report["residual_certified"] is True
            assert p.report["predicted_success_exact"] == pytest.approx(
                binom.cdf(3, 50, REFERENCE_ERROR_FIT(50) / 50), rel=1e-12)
            assert p.report["feasible"] is feasible

    def test_sample_count_override_resizes_code(self):
        # 400 samples are 1200 residue bits: 2^10 - 1 < 1200 <= 2^11 - 1 gives
        # m = 11, and t = ceil(1.2 * (0.043 * 400 + 0.048)) = ceil(20.70) = 21
        p = plan_parameters(l=16, lambda_=2, c=0.05, n=400)
        assert p.n == 400
        assert p.code == BchCode(m=11, t=21)
        assert p.report["n"] == 400 and p.report["bits"] == 1200
        assert p.report["sketch_bits"] == 11 * 21

    @pytest.mark.parametrize("name, lambda_, c", [
        ("lambda", math.inf, 1.0), ("lambda", math.nan, 1.0), ("lambda", -1.0, 1.0),
        ("c", 80.0, math.inf), ("c", 80.0, math.nan), ("c", 80.0, -0.5)])
    def test_exponents_must_be_finite_and_non_negative(self, name, lambda_, c):
        # the plan takes both exponents; ProtocolParams keeps only lambda,
        # which the ledger charges
        reason = f"{name} must be finite and >= 0"
        with pytest.raises(ValueError, match=reason):
            plan_parameters(l=128, lambda_=lambda_, c=c)
        if name == "lambda":
            with pytest.raises(ValueError, match=reason):
                ProtocolParams(n=100, code=BchCode(10, 7), l=16, lambda_=lambda_,
                               entropy_fit=REFERENCE_ENTROPY_FIT)

    @pytest.mark.parametrize("g, e", [
        (LinearFit(1.0, 0.0), LinearFit(0.01, 1e308)),   # the margin intercept is -inf
        (LinearFit(1e-320, 0.0), LinearFit(0.0, 0.0)),   # n overflows to inf
        (LinearFit(math.nan, 0.0), LinearFit(0.0, 0.0)),
        (LinearFit(1.0, 0.0), LinearFit(math.nan, 0.0))])
    def test_no_finite_sample_count_is_infeasible(self, g, e):
        with pytest.raises(InfeasiblePlanError, match="^no finite n has "):
            plan_parameters(l=16, lambda_=2, c=0.05, entropy_fit=g, error_fit=e)

    def test_level_offset_guard(self):
        # residue words name a level only within 3 of Bob's: a fitted channel
        # with larger offsets is infeasible, and an unmeasured one unchecked;
        # an offset o of 2 or 3 flips up to o bits of a word, so the entropy
        # condition and the code budget o bits per erring sample and the
        # exact figure counts t // o erring samples
        base = plan_parameters(l=128, lambda_=80, c=1).report
        assert base["max_level_offset"] is None and base["infeasible_reasons"] == []
        for offset in (0, 1):
            rep = plan_parameters(l=128, lambda_=80, c=1, max_level_offset=offset).report
            assert rep == {**base, "max_level_offset": offset}
        # on the reference lines 19.2 o e(n) outgrows g(n) from o = 2 on
        for offset in (2, 3, 4):
            with pytest.raises(InfeasiblePlanError, match="net entropy slope -"):
                plan_parameters(l=128, lambda_=80, c=1, max_level_offset=offset)
        e = LinearFit(0.016, 0.0)
        assert plan_parameters(l=128, lambda_=80, c=0.05, error_fit=e).n == 420
        sizes = {}
        for offset in (2, 3, 4):
            rep = plan_parameters(l=128, lambda_=80, c=0.05, error_fit=e,
                                  max_level_offset=offset).report
            o, n = min(offset, 3), rep["n"]
            sizes[offset] = n, rep["code"]["m"], rep["code"]["t"]
            assert n == rep["entropy_bound_n"]
            assert rep["code"]["t"] == math.ceil(1.2 * o * e(n))
            assert rep["idealized_sketch_bits"] == pytest.approx(19.2 * o * e(n))
            assert rep["sketch_bits"] <= rep["idealized_sketch_bits"]
            assert rep["predicted_success_exact"] == binomial_cdf(
                rep["code"]["t"] // o, n, e(n) / n)
            assert rep["residual_certified"] is True
            assert rep["feasible"] is (offset < 4)
        assert sizes == {2: (768, 12, 30), 3: (4488, 14, 259), 4: (4488, 14, 259)}
        assert rep["infeasible_reasons"] == [
            "max_level_offset 4 exceeds 3: a residue word names a level only within 3 "
            "of Bob's"]
        with pytest.raises(ValueError, match="max_level_offset must be >= 0, got -1"):
            plan_parameters(l=128, lambda_=80, c=1, max_level_offset=-1)

    def test_infeasible_reasons_name_each_failed_condition(self):
        # at n = 50, with offsets priced at 3 bits per erring sample:
        # g(50) = 125 less the 8 * 8 sketch bits falls short of
        # 64 + 2 * 2 - 2, and at most 8 // 3 erring samples hold with
        # probability ~0.62, short of 1 - e^-3
        rep = plan_parameters(l=64, lambda_=2, c=3.0, entropy_fit=LinearFit(2.5, 0.0),
                              n=50, max_level_offset=5).report
        assert rep["feasible"] is False
        assert rep["infeasible_reasons"] == [
            "predicted residual 61.0 bits is below the required 66.0",
            "predicted success 0.6221 is below the target 0.9502",
            "max_level_offset 5 exceeds 3: a residue word names a level only within 3 "
            "of Bob's"]

    def test_no_code_beyond_largest_field(self):
        # the smallest n whose 3n residue bits outgrow GF(2^20)'s 2^20 - 1
        with pytest.raises(InfeasiblePlanError, match="no code"):
            plan_parameters(l=128, lambda_=80, c=1, n=2 ** 20 // 3 + 1)


class TestPlannerAgainstExchanges:
    """The planner's figures are not optimistic: 200 seeded exchanges on the
    calibrated channel succeed at least as often as the 0.1% lower binomial
    quantile of ``predicted_success_exact``, and their pooled count of
    samples where Alice's and Bob's levels differ stays at or below the
    99.9% quantile of Binomial(200 n, e(n)/n), the word errors the planner
    sizes the code for.  Each success corrects exactly those samples: one
    unary bit per level that is off by one.

    One-sided on purpose: the calibrated channel errs at 16q/9 ~ 0.0417 per
    word, below the reference fit's 0.043, so exchanges tend to succeed more
    often and err less than predicted, and a two-sided bound would test the
    fit, not the planner."""

    TRIALS = 200

    # (l, lambda, c, n): two planned sample counts, and the reference
    # point's key at 400 samples instead of its planned 2325
    @pytest.mark.parametrize("l, lambda_, c, n", [(64, 40, 0.2, None), (16, 2, 0.05, None),
                                                  (128, 80, 1, 400)])
    def test_successes_reach_prediction(self, calibrated_config, l, lambda_, c, n):
        params = plan_parameters(l=l, lambda_=lambda_, c=c, n=n)
        successes = word_errors = 0
        for i in range(self.TRIALS):
            run = simulate_run(replace(calibrated_config, n=params.n, seed=40_000 + i))
            result = run_exchange(run.alice, run.bob, params, seed=70_000 + i)
            differ = int((run.alice.levels != run.bob.levels).sum())
            if result.success:
                assert result.n_corrected_bits == differ, (i, result.n_corrected_bits, differ)
            successes += result.success
            word_errors += differ
        predicted = params.report["predicted_success_exact"]
        assert successes >= binom.ppf(0.001, self.TRIALS, predicted), (successes, predicted)
        rate = REFERENCE_ERROR_FIT(params.n) / params.n
        assert word_errors <= binom.ppf(0.999, self.TRIALS * params.n, rate), \
            (word_errors, rate)

    @pytest.mark.parametrize("channel_seed", [3, 4])
    def test_offsets_of_two_are_priced_in_bits(self, offset_two_channel, channel_seed):
        # Bob's levels err by exactly 2, which flips 2 bits of a residue
        # word: a plan that budgets one bit per erring sample predicts
        # 0.867 here, and 37 and 38 of 100 exchanges succeed at these seeds
        cfg, error_fit, offset = offset_two_channel
        params = plan_parameters(l=16, lambda_=2, c=0.05, error_fit=error_fit,
                                 max_level_offset=offset)
        assert params.report["max_level_offset"] == 2
        assert params.n == 348  # the Chernoff line, not the entropy line, sets n
        assert params.code.t == math.ceil(2.4 * error_fit(params.n))
        successes = 0
        for i in range(100):
            run = simulate_run(replace(cfg, n=params.n, seed=1000 * channel_seed + i))
            successes += run_exchange(run.alice, run.bob, params, seed=i).success
        predicted = params.report["predicted_success_exact"]
        assert binomial_cdf(successes, 100, predicted) >= 0.01, (successes, predicted)


class TestCorrectnessBound:
    def test_e_of_100(self):
        fit = LinearFit(0.0, 100.0)
        assert correctness_bound(10, fit) == pytest.approx(math.exp(-1.0))

    def test_reference_fit_at_2325(self):
        b = correctness_bound(2325, REFERENCE_ERROR_FIT)
        e_n = REFERENCE_ERROR_FIT(2325)
        assert e_n == pytest.approx(100.023, abs=1e-9)
        assert b == pytest.approx(math.exp(-e_n / 100.0))

    def test_vacuous_flagged(self):
        with pytest.warns(UserWarning, match="vacuous"):
            assert correctness_bound(5, LinearFit(0.0, 0.0)) == 1.0


class TestLedger:
    def test_single_block_cannot_pay(self):
        # 100-sample experiment: 99.82 bits cannot fund a 208-bit sketch
        led = entropy_ledger(99.82, 208, 80)
        assert led.sketch_loss_bits == 208
        assert led.residual_bits == pytest.approx(99.82 - 208)
        assert led.key_bits == 0

    def test_arithmetic_chain(self):
        led = entropy_ledger(2260, 2000, 80)
        assert led.residual_bits == pytest.approx(260)
        assert led.key_bits == 102

    def test_lemma_boundary(self):
        led = entropy_ledger(100.0, 0, 0)
        assert led.key_bits == 102  # floor(initial) + 2

    def test_conservativeness(self, rng):
        for _ in range(50):
            initial = float(rng.uniform(0, 3000))
            bits = int(rng.integers(0, 150)) * 16
            lam = float(rng.integers(0, 100))
            led = entropy_ledger(initial, bits, lam)
            assert led.key_bits <= max_extractable_length(
                max(0.0, initial - bits), lam)
            assert led.residual_bits == pytest.approx(initial - bits)


def flat_params(n, code=None, l=16, lambda_=8.0):
    # a hand-set pooled code correcting 13 bit errors in the 3n-bit residue
    # string, over a field sized for 8n bits: wider than the string needs
    code = code or BchCode.for_length(8 * n, 13)
    return ProtocolParams(n=n, code=code, l=l, lambda_=lambda_,
                          entropy_fit=REFERENCE_ENTROPY_FIT)


class TestExchange:
    def test_zero_noise_identity(self, rng):
        levels = rng.integers(-8, 1, size=120)
        alice = make_trace(levels, "alice")
        bob = make_trace(levels, "bob")
        params = flat_params(120)
        res = run_exchange(alice, bob, params, seed=5)
        assert res.success
        assert res.alice_key == res.bob_key
        assert len(res.alice_key) == 16
        assert res.n_corrected_bits == 0
        assert res.failure_reason is None

    def test_small_noise_corrected(self, rng):
        levels = rng.integers(-8, 1, size=255)
        noisy = levels.copy()
        flips = rng.choice(255, size=9, replace=False)
        noisy[flips] = np.clip(noisy[flips] + 1, -8, 0)
        changed = int((levels != noisy).sum())
        alice = make_trace(levels, "alice")
        bob = make_trace(noisy, "bob")
        res = run_exchange(alice, bob, flat_params(255), seed=6)
        assert res.success
        assert res.n_corrected_bits == changed

    def test_beyond_capacity_fails_closed(self, rng):
        levels = np.zeros(255, dtype=np.int64)
        noisy = levels.copy()
        noisy[rng.choice(255, size=14, replace=False)] = -1
        alice = make_trace(levels, "alice")
        bob = make_trace(noisy, "bob")
        res = run_exchange(alice, bob, flat_params(255), seed=7)
        assert not res.success
        assert "uncorrectable sketch" in res.failure_reason
        assert res.bob_key is None

    def test_deterministic(self, rng):
        levels = rng.integers(-8, 1, size=100)
        alice = make_trace(levels, "alice")
        bob = make_trace(levels, "bob")
        a = run_exchange(alice, bob, flat_params(100), seed=11)
        b = run_exchange(alice, bob, flat_params(100), seed=11)
        assert a.alice_key == b.alice_key
        assert a.transcript.to_bytes() == b.transcript.to_bytes()
        c = run_exchange(alice, bob, flat_params(100), seed=12)
        assert c.transcript.to_bytes() != a.transcript.to_bytes()

    def test_every_level_pair_within_3_recovered(self):
        # every (alice, bob) magnitude pair over 9 levels with |a - b| <= 3,
        # one per sample: 51 samples, 80 unary bits and at most 80 residue
        # bits apart, within a t = 80 code
        pairs = [(a, b) for a in range(9) for b in range(9) if abs(a - b) <= 3]
        alice = make_trace([-a for a, _ in pairs], "alice")
        bob = make_trace([-b for _, b in pairs], "bob")
        params = flat_params(len(pairs), code=BchCode(8, 80))
        res = run_exchange(alice, bob, params, seed=3)
        assert res.success and res.failure_reason is None
        assert res.n_corrected_bits == sum(abs(a - b) for a, b in pairs) == 80

    def test_offset_of_4_fails_closed(self):
        # the sketch recovers Alice's residue word exactly, but no level
        # within 3 of Bob's 4 has residue 0
        alice = make_trace(np.zeros(20, dtype=np.int64), "alice")
        bob_levels = np.zeros(20, dtype=np.int64)
        bob_levels[7] = -4
        res = run_exchange(alice, make_trace(bob_levels, "bob"), flat_params(20), seed=8)
        assert not res.success and res.bob_key is None and res.n_corrected_bits == 0
        assert res.failure_reason == (
            "no level for the recovered residues: residue of sample 7 is 0, and no "
            "level in 0..8 within 3 of magnitude 4 has it")

    def test_offset_of_5_aliases_to_another_key(self, rng):
        # residues repeat every 8 magnitudes: Bob recovers Alice's residue 0
        # of magnitude 8 exactly, takes magnitude 0, within 3 of his 3, for
        # it and extracts another key
        levels = rng.integers(-8, 1, size=400)
        alice, bob = levels.copy(), levels.copy()
        alice[17], bob[17] = -8, -3
        res = run_exchange(make_trace(alice, "alice"), make_trace(bob, "bob"),
                           plan_parameters(16, 2, 0.05, n=400), seed=9)
        assert not res.success and res.bob_key is not None
        assert res.bob_key != res.alice_key
        assert res.failure_reason == "key mismatch after reconciliation"

    @pytest.mark.parametrize("side", ["alice", "bob"])
    def test_int64_minimum_level_refused(self, side):
        # ingest clamps levels, so only a library caller can pass one; its
        # abs stays negative, and it once embedded as magnitude 0
        levels = {"alice": np.zeros(20, dtype=np.int64), "bob": np.zeros(20, dtype=np.int64)}
        levels[side][0] = -2 ** 63
        with pytest.raises(ValueError, match=r"^level out of range at sample 0: "
                                             r"\|-9223372036854775808\| > 8$"):
            run_exchange(make_trace(levels["alice"], "alice"), make_trace(levels["bob"], "bob"),
                         flat_params(20), seed=8)

    def test_traces_too_short(self, rng):
        levels = rng.integers(-8, 1, size=50)
        t = make_trace(levels, "alice")
        with pytest.raises(ValueError, match="plan needs"):
            run_exchange(t, make_trace(levels, "bob"), flat_params(100), seed=1)

    def test_params_need_covering_bch_code(self):
        # an RS code or a code shorter than the 300-bit residue string fails
        # at construction
        for code in (RsCode(255, 229), BchCode(7, 3)):
            with pytest.raises(ValueError, match="BchCode covering 300 bits"):
                flat_params(100, code=code)

    def test_transcript_sufficiency(self, rng):
        # bob's computation is a function of (his trace, transcript, params)
        # alone: it takes nothing else, and the published bytes suffice for
        # him to reach alice's key through a few level errors
        assert list(inspect.signature(bob_respond).parameters) == ["bob", "transcript", "params"]
        levels = rng.integers(-8, 0, size=120)
        bob_levels = levels.copy()
        bob_levels[rng.choice(120, size=5, replace=False)] += 1
        params = flat_params(120)
        transcript, alice_key = alice_messages(make_trace(levels, "alice"), params,
                                               np.random.default_rng(3))
        bob = make_trace(bob_levels, "bob")
        published = Transcript.from_bytes(transcript.to_bytes(), l=params.l)
        in_memory = bob_respond(bob, transcript, params)
        assert bob_respond(bob, published, params) == in_memory
        assert in_memory == (alice_key, 5, None)

    def test_ledger_populated_from_fit(self, rng):
        levels = rng.integers(-8, 1, size=300)
        alice = make_trace(levels, "alice")
        bob = make_trace(levels, "bob")
        params = flat_params(300)
        res = run_exchange(alice, bob, params, seed=9)
        assert res.ledger.initial_bits == pytest.approx(REFERENCE_ENTROPY_FIT(300))
        assert res.ledger.sketch_loss_bits == res.transcript.sketch.bit_length

    def test_result_report(self, rng):
        levels = rng.integers(-8, 1, size=100)
        res = run_exchange(make_trace(levels, "alice"), make_trace(levels, "bob"),
                           flat_params(100), seed=2)
        doc = res.to_dict()
        assert doc["success"] is True
        assert doc["ledger"]["sketch_loss_bits"] == 10 * 13


class TestPooledExchange:
    """Planned exchanges reconcile with one BCH sketch over the whole string."""

    PARAMS = plan_parameters(l=16, lambda_=2, c=0.05, n=400)  # BchCode(11, 21)

    def noisy_pair(self, rng, weight):
        # levels in [-7, -1] so a one-level offset stays in range; each
        # offset sample differs from alice's in exactly one residue bit
        levels = rng.integers(-7, 0, size=self.PARAMS.n)
        noisy = levels.copy()
        flips = rng.choice(self.PARAMS.n, size=weight, replace=False)
        noisy[flips] += rng.choice([-1, 1], size=weight)
        return make_trace(levels, "alice"), make_trace(noisy, "bob")

    def test_recovers_at_capacity(self, rng):
        t = self.PARAMS.code.t
        for seed in range(5):
            alice, bob = self.noisy_pair(rng, t)
            res = run_exchange(alice, bob, self.PARAMS, seed=seed)
            assert res.success and res.alice_key == res.bob_key
            assert res.n_corrected_bits == t
            assert res.ledger.sketch_loss_bits == 11 * 21

    def test_beyond_capacity_never_reports_success(self, rng):
        t = self.PARAMS.code.t
        for seed in range(5):
            alice, bob = self.noisy_pair(rng, t + 1)
            res = run_exchange(alice, bob, self.PARAMS, seed=seed)
            assert not res.success
            assert (res.failure_reason.startswith("uncorrectable sketch: ")
                    or res.failure_reason == "key mismatch after reconciliation")


class TestTranscript:
    def test_seed_for_another_length_fails_closed(self, rng):
        # a 1600-bit sketch and a seed for a 100-bit input (115 bits at l = 16)
        sketch = ss_sketch(BitString(rng.integers(0, 2, size=1600)), BchCode(11, 10))
        seed = random_seed(rng, t=100, l=16)
        with pytest.raises(SketchFormatError, match="transcript seed field.*100-bit input"):
            Transcript.from_bytes(sketch.to_bytes() + seed.to_hex().encode("ascii"), l=16)

    @pytest.mark.parametrize("seed_t", [300, 799, 801])
    def test_seed_breaking_8_to_3_fails_closed(self, rng, seed_t):
        # a 300-bit residue sketch goes with an 800-bit unary seed input only
        sketch = ss_sketch(BitString(rng.integers(0, 2, size=300)), BchCode(9, 6))
        seed = random_seed(rng, t=seed_t, l=16)
        raw = sketch.to_bytes() + seed.to_hex().encode("ascii")
        with pytest.raises(SketchFormatError,
                           match=f"{seed_t}-bit input, the sketch covers 300 bits"):
            Transcript.from_bytes(raw, l=16)
        seed = random_seed(rng, t=800, l=16)
        back = Transcript.from_bytes(sketch.to_bytes() + seed.to_hex().encode("ascii"), l=16)
        assert back.seed.t == 800 and back.sketch.n_bits == 300

    def test_key_longer_than_the_seed_fails_closed(self, rng):
        # an 815-bit seed holds keys of at most 815 bits: l = 816 leaves
        # the Toeplitz matrix no input column
        sketch = ss_sketch(BitString(rng.integers(0, 2, size=300)), BchCode(9, 6))
        raw = sketch.to_bytes() + random_seed(rng, t=800, l=16).to_hex().encode("ascii")
        with pytest.raises(SketchFormatError, match="^transcript seed field at byte [0-9]+: "
                           "input and output lengths must be >= 1$"):
            Transcript.from_bytes(raw, l=816)

    def test_pooled_bytes_round_trip(self, rng):
        params = plan_parameters(l=24, lambda_=2, c=0.05, n=100)
        levels = rng.integers(-8, 1, size=100)
        res = run_exchange(make_trace(levels, "alice"), make_trace(levels, "bob"),
                           params, seed=4)
        raw = res.transcript.to_bytes()
        assert raw[:4] == b"PKB1"
        back = Transcript.from_bytes(raw, l=24)
        assert isinstance(back.sketch, BchSketch)
        assert back.sketch.code == params.code
        assert back.sketch.n_bits == 300
        assert np.array_equal(back.sketch.syndromes, res.transcript.sketch.syndromes)
        assert back.seed.bits == res.transcript.seed.bits
        assert back.seed.t == res.transcript.seed.t
        assert back.to_bytes() == raw

    # a hand-set pooled code, and the planned one (None)
    @pytest.mark.parametrize("code", [BchCode(10, 13), None])
    def test_truncated_transcript_fails_closed(self, rng, code):
        params = (flat_params(100, code=code) if code is not None
                  else plan_parameters(l=16, lambda_=2, c=0.05, n=100))
        levels = rng.integers(-8, 1, size=100)
        res = run_exchange(make_trace(levels, "alice"), make_trace(levels, "bob"),
                           params, seed=4)
        sketch_bytes = res.transcript.sketch.to_bytes()
        for cut in range(len(sketch_bytes)):
            with pytest.raises(PhyskeyError):
                Transcript.from_bytes(sketch_bytes[:cut], l=16)

    @pytest.mark.parametrize("code", [BchCode(10, 13), None])
    @pytest.mark.parametrize("corrupt", [
        lambda seed: seed + b"zz",                      # non-hex payload
        lambda seed: b"x" + seed,                       # non-numeric length prefix
        lambda seed: b"9" + seed,                       # length disagrees with payload
        lambda seed: b"-" + seed,                       # negative length
        lambda seed: seed[:-2] + b"\xff\xfe",           # not ASCII
        lambda seed: b"+" + seed,                       # signed length
        lambda seed: seed[:1] + b"_" + seed[1:],        # digit separator in the length
        lambda seed: b" " + seed,                       # space before the length
        lambda seed: seed[:-4] + b" " + seed[-4:],      # space inside the payload
    ])
    def test_corrupt_seed_fails_closed(self, rng, code, corrupt):
        params = (flat_params(100, code=code) if code is not None
                  else plan_parameters(l=16, lambda_=2, c=0.05, n=100))
        levels = rng.integers(-8, 1, size=100)
        res = run_exchange(make_trace(levels, "alice"), make_trace(levels, "bob"),
                           params, seed=4)
        sketch_bytes = res.transcript.sketch.to_bytes()
        seed_bytes = res.transcript.seed.to_hex().encode("ascii")
        with pytest.raises(SketchFormatError, match="transcript seed field"):
            Transcript.from_bytes(sketch_bytes + corrupt(seed_bytes), l=16)


def blockwise_success(n_words: int, t_block: int, p_word: float) -> float:
    """Exact probability that every 255-word block stays within capacity."""
    prob = 1.0
    remaining = n_words
    while remaining > 0:
        w = min(255, remaining)
        prob *= float(binom.cdf(t_block, w, p_word))
        remaining -= w
    return prob


class TestBlockwiseFeasibility:
    """Exact-arithmetic evidence that the reference operating point cannot
    simultaneously clear the 1 - 1/e success target and leave l + 2*lambda - 2
    residual bits, for any sample count or per-block capacity, under
    independent word errors at the calibrated rates."""

    P_WORD = 0.043          # word error probability per word
    G = REFERENCE_ENTROPY_FIT

    def test_planned_operating_point_numbers(self):
        # the per-block RS allocation at the planned n, one 8-bit word per
        # sample: t_block = ceil(1.2 * e(2325) * 255 / 2325) = 14 words per
        # block, ceil(2325 / 255) = 10 blocks, 10 * 2 * 14 * 8 = 2240 bits
        words = plan_parameters(l=128, lambda_=80, c=1).n
        t_block = math.ceil(1.2 * REFERENCE_ERROR_FIT(words) * 255 / words)
        blocks = -(-words // 255)
        sketch_bits = blocks * 2 * t_block * 8
        assert (words, t_block, blocks, sketch_bits) == (2325, 14, 10, 2240)
        success = blockwise_success(words, t_block, self.P_WORD)
        residual = self.G(words) - sketch_bits
        # document the two shortfalls precisely
        assert success < 0.35
        assert residual < 286

    def test_no_configuration_clears_both_bars(self):
        need = 128 + 2 * 80 - 2
        target = 1 - math.exp(-1.0)
        best = []
        for n in range(300, 24_001, 300):
            for t in range(1, 41):
                blocks = -(-n // 255)
                sketch_bits = blocks * 2 * t * 8
                residual = self.G(n) - sketch_bits
                if residual < need:
                    continue
                success = blockwise_success(n, t, self.P_WORD)
                best.append((success, n, t))
                assert success < target, (n, t, success)
        # some configurations do satisfy the residual bar alone
        assert best, "sweep never reached the residual bar; widen it"


@pytest.mark.parametrize("call", [
    lambda run, seed: measure_rates(family_config(levels=9), n_samples=100, seed=seed),
    lambda run, seed: validate_assumptions(run.alice, run.eve, trials=5, slice_len=10,
                                           levels=9, seed=seed),
    lambda run, seed: lag_correlation_profile(run.alice, max_lag=2, rows=10, seed=seed),
    lambda run, seed: run_exchange(run.alice, run.bob, plan_parameters(16, 2, 0.05, n=400),
                                   seed=seed),
], ids=["measure_rates", "validate_assumptions", "lag_correlation_profile", "run_exchange"])
def test_negative_seed_fails_closed(call):
    # the arguments work with seed 0, so only the seed is at fault
    run = simulate_run(family_config(levels=9, n=400, seed=3))
    call(run, 0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        call(run, -1)
