import math

import numpy as np
import pytest
from scipy.stats import binom

from physkey.coding import BchCode, BchSketch, RsCode
from physkey.errors import InfeasiblePlanError, PhyskeyError, SketchFormatError
from physkey.extract import max_extractable_length
from physkey.hmm import LinearFit
from physkey.protocol import (REFERENCE_ENTROPY_FIT, REFERENCE_ERROR_FIT,
                              ProtocolParams, Transcript, bob_respond,
                              correctness_bound, entropy_ledger, plan_parameters,
                              run_exchange, alice_messages)
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
        # one pooled code over the 8 * 2325 = 18600-bit string:
        # t = ceil(1.2 * e(2325)) = ceil(120.03) = 121 bit errors, and
        # 2^14 - 1 < 18600 <= 2^15 - 1 gives m = 15
        assert p.report["bits"] == 8 * 2325
        assert p.code == BchCode(m=15, t=121)
        assert p.report["code"] == {"kind": "bch", "m": 15, "t": 121, "n_sym": 2 ** 15 - 1}
        assert p.report["sketch_bits"] == 15 * 121 == 1815

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
        # 15 * 121 = 1815 <= 19.2 * 100.023 = 1920.4
        p = plan_parameters(l=128, lambda_=80, c=1)
        assert p.report["idealized_sketch_bits"] == pytest.approx(19.2 * 100.023)
        assert p.report["sketch_bits"] <= p.report["idealized_sketch_bits"]
        residual = REFERENCE_ENTROPY_FIT(2325) - 1815
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
        # 400 samples are 3200 bits: 2^11 - 1 < 3200 <= 2^12 - 1 gives m = 12,
        # and t = ceil(1.2 * (0.043 * 400 + 0.048)) = ceil(20.70) = 21
        p = plan_parameters(l=16, lambda_=2, c=0.05, n=400)
        assert p.n == 400
        assert p.code == BchCode(m=12, t=21)
        assert p.report["n"] == 400 and p.report["bits"] == 3200
        assert p.report["sketch_bits"] == 12 * 21

    def test_no_code_beyond_largest_field(self):
        with pytest.raises(InfeasiblePlanError, match="no code"):
            plan_parameters(l=128, lambda_=80, c=1, n=2 ** 17)


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
    # a hand-set pooled code correcting 13 bit errors in the 8n-bit string
    code = code or BchCode.for_length(8 * n, 13)
    return ProtocolParams(n=n, code=code, l=l, lambda_=lambda_, c=0.0,
                          entropy_fit=REFERENCE_ENTROPY_FIT,
                          error_fit=REFERENCE_ERROR_FIT)


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
        assert "uncorrectable block" in res.failure_reason
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

    def test_traces_too_short(self, rng):
        levels = rng.integers(-8, 1, size=50)
        t = make_trace(levels, "alice")
        with pytest.raises(ValueError, match="plan needs"):
            run_exchange(t, make_trace(levels, "bob"), flat_params(100), seed=1)

    def test_params_need_covering_bch_code(self):
        # an RS code or a code shorter than the 800-bit string fails at construction
        for code in (RsCode(255, 229), BchCode(7, 3)):
            with pytest.raises(ValueError, match="BchCode covering 800 bits"):
                flat_params(100, code=code)

    def test_transcript_sufficiency(self, rng):
        # bob's computation is a function of (rho_B, sketch, seed) alone:
        # corrupting alice's trace after her messages exist changes nothing
        levels = rng.integers(-8, 1, size=120)
        alice = make_trace(levels, "alice")
        bob_tr = make_trace(levels, "bob")
        params = flat_params(120)
        rng_a = np.random.default_rng(3)
        _, transcript, _ = alice_messages(alice, params, rng_a)
        key1, corrected1, reason1 = bob_respond(bob_tr, transcript, params)
        corrupted_alice = make_trace(np.zeros(120, dtype=np.int64), "alice")
        del corrupted_alice  # alice-side state plays no further role
        key2, corrected2, reason2 = bob_respond(bob_tr, transcript, params)
        assert key1 == key2 and corrected1 == corrected2 and reason1 == reason2

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

    PARAMS = plan_parameters(l=16, lambda_=2, c=0.05, n=400)  # BchCode(12, 21)

    def noisy_pair(self, rng, weight):
        # levels in [-7, -1] so a one-level offset stays in range; each
        # offset sample differs from alice's in exactly one unary bit
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
            assert res.ledger.sketch_loss_bits == 12 * 21

    def test_beyond_capacity_never_reports_success(self, rng):
        t = self.PARAMS.code.t
        for seed in range(5):
            alice, bob = self.noisy_pair(rng, t + 1)
            res = run_exchange(alice, bob, self.PARAMS, seed=seed)
            assert not res.success
            assert ("uncorrectable block 0" in res.failure_reason
                    or res.failure_reason == "key mismatch after reconciliation")


class TestTranscript:
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
        assert back.sketch.n_bits == 800
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
