"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Criterion 7 checks the reference operating point
end to end with the pooled BCH sketch the planner sizes; per-block RS
capacity cannot clear its bar (see TestBlockwiseFeasibility in
test_protocol.py for the exact-arithmetic sweep).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom

from physkey.channel import family_config, simulate_run
from physkey.coding import RsCode, ss_recover, ss_sketch
from physkey.errors import UncorrectableBlockError
from physkey.hmm import (ObservationSequence, entropy_profile_batch,
                         estimate_avg_conditional_min_entropy,
                         exact_avg_conditional_min_entropy, fit_hmm_from_traces,
                         fit_linear_growth, forward_likelihood, obs_from_values,
                         viterbi_max_joint)
from physkey.protocol import plan_parameters, run_exchange
from physkey.quantize import BitString, QuantizerConfig, embed_unary, hamming_distance
from physkey.stats import ks_two_sample, pearson_significance

from .oracles import brute_exact_avg_bits, brute_forward, brute_viterbi, random_model


def _record(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return ok


def test_criterion_1_hmm_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20101)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        model = random_model(rng, k, m)
        obs = rng.integers(0, m, size=n)

        lp, _ = viterbi_max_joint(model, ObservationSequence(obs))
        p_ref, _ = brute_viterbi(model, obs)
        worst = max(worst, abs(2 ** lp - p_ref) / p_ref)
        assert abs(2 ** lp - p_ref) <= 1e-9 * p_ref

        lf = forward_likelihood(model, ObservationSequence(obs))
        f_ref = brute_forward(model, obs)
        worst = max(worst, abs(2 ** lf - f_ref) / f_ref)
        assert abs(2 ** lf - f_ref) <= 1e-9 * f_ref

        h = exact_avg_conditional_min_entropy(model, n)
        h_ref = brute_exact_avg_bits(model, n, chunk=256)
        assert abs(h - h_ref) <= 1e-9

    elapsed = time.time() - start
    ok = elapsed < 60.0
    assert _record(1, "HMM oracle equivalence", ok,
                   f"200 models, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_estimator_validity():
    # near-uniform 3-state channel: the stable-entropy regime the sampled
    # estimator is built for; exact enumeration feasible at n = 8
    cfg = family_config(levels=3, decay=1.0, spread=0.9, band=2, q=0.02,
                        n=4000, seed=20102)
    model = cfg.model
    exact = exact_avg_conditional_min_entropy(model, 8)
    run = simulate_run(replace(cfg, n=500 * 8, seed=20103))
    experiments = [obs_from_values(model, run.eve.levels[i * 8:(i + 1) * 8])
                   for i in range(500)]
    est = estimate_avg_conditional_min_entropy(model, experiments)
    se = est.std_bits / math.sqrt(est.n_experiments)
    diff = abs(est.mean_bits - exact)
    ok = diff <= 3 * se
    assert _record(2, "estimator validity", ok,
                   f"exact {exact:.4f}, sampled {est.mean_bits:.4f} "
                   f"+/- {se:.4f} SE, |diff| = {diff / se:.2f} SE")


def test_criterion_3_linear_growth(calibrated_config):
    start = time.time()
    run = simulate_run(replace(calibrated_config, n=8000, seed=20104))
    model = fit_hmm_from_traces(run.alice, run.eve, levels=9, smoothing=0.0)
    slice_len, n_slices = 200, 40
    checkpoints = list(range(10, 201, 10))
    obs = np.stack([
        np.array([model.symbol_index(v) for v in
                  run.eve.levels[s * slice_len:(s + 1) * slice_len]])
        for s in range(n_slices)
    ])
    entropy = entropy_profile_batch(model, obs, checkpoints)
    errors = np.stack([
        np.cumsum(run.alice.levels[s * slice_len:(s + 1) * slice_len]
                  != run.bob.levels[s * slice_len:(s + 1) * slice_len])[
            np.array(checkpoints) - 1]
        for s in range(n_slices)
    ])
    g = fit_linear_growth(list(zip(checkpoints, entropy.mean(axis=0))))
    e = fit_linear_growth(list(zip(checkpoints, errors.mean(axis=0))))
    elapsed = time.time() - start
    g_ok = abs(g.slope - 0.985) <= 0.15 * 0.985
    e_ok = abs(e.slope - 0.043) <= 0.20 * 0.043
    ok = g_ok and e_ok and elapsed < 300.0
    assert _record(3, "linear growth reproduction", ok,
                   f"g-slope {g.slope:.4f} (target 0.985 +/-15%), "
                   f"e-slope {e.slope:.4f} (target 0.043 +/-20%), {elapsed:.1f}s")


def test_criterion_4_coding_round_trip():
    start = time.time()
    rng = np.random.default_rng(20105)
    code = RsCode(255, 229)

    for _ in range(1000):
        words = rng.integers(0, 256, size=255)
        rho = BitString.from_words(words)
        sketch = ss_sketch(rho, code)
        noisy = words.copy()
        for p in rng.choice(255, size=13, replace=False):
            noisy[p] ^= int(rng.integers(1, 256))
        assert ss_recover(BitString.from_words(noisy), sketch) == rho

    silent = 0
    for _ in range(100):
        words = rng.integers(0, 256, size=255)
        rho = BitString.from_words(words)
        sketch = ss_sketch(rho, code)
        noisy = words.copy()
        for p in rng.choice(255, size=14, replace=False):
            noisy[p] ^= int(rng.integers(1, 256))
        try:
            recovered = ss_recover(BitString.from_words(noisy), sketch)
        except UncorrectableBlockError:
            continue
        if recovered == rho:
            silent += 1
    elapsed = time.time() - start
    ok = silent == 0 and elapsed < 60.0
    assert _record(4, "coding round trip", ok,
                   f"1000/1000 weight-13 recoveries, {silent} silent weight-14 "
                   f"passes, {elapsed:.1f}s")


def test_criterion_5_quantizer_isometry():
    cfg = QuantizerConfig(m=8)
    ok = all(
        hamming_distance(embed_unary(x, cfg), embed_unary(y, cfg)) == abs(x - y)
        for x in range(-8, 1) for y in range(-8, 1)
    )
    assert _record(5, "quantizer isometry", ok, "all pairs in [-8, 0]^2")


def test_criterion_6_planner_reproduces_closed_form():
    params = plan_parameters(l=128, lambda_=80, c=1)
    rep = params.report
    formula_ok = rep["published_formula_n"] == 2325.0
    entropy_ok = 1790 <= rep["entropy_bound_n"] <= 1815 \
        and 1790 <= rep["published_entropy_bound_n"] <= 1815
    discrepancy_ok = (rep["margin_constant_published"] == pytest.approx(549.4)
                      and rep["margin_constant_recomputed"] == pytest.approx(545.4))
    ok = formula_ok and entropy_ok and discrepancy_ok
    assert _record(6, "planner reproduces closed form", ok,
                   f"published n {rep['published_formula_n']:.0f}, entropy bound "
                   f"{rep['entropy_bound_n']} / {rep['published_entropy_bound_n']:.1f}, "
                   f"constants {rep['margin_constant_published']} vs "
                   f"{rep['margin_constant_recomputed']:.1f}")


def test_criterion_7_end_to_end(calibrated_config):
    """Stated target: >= 1 - 1/e success (one-sided binomial, alpha 0.05) AND
    ledger residual >= l + 2*lambda - 2 at the planner-chosen n.

    The plan reconciles with one BCH sketch over the whole 18600-bit string
    (m = 15, t = 121, 1815 sketch bits), so an exchange fails only when the
    total error count exceeds the pooled budget.  Per-block RS capacity
    cannot clear both bars at any sample count (exact sweep in
    test_protocol.py::TestBlockwiseFeasibility).
    """
    start = time.time()
    params = plan_parameters(l=128, lambda_=80, c=1)
    trials = 100
    successes = 0
    ledger = None
    for seed in range(trials):
        run = simulate_run(replace(calibrated_config, n=params.n, seed=30_000 + seed))
        result = run_exchange(run.alice, run.bob, params, seed=60_000 + seed)
        successes += result.success
        if result.success:
            assert result.alice_key == result.bob_key
            assert len(result.alice_key) == 128
        ledger = result.ledger
    elapsed = time.time() - start

    target = 1.0 - math.exp(-1.0)
    # one-sided binomial test: fail if the observed count is significantly
    # below the target rate at alpha = 0.05
    p_low = float(binom.cdf(successes, trials, target))
    rate_ok = p_low >= 0.05
    need = params.l + 2 * params.lambda_ - 2
    residual_ok = ledger.residual_bits >= need
    ok = rate_ok and residual_ok and elapsed < 600.0
    _record(7, "end-to-end exchange", ok,
            f"success {successes}/{trials} vs target {target:.3f} "
            f"(binomial p {p_low:.2e}), residual {ledger.residual_bits:.1f} "
            f"vs required {need:.0f} bits, n {params.n}, {elapsed:.1f}s")
    assert rate_ok, (
        f"success rate {successes}/{trials} is significantly below 1 - 1/e; "
        "the sketch's capacity does not absorb the error fluctuations at the "
        "reference rates")
    assert residual_ok, (
        f"ledger residual {ledger.residual_bits:.1f} < {need:.0f} bits: the "
        "sketch spends more entropy than the idealized 19.2*e(n) accounting "
        "admits")


def test_criterion_8_statistics_calibration(calibrated_config):
    start = time.time()
    alpha = 0.05

    run = simulate_run(replace(calibrated_config, n=4000, seed=20106))
    x = run.alice.levels.astype(float)
    rng = np.random.default_rng(20107)
    ks_rejects = 0
    partitions = 10_000
    for _ in range(partitions):
        perm = rng.permutation(x.size)
        ks_rejects += ks_two_sample(x[perm[:2000]], x[perm[2000:]], alpha).reject
    ks_rate = ks_rejects / partitions
    ks_ok = 0.0 <= ks_rate <= 2 * alpha

    fp = 0
    trials = 1000
    for _ in range(trials):
        a = rng.uniform(size=10_000)
        b = rng.uniform(size=10_000)
        _, sig = pearson_significance(a, b, alpha)
        fp += sig
    fp_rate = fp / trials
    fp_ok = 0.6 * alpha <= fp_rate <= 1.6 * alpha

    elapsed = time.time() - start
    ok = ks_ok and fp_ok
    assert _record(8, "statistics calibration", ok,
                   f"K-S rejection {ks_rate:.4f} (target <= {2 * alpha}), "
                   f"Pearson FP {fp_rate:.4f} (target in "
                   f"[{0.6 * alpha:.3f}, {1.6 * alpha:.3f}]), {elapsed:.1f}s")


def test_criterion_9_extractor_properties():
    start = time.time()
    trials = 100_000
    t = 64
    rng = np.random.default_rng(20260809)

    # 2-universality: collision rate over random seeds for x != y
    collision_ok = True
    collision_detail = []
    for l in (1, 2, 4):
        diffs = rng.integers(0, 2, size=(trials, t), dtype=np.uint8)
        diffs[diffs.sum(axis=1) == 0, 0] = 1
        seeds = rng.integers(0, 2, size=(trials, t + l - 1), dtype=np.uint8)
        idx = (np.arange(l)[:, None] - np.arange(t)[None, :]) + t - 1
        prod = np.einsum("rij,rj->ri", seeds[:, idx], diffs) & 1
        rate = float((~prod.any(axis=1)).mean())
        bound = 2.0 ** -l * (1.0 + 5.0 / math.sqrt(trials))
        collision_ok &= rate <= bound
        collision_detail.append(f"l={l}: {rate:.5f}<={bound:.5f}")

    # linearity: extract(a ^ b) = extract(a) ^ extract(b), vectorized
    l = 16
    idx = (np.arange(l)[:, None] - np.arange(t)[None, :]) + t - 1
    seeds = rng.integers(0, 2, size=(trials, t + l - 1), dtype=np.uint8)
    a = rng.integers(0, 2, size=(trials, t), dtype=np.uint8)
    b = rng.integers(0, 2, size=(trials, t), dtype=np.uint8)
    mats = seeds[:, idx]
    out_ab = np.einsum("rij,rj->ri", mats, a ^ b) & 1
    out_a = np.einsum("rij,rj->ri", mats, a) & 1
    out_b = np.einsum("rij,rj->ri", mats, b) & 1
    linear_ok = bool(np.array_equal(out_ab, out_a ^ out_b))

    elapsed = time.time() - start
    ok = collision_ok and linear_ok and elapsed < 60.0
    assert _record(9, "extractor properties", ok,
                   "; ".join(collision_detail) + f"; linearity over {trials} "
                   f"trials, {elapsed:.1f}s")
