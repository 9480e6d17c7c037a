"""Seeded synthetic channel: Markov hidden chain, stationary emissions.

Generates aligned (alice, bob, eve) traces satisfying the memoryless-Markov,
stationary-emission and independent-observation abstractions by
construction.  Bob is modeled as additive discrete level noise on Alice's
samples (clamped at the level-range boundaries); Eve draws independently
from the emission row of Alice's current state.

The calibration search walks a fixed two-parameter family:

* transitions  a_ij proportional to decay^|i-j|  (decay = 1 gives an
  i.i.d. chain, the regime matching insignificant cross-lag correlation),
* emissions    b_j(o) proportional to spread^|o - s_j| within a band,
* bob_error    {-1: q, 0: 1-2q, +1: q}.

Emission spread is bisected against the measured per-sample conditional
min-entropy and q against the measured word error rate.  Each bisection
returns the first probe that lands within 0.5% of its target, with the rate
measured there; only when 40 steps run out does it take the bracket
midpoint.  The q search simulates runs and counts Bob's level errors; it
never needs the entropy estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CalibrationError
from .hmm import SLICE_LEN, HmmModel, estimate_avg_conditional_min_entropy, \
    level_states, slice_experiments, validate_model
from .quantize import BITS_PER_SAMPLE
from .traces import MeasurementTrace, make_trace

_PROB_TOL = 1e-9
CALIBRATION_REL_TOL = 0.10  # largest relative miss of either achieved rate


@dataclass(frozen=True)
class ChannelConfig:
    """Generator for one channel: hidden chain + Eve emission + Bob noise."""

    model: HmmModel
    bob_error: dict          # signed level offset -> probability
    n: int
    seed: int = 0
    calibration: dict = field(default_factory=dict)

    def __post_init__(self):
        violations = validate_model(self.model)
        if violations:
            raise ValueError("invalid channel model: " + "; ".join(violations))
        total = sum(self.bob_error.values())
        if not abs(total - 1.0) <= _PROB_TOL:  # NaN fails too
            raise ValueError(f"bob_error sums to {total:.12g}")
        if any(p < 0 for p in self.bob_error.values()):
            raise ValueError("bob_error has a negative probability")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "bob_error": {str(k): v for k, v in self.bob_error.items()},
            "n": self.n,
            "seed": self.seed,
            "calibration": dict(self.calibration),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelConfig":
        return cls(model=HmmModel.from_dict(d["model"]),
                   bob_error={int(k): float(v) for k, v in d["bob_error"].items()},
                   n=int(d["n"]), seed=int(d.get("seed", 0)),
                   calibration=dict(d.get("calibration", {})))


@dataclass(frozen=True)
class SimulatedRun:
    """Aligned alice/bob/eve traces from one seeded draw."""

    alice: MeasurementTrace
    bob: MeasurementTrace
    eve: MeasurementTrace


def _sample_chain(cum_pi: np.ndarray, cum_trans: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Hidden state indices for uniforms u by inverse-CDF sampling.

    Step t moves from state s to searchsorted(cum_trans[s], u[t]).  Rather
    than walking the chain one sample at a time, tabulate that move for
    every (t, s) with k vectorised searches, then compose the table by
    pointer doubling: after the pass with stride d, row t maps the state at
    t - 2d to the state at t.  Row 0 is the constant map onto the initial
    state, so after ceil(log2 n) passes every column of row t holds the
    state at t.  A row that is a constant map already holds that state
    whatever came before it, and stays constant under further passes; the
    scan stops once every row is constant (at once for an i.i.d. chain,
    after a few passes for one that mixes quickly).  The searches make the
    same comparisons as a one-sample walk, so the path is identical to it.
    """
    n, k = u.size, cum_trans.shape[0]
    table = np.empty((n, k), dtype=np.int64)
    table[0] = np.searchsorted(cum_pi, u[0], side="right")
    for s in range(k):
        table[1:, s] = np.searchsorted(cum_trans[s], u[1:], side="right")
    np.minimum(table, k - 1, out=table)
    d = 1
    while d < n and not (table == table[:, :1]).all():
        table[d:] = np.take_along_axis(table[d:], table[:-d], axis=1)
        d *= 2
    return table[:, 0]


def simulate_run(config: ChannelConfig) -> SimulatedRun:
    """Draw one run; bit-identical for a fixed config (including seed)."""
    model = config.model
    rng = np.random.default_rng(config.seed)
    n = config.n

    state_vals = np.array(model.states, dtype=np.int64)
    symbol_vals = np.array(model.symbols, dtype=np.int64)

    u = rng.random(n)
    idx = _sample_chain(np.cumsum(model.pi), np.cumsum(model.trans, axis=1), u)
    alice_levels = state_vals[idx]

    cum_emit = np.cumsum(model.emit, axis=1)
    ue = rng.random(n)
    eve_idx = (ue[:, None] < cum_emit[idx]).argmax(axis=1)
    eve_levels = symbol_vals[eve_idx]

    offsets = np.array(sorted(config.bob_error), dtype=np.int64)
    probs = np.array([config.bob_error[int(o)] for o in offsets])
    off = rng.choice(offsets, size=n, p=probs)
    lo, hi = int(state_vals.min()), int(state_vals.max())
    bob_levels = np.clip(alice_levels + off, lo, hi)

    meta = {"delay_ms": 1300, "precision_bits": 5}
    return SimulatedRun(
        alice=make_trace(alice_levels, "alice", frame_type="PING", **meta),
        bob=make_trace(bob_levels, "bob", frame_type="PONG", **meta),
        eve=make_trace(eve_levels, "eve", frame_type="OBS", **meta),
    )


def _neighbor_decay_trans(k: int, decay: float) -> np.ndarray:
    d = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    rows = np.power(float(decay), d)
    return rows / rows.sum(axis=1, keepdims=True)


def _banded_emission(k: int, spread: float, band: int) -> np.ndarray:
    d = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    rows = np.where(d <= band, np.power(float(spread), d), 0.0)
    return rows / rows.sum(axis=1, keepdims=True)


def _stationary(trans: np.ndarray) -> np.ndarray:
    pi = np.full(trans.shape[0], 1.0 / trans.shape[0])
    for _ in range(500):
        nxt = pi @ trans
        if np.abs(nxt - pi).max() < 1e-14:
            pi = nxt
            break
        pi = nxt
    return pi / pi.sum()


def family_config(levels: int = 9, decay: float = 1.0, spread: float = 0.5,
                  band: int = 2, q: float = 0.02, n: int = 10_000,
                  seed: int = 0) -> ChannelConfig:
    """One member of the calibration search family."""
    states = level_states(levels)
    trans = _neighbor_decay_trans(levels, decay)
    emit = _banded_emission(levels, spread, band)
    pi = _stationary(trans)
    model = HmmModel(states=states, symbols=states, pi=pi, trans=trans, emit=emit)
    bob_error = {-1: q, 0: 1.0 - 2.0 * q, 1: q}
    return ChannelConfig(model=model, bob_error=bob_error, n=n, seed=seed)


def _measure_length(n_samples: int, slice_len: int) -> int:
    # whole slices only, and at least one
    if slice_len < 1:
        raise ValueError(f"slice length must be at least 1, got {slice_len}")
    n = max(n_samples, slice_len)
    return n - n % slice_len


def _word_error_rate(run: SimulatedRun) -> float:
    return float(np.mean(run.alice.levels != run.bob.levels))


def measure_rates(config: ChannelConfig, n_samples: int = 10_000,
                  slice_len: int = SLICE_LEN, seed: int = 7) -> dict:
    """Simulate and report per-sample entropy and per-word error rates.

    Entropy is the sampled conditional min-entropy of Alice's levels given
    Eve's trace under the config's own model, averaged over slice_len-sample
    experiments; the word error rate is the fraction of samples where Bob's
    level differs from Alice's (one ``BITS_PER_SAMPLE``-bit word per
    sample).
    """
    n = _measure_length(n_samples, slice_len)
    run = simulate_run(replace(config, n=n, seed=seed))
    experiments = slice_experiments(config.model, run.eve.levels, slice_len)
    est = estimate_avg_conditional_min_entropy(config.model, experiments)
    return {
        "per_sample_entropy_bits": est.mean_bits / slice_len,
        "per_experiment_entropy_bits": est.mean_bits,
        "entropy_std_bits": est.std_bits,
        "word_error_rate_per_word": _word_error_rate(run),
        "slice_len": slice_len,
        "n_samples": n,
    }


def _bisect(rate_of, target: float, lo: float, hi: float, midpoint):
    # 40 halvings of [lo, hi] for an increasing rate_of; returns the first
    # probe within 0.5% of target, else the last bracket's midpoint, with
    # the rate measured there
    for _ in range(40):
        x = midpoint(lo, hi)
        achieved = rate_of(x)
        if abs(achieved - target) / target < 0.005:
            return x, achieved
        if achieved < target:
            lo = x
        else:
            hi = x
    x = midpoint(lo, hi)
    return x, rate_of(x)


def calibrate_to_reference_rates(target_entropy_rate: float,
                                 target_word_error_rate: float,
                                 levels: int = 9,
                                 n_samples: int = 10_000,
                                 seed: int = 2026) -> ChannelConfig:
    """Find a family member matching measured target rates within 10%.

    Both targets are normalized per quantized bit, matching the reference
    experiment's reporting: an entropy rate of 0.1248 and a word error rate
    of 0.0054 mean 99.8 bits of conditional min-entropy and 4.3 word errors
    per 100 samples at ``BITS_PER_SAMPLE`` = 8 bits per sample.  Entropy is
    measured over ``SLICE_LEN``-sample experiments of an ``n_samples`` run.
    """
    if not (0.0 < target_entropy_rate < 1.0 and 0.0 < target_word_error_rate < 1.0):
        raise CalibrationError(
            "calibration failed: target rates must lie strictly inside (0, 1)")
    entropy_per_sample = target_entropy_rate * BITS_PER_SAMPLE
    word_error_per_word = target_word_error_rate * BITS_PER_SAMPLE
    if entropy_per_sample >= math.log2(levels):
        raise CalibrationError(
            f"calibration failed: {entropy_per_sample:.3f} bits/sample exceeds "
            f"log2({levels}) levels")
    if word_error_per_word >= 1.0:
        raise CalibrationError("calibration failed: word error target >= 1 per word")

    def entropy_of(spread: float, band: int) -> float:
        cfg = family_config(levels=levels, decay=1.0, spread=spread, band=band,
                            q=0.01, n=n_samples, seed=seed)
        return measure_rates(cfg, n_samples, SLICE_LEN, seed)["per_sample_entropy_bits"]

    # entropy is monotone in the emission spread; bracket then bisect
    chosen = None
    for band in (2, 1, 3, 4):
        lo_s, hi_s = 1e-3, 1.0
        h_lo, h_hi = entropy_of(lo_s, band), entropy_of(hi_s, band)
        if not (h_lo <= entropy_per_sample <= h_hi):
            continue
        spread, achieved = _bisect(lambda x: entropy_of(x, band), entropy_per_sample,
                                   lo_s, hi_s, lambda a, b: math.sqrt(a * b))
        if abs(achieved - entropy_per_sample) / entropy_per_sample <= CALIBRATION_REL_TOL:
            chosen = (spread, band, achieved)
            break
    if chosen is None:
        raise CalibrationError(
            "calibration failed: no emission spread reaches the entropy target")
    spread, band, achieved_entropy = chosen

    def word_error_of(q: float) -> float:
        # the run measure_rates would simulate, without its entropy estimate
        cfg = family_config(levels=levels, decay=1.0, spread=spread, band=band, q=q,
                            n=_measure_length(n_samples, SLICE_LEN), seed=seed)
        return _word_error_rate(simulate_run(cfg))

    lo_q, hi_q = 1e-5, 0.49
    if not (word_error_of(lo_q) <= word_error_per_word <= word_error_of(hi_q)):
        raise CalibrationError("calibration failed: word error target out of reach")
    q, achieved_we = _bisect(word_error_of, word_error_per_word, lo_q, hi_q,
                             lambda a, b: 0.5 * (a + b))
    if abs(achieved_we - word_error_per_word) / word_error_per_word > CALIBRATION_REL_TOL:
        raise CalibrationError(
            f"calibration failed: word error {achieved_we:.5f} misses "
            f"{word_error_per_word:.5f} by more than {CALIBRATION_REL_TOL:.0%}")

    cfg = family_config(levels=levels, decay=1.0, spread=spread, band=band,
                        q=q, n=n_samples, seed=seed)
    calibration = {
        "target_entropy_per_sample_bits": entropy_per_sample,
        "achieved_entropy_per_sample_bits": achieved_entropy,
        "target_word_error_per_word": word_error_per_word,
        "achieved_word_error_per_word": achieved_we,
        "spread": spread,
        "band": band,
        "q": q,
        "levels": levels,
        "measure_seed": seed,
    }
    return replace(cfg, calibration=calibration)
