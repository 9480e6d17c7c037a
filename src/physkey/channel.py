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
midpoint.  Both searches use one draw, the run measure_rates would simulate
at the calibration seed, and no probe re-maps it.  A q probe counts Bob's
level errors with two searches into his uniforms, sorted once.  A spread
probe counts Eve's symbols from her uniforms, sorted once within each
hidden state, and is decided by the closed-form entropy of a memoryless
chain (decay = 1: every transition row equals pi), a sum of per-symbol
terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CalibrationError, ImpossibleObservationError
from .hmm import MAX_LEVELS, SLICE_LEN, HmmModel, estimate_avg_conditional_min_entropy, \
    json_float, json_int, level_states, seeded_rng, slice_experiments, validate_model
from .quantize import BITS_PER_SAMPLE
from .traces import MeasurementTrace, make_trace

_PROB_TOL = 1e-9
_COUNT_MAX = 32  # longest CDF _count_le counts rather than searches
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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
                   # a non-finite probability fails the sum check, which names it
                   bob_error={_offset_key(k): json_float(v, finite=False)
                              for k, v in d["bob_error"].items()},
                   n=json_int(d["n"]), seed=json_int(d.get("seed", 0)),
                   calibration=dict(d.get("calibration", {})))


def _offset_key(key: str) -> int:
    # the one form to_dict writes, str(offset); int() also reads "01", "+1", " 1" and "1_0"
    if key.removeprefix("-").isdecimal() and str(int(key)) == key:
        return int(key)
    raise ValueError(f"bob_error key {key!r} is not an integer offset")


@dataclass(frozen=True)
class SimulatedRun:
    """Aligned alice/bob/eve traces from one seeded draw."""

    alice: MeasurementTrace
    bob: MeasurementTrace
    eve: MeasurementTrace


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis for inverse-CDF sampling, +inf
    from each row's last positive entry on.

    A uniform in [0, 1) then falls in the bin of an outcome the row can give
    even where the sum rounds below 1: the last positive outcome takes what
    lies above it.
    """
    cum = np.cumsum(p, axis=-1)
    k = p.shape[-1]
    last = k - 1 - np.argmax(p[..., ::-1] > 0, axis=-1)
    cum[np.arange(k) >= last[..., None]] = np.inf
    return cum


def _count_le(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") for a non-decreasing cdf: the
    number of its entries <= each uniform.

    A short cdf is counted with one comparison pass per entry into uint8
    counts, which needs no (entries, n) temporary.  A binary search over
    random needles stalls on branch mispredictions, so up to _COUNT_MAX
    entries the branch-free passes are faster (9 entries, 10,000 fresh
    uniforms: 234 -> 58 us on a 2-vCPU x86-64 machine).
    """
    if cdf.size > _COUNT_MAX:
        return np.searchsorted(cdf, u, side="right")
    out = np.zeros(u.shape, dtype=np.uint8)
    for c in cdf:
        out += c <= u
    return out.astype(np.intp)


def _sample_chain(pi: np.ndarray, trans: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Hidden state indices for uniforms u by inverse-CDF sampling.

    Step t moves from state s to searchsorted(_cdf(trans)[s], u[t]).  Rather
    than walking the chain one sample at a time, tabulate that move for
    every (t, s) with one _count_le per state, then compose the table by
    pointer doubling: after the pass with stride d, row t maps the state at
    t - 2d to the state at t.  Row 0 is the constant map onto the initial
    state, so after ceil(log2 n) passes every column of row t holds the
    state at t.  A row that is a constant map already holds that state
    whatever came before it, and stays constant under further passes; the
    scan stops once every row is constant (after a few passes for a chain
    that mixes quickly).  An i.i.d. chain (every row equal) moves every
    state alike, so its table is one column, constant from the start: one
    count gives the path.  The counts make other comparisons than a
    one-sample walk's search, but each row is non-decreasing, so they put
    every uniform in the same bin and the path is identical to the walk.
    """
    rows = trans[:1] if (trans == trans[0]).all() else trans
    n, k = u.size, rows.shape[0]
    cum_trans = _cdf(rows)
    table = np.empty((n, k), dtype=np.int64)
    table[0] = np.searchsorted(_cdf(pi), u[0], side="right")
    for s in range(k):
        table[1:, s] = _count_le(cum_trans[s], u[1:])
    d = 1
    while d < n and not (table == table[:, :1]).all():
        table[d:] = np.take_along_axis(table[d:], table[:-d], axis=1)
        d *= 2
    return table[:, 0]


def _draw(model: HmmModel, seed: int, n: int):
    """The random part of a run: hidden state indices, then the uniforms that
    Eve's and Bob's draws invert, in the generator's order.

    The path depends on the model only through pi and trans, and the
    uniforms not at all.
    """
    rng = seeded_rng(seed)
    idx = _sample_chain(model.pi, model.trans, rng.random(n))
    return idx, rng.random(n), rng.random(n)


def _eve_levels(model: HmmModel, idx: np.ndarray, ue: np.ndarray) -> np.ndarray:
    """Eve's symbol at each step, drawn from the emission row of the state."""
    symbol_vals = np.array(model.symbols, dtype=np.int64)
    return symbol_vals[(ue[:, None] < _cdf(model.emit)[idx]).argmax(axis=1)]


def _offset_cdf(bob_error: dict):
    # bob_error's offsets, sorted, and their normalised cumulative distribution
    offsets = np.array(sorted(bob_error), dtype=np.int64)
    cdf = np.array([bob_error[int(o)] for o in offsets]).cumsum()
    cdf /= cdf[-1]
    return offsets, cdf


def _bob_levels(model: HmmModel, bob_error: dict, alice: np.ndarray,
                ub: np.ndarray) -> np.ndarray:
    """Alice's levels plus an offset drawn from bob_error, clamped to the states.

    The same draw as rng.choice(offsets, p=probs) over the sorted offsets:
    each uniform is located in the normalised cumulative distribution.
    """
    offsets, cdf = _offset_cdf(bob_error)
    off = offsets[_count_le(cdf, ub)]
    return np.clip(alice + off, min(model.states), max(model.states))


def simulate_run(config: ChannelConfig) -> SimulatedRun:
    """Draw one run; bit-identical for a fixed config (including seed)."""
    model = config.model
    idx, ue, ub = _draw(model, config.seed, config.n)
    alice_levels = np.array(model.states, dtype=np.int64)[idx]
    return SimulatedRun(
        alice=make_trace(alice_levels, "alice", frame_type="PING"),
        bob=make_trace(_bob_levels(model, config.bob_error, alice_levels, ub), "bob",
                       frame_type="PONG"),
        eve=make_trace(_eve_levels(model, idx, ue), "eve", frame_type="OBS"),
    )


def _banded_rows(k: int, ratio: float, band: int):
    # rows proportional to the symmetric weights ratio^|i - j| within
    # |i - j| <= band, else zero, and the weights' row sums
    d = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    weights = np.where(d <= band, np.power(float(ratio), d), 0.0)
    sums = weights.sum(axis=1)
    return weights / sums[:, None], sums


def family_config(levels: int = 9, decay: float = 1.0, spread: float = 0.5,
                  band: int = 2, q: float = 0.02, n: int = 10_000,
                  seed: int = 0) -> ChannelConfig:
    """One member of the calibration search family."""
    states = level_states(levels)
    trans, sums = _banded_rows(levels, decay, levels)
    emit = _banded_rows(levels, spread, band)[0]
    # symmetric weights over their row sums make a reversible chain, whose
    # law is those sums over their total (exactly 1/levels at decay = 1)
    pi = sums / sums.sum()
    model = HmmModel(states=states, symbols=states, pi=pi, trans=trans, emit=emit)
    return ChannelConfig(model=model, bob_error=_family_bob_error(q), n=n, seed=seed)


def _family_bob_error(q: float) -> dict:
    return {-1: q, 0: 1.0 - 2.0 * q, 1: q}


def _measure_length(n_samples: int) -> int:
    # whole slices only, and at least one
    n = max(n_samples, SLICE_LEN)
    return n - n % SLICE_LEN


def _memoryless_entropy_bits(model: HmmModel, counts) -> np.ndarray:
    """Conditional min-entropy in bits of observation sequences given by
    their symbol counts (last axis), for a chain whose every transition row
    equals pi.

    Such a chain is i.i.d., so P* = max_x Pr[X = x, Y = y] and P = Pr[Y = y]
    both factor per symbol and -log2(P*/P) is
    sum_t [log2 sum_x pi_x b_x(y_t) - log2 max_x pi_x b_x(y_t)]: the counts
    weighted by a per-symbol table.  That is the kernel's value up to
    rounding, without its per-step dynamic program.  Raises ValueError for
    any other chain, and ImpossibleObservationError when a counted symbol
    has zero probability.
    """
    if not (model.trans == model.pi).all():
        raise ValueError("the closed-form entropy needs every transition row equal to pi")
    joint = model.pi[:, None] * model.emit
    total = joint.sum(axis=0)
    counts = np.asarray(counts)
    impossible = (counts.reshape(-1, model.m) > 0).any(axis=0) & (total == 0)
    if impossible.any():
        raise ImpossibleObservationError(
            "impossible observation sequence: symbol "
            f"{model.symbols[int(np.argmax(impossible))]} has zero probability")
    with np.errstate(divide="ignore", invalid="ignore"):
        bits = np.log2(total) - np.log2(joint.max(axis=0))
    return counts @ np.where(total > 0, bits, 0.0)


def _sorted_by_state(idx: np.ndarray, u: np.ndarray, levels: int) -> list:
    """[np.sort(u[idx == s]) for s in range(levels)] without a masked pass
    per state: a stable argsort of the uint8 state codes (a radix sort;
    MAX_LEVELS keeps every code below 256) gathers each state's uniforms,
    split at the running state counts, and each segment is then sorted."""
    order = np.argsort(idx.astype(np.uint8), kind="stable")
    bounds = np.bincount(idx, minlength=levels).cumsum()[:-1]
    return [np.sort(part) for part in np.split(u[order], bounds)]


def _eve_counts(model: HmmModel, ue_by_state: list) -> np.ndarray:
    # Eve's symbol counts over a run, given its uniforms sorted within each
    # hidden state: symbols 0..j take the uniforms below the row's CDF at j,
    # the bins _eve_levels draws from
    edges = sum(np.searchsorted(u, row) for u, row in zip(ue_by_state, _cdf(model.emit)))
    return np.diff(edges, prepend=0)


def _bob_error_count(bob_error: dict, ub_down: np.ndarray, ub_up: np.ndarray) -> int:
    # Bob's level errors for offsets -1, 0, +1 from his uniforms sorted over
    # the steps off the lowest state (ub_down) and off the highest (ub_up):
    # he draws -1 exactly below cdf[0] and +1 exactly at or above cdf[1]
    cdf = _offset_cdf(bob_error)[1]
    return int(ub_down.searchsorted(cdf[0]) + ub_up.size - ub_up.searchsorted(cdf[1]))


def measure_rates(config: ChannelConfig, n_samples: int = 10_000,
                  seed: int = 7) -> dict:
    """Simulate and report per-sample entropy and per-word error rates.

    Entropy is the sampled conditional min-entropy of Alice's levels given
    Eve's trace under the config's own model, averaged over ``SLICE_LEN``-sample
    experiments; the word error rate is the fraction of samples where Bob's
    level differs from Alice's (one ``BITS_PER_SAMPLE``-bit word per
    sample).  The run is the one simulate_run draws at this length and seed.
    """
    n = _measure_length(n_samples)
    run = simulate_run(replace(config, n=n, seed=seed))
    est = estimate_avg_conditional_min_entropy(
        config.model, slice_experiments(config.model, run.eve.levels, SLICE_LEN))
    return {
        "per_sample_entropy_bits": est.mean_bits / SLICE_LEN,
        "per_experiment_entropy_bits": est.mean_bits,
        "entropy_std_bits": est.std_bits,
        "word_error_rate_per_word": float(np.mean(run.alice.levels != run.bob.levels)),
        "slice_len": SLICE_LEN,
        "n_samples": n,
    }


def _bisect(rate_of, target: float, lo: float, hi: float, midpoint) -> float:
    # 40 halvings of [lo, hi] for an increasing rate_of; returns the first
    # probe within 0.5% of target, else the last bracket's midpoint
    for _ in range(40):
        x = midpoint(lo, hi)
        achieved = rate_of(x)
        if abs(achieved - target) / target < 0.005:
            return x
        if achieved < target:
            lo = x
        else:
            hi = x
    return midpoint(lo, hi)


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
    the closed form over an ``n_samples`` run: measure_rates' kernel mean over
    its ``SLICE_LEN``-sample experiments, up to rounding.
    """
    if not (0.0 < target_entropy_rate < 1.0 and 0.0 < target_word_error_rate < 1.0):
        raise CalibrationError(
            "calibration failed: target rates must lie strictly inside (0, 1)")
    if not 2 <= levels <= MAX_LEVELS:
        bound = "at least 2" if levels < 2 else f"at most {MAX_LEVELS}"
        raise CalibrationError(f"calibration failed: levels must be {bound}, got {levels}")
    if seed < 0:
        raise CalibrationError(f"calibration failed: seed must be >= 0, got {seed}")
    entropy_per_sample = target_entropy_rate * BITS_PER_SAMPLE
    word_error_per_word = target_word_error_rate * BITS_PER_SAMPLE
    if entropy_per_sample >= math.log2(levels):
        raise CalibrationError(
            f"calibration failed: {entropy_per_sample:.3f} bits/sample exceeds "
            f"log2({levels}) levels")
    if word_error_per_word >= 1.0:
        raise CalibrationError("calibration failed: word error target >= 1 per word")

    # every probe draws from the same seed and length, and with decay = 1 its
    # hidden chain depends on levels alone, so one draw serves them all, and
    # a probe's model is the base model with its own emissions; Eve's
    # uniforms are sorted once within each hidden state, for every probe
    n = _measure_length(n_samples)
    base = family_config(levels=levels).model
    idx, ue, ub = _draw(base, seed, n)
    ue_by_state = _sorted_by_state(idx, ue, levels)

    def entropy_of(spread: float, band: int) -> float:
        model = replace(base, emit=_banded_rows(levels, spread, band)[0])
        return float(_memoryless_entropy_bits(model, _eve_counts(model, ue_by_state))) / n

    # entropy is monotone in the emission spread; bracket then bisect, each
    # probe and the reported rate given by the closed form
    for band in (2, 1, 3, 4):
        if not entropy_of(1e-3, band) <= entropy_per_sample <= entropy_of(1.0, band):
            continue
        spread = _bisect(lambda x: entropy_of(x, band), entropy_per_sample,
                         1e-3, 1.0, lambda a, b: math.sqrt(a * b))
        achieved_entropy = entropy_of(spread, band)
        if abs(achieved_entropy - entropy_per_sample) / entropy_per_sample <= CALIBRATION_REL_TOL:
            break
    else:
        raise CalibrationError(
            "calibration failed: no emission spread reaches the entropy target")

    ub_down, ub_up = np.sort(ub[idx > 0]), np.sort(ub[idx < levels - 1])

    def word_error_of(q: float) -> float:
        return _bob_error_count(_family_bob_error(q), ub_down, ub_up) / n

    if not word_error_of(1e-5) <= word_error_per_word <= word_error_of(0.49):
        raise CalibrationError("calibration failed: word error target out of reach")
    q = _bisect(word_error_of, word_error_per_word, 1e-5, 0.49, lambda a, b: 0.5 * (a + b))
    achieved_we = word_error_of(q)
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
