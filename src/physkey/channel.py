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
at the calibration seed, and no probe re-maps it.

Built once per calibration: that draw; Eve's uniforms sorted within each
hidden state; Bob's uniforms sorted over the steps off the lowest state and
over those off the highest; the level distances |i - j|; the chain's law pi,
checked once to be memoryless (decay = 1: every transition row equals pi);
and per band, the mask of the CDF entries that are +inf.  A spread probe is
then a few numpy calls on emission rows: the banded rows for its spread,
their CDF, one search per state into Eve's sorted uniforms for her symbol
counts, and the closed-form entropy of a memoryless chain, a sum of
per-symbol terms.  A q probe is Bob's two offset thresholds in float
arithmetic and two searches into his sorted uniforms.
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


def _inf_tail(p: np.ndarray) -> np.ndarray:
    """Mask of the entries from each row's last positive one on (last axis)."""
    k = p.shape[-1]
    last = k - 1 - np.argmax(p[..., ::-1] > 0, axis=-1)
    return np.arange(k) >= last[..., None]


def _cdf(p: np.ndarray, tail: np.ndarray | None = None) -> np.ndarray:
    """Cumulative sums along the last axis for inverse-CDF sampling, +inf
    from each row's last positive entry on (the mask ``tail``, _inf_tail(p)
    unless given).

    A uniform in [0, 1) then falls in the bin of an outcome the row can give
    even where the sum rounds below 1: the last positive outcome takes what
    lies above it.
    """
    cum = np.cumsum(p, axis=-1)
    cum[_inf_tail(p) if tail is None else tail] = np.inf
    return cum


def _count_le(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") for a non-decreasing cdf: the
    number of its entries <= each uniform.

    A short cdf is counted with one comparison pass per entry into uint8
    counts (each pass's bools viewed as uint8, so the add needs no cast),
    which needs no (entries, n) temporary.  A binary search over
    random needles stalls on branch mispredictions, so up to _COUNT_MAX
    entries the branch-free passes are faster (9 entries, 10,000 fresh
    uniforms: 234 -> 58 us on a 2-vCPU x86-64 machine).
    """
    if cdf.size > _COUNT_MAX:
        return np.searchsorted(cdf, u, side="right")
    out = np.zeros(u.shape, dtype=np.uint8)
    for c in cdf:
        out += (c <= u).view(np.uint8)
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
    state alike, so one count against its row gives the path, no table.
    The counts make other comparisons than a one-sample walk's search, but
    each row is non-decreasing, so they put every uniform in the same bin
    and the path is identical to the walk.
    """
    first = np.searchsorted(_cdf(pi), u[0], side="right")
    if (trans == trans[0]).all():
        path = _count_le(_cdf(trans[0]), u)
        path[0] = first
        return path
    n, k = u.size, trans.shape[0]
    cum_trans = _cdf(trans)
    table = np.empty((n, k), dtype=np.int64)
    table[0] = first
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
    """Eve's symbol at each step, drawn from the emission row of the state.

    Her symbol index is the first column of the state's _cdf row above her
    uniform, which, the row being non-decreasing, is the number of its
    columns at or below the uniform.  The last column is +inf, so only the
    first m - 1 are counted, one comparison pass each, as _count_le does;
    no (n, m) block of CDF rows is gathered.
    """
    symbol_vals = np.array(model.symbols, dtype=np.int64)
    counts = np.zeros(idx.shape, dtype=np.min_scalar_type(model.m - 1))
    for column in _cdf(model.emit)[:, :-1].T:
        counts += column[idx] <= ue
    return symbol_vals[counts]


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


def _distances(levels: int) -> np.ndarray:
    # |i - j| between level indices: the family's band geometry
    i = np.arange(levels)
    return np.abs(np.subtract.outer(i, i))


def _banded_rows(d: np.ndarray, ratio: float, band: int):
    # rows proportional to the symmetric weights ratio^d within d <= band,
    # else zero, and the weights' row sums, for distances d from _distances
    weights = np.where(d <= band, np.power(float(ratio), d), 0.0)
    sums = weights.sum(axis=1)
    return weights / sums[:, None], sums


def _family_model(levels: int, decay: float, spread: float, band: int) -> HmmModel:
    states = level_states(levels)
    d = _distances(levels)
    trans, sums = _banded_rows(d, decay, levels)
    emit = _banded_rows(d, spread, band)[0]
    # symmetric weights over their row sums make a reversible chain, whose
    # law is those sums over their total (exactly 1/levels at decay = 1)
    pi = sums / sums.sum()
    return HmmModel(states=states, symbols=states, pi=pi, trans=trans, emit=emit)


def family_config(levels: int = 9, decay: float = 1.0, spread: float = 0.5,
                  band: int = 2, q: float = 0.02, n: int = 10_000,
                  seed: int = 0) -> ChannelConfig:
    """One member of the calibration search family."""
    return ChannelConfig(model=_family_model(levels, decay, spread, band),
                         bob_error=_family_bob_error(q), n=n, seed=seed)


def _family_bob_error(q: float) -> dict:
    return {-1: q, 0: 1.0 - 2.0 * q, 1: q}


def _measure_length(n_samples: int) -> int:
    # whole slices only, and at least one
    n = max(n_samples, SLICE_LEN)
    return n - n % SLICE_LEN


def _memoryless_law(model: HmmModel) -> np.ndarray:
    """pi of a chain whose every transition row equals pi, the chains
    _memoryless_entropy_bits covers; ValueError for any other chain."""
    if not (model.trans == model.pi).all():
        raise ValueError("the closed-form entropy needs every transition row equal to pi")
    return model.pi


def _memoryless_entropy_bits(pi: np.ndarray, emit: np.ndarray, symbols: tuple,
                             counts) -> np.ndarray:
    """Conditional min-entropy in bits of observation sequences given by
    their symbol counts (last axis), for a chain with law pi (from
    _memoryless_law) and emission rows emit over symbols.

    Such a chain is i.i.d., so P* = max_x Pr[X = x, Y = y] and P = Pr[Y = y]
    both factor per symbol and -log2(P*/P) is
    sum_t [log2 sum_x pi_x b_x(y_t) - log2 max_x pi_x b_x(y_t)]: the counts
    weighted by a per-symbol table.  That is the kernel's value up to
    rounding, without its per-step dynamic program.  Raises
    ImpossibleObservationError when a counted symbol has zero probability.
    """
    joint = pi[:, None] * emit
    total = joint.sum(axis=0)
    counts = np.asarray(counts)
    possible = total > 0
    if not possible.all():
        impossible = (counts.reshape(-1, len(symbols)) > 0).any(axis=0) & ~possible
        if impossible.any():
            raise ImpossibleObservationError(
                "impossible observation sequence: symbol "
                f"{symbols[int(np.argmax(impossible))]} has zero probability")
    with np.errstate(divide="ignore", invalid="ignore"):
        bits = np.log2(total) - np.log2(joint.max(axis=0))
    return counts @ np.where(possible, bits, 0.0)


def _state_order(idx: np.ndarray, levels: int):
    """The steps in a stable order by hidden state, and where in it each of
    the states 1..levels-1 begins: np.split(order, starts)[s] is
    np.flatnonzero(idx == s).  A stable argsort of the uint8 state codes is
    a radix sort; MAX_LEVELS keeps every code below 256."""
    codes = idx.astype(np.uint8)
    order = np.argsort(codes, kind="stable")
    return order, np.searchsorted(codes[order], np.arange(1, levels))


def _sorted_by_state(u: np.ndarray, order: np.ndarray, starts: np.ndarray) -> list:
    """[np.sort(u[idx == s]) for s in range(levels)] from _state_order(idx,
    levels): one gather, then each state's segment sorted in place."""
    parts = np.split(u[order], starts)
    for part in parts:
        part.sort()
    return parts


def _eve_counts(cdf_rows: np.ndarray, ue_by_state: list) -> np.ndarray:
    # Eve's symbol counts over a run, given the _cdf of each state's
    # emission row and its uniforms sorted within each hidden state:
    # symbols 0..j take the uniforms below the row's CDF at j, the bins
    # _eve_levels draws from
    edges = sum(u.searchsorted(row) for u, row in zip(ue_by_state, cdf_rows))
    counts = edges.copy()
    counts[1:] -= edges[:-1]
    return counts


def _bob_error_count(q: float, ub_down: np.ndarray, ub_up: np.ndarray) -> int:
    # Bob's level errors under _family_bob_error(q) from his uniforms sorted
    # over the steps off the lowest state (ub_down) and off the highest
    # (ub_up): he draws -1 exactly below cdf[0] and +1 exactly at or above
    # cdf[1], the cdf _offset_cdf builds, summed and normalised here in its
    # order of operations
    mid = q + (1.0 - 2.0 * q)
    total = mid + q
    return int(ub_down.searchsorted(q / total) + ub_up.size - ub_up.searchsorted(mid / total))


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


def _bisect(rate_of, target: float, lo: float, hi: float, midpoint):
    # 40 halvings of [lo, hi] for an increasing rate_of; returns the first
    # probe within 0.5% of target, else the last bracket's midpoint, and
    # the rate there
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
    the closed form over an ``n_samples`` run: measure_rates' kernel mean over
    its ``SLICE_LEN``-sample experiments, up to rounding.
    """
    if not (0.0 < target_entropy_rate < 1.0 and 0.0 < target_word_error_rate < 1.0):
        raise CalibrationError(
            "calibration failed: target rates must lie strictly inside (0, 1)")
    if not 2 <= levels <= MAX_LEVELS:
        bound = "at least 2" if levels < 2 else f"at most {MAX_LEVELS}"
        raise CalibrationError(f"calibration failed: levels must be {bound}, got {levels}")
    if n_samples < 1:
        raise CalibrationError(f"calibration failed: n_samples must be >= 1, got {n_samples}")
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
    # a probe's model is the base model with its own emissions
    n = _measure_length(n_samples)
    base = _family_model(levels, 1.0, 1.0, levels)
    pi, d = _memoryless_law(base), _distances(levels)
    idx, ue, ub = _draw(base, seed, n)
    order, starts = _state_order(idx, levels)
    ue_by_state = _sorted_by_state(ue, order, starts)

    def entropy_of(spread: float, band: int, tail: np.ndarray) -> float:
        emit = _banded_rows(d, spread, band)[0]
        counts = _eve_counts(_cdf(emit, tail), ue_by_state)
        return float(_memoryless_entropy_bits(pi, emit, base.symbols, counts)) / n

    # entropy is monotone in the emission spread; bracket then bisect, each
    # probe and the reported rate given by the closed form.  Every spread
    # probed lies in [1e-3, 1], where no weight within the band underflows,
    # so a band's emission rows are positive exactly within it and its CDF
    # tails are the band's own
    for band in (2, 1, 3, 4):
        tail = _inf_tail(d <= band)
        if not entropy_of(1e-3, band, tail) <= entropy_per_sample \
                <= entropy_of(1.0, band, tail):
            continue
        spread, achieved_entropy = _bisect(lambda x: entropy_of(x, band, tail),
                                           entropy_per_sample, 1e-3, 1.0,
                                           lambda a, b: math.sqrt(a * b))
        if abs(achieved_entropy - entropy_per_sample) / entropy_per_sample <= CALIBRATION_REL_TOL:
            break
    else:
        raise CalibrationError(
            "calibration failed: no emission spread reaches the entropy target")

    # Bob errs down only off the lowest state and up only off the highest
    ub_grouped = ub[order]
    ub_down, ub_up = np.sort(ub_grouped[starts[0]:]), np.sort(ub_grouped[:starts[-1]])

    def word_error_of(q: float) -> float:
        return _bob_error_count(q, ub_down, ub_up) / n

    if not word_error_of(1e-5) <= word_error_per_word <= word_error_of(0.49):
        raise CalibrationError("calibration failed: word error target out of reach")
    q, achieved_we = _bisect(word_error_of, word_error_per_word, 1e-5, 0.49,
                             lambda a, b: 0.5 * (a + b))
    if abs(achieved_we - word_error_per_word) / word_error_per_word > CALIBRATION_REL_TOL:
        raise CalibrationError(
            f"calibration failed: word error {achieved_we:.5f} misses "
            f"{word_error_per_word:.5f} by more than {CALIBRATION_REL_TOL:.0%}")

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
    return ChannelConfig(model=replace(base, emit=_banded_rows(d, spread, band)[0]),
                         bob_error=_family_bob_error(q), n=n_samples, seed=seed,
                         calibration=calibration)
