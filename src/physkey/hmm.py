"""Hidden Markov channel model and conditional min-entropy estimation.

The hidden chain holds one party's signal levels; the visible symbols are an
eavesdropper's readings.  Two dynamic programs drive everything:

* max-joint path probability P* = max_x Pr[X = x, Y = y]  (log-domain),
* total observation probability P = Pr[Y = y]             (scaled).

The conditional min-entropy of the hidden sequence given one observation
sequence is -log2(P*/P); averaging it over independent experiments
approximates the average-case conditional min-entropy, and an exact
enumeration over all observation sequences (-log2 sum_y P*(y)) is kept as a
desk-scale reference for small models.

One private kernel steps both recursions over the rows of an (r, n) matrix
of symbol indices at once and reports their prefix values at requested
lengths.  Its Viterbi scores are state-major, one (k, r) array, and one
max-plus step maps them to each state's best predecessor score: the scores
repeated k times plus log2 a widened once per batch to (k, k, r) is one
contiguous add, reduced over its leading axis.  The forward recursion keeps
its (r, k) rows for one matrix product per step, and log2 P is one cumsum of
the step scales' log2 after the last step.  Every array a step writes is
allocated once per batch, so a step is a fixed handful of numpy calls, each
into an ``out=`` buffer; on arrays this small their dispatch is the cost.
The single-sequence functions, the growth profiles and the sampled
estimator call the kernel; the exact enumeration calls only the max-plus
step, growing each observation prefix once.  Observations are int64 arrays
of alphabet indices throughout: one sequence is a 1-d array, a set of
equal-length experiments an (experiments, n) matrix.  The per-sequence
conditional min-entropy is a one-row batch of the growth profile.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import ImpossibleObservationError
from .quantize import int64_samples
from .traces import MeasurementTrace, assert_aligned

_ROW_TOL = 1e-9
ENUMERATION_GUARD = 10 ** 6
SLICE_LEN = 100  # samples per entropy experiment in the reference deployment
# largest level count: the kernel's widened log2 a and one step's candidates
# are then two (k, k, r) blocks, 105 MB at r = 100
MAX_LEVELS = 256
# floats in one such block, the most the exact enumeration's last step
# may put in each of its two (k, k * m^(n-1)) blocks
BLOCK_GUARD = MAX_LEVELS ** 2 * 100


def json_int(value) -> int:
    """An integer read from JSON: true, false, strings and fractions are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def json_float(value, finite: bool = True) -> float:
    """A number read from JSON: true, false and strings are not, nor are
    NaN and the infinities unless ``finite`` is false."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            finite and not math.isfinite(value)):
        raise TypeError(f"expected a {'finite ' if finite else ''}number, got {value!r}")
    return float(value)


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's generator for a seed; a negative one raises ValueError."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _json_floats(value):
    # nested lists of JSON numbers; validate_model names a non-finite one
    return [_json_floats(v) for v in value] if isinstance(value, list) \
        else json_float(value, finite=False)


@dataclass(frozen=True, eq=False)
class HmmModel:
    """k hidden states over m symbols: initial pi, transitions, emissions.

    ``states`` and ``symbols`` carry the actual signal-level values so that
    traces map to indices unambiguously; ``trans`` and ``emit`` are
    row-stochastic.  A model is read-only and compares and hashes by
    identity, so per-model tables can be cached against it.
    """

    states: tuple
    symbols: tuple
    pi: np.ndarray
    trans: np.ndarray
    emit: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "symbols", tuple(self.symbols))
        for name in ("pi", "trans", "emit"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return len(self.states)

    @property
    def m(self) -> int:
        return len(self.symbols)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "states": list(self.states),
            "symbols": list(self.symbols),
            "pi": self.pi.tolist(),
            "trans": self.trans.tolist(),
            "emit": self.emit.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HmmModel":
        for name in ("states", "symbols"):
            if not isinstance(d[name], list):
                raise TypeError(f"expected a list, got {type(d[name]).__name__}")
        model = cls(states=tuple(map(json_int, d["states"])),
                    symbols=tuple(map(json_int, d["symbols"])),
                    pi=_json_floats(d["pi"]), trans=_json_floats(d["trans"]),
                    emit=_json_floats(d["emit"]))
        if "k" in d and json_int(d["k"]) != model.k:
            raise ValueError(f"k={d['k']} does not match {model.k} states")
        if "m" in d and json_int(d["m"]) != model.m:
            raise ValueError(f"m={d['m']} does not match {model.m} symbols")
        violations = validate_model(model)
        if violations:
            raise ValueError("invalid model: " + "; ".join(violations))
        return model


def validate_model(model: HmmModel) -> list:
    """Return all invariant violations (empty list means the model is valid)."""
    out = []
    k, m = model.k, model.m
    if model.pi.shape != (k,):
        out.append(f"pi has shape {model.pi.shape}, expected ({k},)")
    if model.trans.shape != (k, k):
        out.append(f"trans has shape {model.trans.shape}, expected ({k}, {k})")
    if model.emit.shape != (k, m):
        out.append(f"emit has shape {model.emit.shape}, expected ({k}, {m})")
    if out:
        return out

    def check_rows(name, mat):
        if np.isnan(mat).any():
            out.append(f"{name} has a NaN probability")
        if (mat < 0).any():
            out.append(f"{name} has a negative probability")
        if (mat > 1).any():
            out.append(f"{name} has an entry > 1")
        sums = mat.sum(axis=1) if mat.ndim == 2 else np.array([mat.sum()])
        # one comparison finds the rows that are off; a NaN sum is not one
        for i in (np.abs(sums - 1.0) > _ROW_TOL).nonzero()[0]:
            where = f"row {i} of {name}" if mat.ndim == 2 else name
            out.append(f"{where} sums to {sums[i]:.12g}")

    check_rows("pi", model.pi)
    check_rows("trans", model.trans)
    check_rows("emit", model.emit)
    if len(set(model.states)) != k:
        out.append("duplicate state values")
    if len(set(model.symbols)) != m:
        out.append("duplicate symbol values")
    return out


@functools.lru_cache(maxsize=64)
def _alphabet_lookup(symbols: tuple):
    # the alphabet sorted (stably, so a repeated symbol ends on its last
    # index) with each entry's index, both led by a copy of the first entry
    values = np.asarray(symbols)
    order = np.argsort(values, kind="stable")
    lead = np.r_[order[0], order]
    return values[lead], lead


def obs_from_values(model: HmmModel, values: Iterable[int]) -> np.ndarray:
    """Map raw symbol values (e.g. an eavesdropper trace) to a 1-d int64
    array of alphabet indices.

    Raises ValueError naming the first value that is not a whole number or
    not in the alphabet.
    """
    vals = int64_samples(values if isinstance(values, np.ndarray) else list(values), "symbol")
    ranked, index = _alphabet_lookup(model.symbols)
    # slot of the last alphabet entry <= each value; slot 0 holds the first
    # entry again, which a value below the whole alphabet cannot equal
    slot = np.searchsorted(ranked[1:], vals, side="right")
    missing = ranked[slot] != vals
    if missing.any():
        raise ValueError(
            f"symbol {int(vals[np.argmax(missing)])} is not in the model alphabet")
    return index[slot]


def slice_experiments(model: HmmModel, levels: Sequence[int],
                      slice_len: int) -> np.ndarray:
    """Cut a trace into whole slice_len-sample experiments of alphabet
    indices: an (experiments, slice_len) int64 matrix, one row each.

    The tail shorter than slice_len is dropped before mapping, so a value
    outside the alphabet there is ignored; fewer than slice_len samples give
    a matrix with no rows.
    """
    if slice_len < 1:
        raise ValueError(f"slice length must be at least 1, got {slice_len}")
    levels = np.asarray(levels)
    n_slices = levels.size // slice_len
    return obs_from_values(model, levels[:n_slices * slice_len]).reshape(n_slices, slice_len)


@dataclass(frozen=True)
class EntropyEstimate:
    """Sampled average-case conditional min-entropy with per-experiment spread."""

    mean_bits: float
    std_bits: float
    per_experiment_bits: list
    n_samples_per_experiment: int
    n_experiments: int

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "per_experiment_bits": list(self.per_experiment_bits)}


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least-squares line y = slope * x + intercept."""

    slope: float
    intercept: float
    residual_sum_squares: float = 0.0

    def __call__(self, x: float) -> float:
        return self.slope * x + self.intercept

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LinearFit":
        return cls(json_float(d["slope"]), json_float(d["intercept"]),
                   json_float(d.get("residual_sum_squares", 0.0)))


def _widen(log_a: np.ndarray, r: int) -> np.ndarray:
    """log2 a_ij at [i, j, c] for every c < r: the contiguous (k, k, r)
    block one ``_viterbi_step`` over r score columns adds."""
    return np.repeat(log_a, r, axis=1).reshape(len(log_a), -1, r)


def _viterbi_step(delta: np.ndarray, wide_log_a: np.ndarray, cand: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """out[j, c] = max_i(delta[i, c] + log2 a_ij) over state-major (k, r)
    scores, given ``wide_log_a = _widen(log2 a, r)`` and ``cand``, a (k, k, r)
    buffer the candidates fill; a new array when ``out`` is None.

    Each score row copied k times lines up with ``wide_log_a``, so the
    candidates are one contiguous add, reduced over its leading axis: the
    same maxima of the same sums as a broadcast (k, k, r) add.
    """
    np.copyto(cand, delta[:, None, :])
    np.add(cand, wide_log_a, out=cand)
    return np.maximum.reduce(cand, axis=0, out=out)


def _recursions(model: HmmModel, obs_matrix: np.ndarray, checkpoints: Sequence[int]):
    """Viterbi and scaled forward recursions over every row of an (r, n) matrix.

    delta_1(i) = pi_i b_i(y_1);  delta_{t+1}(j) = max_i[delta_t(i) a_ij] b_j(y_{t+1}),
    kept in log2; alpha is the same recursion with a sum for the max, rescaled
    to sum 1 after each step so long sequences (n >= 1e4) do not underflow.
    ``checkpoints`` are sorted prefix lengths in [1, n].  Returns log2 P* and
    log2 P of each row's prefix at each checkpoint, two (r, c) arrays.  At
    the first step t where some row's probability is 0, raises
    ImpossibleObservationError naming t, with the first such row as ``row``.

    Each step's scales fill one row of an (n, r) array; log2 P is their
    running log2 sum, one cumsum in step order.  A row whose scale is 0 turns
    to NaN from then on without touching the other rows, so the scales are
    searched for the first zero once, after the last step.

    The steps read a contiguous (n, r) copy of the matrix, gather emissions
    with ``take``, and write into buffers made once per batch: the (k, k, r)
    candidate block ``_viterbi_step`` fills, and two each of delta and alpha,
    which trade places after each step.  No float operation or its order
    differs from a kernel that allocates every step's arrays afresh.
    """
    if obs_matrix.ndim != 2 or obs_matrix.size < 1:
        raise ValueError("observations must be a non-empty 2-d matrix of symbol indices")
    if obs_matrix.dtype.kind not in "iu":  # a cast would cut 0.5 to 0; bools would mask
        raise ValueError(f"observation indices must be integers, got dtype {obs_matrix.dtype}")
    if obs_matrix.min() < 0 or obs_matrix.max() >= model.m:
        raise ValueError(f"observation index out of range [0, {model.m})")
    with np.errstate(divide="ignore"):
        log_pi, log_a, log_b = np.log2(model.pi), np.log2(model.trans), np.log2(model.emit)
    r, n = obs_matrix.shape
    k = model.k
    wide_log_a = _widen(log_a, r)
    log_star = np.empty((r, len(checkpoints)))
    scales = np.empty((n, r))
    scale_cols = scales[:, :, None]
    steps = np.ascontiguousarray(obs_matrix.T, dtype=np.intp)  # steps[t] = y_t of every row
    trans, emit_rows = model.trans, model.emit.T.copy()  # emit_rows[y] = b_.(y)
    cand = np.empty_like(wide_log_a)
    delta, delta_next = np.empty((2, k, r))
    alpha, alpha_next = np.empty((2, r, k))
    pos = 0
    with np.errstate(invalid="ignore"):  # 0 / 0 in a row that died
        for t, y in enumerate(steps):
            if t == 0:
                np.add(log_pi[:, None], log_b.take(y, axis=1), out=delta)      # (k, r)
                np.multiply(model.pi, emit_rows.take(y, axis=0), out=alpha)   # (r, k)
            else:
                _viterbi_step(delta, wide_log_a, cand, out=delta_next)
                np.add(delta_next, log_b.take(y, axis=1), out=delta_next)
                np.matmul(alpha, trans, out=alpha_next)
                np.multiply(alpha_next, emit_rows.take(y, axis=0), out=alpha_next)
                delta, delta_next = delta_next, delta
                alpha, alpha_next = alpha_next, alpha
            np.divide(alpha, np.add.reduce(alpha, axis=1, keepdims=True, out=scale_cols[t]),
                      out=alpha)
            if pos < len(checkpoints) and checkpoints[pos] == t + 1:
                np.maximum.reduce(delta, axis=0, out=log_star[:, pos])
                pos += 1
    dead = scales == 0
    if dead.any():
        t, row = divmod(int(dead.argmax()), r)  # the earliest step, then the first row
        raise ImpossibleObservationError(
            f"impossible observation sequence: zero probability at step {t}", row=row)
    log_p = np.cumsum(np.log2(scales), axis=0)[np.asarray(checkpoints, dtype=np.intp) - 1].T
    return log_star, log_p


def _row(obs: np.ndarray):
    """A 1-d index sequence as the kernel's one-row matrix, and its length
    as the one checkpoint."""
    row = np.asarray(obs)[None, ...]
    return row, [row.shape[-1]]


def viterbi_max_joint(model: HmmModel, obs: np.ndarray) -> float:
    """log2 P* = log2 max_x Pr[X = x, Y = obs]; the kernel's error if Pr[Y = obs] = 0."""
    return float(_recursions(model, *_row(obs))[0][0, 0])


def forward_likelihood(model: HmmModel, obs: np.ndarray) -> float:
    """log2 P = log2 Pr[Y = obs]; the kernel's error, naming the step, if P = 0."""
    return float(_recursions(model, *_row(obs))[1][0, 0])


def conditional_min_entropy_given_obs(model: HmmModel, obs: np.ndarray) -> float:
    """-log2(P*/P) for one observation sequence; non-negative since P* <= P.

    The one-row case of ``entropy_profile_batch``, whose error an impossible
    sequence raises (with ``row == 0``)."""
    return float(entropy_profile_batch(model, *_row(obs))[0, 0])


def entropy_profile_batch(model: HmmModel, obs_matrix: np.ndarray,
                           checkpoints: Sequence[int]) -> np.ndarray:
    """Per-row -log2(P*/P) at several prefix lengths, in one sweep.

    Returns an array of shape (rows, len(checkpoints)).  Both dynamic programs
    expose their prefix quantities at every step, so growth curves come from a
    single pass per sequence.  An impossible row raises
    ImpossibleObservationError carrying its index as ``row``.
    """
    checkpoints = sorted(checkpoints)
    n = obs_matrix.shape[-1]
    if not checkpoints:
        raise ValueError(f"need at least one checkpoint in [1, {n}]")
    if checkpoints[-1] > n:
        raise ValueError("checkpoint beyond sequence length")
    if checkpoints[0] < 1 or len(set(checkpoints)) < len(checkpoints):
        raise ValueError("duplicate or unreachable checkpoints")
    log_star, log_p = _recursions(model, obs_matrix, checkpoints)
    return np.maximum(0.0, log_p - log_star)


def exact_avg_conditional_min_entropy(model: HmmModel, n: int) -> float:
    """-log2 sum over all m^n observation sequences of their max joint P*.

    Enumeration is guarded at m^n <= 1e6; intended as a desk-scale reference
    for validating the sampled estimator.  The Viterbi scores of all m^t
    length-t prefixes are one lexicographic (k, m^t) array: each prefix is
    stepped once, then extended by every symbol.  The last step's two
    (k, k * m^(n-1)) blocks are guarded at BLOCK_GUARD floats each.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = model.m ** n
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration too large: {model.m}^{n} = {total} > {ENUMERATION_GUARD}")
    block = model.k ** 2 * model.m ** (n - 1)
    if block > BLOCK_GUARD:
        raise ValueError(
            f"enumeration too large: its last step holds two ({model.k}, "
            f"{model.k} * {model.m}^{n - 1}) blocks of {block} floats each, "
            f"> {BLOCK_GUARD}")
    with np.errstate(divide="ignore"):
        log_pi, log_a, log_b = np.log2(model.pi), np.log2(model.trans), np.log2(model.emit)
    delta = log_pi[:, None] + log_b                                 # (k, m)
    for _ in range(n - 1):
        wide_log_a = _widen(log_a, delta.shape[1])
        step = _viterbi_step(delta, wide_log_a, np.empty_like(wide_log_a))
        delta = (step[:, :, None] + log_b[:, None, :]).reshape(model.k, -1)
    logs = delta.max(axis=0)
    top = logs.max()
    if top == -np.inf:
        raise ImpossibleObservationError("model assigns zero probability to every sequence")
    s = np.exp2(logs - top).sum()
    return float(max(0.0, -(top + math.log2(s))))


def estimate_avg_conditional_min_entropy(model: HmmModel,
                                         experiments: np.ndarray) -> EntropyEstimate:
    """Average of per-experiment -log2(P*_j / P_j) with sample spread, over
    the rows of an (experiments, n) matrix of alphabet indices.

    Valid as an approximation of the average-case value when the
    per-observation conditional min-entropies are stably distributed.
    """
    n = experiments.shape[-1]
    try:
        arr = entropy_profile_batch(model, experiments, [n])[:, 0]
    except ImpossibleObservationError as exc:
        raise ImpossibleObservationError(f"experiment {exc.row}: {exc}") from None
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return EntropyEstimate(
        mean_bits=float(arr.mean()),
        std_bits=std,
        per_experiment_bits=arr.tolist(),
        n_samples_per_experiment=n,
        n_experiments=arr.size,
    )


def level_states(levels: int) -> tuple:
    """Signal-level state set for a given level count: -(levels-1) .. 0."""
    if not 2 <= levels <= MAX_LEVELS:
        bound = "at least 2" if levels < 2 else f"at most {MAX_LEVELS}"
        raise ValueError(f"levels must be {bound}, got {levels}")
    return tuple(range(-(levels - 1), 1))


def check_level_range(levels: int, **traces: MeasurementTrace) -> tuple:
    """``level_states(levels)``, once every (non-empty) trace, named by its
    keyword, holds only those levels; a level outside them raises ValueError."""
    states = level_states(levels)
    lo = states[0]
    for name, tr in traces.items():
        if tr.levels.min() < lo or tr.levels.max() > 0:
            raise ValueError(
                f"{name} trace has levels outside [{lo}, 0]; clamp during ingestion")
    return states


def fit_hmm_from_traces(hidden: MeasurementTrace, observed: MeasurementTrace,
                        levels: int) -> HmmModel:
    """Counting estimators for pi, transitions and emissions from paired traces.

    a_ij = #(i -> j) / #i as predecessor and likewise for emissions; pi is
    the empirical marginal of the hidden levels.  Rows of unvisited states
    fall back to uniform and a warning is issued.  Every analysis command
    (estimate-entropy, fit-growth, validate-assumptions) fits this one model.
    """
    assert_aligned(hidden, observed)
    if len(hidden) < 2:
        raise ValueError("need at least 2 aligned samples to count transitions")
    states = check_level_range(levels, hidden=hidden, observed=observed)
    k = m = levels
    lo = states[0]

    h = hidden.levels - lo
    o = observed.levels - lo

    pi = np.bincount(h, minlength=k).astype(float)
    pi /= pi.sum()

    trans_counts = np.bincount(h[:-1] * k + h[1:], minlength=k * k).reshape(k, k).astype(float)
    emit_counts = np.bincount(h * m + o, minlength=k * m).reshape(k, m).astype(float)

    def normalize(counts, width, what):
        denom = counts.sum(axis=1, keepdims=True)
        seen = denom > 0
        rows = np.divide(counts, denom, out=np.full_like(counts, 1.0 / width), where=seen)
        empty = [states[i] for i in np.flatnonzero(~seen)]
        if empty:
            warnings.warn(
                f"no {what} counts for state(s) {empty}; rows default to uniform",
                stacklevel=3)
        return rows

    trans = normalize(trans_counts, k, "transition")
    emit = normalize(emit_counts, m, "emission")
    return HmmModel(states=states, symbols=states, pi=pi, trans=trans, emit=emit)


def fit_linear_growth(points: Sequence[tuple]) -> LinearFit:
    """Ordinary least squares through (x, y) points; needs >= 2 distinct x."""
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.unique(xs).size < 2:
        raise ValueError("need at least 2 distinct x values")
    xm, ym = xs.mean(), ys.mean()
    slope = float(((xs - xm) * (ys - ym)).sum() / ((xs - xm) ** 2).sum())
    intercept = float(ym - slope * xm)
    resid = ys - (slope * xs + intercept)
    return LinearFit(slope, intercept, float((resid ** 2).sum()))
