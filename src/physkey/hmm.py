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
lengths.  Its Viterbi scores are state-major, one (k, r) array, so the max
over predecessors reduces the leading axis of a (k, k, r) array of
candidates, elementwise over contiguous (k, r) slabs; the forward
recursion keeps its (r, k) rows for one matrix product per step.  The
single-sequence functions (viterbi_max_joint, which also keeps the argmax
path, and forward_likelihood), the growth profiles, the sampled estimator
and the exact enumeration all call it.  The per-sequence conditional
min-entropy is a one-row batch of the growth profile.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ImpossibleObservationError
from .traces import MeasurementTrace, assert_aligned

_ROW_TOL = 1e-9
ENUMERATION_GUARD = 10 ** 6
SLICE_LEN = 100  # samples per entropy experiment in the reference deployment


def json_int(value) -> int:
    """int() of a count read from JSON, where true and false are not counts."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value}")
    return int(value)


@dataclass(frozen=True)
class HmmModel:
    """k hidden states over m symbols: initial pi, transitions, emissions.

    ``states`` and ``symbols`` carry the actual signal-level values so that
    traces map to indices unambiguously; ``trans`` and ``emit`` are
    row-stochastic.
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

    def symbol_index(self, value: int) -> int:
        try:
            return self.symbols.index(value)
        except ValueError:
            raise ValueError(f"symbol {value} is not in the model alphabet") from None

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
        model = cls(states=tuple(d["states"]), symbols=tuple(d["symbols"]),
                    pi=np.array(d["pi"], float), trans=np.array(d["trans"], float),
                    emit=np.array(d["emit"], float))
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
        if np.any(mat < 0):
            out.append(f"{name} has a negative probability")
        if np.any(mat > 1):
            out.append(f"{name} has an entry > 1")
        sums = mat.sum(axis=1) if mat.ndim == 2 else np.array([mat.sum()])
        for i, s in enumerate(sums):
            if abs(s - 1.0) > _ROW_TOL:
                where = f"row {i} of {name}" if mat.ndim == 2 else name
                out.append(f"{where} sums to {s:.12g}")

    check_rows("pi", model.pi)
    check_rows("trans", model.trans)
    check_rows("emit", model.emit)
    if len(set(model.states)) != k:
        out.append("duplicate state values")
    if len(set(model.symbols)) != m:
        out.append("duplicate symbol values")
    return out


@dataclass(frozen=True)
class ObservationSequence:
    """Indices into the model's symbol alphabet."""

    symbols: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.symbols, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("observation sequence must be a non-empty 1-d array")
        object.__setattr__(self, "symbols", arr)

    def __len__(self) -> int:
        return int(self.symbols.size)


@functools.lru_cache(maxsize=64)
def _alphabet_lookup(symbols: tuple):
    # the alphabet sorted (stably, so a repeated symbol ends on its last
    # index) with each entry's index, both led by a copy of the first entry
    values = np.asarray(symbols)
    order = np.argsort(values, kind="stable")
    lead = np.r_[order[0], order]
    return values[lead], lead


def obs_from_values(model: HmmModel, values: Iterable[int]) -> ObservationSequence:
    """Map raw symbol values (e.g. an eavesdropper trace) to alphabet indices.

    Raises ValueError naming the first value that is not in the alphabet.
    """
    vals = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    vals = vals.astype(np.int64, copy=False)
    ranked, index = _alphabet_lookup(model.symbols)
    # slot of the last alphabet entry <= each value; slot 0 holds the first
    # entry again, which a value below the whole alphabet cannot equal
    slot = np.searchsorted(ranked[1:], vals, side="right")
    missing = ranked[slot] != vals
    if missing.any():
        raise ValueError(
            f"symbol {int(vals[np.argmax(missing)])} is not in the model alphabet")
    return ObservationSequence(index[slot])


def slice_experiments(model: HmmModel, levels: Sequence[int],
                      slice_len: int) -> list:
    """Cut a trace into whole slice_len-sample experiments of alphabet indices.

    The tail shorter than slice_len is dropped before mapping, so a value
    outside the alphabet there is ignored; fewer than slice_len samples give
    no experiments.
    """
    if slice_len < 1:
        raise ValueError(f"slice length must be at least 1, got {slice_len}")
    levels = np.asarray(levels)
    n_slices = levels.size // slice_len
    if n_slices == 0:
        return []
    symbols = obs_from_values(model, levels[:n_slices * slice_len]).symbols
    return [ObservationSequence(row) for row in symbols.reshape(n_slices, slice_len)]


@dataclass(frozen=True)
class StatePath:
    """Indices into the model's state set."""

    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.states.size)


@dataclass(frozen=True)
class EntropyEstimate:
    """Sampled average-case conditional min-entropy with per-experiment spread."""

    mean_bits: float
    std_bits: float
    per_experiment_bits: list
    n_samples_per_experiment: int
    n_experiments: int

    def to_dict(self) -> dict:
        return asdict(self)


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
        return cls(float(d["slope"]), float(d["intercept"]),
                   float(d.get("residual_sum_squares", 0.0)))


def _recursions(model: HmmModel, obs_matrix: np.ndarray, checkpoints: Sequence[int],
                keep_path: bool = False):
    """Viterbi and scaled forward recursions over every row of an (r, n) matrix.

    delta_1(i) = pi_i b_i(y_1);  delta_{t+1}(j) = max_i[delta_t(i) a_ij] b_j(y_{t+1}),
    kept in log2; alpha is the same recursion with a sum for the max, rescaled
    to sum 1 after each step so long sequences (n >= 1e4) do not underflow.
    ``checkpoints`` are sorted prefix lengths in [1, n].  Returns log2 P* and
    log2 P of each row's prefix at each checkpoint (two (r, c) arrays), the
    step at which each row's probability vanished (-1 if it never did; log2 P
    is -inf from there on) and, with ``keep_path``, each row's argmax path as
    an (r, n) array, ties broken toward the lowest state.  An impossible row
    does not raise: exact enumeration sums over such rows.  ``delta`` is
    state-major, (k, r), with cand[i, j, row] = delta[i, row] + log2 a_ij.
    """
    if obs_matrix.min() < 0 or obs_matrix.max() >= model.m:
        raise ValueError(f"observation index out of range [0, {model.m})")
    with np.errstate(divide="ignore"):
        log_pi, log_a, log_b = np.log2(model.pi), np.log2(model.trans), np.log2(model.emit)
    r, n = obs_matrix.shape
    log_star = np.zeros((r, len(checkpoints)))
    log_p = np.zeros((r, len(checkpoints)))
    vanished = np.full(r, -1)
    back = []
    pos = 0
    log_fwd = np.zeros(r)
    for t in range(n):
        if t == 0:
            delta = log_pi[:, None] + log_b[:, obs_matrix[:, 0]]      # (k, r)
            alpha = model.pi[None, :] * model.emit[:, obs_matrix[:, 0]].T
        else:
            cand = delta[:, None, :] + log_a[:, :, None]             # cand[i, j, row]
            if keep_path:
                back.append(cand.argmax(axis=0))                     # first max
            delta = cand.max(axis=0) + log_b[:, obs_matrix[:, t]]
            alpha = (alpha @ model.trans) * model.emit[:, obs_matrix[:, t]].T
        scale = alpha.sum(axis=1)
        if not scale.all():
            dead = scale == 0
            vanished[dead & (vanished < 0)] = t
            log_fwd[dead] = -np.inf
            scale[dead] = 1.0
        alpha /= scale[:, None]
        log_fwd += np.log2(scale)
        if pos < len(checkpoints) and checkpoints[pos] == t + 1:
            log_star[:, pos] = delta.max(axis=0)
            log_p[:, pos] = log_fwd
            pos += 1
    if not keep_path:
        return log_star, log_p, vanished, None
    paths = np.zeros((r, n), dtype=np.int64)
    paths[:, -1] = delta.argmax(axis=0)
    for t in range(n - 1, 0, -1):
        paths[:, t - 1] = back[t - 1][paths[:, t], np.arange(r)]
    return log_star, log_p, vanished, paths


def viterbi_max_joint(model: HmmModel, obs: ObservationSequence):
    """Max joint probability over hidden paths, in log2, plus one argmax path.

    P* = max_x Pr[X = x, Y = obs]; runs in the log domain and breaks ties
    toward the lowest state index.
    """
    log_star, _, _, paths = _recursions(model, obs.symbols[None, :], [len(obs)],
                                        keep_path=True)
    if log_star[0, 0] == -np.inf:
        raise ImpossibleObservationError(
            "impossible observation sequence: all path probabilities vanish")
    return float(log_star[0, 0]), StatePath(paths[0])


def forward_likelihood(model: HmmModel, obs: ObservationSequence) -> float:
    """Total observation probability Pr[Y = obs] in log2."""
    _, log_p, vanished, _ = _recursions(model, obs.symbols[None, :], [len(obs)])
    if vanished[0] >= 0:
        raise ImpossibleObservationError(
            f"impossible observation sequence: zero probability at step {vanished[0]}")
    return float(log_p[0, 0])


def conditional_min_entropy_given_obs(model: HmmModel, obs: ObservationSequence) -> float:
    """-log2(P*/P) for one observation sequence; non-negative since P* <= P.

    The one-row case of ``entropy_profile_batch``, whose error an impossible
    sequence raises (with ``row == 0``)."""
    return float(entropy_profile_batch(model, obs.symbols[None, :], [len(obs)])[0, 0])


def entropy_profile_batch(model: HmmModel, obs_matrix: np.ndarray,
                           checkpoints: Sequence[int]) -> np.ndarray:
    """Per-row -log2(P*/P) at several prefix lengths, in one sweep.

    Returns an array of shape (rows, len(checkpoints)).  Both dynamic programs
    expose their prefix quantities at every step, so growth curves come from a
    single pass per sequence.  An impossible row raises
    ImpossibleObservationError carrying its index as ``row``.
    """
    checkpoints = sorted(checkpoints)
    n = obs_matrix.shape[1]
    if not checkpoints:
        raise ValueError(f"need at least one checkpoint in [1, {n}]")
    if checkpoints[-1] > n:
        raise ValueError("checkpoint beyond sequence length")
    if checkpoints[0] < 1 or len(set(checkpoints)) < len(checkpoints):
        raise ValueError("duplicate or unreachable checkpoints")
    log_star, log_p, vanished, _ = _recursions(model, obs_matrix, checkpoints)
    if vanished.max() >= 0:
        t = vanished[vanished >= 0].min()
        raise ImpossibleObservationError(
            f"impossible observation sequence: zero probability at step {t}",
            row=int(np.argmax(vanished == t)))
    return np.maximum(0.0, log_p - log_star)


def exact_avg_conditional_min_entropy(model: HmmModel, n: int) -> float:
    """-log2 sum over all m^n observation sequences of their max joint P*.

    Enumeration is guarded at m^n <= 1e6; intended as a desk-scale reference
    for validating the sampled estimator.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = model.m ** n
    if total > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration too large: {model.m}^{n} = {total} > {ENUMERATION_GUARD}")
    # all sequences as base-m digit rows, chunked to bound memory
    chunk = 65536
    powers = model.m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    log_terms = []
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        block = (idx[:, None] // powers[None, :]) % model.m
        log_terms.append(_recursions(model, block, [n])[0][:, 0])
    logs = np.concatenate(log_terms)
    top = logs.max()
    if top == -np.inf:
        raise ImpossibleObservationError("model assigns zero probability to every sequence")
    s = np.exp2(logs - top).sum()
    return float(max(0.0, -(top + math.log2(s))))


def estimate_avg_conditional_min_entropy(
        model: HmmModel, experiments: Sequence[ObservationSequence]) -> EntropyEstimate:
    """Average of per-experiment -log2(P*_j / P_j) with sample spread.

    Valid as an approximation of the average-case value when the
    per-observation conditional min-entropies are stably distributed.
    """
    if len(experiments) < 1:
        raise ValueError("need at least one experiment")
    lengths = {len(e) for e in experiments}
    if len(lengths) != 1:
        raise ValueError(f"experiments have mixed lengths {sorted(lengths)}")
    n = lengths.pop()
    obs_matrix = np.stack([e.symbols for e in experiments])
    try:
        arr = entropy_profile_batch(model, obs_matrix, [n])[:, 0]
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
    if levels < 2:
        raise ValueError("need at least 2 levels")
    return tuple(range(-(levels - 1), 1))


def fit_hmm_from_traces(hidden: MeasurementTrace, observed: MeasurementTrace,
                        levels: int, smoothing: float = 0.0) -> HmmModel:
    """Counting estimators for pi, transitions and emissions from paired traces.

    a_ij = (#(i -> j) + smoothing) / (#i as predecessor + k * smoothing) and
    likewise for emissions; pi is the empirical marginal of the hidden levels.
    With zero smoothing, rows of unvisited states fall back to uniform and a
    warning is issued.
    """
    assert_aligned(hidden, observed)
    if len(hidden) < 2:
        raise ValueError("need at least 2 aligned samples to count transitions")
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")
    states = level_states(levels)
    k = m = levels
    lo = states[0]

    for name, tr in (("hidden", hidden), ("observed", observed)):
        n_distinct = np.unique(tr.levels).size
        if n_distinct > levels:
            raise ValueError(
                f"levels={levels} is smaller than the {name} alphabet ({n_distinct})")
        if tr.levels.min() < lo or tr.levels.max() > 0:
            raise ValueError(
                f"{name} trace has levels outside [{lo}, 0]; clamp during ingestion")

    h = hidden.levels - lo
    o = observed.levels - lo

    pi = np.bincount(h, minlength=k).astype(float)
    pi /= pi.sum()

    trans_counts = np.bincount(h[:-1] * k + h[1:], minlength=k * k).reshape(k, k).astype(float)
    emit_counts = np.bincount(h * m + o, minlength=k * m).reshape(k, m).astype(float)

    def normalize(counts, width, what):
        sm = counts + smoothing
        denom = sm.sum(axis=1, keepdims=True)
        seen = denom > 0
        rows = np.divide(sm, denom, out=np.full_like(sm, 1.0 / width), where=seen)
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
