"""Statistical validation of the channel abstraction.

Four falsifiable properties back the entropy estimator: the hidden levels
form a stationary memoryless Markov chain, the eavesdropper's observation
law is stationary, observations are conditionally independent, and the
per-experiment conditional min-entropy is stably distributed.  This module
implements the corresponding checks: lagged Pearson correlation with
t-test significance, two-sample Kolmogorov-Smirnov tests on randomized
partitions, and the per-slice entropy spread.

RSSI data is heavily tied; the K-S statistic is taken over the merged
discrete support, which makes the asymptotic p-values conservative.  The
suite's own K-S tests run on level counts: D is the largest gap between
the cumulative counts of two samples, each divided by its size, which is
the same float ``ks_two_sample`` computes from the sorted samples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np
from scipy.special import kolmogorov, stdtr

from . import hmm
from .traces import MeasurementTrace, assert_aligned

LAG_ROWS = 2000  # the suite's lag-profile anchors and longest transition window
MIN_COND_SAMPLES = 8  # fewest samples per side of a window or conditional K-S test


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson r of a series against its lagged copies, with significance."""

    lags: list
    r: list
    significant: list

    def to_csv(self) -> str:
        lines = ["lag,r,significant"]
        for lag, r, sig in zip(self.lags, self.r, self.significant):
            lines.append(f"{lag},{r:.6f},{int(sig)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class KsReport:
    statistic: float
    p_value: float
    reject: bool


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the full assumption suite on one aligned trace pair."""

    markov_lag_profile: CorrelationReport
    identical_distribution_rejection_rate: float
    stationary_transition_rejection_rate: float
    stationary_observation_rejection_rate: float
    stable_entropy: hmm.EntropyEstimate
    alpha: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def pearson_significance(x, y, alpha: float = 0.05):
    """Sample Pearson r with two-sided t-test significance at level alpha."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 points")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero-variance input")
    r = float(xc @ yc) / math.sqrt(vx * vy)
    r = max(-1.0, min(1.0, r))
    if abs(r) >= 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return r, p < alpha


def lag_correlation_profile(trace: MeasurementTrace, max_lag: int, rows: int,
                            alpha: float = 0.05, seed: int = 0) -> CorrelationReport:
    """Correlate X_i against X_{i-k} for k = 0..max_lag over random anchors.

    Builds a rows x (max_lag + 1) matrix whose row vectors are
    (X_i, X_{i-1}, ..., X_{i-max_lag}) at uniformly random anchors i, then
    correlates column 0 against every other column.
    """
    levels = trace.levels.astype(float)
    n = levels.size
    if n <= max_lag + 1:
        raise ValueError(f"trace too short: {n} samples for max_lag={max_lag}")
    rng = np.random.default_rng(seed)
    anchors = rng.integers(max_lag, n, size=rows)
    lag_idx = anchors[:, None] - np.arange(max_lag + 1)[None, :]
    matrix = levels[lag_idx]
    rs, sig = [], []
    for k in range(max_lag + 1):
        r, s = pearson_significance(matrix[:, 0], matrix[:, k], alpha)
        rs.append(r)
        sig.append(bool(s))
    return CorrelationReport(list(range(max_lag + 1)), rs, sig)


def _kolmogorov_sf(lam: float) -> float:
    # Q(lambda) = 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2), which tends
    # to 1 as lambda -> 0, where a truncated series falls short
    return float(kolmogorov(lam))


def ks_two_sample(x, y, alpha: float = 0.05) -> KsReport:
    """Two-sample K-S test with asymptotic p-value (ne = nm / (n + m))."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size < 8 or y.size < 8:
        raise ValueError("each sample needs at least 8 points")
    support = np.concatenate([x, y])
    support.sort()
    fx = np.searchsorted(x, support, side="right") / x.size
    fy = np.searchsorted(y, support, side="right") / y.size
    d = float(np.abs(fx - fy).max())
    ne = x.size * y.size / (x.size + y.size)
    p = _kolmogorov_sf(math.sqrt(ne) * d)
    return KsReport(statistic=d, p_value=p, reject=p < alpha)


def _ks_counts(c1: np.ndarray, c2: np.ndarray, alpha: float) -> KsReport:
    """``ks_two_sample`` of two samples given as counts over one sorted
    support: the empirical CDFs are the running counts over the sizes."""
    c1, c2 = c1.tolist(), c2.tolist()  # a handful of levels: Python beats numpy
    n1, n2 = sum(c1), sum(c2)
    d = max(abs(a / n1 - b / n2) for a, b in zip(accumulate(c1), accumulate(c2)))
    p = _kolmogorov_sf(math.sqrt(n1 * n2 / (n1 + n2)) * d)
    return KsReport(statistic=d, p_value=p, reject=p < alpha)


def _random_half_indices(rng: np.random.Generator, n: int):
    perm = rng.permutation(n)
    half = n // 2
    return perm[:half], perm[half:2 * half]


def validate_assumptions(alice: MeasurementTrace, eve: MeasurementTrace, *,
                         alpha: float = 0.05, trials: int = 200,
                         slice_len: int = hmm.SLICE_LEN, max_lag: int = 6,
                         levels: int | None = None, seed: int = 0) -> AssumptionReport:
    """Run the assumption suite on an aligned (alice, eve) trace pair.

    ``trials`` K-S partitions per test (a tenth of them for the
    conditional-observation test), ``slice_len``-sample entropy
    experiments, lags up to ``max_lag`` (at least 1) in both correlation
    probes, and an HMM over ``levels`` levels (inferred from the traces
    when None).  Sub-tests that lack data are skipped and recorded in
    details rather than failing the suite.
    """
    assert_aligned(alice, eve)
    n = len(alice)
    if slice_len < 1:
        raise ValueError(f"slice_len must be at least 1, got {slice_len}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if max_lag < 1:
        raise ValueError(f"max_lag must be at least 1, got {max_lag}")
    if n < 20 * slice_len:
        raise ValueError(f"need at least {20 * slice_len} samples, got {n}")
    rng = np.random.default_rng(seed)
    details: dict = {}

    # (a) memorylessness probe: lag profile of Alice's own samples
    profile = lag_correlation_profile(alice, max_lag=max_lag,
                                      rows=LAG_ROWS, alpha=alpha,
                                      seed=int(rng.integers(2 ** 32)))

    # the K-S tests count levels: xc and yc rank each sample among its
    # trace's distinct values, which is all a K-S statistic depends on
    xc, yc = (np.unique(t.levels, return_inverse=True)[1] for t in (alice, eve))
    lx, ly = int(xc.max()) + 1, int(yc.max()) + 1

    # (b) identical distribution: K-S on random half partitions
    rejects = 0
    for _ in range(trials):
        i1, i2 = _random_half_indices(rng, n)
        rejects += _ks_counts(np.bincount(xc[i1], minlength=lx),
                              np.bincount(xc[i2], minlength=lx), alpha).reject
    identical_rate = rejects / trials

    # (c) stationary transitions: successor samples from two disjoint time
    # windows drawn fresh each trial (fresh windows keep the trials
    # decorrelated, so the rejection rate concentrates near its level)
    rejects = 0
    w = max(MIN_COND_SAMPLES, min(LAG_ROWS, n // 8))
    for _ in range(trials):
        s1 = int(rng.integers(0, n - 2 * w - 1))
        s2 = int(rng.integers(s1 + w, n - w - 1))
        rejects += _ks_counts(np.bincount(xc[s1 + 1:s1 + w + 1], minlength=lx),
                              np.bincount(xc[s2 + 1:s2 + w + 1], minlength=lx),
                              alpha).reject
    transition_rate = rejects / trials

    # (d) stationary observation: per conditioning level, Y|X=x across a
    # random index partition
    rejects = 0
    tests = 0
    skipped_levels = 0
    joint = xc * ly + yc  # row x_level of a count table holds Y | X = x_level
    for _ in range(max(1, trials // 10)):
        i1, i2 = _random_half_indices(rng, n)
        t1, t2 = (np.bincount(joint[i], minlength=lx * ly).reshape(lx, ly)
                  for i in (i1, i2))
        for c1, c2 in zip(t1, t2):
            if c1.sum() < MIN_COND_SAMPLES or c2.sum() < MIN_COND_SAMPLES:
                skipped_levels += 1
                continue
            tests += 1
            rejects += _ks_counts(c1, c2, alpha).reject
    observation_rate = rejects / tests if tests else 0.0
    details["stationary_observation_tests"] = tests
    details["stationary_observation_skipped"] = skipped_levels

    # independent-observation probe (indirect): the eavesdropper's reading
    # must correlate with the source only at lag 0
    x = alice.levels.astype(float)
    y = eve.levels.astype(float)
    cross = {}
    for lag in range(1, max_lag + 1):
        r_fwd, sig_fwd = pearson_significance(y[:-lag], x[lag:], alpha)
        r_bwd, sig_bwd = pearson_significance(y[lag:], x[:-lag], alpha)
        cross[lag] = {"r_forward": r_fwd, "significant_forward": bool(sig_fwd),
                      "r_backward": r_bwd, "significant_backward": bool(sig_bwd)}
    r0, sig0 = pearson_significance(y, x, alpha)
    details["cross_lag"] = {"lag0_r": r0, "lag0_significant": bool(sig0),
                            "nonzero_lags": cross}

    # (e) stable entropy: per-slice conditional min-entropy spread under a
    # counting-fitted model
    if levels is None:
        levels = int(1 - min(alice.levels.min(), eve.levels.min()))
    model = hmm.fit_hmm_from_traces(alice, eve, levels=levels, smoothing=1e-3)
    experiments = hmm.slice_experiments(model, eve.levels, slice_len)
    stable = hmm.estimate_avg_conditional_min_entropy(model, experiments)
    details["levels"] = levels
    details["n_slices"] = len(experiments)
    details["stable_entropy_cv"] = (stable.std_bits / stable.mean_bits
                                    if stable.mean_bits > 0 else float("inf"))

    return AssumptionReport(
        markov_lag_profile=profile,
        identical_distribution_rejection_rate=identical_rate,
        stationary_transition_rejection_rate=transition_rate,
        stationary_observation_rejection_rate=observation_rate,
        stable_entropy=stable,
        alpha=alpha,
        details=details,
    )
