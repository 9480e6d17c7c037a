"""Statistical validation of the channel abstraction.

Four falsifiable properties back the entropy estimator: the hidden levels
form a stationary memoryless Markov chain, the eavesdropper's observation
law is stationary, observations are conditionally independent, and the
per-experiment conditional min-entropy is stably distributed.  This module
implements the corresponding checks: lagged Pearson correlation with
t-test significance, two-sample Kolmogorov-Smirnov tests on randomized
partitions, and the per-slice entropy spread.

The distribution tails come from the standard library and numpy: one
regularized incomplete beta gives the planner's binomial CDF and the
t-test, and one vectorised Kolmogorov tail gives every K-S p-value.

RSSI data is heavily tied; the K-S statistic is taken over the merged
discrete support, which makes the asymptotic p-values conservative.  Every
K-S test here runs on counts over that support: D is the largest gap
between the cumulative counts of two samples, each divided by its size.
The tests come in batches, one sample pair per row of two count matrices,
so each of the suite's three K-S tests is one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import hmm
from .traces import MeasurementTrace, assert_aligned

ALPHA = 0.05  # the suite's significance level, in every one of its tests
TRIALS = 200  # random partitions per K-S test of the suite (a tenth for test (d))
MAX_LAG = 6  # the longest lag of both of the suite's correlation probes
LAG_ROWS = 2000  # the suite's lag-profile anchors and longest transition window
MIN_COND_SAMPLES = 8  # fewest samples per side of a window or conditional K-S test


def _stirlerr(z: float) -> float:
    """log Gamma(z + 1) - log(sqrt(2 pi z) (z / e)^z): the asymptotic series
    above 15, where that difference cancels."""
    if z > 15.0:
        z2 = z * z
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / z2) / z2) / z2) / z2) / z
    return math.lgamma(z + 1.0) - (z + 0.5) * math.log(z) + z - 0.5 * math.log(2.0 * math.pi)


def _deviance(k: float, mean: float) -> float:
    """k log(k / mean) + mean - k, small near k = mean and computed so."""
    return k * math.log1p((k - mean) / mean) + mean - k


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and y = 1 - x:
    x^a y^b / (a B(a, b)) over the continued fraction 1 + d_1 / (1 + d_2 /
    (1 + ...)) by the modified Lentz method, in O(sqrt(a + b)) terms; past
    x = (a + 1) / (a + b + 2) it is 1 - I_y(b, a).  The front factor is
    Stirling's formula with its error terms and the deviances of a and b
    from (a + b) x and (a + b) y, so no term as large as log Gamma(a + b)
    cancels."""
    if x == 0.0 or y == 0.0:
        return float(y == 0.0)
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    n = a + b
    front = math.sqrt(b / (2.0 * math.pi * a * n)) * math.exp(
        _stirlerr(n) - _stirlerr(a) - _stirlerr(b) - _deviance(a, n * x) - _deviance(b, n * y))
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1, 2 * int(100 + 10 * math.sqrt(n))):
        m = i // 2  # d_2m = m (b - m) x / .., d_2m+1 = -(a + m)(a + b + m) x / ..
        num = m * (b - m) if i % 2 == 0 else -(a + m) * (n + m)
        step = num * x / ((a + i - 1) * (a + i))
        d = 1.0 / ((1.0 + step * d) or 1e-300)
        c = (1.0 + step / c) or 1e-300
        f *= c * d
        if i % 2 and abs(c * d - 1.0) < 1e-15:  # after each pair of steps
            return front / f
    raise ArithmeticError(f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge")


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P[Binomial(n, p) <= k] = I_{1-p}(n - k, k + 1)."""
    if k < 0 or k >= n:
        return float(k >= 0)
    if p in (0.0, 1.0):
        return float(p == 0.0)
    return _betainc(n - k, k + 1, 1.0 - p, p)


def _pearson_p_value(r: float, n: int) -> float:
    """Two-sided t-test p-value of a Pearson r over n points: with
    t^2 = (n - 2) r^2 / (1 - r^2) on n - 2 degrees of freedom,
    P[|T| >= |t|] = I_{1-r^2}((n - 2) / 2, 1 / 2)."""
    return _betainc((n - 2) / 2, 0.5, 1.0 - r * r, r * r)


def _kolmogorov_sf(lam) -> np.ndarray:
    """Kolmogorov tail Q(lambda) = P[K > lambda] of every entry of lam.

    From lambda = 1, Q = 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2), whose
    fifth term is under 1e-20 of Q.  Below 1, where a truncated series falls
    short of Q(0) = 1, the theta form Q = 1 - sqrt(2 pi) / lambda
    sum_{j>=1} exp(-(2j - 1)^2 pi^2 / (8 lambda^2)), whose fourth term is
    under 1e-25 of Q; at or below 0.1 its sum is under 1e-50 and Q = 1.
    Each series is summed term by term over its own entries, so an entry's
    tail is the same alone as in any batch."""
    lam = np.asarray(lam, dtype=float)
    q = np.ones_like(lam)
    low, high = (lam > 0.1) & (lam < 1.0), lam >= 1.0
    w = -np.pi ** 2 / (8.0 * lam[low] ** 2)
    s = np.exp(w) + np.exp(9.0 * w) + np.exp(25.0 * w)
    q[low] = 1.0 - math.sqrt(2.0 * math.pi) / lam[low] * s
    v = -2.0 * lam[high] ** 2
    q[high] = 2.0 * (np.exp(v) - np.exp(4.0 * v) + np.exp(9.0 * v) - np.exp(16.0 * v))
    return q


@dataclass(frozen=True)
class CorrelationReport:
    """Pearson r of a series against its lagged copies, with significance."""

    lags: list
    r: list
    significant: list


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
        """The report as JSON-ready dicts: the nested reports converted,
        ``details`` the report's own dict."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "markov_lag_profile": {f.name: list(getattr(self.markov_lag_profile, f.name))
                                       for f in fields(CorrelationReport)},
                "stable_entropy": self.stable_entropy.to_dict()}


def pearson_significance(x, y, alpha: float = 0.05):
    """Sample Pearson r with two-sided t-test significance at level alpha;
    a non-finite sample is refused by its index."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 points")
    with np.errstate(invalid="ignore", over="ignore"):  # refused below, by sample
        xc = x - x.mean()
        yc = y - y.mean()
        vx = float(xc @ xc)
        vy = float(yc @ yc)
    # a non-finite sample makes its variance NaN, and finite variances bound
    # the covariance, so r is finite when both are
    if not (math.isfinite(vx) and math.isfinite(vy)):
        bad = _first_marked(lambda v: ~np.isfinite(v), x=x, y=y)
        raise ValueError(f"non-finite sample: {bad}" if bad else
                         "samples too large: their variance overflows a float")
    if vx == 0.0 or vy == 0.0:
        raise ValueError("zero-variance input")
    scale = math.sqrt(vx * vy)
    if not 0.0 < scale < math.inf:  # the product left the float range
        scale = math.sqrt(vx) * math.sqrt(vy)
    r = max(-1.0, min(1.0, float(xc @ yc) / scale))
    return r, _pearson_p_value(r, n) < alpha


def _first_marked(mark, **samples: np.ndarray) -> str:
    """"name[i] = value" of the first entry of the samples, in argument
    order, that ``mark`` marks, or "" if it marks none."""
    for name, v in samples.items():
        bad = np.flatnonzero(mark(v))
        if bad.size:
            return f"{name}[{bad[0]}] = {v[bad[0]]}"
    return ""


def _probe(x: np.ndarray, y: np.ndarray, alpha: float, lag: int, x_name: str,
           y_name: str):
    """pearson_significance of one correlation probe between samples of the
    traces x_name and y_name; when a side holds a single level, the
    ValueError names its trace and the probe's lag."""
    try:
        return pearson_significance(x, y, alpha)
    except ValueError:
        for name, v in ((x_name, x), (y_name, y)):
            if v.size and v.min() == v.max():
                raise ValueError(f"zero-variance input: the {name} samples of the lag-{lag} "
                                 f"probe hold a single level ({v[0]:g}); the correlation "
                                 "probes need two") from None
        raise


def lag_correlation_profile(trace: MeasurementTrace, max_lag: int, rows: int,
                            alpha: float = 0.05, seed: int = 0) -> CorrelationReport:
    """Correlate X_i against X_{i-k} for k = 0..max_lag over random anchors.

    Builds a rows x (max_lag + 1) matrix whose row vectors are
    (X_i, X_{i-1}, ..., X_{i-max_lag}) at uniformly random anchors i, then
    correlates column 0 against every other column.
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be at least 1, got {max_lag}")
    if rows < 3:
        raise ValueError(f"rows must be at least 3, got {rows}")
    levels = trace.levels.astype(float)
    n = levels.size
    if n <= max_lag + 1:
        raise ValueError(f"trace too short: {n} samples for max_lag={max_lag}")
    rng = hmm.seeded_rng(seed)
    anchors = rng.integers(max_lag, n, size=rows)
    lag_idx = anchors[:, None] - np.arange(max_lag + 1)[None, :]
    matrix = levels[lag_idx]
    rs, sig = [], []
    for k in range(max_lag + 1):
        r, s = _probe(matrix[:, 0], matrix[:, k], alpha, k, trace.node_id, trace.node_id)
        rs.append(r)
        sig.append(bool(s))
    return CorrelationReport(list(range(max_lag + 1)), rs, sig)


def ks_two_sample(x, y, alpha: float = 0.05) -> KsReport:
    """Two-sample K-S test with asymptotic p-value (ne = nm / (n + m))."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 8 or y.size < 8:
        raise ValueError("each sample needs at least 8 points")
    bad = _first_marked(np.isnan, x=x, y=y)  # ranks order infinities, not NaN
    if bad:
        raise ValueError(f"NaN sample: {bad}; a K-S test ranks its samples")
    _, rank = np.unique(np.concatenate([x, y]), return_inverse=True)
    cx, cy = (np.bincount(r, minlength=rank.max() + 1) for r in np.split(rank, [x.size]))
    (d,), (p,), (reject,) = _ks_counts(cx[None], cy[None], alpha)
    return KsReport(statistic=float(d), p_value=float(p), reject=bool(reject))


def _ks_counts(c1: np.ndarray, c2: np.ndarray, alpha: float):
    """K-S tests of sample pairs given as counts over one sorted support, one
    pair per row of c1 and c2: the empirical CDFs are the running counts over
    the sizes.  Returns each row's statistic, p-value and rejection."""
    n1, n2 = c1.sum(axis=1), c2.sum(axis=1)
    d = np.abs(c1.cumsum(axis=1) / n1[:, None] - c2.cumsum(axis=1) / n2[:, None]).max(axis=1)
    p = _kolmogorov_sf(np.sqrt(n1 * n2 / (n1 + n2)) * d)
    return d, p, p < alpha


def _random_halves(rng: np.random.Generator, counts: np.ndarray, draws: int):
    """``draws`` random halves' counts, one per row, and their complements (one
    larger if n is odd)."""
    halves = rng.multivariate_hypergeometric(counts, int(counts.sum()) // 2, size=draws)
    return halves, counts - halves


def _window_counts(codes: np.ndarray, starts: np.ndarray, w: int, levels: int) -> np.ndarray:
    """Level histograms of windows: out[..., v] counts the i in [s, s + w)
    with codes[i] = v, for every start s of ``starts`` (with s + w <= n) and
    every v < ``levels``.

    Each sample's key v * n + i sorts the positions of level 0, then those
    of level 1, ..., so a window's count of v is the number of keys in
    [v * n + s, v * n + s + w): two searches.  With the starts sorted, the
    needles v * n + s ascend level by level, and each search walks the keys
    once; the counts are scattered back to the starts' own order.  Memory is
    O(n + starts x levels).
    """
    n = codes.size
    keys = np.sort(codes * n + np.arange(n))
    flat = starts.reshape(-1)
    order = np.argsort(flat)
    lo = np.arange(levels)[:, None] * n + flat[order]  # (levels, starts), ascending
    out = np.empty((flat.size, levels), dtype=np.intp)
    out[order] = (np.searchsorted(keys, lo + w) - np.searchsorted(keys, lo)).T
    return out.reshape(*starts.shape, levels)


def _ranks(levels: np.ndarray) -> np.ndarray:
    """Each sample's rank among the distinct values of ``levels`` (the
    inverse ``np.unique`` returns), from one bincount over their range."""
    shifted = levels - levels.min()
    present = np.bincount(shifted) > 0
    return (np.cumsum(present) - 1)[shifted]


def validate_assumptions(alice: MeasurementTrace, eve: MeasurementTrace, *,
                         levels: int) -> AssumptionReport:
    """Run the assumption suite on an aligned (alice, eve) trace pair.

    One fixed configuration, of which the caller sets only the HMM's
    ``levels``: TRIALS K-S partitions per test (a tenth of them for the
    conditional-observation test), hmm.SLICE_LEN-sample entropy
    experiments, lags up to MAX_LAG in both correlation probes, every test
    at level ALPHA, and a generator seeded with 0.  Sub-tests that lack
    data are skipped and recorded in details rather than failing the suite,
    but a correlation probe whose samples of one trace hold one level fails
    it: the probes need two.  So does a trace holding one level, which the
    lag-0 probe names for alice and the lag-1 cross-lag probe for eve.
    Stage (e) fits the model estimate-entropy and fit-growth fit, so
    ``stable_entropy`` is estimate-entropy's estimate at hmm.SLICE_LEN;
    that model's level range is checked first, before any stage.

    A partition is a multivariate hypergeometric draw of one random half's
    counts, and the complement (one sample larger when n is odd), so tests
    (b) and (d) depend on a trace only through its level counts.
    """
    assert_aligned(alice, eve)
    n = len(alice)
    if n < 20 * hmm.SLICE_LEN:
        raise ValueError(f"need at least {20 * hmm.SLICE_LEN} samples, got {n}")
    hmm.check_level_range(levels, alice=alice, eve=eve)  # so the ranks' bincount is short
    rng = hmm.seeded_rng(0)
    details: dict = {}

    # (a) memorylessness probe: lag profile of Alice's own samples
    profile = lag_correlation_profile(alice, max_lag=MAX_LAG, rows=LAG_ROWS, alpha=ALPHA,
                                      seed=int(rng.integers(2 ** 32)))

    # the K-S tests count levels: xc and yc rank each sample among its
    # trace's distinct values, which is all a K-S statistic depends on
    xc, yc = _ranks(alice.levels), _ranks(eve.levels)
    lx, ly = int(xc.max()) + 1, int(yc.max()) + 1

    # (b) identical distribution: K-S on random half partitions
    rejects = _ks_counts(*_random_halves(rng, np.bincount(xc), TRIALS), ALPHA)[2]
    identical_rate = float(rejects.mean())

    # (c) stationary transitions: successor samples from two disjoint time
    # windows drawn fresh each trial (fresh windows keep the trials
    # decorrelated, so the rejection rate concentrates near its level)
    w = max(MIN_COND_SAMPLES, min(LAG_ROWS, n // 8))
    starts = np.empty((2, TRIALS), dtype=np.int64)
    for t in range(TRIALS):
        s1 = int(rng.integers(0, n - 2 * w - 1))
        starts[:, t] = s1, int(rng.integers(s1 + w, n - w - 1))
    windows = _window_counts(xc, starts + 1, w, lx)
    transition_rate = float(_ks_counts(*windows, ALPHA)[2].mean())

    # (d) stationary observation: per conditioning level x, Y | X = x (row x
    # of a half's count table) across a random half of the (x, y) pairs,
    # one row per (draw, x); levels short of samples on either side are skipped
    joint = np.bincount(xc * ly + yc, minlength=lx * ly)  # cell x * ly + y
    c1, c2 = (h.reshape(-1, ly) for h in _random_halves(rng, joint, TRIALS // 10))
    kept = (c1.sum(axis=1) >= MIN_COND_SAMPLES) & (c2.sum(axis=1) >= MIN_COND_SAMPLES)
    tests = int(kept.sum())
    rejects = _ks_counts(c1[kept], c2[kept], ALPHA)[2]
    observation_rate = float(rejects.mean()) if tests else 0.0
    details["stationary_observation_tests"] = tests
    details["stationary_observation_skipped"] = kept.size - tests

    # independent-observation probe (indirect): the eavesdropper's reading
    # must correlate with the source only at lag 0
    x = alice.levels.astype(float)
    y = eve.levels.astype(float)
    cross = {}
    for lag in range(1, MAX_LAG + 1):
        r_fwd, sig_fwd = _probe(y[:-lag], x[lag:], ALPHA, lag, "eve", "alice")
        r_bwd, sig_bwd = _probe(y[lag:], x[:-lag], ALPHA, lag, "eve", "alice")
        cross[lag] = {"r_forward": r_fwd, "significant_forward": bool(sig_fwd),
                      "r_backward": r_bwd, "significant_backward": bool(sig_bwd)}
    r0, sig0 = pearson_significance(y, x, ALPHA)
    details["cross_lag"] = {"lag0_r": r0, "lag0_significant": bool(sig0),
                            "nonzero_lags": cross}

    # (e) stable entropy: per-slice conditional min-entropy spread under the
    # counting-fitted model estimate-entropy and fit-growth use
    model = hmm.fit_hmm_from_traces(alice, eve, levels=levels)
    experiments = hmm.slice_experiments(model, eve.levels, hmm.SLICE_LEN)
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
        alpha=ALPHA,
        details=details,
    )
