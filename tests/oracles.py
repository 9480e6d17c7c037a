"""Reference computations, independent of the package's dynamic programs.

The brute-force functions enumerate hidden-state paths explicitly and
multiply probabilities directly.  scalar_viterbi_log2 and
scalar_forward_log2 run the two recursions one sequence at a time, as
separate code from the batched kernel under test.
"""

import decimal
import itertools
import math
import re

import numpy as np


def enumerate_paths(k: int, n: int) -> np.ndarray:
    return np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)


def path_probs(model, paths: np.ndarray) -> np.ndarray:
    """Pr[X = path] for every row, by direct multiplication."""
    p = model.pi[paths[:, 0]].copy()
    for t in range(1, paths.shape[1]):
        p *= model.trans[paths[:, t - 1], paths[:, t]]
    return p


def joint_probs(model, paths: np.ndarray, obs) -> np.ndarray:
    """Pr[X = path, Y = obs] for every row."""
    obs = np.asarray(obs, dtype=np.int64)
    p = path_probs(model, paths)
    for t in range(obs.size):
        p = p * model.emit[paths[:, t], obs[t]]
    return p


def brute_viterbi(model, obs):
    """(max joint probability, argmax path) over explicit enumeration."""
    obs = np.asarray(obs, dtype=np.int64)
    paths = enumerate_paths(model.k, obs.size)
    joint = joint_probs(model, paths, obs)
    best = int(np.argmax(joint))
    return float(joint[best]), paths[best]


def brute_forward(model, obs) -> float:
    obs = np.asarray(obs, dtype=np.int64)
    paths = enumerate_paths(model.k, obs.size)
    return float(joint_probs(model, paths, obs).sum())


def brute_exact_avg_bits(model, n: int, chunk: int = 4096) -> float:
    """-log2 sum over all observation sequences of max-path joint probability.

    Full joint-table enumeration: paths x observation sequences, chunked
    over observation sequences to bound memory.
    """
    paths = enumerate_paths(model.k, n)
    prior = path_probs(model, paths)
    total_obs = model.m ** n
    powers = model.m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    acc = 0.0
    for lo in range(0, total_obs, chunk):
        idx = np.arange(lo, min(lo + chunk, total_obs), dtype=np.int64)
        ys = (idx[:, None] // powers[None, :]) % model.m  # (c, n)
        joint = np.broadcast_to(prior[:, None], (paths.shape[0], ys.shape[0])).copy()
        for t in range(n):
            joint *= model.emit[paths[:, t][:, None], ys[None, :, t]]
        acc += joint.max(axis=0).sum()
    return -np.log2(acc)


def memoryless_exact_bits(model, n: int) -> float:
    """Exact average-case conditional min-entropy of n samples of a chain
    whose every transition row equals pi: n * h with
    h = -log2 sum_y max_x pi_x b_x(y), since the sum over sequences of the
    max joint probability factors per sample."""
    if not np.allclose(model.trans, model.pi):
        raise ValueError("closed form needs every transition row equal to pi")
    return -n * math.log2((model.pi[:, None] * model.emit).max(axis=0).sum())


def scalar_viterbi_log2(model, obs) -> float:
    """log2 P* of one sequence by the log-domain Viterbi loop over a state vector."""
    with np.errstate(divide="ignore"):
        log_pi, log_a, log_b = np.log2(model.pi), np.log2(model.trans), np.log2(model.emit)
    obs = np.asarray(obs, dtype=np.int64)
    k = model.k
    delta = log_pi + log_b[:, obs[0]]
    for t in range(1, obs.size):
        cand = delta[:, None] + log_a          # cand[i, j]
        best = np.argmax(cand, axis=0)
        delta = cand[best, np.arange(k)] + log_b[:, obs[t]]
    return float(delta.max())


def scalar_forward_log2(model, obs) -> float:
    """log2 P of one sequence by the forward loop, rescaled at every step."""
    obs = np.asarray(obs, dtype=np.int64)
    alpha = model.pi * model.emit[:, obs[0]]
    log_p = 0.0
    for t in range(obs.size):
        if t:
            alpha = (alpha @ model.trans) * model.emit[:, obs[t]]
        scale = alpha.sum()
        alpha = alpha / scale
        log_p += math.log2(scale)
    return log_p


def broadcast_recursions(model, obs_matrix: np.ndarray, checkpoints):
    """log2 P* and log2 P of every row of an (r, n) index matrix at each
    checkpoint, as the package's kernel computed them before its max-plus
    step became one contiguous add: each step broadcasts a (k, k, r) sum,
    adds log2 of the step's scales to a running total, and raises at the
    first step with a zero scale, naming the first such row.  The reference
    for ``hmm._recursions``, which must match it bit for bit."""
    from physkey.errors import ImpossibleObservationError

    with np.errstate(divide="ignore"):
        log_pi, log_a, log_b = np.log2(model.pi), np.log2(model.trans), np.log2(model.emit)
    r, n = obs_matrix.shape
    log_star, log_p = np.zeros((2, r, len(checkpoints)))
    pos = 0
    log_fwd = np.zeros(r)
    for t in range(n):
        if t == 0:
            delta = log_pi[:, None] + log_b[:, obs_matrix[:, 0]]
            alpha = model.pi[None, :] * model.emit[:, obs_matrix[:, 0]].T
        else:
            delta = ((delta[:, None, :] + log_a[:, :, None]).max(axis=0)
                     + log_b[:, obs_matrix[:, t]])
            alpha = (alpha @ model.trans) * model.emit[:, obs_matrix[:, t]].T
        scale = alpha.sum(axis=1)
        if not scale.all():
            raise ImpossibleObservationError(
                f"impossible observation sequence: zero probability at step {t}",
                row=int(np.argmin(scale)))
        alpha /= scale[:, None]
        log_fwd += np.log2(scale)
        if pos < len(checkpoints) and checkpoints[pos] == t + 1:
            log_star[:, pos] = delta.max(axis=0)
            log_p[:, pos] = log_fwd
            pos += 1
    return log_star, log_p


def sample_hmm(model, rows: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(rows, n) symbol indices drawn from the model itself, so every row
    has positive probability."""
    def draw(probs):  # one index per row of probs
        return (rng.random((len(probs), 1)) >= np.cumsum(probs, axis=1)[:, :-1]).sum(axis=1)

    state = draw(np.broadcast_to(model.pi, (rows, model.k)))
    obs = np.empty((rows, n), dtype=np.int64)
    for t in range(n):
        if t:
            state = draw(model.trans[state])
        obs[:, t] = draw(model.emit[state])
    return obs


def intersecting_ingest(traces: dict, magnitude: int):
    """``ingest_traces`` by set algebra alone: the seqs every trace holds by
    repeated intersection, each trace masked by membership in them, levels
    clamped into [-magnitude, 0].  Returns (aligned, report) as it does."""
    from physkey.traces import MeasurementTrace

    kept = list(traces.values())[0].seqs
    for trace in traces.values():
        kept = np.intersect1d(kept, trace.seqs)
    aligned, dropped, clamped = {}, {}, 0
    for role, trace in traces.items():
        mask = np.isin(trace.seqs, kept)
        levels = trace.levels[mask]
        dropped[role] = len(trace) - levels.size
        clamped += int(np.count_nonzero((levels < -magnitude) | (levels > 0)))
        aligned[role] = MeasurementTrace(trace.seqs[mask], np.clip(levels, -magnitude, 0),
                                         trace.node_id, trace.frame_type)
    return aligned, {"kept": int(kept.size), "dropped": dropped, "clamped": clamped,
                     "magnitude": magnitude,
                     "eve_ids": [role for role in traces if role not in ("alice", "bob")]}


def random_model(rng: np.random.Generator, k: int, m: int):
    """Random fully-supported stochastic model (all probabilities positive)."""
    from physkey.hmm import HmmModel

    def rows(r, c):
        mat = rng.dirichlet(np.ones(c) * 2.0, size=r)
        mat = np.maximum(mat, 1e-6)
        return mat / mat.sum(axis=1, keepdims=True)

    return HmmModel(states=tuple(range(k)), symbols=tuple(range(m)),
                    pi=rows(1, k)[0], trans=rows(k, k), emit=rows(k, m))


def walk_chain(model, n: int, seed: int) -> np.ndarray:
    """Hidden state indices of simulate_run's chain, one sample at a time.

    Draws the same uniforms as simulate_run (its generator's first n
    doubles) and inverts each row's cumulative distribution with one
    searchsorted call per sample.
    """
    u = np.random.default_rng(seed).random(n)
    k = model.k
    cum_trans = np.cumsum(model.trans, axis=1)
    idx = np.empty(n, dtype=np.int64)
    idx[0] = min(np.searchsorted(np.cumsum(model.pi), u[0], side="right"), k - 1)
    for t in range(1, n):
        idx[t] = min(np.searchsorted(cum_trans[idx[t - 1]], u[t], side="right"), k - 1)
    return idx


def choice_simulate_run(config):
    """Alice's, Bob's and Eve's levels of simulate_run, drawn directly: the
    chain walked one sample at a time and Bob's level offsets drawn by
    rng.choice over the sorted offsets."""
    model, n = config.model, config.n
    rng = np.random.default_rng(config.seed)
    state_vals = np.array(model.states, dtype=np.int64)
    symbol_vals = np.array(model.symbols, dtype=np.int64)

    rng.random(n)  # the chain's uniforms, which walk_chain draws for itself
    idx = walk_chain(model, n, config.seed)
    alice_levels = state_vals[idx]

    cum_emit = np.cumsum(model.emit, axis=1)
    ue = rng.random(n)
    eve_levels = symbol_vals[(ue[:, None] < cum_emit[idx]).argmax(axis=1)]

    offsets = np.array(sorted(config.bob_error), dtype=np.int64)
    probs = np.array([config.bob_error[int(o)] for o in offsets])
    off = rng.choice(offsets, size=n, p=probs)
    bob_levels = np.clip(alice_levels + off, state_vals.min(), state_vals.max())
    return alice_levels, bob_levels, eve_levels


def gf2m_power_sums(bits, js, m: int) -> np.ndarray:
    """sum_i bits[i] alpha^(j i) in GF(2^m) for each j: a binary polynomial
    evaluated at alpha^j term by term, with no reduction by any generator."""
    from physkey.coding import field_tables

    tables = field_tables(m)
    ones = np.flatnonzero(np.asarray(bits)).astype(np.int64)
    return np.array([np.bitwise_xor.reduce(tables.exp[(j * ones) % tables.order])
                     if ones.size else 0 for j in js], dtype=np.int64)


def full_update_bm_locator(synd, tables, binary: bool = False):
    """Berlekamp-Massey as coding._bm_locator ran it with every update
    spanning c from the shift to its end: (locator low degree first, degree).
    The entries past the previous best polynomial's degree are zeros."""
    exp, log = tables.exp, tables.log
    s = np.asarray(synd, dtype=np.int64)
    log_s = log[s]
    n = s.size
    step = 2 if binary else 1
    c = np.zeros(n + 1, dtype=np.int64)
    c[0] = 1
    log_b = log[c]
    L = 0
    mshift = 1
    log_bb = 0
    for i in range(0, n, step):
        d = int(s[i]) ^ int(np.bitwise_xor.reduce(exp[log[c[1:L + 1]] + log_s[i - L:i][::-1]]))
        if d == 0:
            mshift += step
            continue
        update = exp[log_b[:n + 1 - mshift] + (int(log[d]) - log_bb) % tables.order]
        if 2 * L <= i:
            log_b = log[c]
            c[mshift:] ^= update
            L = i + 1 - L
            log_bb = int(log[d])
            mshift = step
        else:
            c[mshift:] ^= update
            mshift += step
    return c[:L + 1].tolist(), L


GENERATOR = 0x02  # alpha = x, the element whose powers field_tables lists


def peasant_mul(a: int, b: int, m: int) -> int:
    """a * b in GF(2^m) by Russian-peasant multiplication with reduction by
    the field's primitive polynomial: no log/antilog tables."""
    from physkey.coding import PRIMITIVE_POLYS

    poly = PRIMITIVE_POLYS[m]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return r


def alpha_power(e: int, m: int) -> int:
    """alpha^e in GF(2^m) by repeated peasant multiplication."""
    x = 1
    for _ in range(e % ((1 << m) - 1)):
        x = peasant_mul(x, GENERATOR, m)
    return x


def bch_generator_product(m: int, t: int) -> list:
    """Coefficients, low degree first, of prod (x + alpha^e) over every e
    conjugate to an odd j < 2t, multiplied out in GF(2^m) with the
    table-free peasant multiplication."""
    order = (1 << m) - 1
    roots = {(j << k) % order for j in range(1, 2 * t, 2) for k in range(m)}
    poly = [1]
    for e in sorted(roots):
        a = alpha_power(e, m)
        product = [0] + poly  # x * poly
        for i, c in enumerate(poly):
            product[i] ^= peasant_mul(a, c, m)
        poly = product
    return poly


def toeplitz_int64(seed_bits, input_bits) -> np.ndarray:
    """T x over GF(2) for the Toeplitz matrix of seed_bits, by an int64
    convolution of the seed with the input."""
    sums = np.convolve(np.asarray(seed_bits, dtype=np.int64),
                       np.asarray(input_bits, dtype=np.int64), mode="valid")
    return (sums & 1).astype(np.uint8)


def gray_residue_word(level) -> list:
    """The 3-bit reflected Gray code of |level| mod 8, MSB first, from its
    definition: r xor (r >> 1)."""
    r = abs(int(level)) % 8
    return [int(b) for b in format(r ^ (r >> 1), "03b")]


def residue_neighbor_bits_brute_force(levels) -> list:
    """Positions of the concatenated residue words of levels whose flip
    gives the word of a magnitude in 0..8 one away from its level's, found
    by flipping every bit in turn."""
    bits = [b for x in levels for b in gray_residue_word(x)]
    found = []
    for p in range(len(bits)):
        word = bits[p - p % 3:p - p % 3 + 3]
        word[p % 3] ^= 1
        a = abs(int(levels[p // 3]))
        if any(gray_residue_word(b) == word for b in (a - 1, a + 1) if 0 <= b <= 8):
            found.append(p)
    return found


def _arith_magnitudes(levels) -> np.ndarray:
    mag = np.abs(np.asarray(levels, dtype=np.int64))
    bad = np.nonzero(mag > 8)[0]
    if bad.size:
        raise ValueError(f"level out of range at sample {int(bad[0])}")
    return mag


def _arith_word_bits(codes) -> np.ndarray:
    return ((codes[:, None] >> np.arange(2, -1, -1)[None, :]) & 1).astype(np.uint8)


def _arith_gray(r):
    return r ^ (r >> 1)


def arith_embed_trace(levels) -> np.ndarray:
    """The unary bits of levels, computed per sample: column j of a
    sample's word holds 1 where its magnitude is >= 8 - j."""
    mag = _arith_magnitudes(levels)
    return (mag[:, None] >= (8 - np.arange(8))[None, :]).astype(np.uint8).reshape(-1)


def arith_residue_words(levels) -> np.ndarray:
    """The Gray residue bits of levels, computed per sample."""
    return _arith_word_bits(_arith_gray(_arith_magnitudes(levels) % 8)).reshape(-1)


def arith_residue_neighbor_bits(levels) -> np.ndarray:
    """The positions a +1 or a -1 move flips, from each sample's residue
    and its neighbours' Gray codes."""
    mag = _arith_magnitudes(levels)
    r = mag % 8
    up = _arith_gray(r) ^ _arith_gray((r + 1) % 8)
    down = _arith_gray(r) ^ _arith_gray((r - 1) % 8)
    flips = np.where(mag < 8, up, 0) | np.where(mag > 0, down, 0)
    return np.flatnonzero(_arith_word_bits(flips))


def arith_residue_levels(word_bits, levels) -> np.ndarray:
    """The magnitude within 3 of each |level| whose Gray residue word is
    given, by decoding the words and wrapping the offset into -3..4;
    ValueError, with residue_levels' message, naming the first sample where
    the offset is 4 or the level falls outside 0..8."""
    mag = _arith_magnitudes(levels)
    binary = np.bitwise_xor.accumulate(np.asarray(word_bits).reshape(-1, 3), axis=1)
    r = binary.astype(np.int64) @ np.array([4, 2, 1])
    offset = (r - mag + 3) % 8 - 3
    found = mag + offset
    bad = np.flatnonzero((offset > 3) | (found < 0) | (found > 8))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"residue of sample {i} is {r[i]}, and no level in "
                         f"0..8 within 3 of magnitude {mag[i]} has it")
    return found


def argmax_eve_levels(model, idx, ue) -> np.ndarray:
    """Eve's symbols as the first column of each state's _cdf row above
    her uniform, found by argmax over a gathered (n, m) block of rows."""
    from physkey.channel import _cdf

    symbol_vals = np.array(model.symbols, dtype=np.int64)
    return symbol_vals[(ue[:, None] < _cdf(model.emit)[idx]).argmax(axis=1)]


def decimal_binomial_cdf(k: int, n: int, p: float) -> float:
    """P[Binomial(n, p) <= k] as the sum of its k + 1 probabilities in
    60-digit decimal arithmetic, from the exact binary value of p; each term
    is the previous one times (n - i) p / ((i + 1) (1 - p))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p = decimal.Decimal(p)
        term = (1 - p) ** n
        total = term
        for i in range(min(k, n)):
            term = term * (n - i) * p / ((i + 1) * (1 - p))
            total += term
        return float(total)


def sorted_ks_two_sample(x, y, alpha: float):
    """Two-sample K-S test from the sorted samples: the empirical CDFs are
    searchsorted counts at every point of the merged sample.  The reference
    for the count-based ``stats.ks_two_sample``'s statistic; the tail is
    the package's own ``_kolmogorov_sf``, which has its own tests."""
    from physkey.stats import KsReport, _kolmogorov_sf

    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    support = np.sort(np.concatenate([x, y]))
    fx = np.searchsorted(x, support, side="right") / x.size
    fy = np.searchsorted(y, support, side="right") / y.size
    d = float(np.abs(fx - fy).max())
    p = float(_kolmogorov_sf(math.sqrt(x.size * y.size / (x.size + y.size)) * d))
    return KsReport(statistic=d, p_value=p, reject=p < alpha)


class RowLoopTraceFile:
    """Trace CSV parsed one line at a time into (seq, node_id, frame_type,
    rssi) tuples, each line split on ``\\n``, matched whole against the
    row grammar and checked against the first row's node_id and frame_type
    and the previous row's seq: the reference for the column-wise
    ``TraceFile``."""

    ROW = re.compile(r"(-?[0-9]{1,19}),([^,\n]*),(PING|PONG|OBS),(-?[0-9]{1,19})")

    def __init__(self, rows: list, path: str = ""):
        self.rows, self.path = rows, path

    @classmethod
    def parse(cls, text: str, path: str = "") -> "RowLoopTraceFile":
        from physkey.errors import PhyskeyError
        from physkey.traces import CSV_HEADER

        where = path or "<string>"
        lines = text.split("\n")
        if lines[0] != CSV_HEADER:
            raise PhyskeyError(f"{where}: missing header {CSV_HEADER!r}")
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            cells = cls.ROW.fullmatch(line)
            row = cells and (int(cells[1]), cells[2], cells[3], int(cells[4]))
            if (not row or not all(-2 ** 63 <= row[i] < 2 ** 63 for i in (0, 3))
                    or rows and (row[1:3] != rows[0][1:3] or row[0] <= rows[-1][0])):
                raise PhyskeyError(
                    f"{where}:{lineno}: row {line!r} is not seq,node_id,frame_type,rssi "
                    "(decimal int64 seq and rssi, frame_type PING, PONG or OBS, the first "
                    "row's node_id and frame_type, seq above the previous row's)")
            rows.append(row)
        return cls(rows, path)

    def serialize(self) -> str:
        from physkey.traces import CSV_HEADER

        lines = [CSV_HEADER] + [f"{s},{n},{f},{r}" for s, n, f, r in self.rows]
        return "\n".join(lines) + "\n"

    def node_ids(self) -> list:
        return list(dict.fromkeys(node_id for _, node_id, _, _ in self.rows))

    def trace(self, node_id: str):
        from physkey.errors import PhyskeyError
        from physkey.traces import MeasurementTrace

        picked = [(s, f, r) for s, nid, f, r in self.rows if nid == node_id]
        if not picked:
            raise PhyskeyError(f"no rows for node {node_id!r} in {self.path or '<string>'}")
        picked.sort(key=lambda t: t[0])
        seqs = np.array([s for s, _, _ in picked], dtype=np.int64)
        levels = np.array([r for _, _, r in picked], dtype=np.int64)
        return MeasurementTrace(seqs, levels, node_id, picked[0][1])
