"""Reference computations, independent of the package's dynamic programs.

The brute-force functions enumerate hidden-state paths explicitly and
multiply probabilities directly.  scalar_viterbi_log2 and
scalar_forward_log2 run the two recursions one sequence at a time, as
separate code from the batched kernel under test.
"""

import itertools
import math

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


def gf2m_power_sums(bits, js, m: int) -> np.ndarray:
    """sum_i bits[i] alpha^(j i) in GF(2^m) for each j: a binary polynomial
    evaluated at alpha^j term by term, with no reduction by any generator."""
    from physkey.coding import field_tables

    tables = field_tables(m)
    ones = np.flatnonzero(np.asarray(bits)).astype(np.int64)
    return np.array([np.bitwise_xor.reduce(tables.exp[(j * ones) % tables.order])
                     if ones.size else 0 for j in js], dtype=np.int64)


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


def neighbor_bits_brute_force(levels, m: int) -> list:
    """Positions of embed_trace(levels) whose flip leaves a unary word one
    magnitude away from its level's, found by flipping every bit in turn."""
    from physkey.quantize import BitString, QuantizerConfig, embed_trace, embed_unary

    config = QuantizerConfig(m=m)
    magnitude = {embed_unary(a, config): a for a in range(m + 1)}
    bits = embed_trace(levels, config).bits
    found = []
    for p in range(bits.size):
        word = bits[p - p % m:p - p % m + m].copy()
        word[p % m] ^= 1
        a = magnitude.get(BitString(word))
        if a is not None and abs(a - abs(levels[p // m])) == 1:
            found.append(p)
    return found
