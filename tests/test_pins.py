"""Bit-identity pins of the simulated channel and the seeded exchange.

Each digest was computed before the channel cached per-model state and
mapped Eve's levels on first read, and before Berlekamp-Massey's update was
trimmed to the live support; all three changes must leave every level, key
and transcript byte-identical.
"""

import hashlib
from dataclasses import replace

import numpy as np

from physkey.channel import family_config, simulate_run
from physkey.protocol import plan_parameters, run_exchange

# perfbench's reference channel (what calibration at seed 2026 returned
# before the bisection fix) and the seed its exchange pins were taken at
BENCH_CHANNEL = {"levels": 9, "decay": 1.0, "spread": 0.4146443779233995,
                 "band": 2, "q": 0.0236960400390625}
BENCH_SEED = 5


def _levels_sha256(configs) -> str:
    # alice, bob and eve levels of each run in turn, as little-endian int64
    h = hashlib.sha256()
    for cfg in configs:
        run = simulate_run(cfg)
        for trace in (run.alice, run.bob, run.eve):
            h.update(np.ascontiguousarray(trace.levels, dtype="<i8").tobytes())
    return h.hexdigest()


def test_criterion_7_channel_levels(calibrated_config):
    # the channel seeds criterion 7 draws at the planned n
    configs = (replace(calibrated_config, n=2325, seed=30_000 + s) for s in range(20))
    assert _levels_sha256(configs) == \
        "1a26ab14dfc1f42fe2f5612fa4e61128e88a1a1bd2a69474b6567e00066c784e"


def test_markov_channel_levels():
    # decay 0.6: the hidden chain is sampled by pointer doubling
    configs = (replace(family_config(decay=0.6), seed=s) for s in range(10))
    assert _levels_sha256(configs) == \
        "03f0483d864a994aeb1979f949a82ad5995a91ad071f1e5e4fcc4470924853b6"


def test_benchmark_exchanges():
    # the first 100 (channel seed, exchange seed) pairs of the exchange
    # benchmark's pool: Alice's key in hex, then the transcript, per exchange
    params = plan_parameters(l=128, lambda_=80, c=1)
    config = family_config(**BENCH_CHANNEL, n=params.n)
    pool = np.random.default_rng(BENCH_SEED).integers(0, 2 ** 31 - 1, size=1000)
    h = hashlib.sha256()
    for sim_seed, exchange_seed in pool.reshape(500, 2)[:100]:
        run = simulate_run(replace(config, seed=int(sim_seed)))
        result = run_exchange(run.alice, run.bob, params, seed=int(exchange_seed))
        h.update(result.alice_key.to_hex().encode())
        h.update(result.transcript.to_bytes())
    assert h.hexdigest() == \
        "82bff801cd027f77d9e3a0dbe0b7b089f6039c1a140aca8bc25822c21c063c06"
