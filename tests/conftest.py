from dataclasses import replace

import numpy as np
import pytest

from physkey.channel import calibrate_to_reference_rates, family_config, simulate_run
from physkey.hmm import LinearFit

# reference-deployment rates: entropy and word errors per quantized bit
REFERENCE_ENTROPY_RATE = 0.1248
REFERENCE_WORD_ERROR_RATE = 0.0054


@pytest.fixture(scope="session")
def calibrated_config():
    return calibrate_to_reference_rates(REFERENCE_ENTROPY_RATE, REFERENCE_WORD_ERROR_RATE,
                                    levels=9, seed=2026)


@pytest.fixture(scope="session")
def offset_two_channel():
    """A memoryless channel on which Bob's levels err by exactly 2, with the
    word-error line and the largest offset fitted from 20,000 of its samples:
    (config, error_fit, max_level_offset)."""
    cfg = replace(family_config(levels=9, spread=0.41325, band=2),
                  bob_error={-2: 0.008, 0: 0.984, 2: 0.008})
    run = simulate_run(replace(cfg, n=20_000, seed=2))
    offsets = run.alice.levels - run.bob.levels
    return (cfg, LinearFit(np.count_nonzero(offsets) / offsets.size, 0.0),
            int(np.abs(offsets).max()))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
