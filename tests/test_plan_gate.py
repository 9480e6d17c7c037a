"""Standing gate: every feasible plan delivers what it predicts.

A fixed grid of plans runs 100 seeded exchanges each on simulated
memoryless channels, where the exact average conditional min-entropy of n
samples has the closed form n h.  For each plan the gate asserts that the
planner calls it feasible, that the observed successes are not
significantly below its ``predicted_success_exact`` (one-sided binomial
at 0.01, Bonferroni over the grid), and that the exact entropy less the
sketch's m t bits still pays for the key and the extractor,
l + 2 lambda - 2.  Criterion 7's seeds draw the channels (30,000 + i) and
the exchanges (60,000 + i).  The grid and the seeds are fixed: a plan that
fails here is a planner fault, not a reason to move them.
"""

from dataclasses import replace

import pytest

from physkey.channel import simulate_run
from physkey.protocol import plan_parameters, run_exchange
from physkey.stats import binomial_cdf

from .oracles import memoryless_exact_bits

TRIALS = 100
ALPHA = 0.01

# (channel, l, lambda, c): the paper's sizing on the calibrated channel,
# and offsets of 2 priced at 2 residue bits per erring sample
PLANS = [("calibrated_config", 128, 80, 1), ("calibrated_config", 256, 80, 1),
         ("calibrated_config", 128, 80, 3),
         ("offset_two_channel", 128, 80, 0.05), ("offset_two_channel", 16, 2, 0.05)]


@pytest.mark.parametrize("channel, l, lambda_, c", PLANS)
def test_feasible_plan_delivers_its_prediction(request, channel, l, lambda_, c):
    if channel == "calibrated_config":
        cfg, fits = request.getfixturevalue(channel), {}
    else:
        cfg, error_fit, offset = request.getfixturevalue(channel)
        fits = {"error_fit": error_fit, "max_level_offset": offset}
    params = plan_parameters(l=l, lambda_=lambda_, c=c, **fits)
    report = params.report
    assert report["feasible"] is True, report["infeasible_reasons"]

    successes = 0
    for i in range(TRIALS):
        run = simulate_run(replace(cfg, n=params.n, seed=30_000 + i))
        successes += run_exchange(run.alice, run.bob, params, seed=60_000 + i).success
    predicted = report["predicted_success_exact"]
    assert binomial_cdf(successes, TRIALS, predicted) >= ALPHA / len(PLANS), \
        (successes, predicted)

    exact_residual = memoryless_exact_bits(cfg.model, params.n) - report["sketch_bits"]
    assert exact_residual >= l + 2 * lambda_ - 2, (exact_residual, params.n)
