"""End-to-end key agreement, entropy-loss accounting and parameter planning.

Exchange shape: both parties quantize their aligned level traces into
bitstrings; Alice publishes the syndrome sketch of hers plus a Toeplitz
extractor seed; Bob reconciles his copy against the sketch and both extract
the key.  The public transcript is exactly (sketch, seed).  Bob also names
the bits of rho_B that an off-by-one level would flip, the two at each
word's 0 -> 1 boundary; the pooled decoder searches those first and
every bit only when they do not explain the sketch, so they change its
cost, never its result.

Accounting chain: starting from the fitted conditional min-entropy g(n),
the sketch leaks its own bit-length |u| and the extractor costs
2*lambda - 2, leaving floor(g(n) - |u| - 2*lambda + 2) extractable key
bits.

The planner inverts the two fitted growth lines:

* entropy condition     g(n) - 16*(6/5)*e(n) >= l + 2*lambda - 2,
* correctness condition e(n) >= 100*c   (Chernoff exponent for staying
  within a 6/5 error-budget margin),

and sizes one pooled binary BCH code over GF(2^m) for the whole quantized
string: m is the smallest field degree with 2^m - 1 >= bits, and
t = ceil((6/5) e(n)) bit errors.  With one level of noise per erroneous
sample a word error flips one unary bit, so t is the word-error budget
itself.  The report's residual charges the sketch's real m*t bits; at the
reference point that is 15 * 121 = 1815, within the 19.2 e(n) = 1920.4 the
entropy condition budgets.  (Per-block Reed-Solomon capacity sized from
the mean budget cannot clear both conditions at the reference rates; see
tests/test_protocol.py::TestBlockwiseFeasibility.)

The closed-form reference bound max(12.54*lambda + 6.27*l - 3.24,
2326*c - 1) is reported alongside for cross-checking, as is the published
margin constant 549.4 whose recomputation from the same fitted lines gives
545.4; the planner surfaces both rather than guessing which was intended.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy.special import bdtr

from .coding import BchCode, BchSketch, ss_recover, ss_sketch
from .errors import InfeasiblePlanError, SketchFormatError, UncorrectableBlockError
from .extract import ExtractorSeed, extract, max_extractable_length, random_seed
from .hmm import LinearFit
from .quantize import BITS_PER_SAMPLE, BitString, embed_trace, hamming_distance, \
    neighbor_bits
from .traces import MeasurementTrace, assert_aligned

# the planner's idealised sketch charge per budgeted error, which sizes n;
# the pooled BCH sketch really spends m bits per bit error (m = 15 at the
# reference operating point), and the plan certifies those m*t bits
SKETCH_BITS_PER_ERROR = 16
ERROR_SAFETY_FACTOR = 6.0 / 5.0
CHERNOFF_DENOMINATOR = 100.0

# fitted growth lines from the reference deployment:
# conditional min-entropy bits and word errors per n samples
REFERENCE_ENTROPY_FIT = LinearFit(slope=0.985, intercept=1.467)
REFERENCE_ERROR_FIT = LinearFit(slope=0.043, intercept=0.048)

# margin constant as originally published vs. recomputed from the lines above
PUBLISHED_MARGIN_CONSTANT = 549.4


@dataclass(frozen=True)
class ProtocolParams:
    """Everything one exchange needs: sample count, code, key-length targets."""

    n: int
    code: BchCode
    l: int
    lambda_: float
    c: float
    entropy_fit: LinearFit
    error_fit: LinearFit
    report: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise ValueError("n and l must be >= 1")
        if self.lambda_ < 0:
            raise ValueError("lambda must be >= 0")
        if self.c < 0:
            raise ValueError("c must be >= 0")
        bits = self.n * BITS_PER_SAMPLE
        if not isinstance(self.code, BchCode) or self.code.n_sym < bits:
            raise ValueError(f"code must be a BchCode covering {bits} bits, got {self.code!r}")

    @property
    def m(self) -> int:
        """Bits per sample; the BCH field degree is ``code.m``."""
        return BITS_PER_SAMPLE


@dataclass(frozen=True)
class EntropyLedger:
    """Accounting record: initial entropy minus sketch and extractor losses."""

    initial_bits: float
    sketch_loss_bits: int
    extractor_loss_bits: float
    residual_bits: float
    key_bits: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Transcript:
    """Public messages of one exchange: the sketch and the extractor seed."""

    sketch: BchSketch
    seed: ExtractorSeed

    def to_bytes(self) -> bytes:
        return self.sketch.to_bytes() + self.seed.to_hex().encode("ascii")

    @classmethod
    def from_bytes(cls, raw: bytes, l: int) -> "Transcript":
        cut = BchSketch.byte_length(raw)
        sketch = BchSketch.from_bytes(raw[:cut])
        try:
            bits = BitString.from_hex(raw[cut:].decode("ascii"))
            seed = ExtractorSeed(bits, t=len(bits) + 1 - l, l=l)
        except ValueError as exc:
            raise SketchFormatError(
                f"transcript seed field at byte {cut}: {exc}") from None
        return cls(sketch, seed)


@dataclass(frozen=True)
class KeyResult:
    """Outcome of one exchange; success implies both keys exist and match."""

    alice_key: BitString
    bob_key: Optional[BitString]
    success: bool
    ledger: EntropyLedger
    transcript: Transcript
    failure_reason: Optional[str] = None
    n_corrected_bits: int = 0

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "alice_key": self.alice_key.to_hex(),
            "bob_key": self.bob_key.to_hex() if self.bob_key is not None else None,
            "failure_reason": self.failure_reason,
            "n_corrected_bits": self.n_corrected_bits,
            "ledger": self.ledger.to_dict(),
            "transcript_bytes": len(self.transcript.to_bytes()),
        }


def entropy_ledger(initial_bits: float, sketch_bits: int,
                   lambda_: float) -> EntropyLedger:
    """Charge the sketch's leaked bits and the extractor loss against
    initial entropy."""
    if initial_bits < 0:
        raise ValueError("initial entropy must be >= 0")
    residual = initial_bits - sketch_bits
    return EntropyLedger(
        initial_bits=float(initial_bits),
        sketch_loss_bits=int(sketch_bits),
        extractor_loss_bits=2.0 * lambda_ - 2.0,
        residual_bits=float(residual),
        key_bits=max_extractable_length(max(0.0, residual), lambda_),
    )


def correctness_bound(n: int, error_fit: LinearFit) -> float:
    """Chernoff-style failure bound exp(-e(n)/100) for the planned margin."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e = error_fit(n)
    if e <= 0:
        warnings.warn("error fit is non-positive at n; correctness bound is vacuous",
                      stacklevel=2)
        return 1.0
    return math.exp(-e / CHERNOFF_DENOMINATOR)


def _smallest_n_at_least(slope: float, intercept: float, target: float) -> int:
    # smallest integer n with slope * n + intercept >= target
    n = math.ceil((target - intercept) / slope - 1e-12)
    return max(1, n)


def plan_parameters(l: int, lambda_: float, c: float,
                    entropy_fit: LinearFit = REFERENCE_ENTROPY_FIT,
                    error_fit: LinearFit = REFERENCE_ERROR_FIT,
                    n: Optional[int] = None) -> ProtocolParams:
    """Choose the sample count and code for an (l, e^-c, 2^-lambda) exchange.

    c = 0 disables the correctness condition (useful when probing the
    entropy bound alone).  The report's ``predicted_success_exact`` is the
    pooled sketch's success probability P[Binomial(n, e(n)/n) <= t], next
    to the Chernoff figure ``predicted_correctness_bound``; ``feasible``
    holds when the residual is certified and that probability reaches the
    1 - e^-c target.  The code covers n unary words of ``BITS_PER_SAMPLE``
    bits.  A given ``n`` replaces the planned sample count; the code and
    the report are then sized for it.  Raises
    InfeasiblePlanError when the fitted lines cannot satisfy the conditions
    at any n, or when no supported code fits the chosen n.
    """
    if entropy_fit.slope <= 0:
        raise InfeasiblePlanError("entropy fit must have positive slope")
    loss_rate = SKETCH_BITS_PER_ERROR * ERROR_SAFETY_FACTOR  # 19.2 bits per e(n)
    margin_slope = entropy_fit.slope - loss_rate * error_fit.slope
    margin_intercept = entropy_fit.intercept - loss_rate * error_fit.intercept
    need = l + 2.0 * lambda_ - 2.0
    if margin_slope <= 0:
        raise InfeasiblePlanError(
            f"net entropy slope {margin_slope:.6f} bits/sample is not positive; "
            "the sketch consumes entropy faster than the channel provides it")
    n_entropy = _smallest_n_at_least(margin_slope, margin_intercept, need)

    if c > 0:
        if error_fit.slope <= 0:
            raise InfeasiblePlanError(
                "correctness condition needs a positive error-fit slope")
        n_correct = _smallest_n_at_least(error_fit.slope, error_fit.intercept,
                                         CHERNOFF_DENOMINATOR * c)
    else:
        n_correct = 1
    if n is None:
        n = max(n_entropy, n_correct)
    elif n < 1:
        raise ValueError("n must be >= 1")

    bits = n * BITS_PER_SAMPLE
    budget = ERROR_SAFETY_FACTOR * error_fit(n)
    try:
        code = BchCode.for_length(bits, max(1, math.ceil(budget - 1e-12)))
    except ValueError as exc:
        raise InfeasiblePlanError(f"no code for {bits} bits: {exc}") from None
    sketch_bits = code.m * code.t

    published_formula_n = max(12.54 * lambda_ + 6.27 * l - 3.24, 2326.0 * c - 1.0)
    published_entropy_n = (1000.0 * (l + 2.0 * lambda_) - PUBLISHED_MARGIN_CONSTANT) / 159.4
    recomputed_constant = 1000.0 * margin_intercept
    initial = entropy_fit(n)
    residual = initial - sketch_bits
    certified = residual >= need
    # each of the n words errs independently at rate e(n)/n; the pooled
    # sketch succeeds iff at most t of them do
    success = float(bdtr(code.t, n, min(max(error_fit(n) / n, 0.0), 1.0)))

    report = {
        "n": n,
        "entropy_bound_n": n_entropy,
        "correctness_bound_n": n_correct,
        "published_formula_n": published_formula_n,
        "published_entropy_bound_n": published_entropy_n,
        "bits": bits,
        "error_budget": budget,
        "code": code.to_dict(),
        "sketch_bits": sketch_bits,
        "idealized_sketch_bits": loss_rate * error_fit(n),
        "predicted_initial_bits": initial,
        "predicted_residual_bits": residual,
        "required_residual_bits": need,
        "residual_certified": certified,
        "predicted_correctness_bound": correctness_bound(n, error_fit)
        if error_fit(n) > 0 else 1.0,
        "predicted_success_exact": success,
        "feasible": certified and success >= 1.0 - math.exp(-c),
        "margin_constant_published": PUBLISHED_MARGIN_CONSTANT,
        "margin_constant_recomputed": recomputed_constant,
        "margin_constant_discrepancy": PUBLISHED_MARGIN_CONSTANT - recomputed_constant,
    }
    return ProtocolParams(n=n, code=code, l=l, lambda_=lambda_, c=c,
                          entropy_fit=entropy_fit, error_fit=error_fit,
                          report=report)


def alice_messages(alice: MeasurementTrace, params: ProtocolParams,
                   rng: np.random.Generator):
    """Alice's side: quantize, sketch, draw the extractor seed, extract."""
    rho_a = embed_trace(alice.levels[:params.n])
    sketch = ss_sketch(rho_a, params.code)
    seed = random_seed(rng, t=len(rho_a), l=params.l)
    key = extract(rho_a, seed)
    return rho_a, Transcript(sketch, seed), key


def bob_respond(bob: MeasurementTrace, transcript: Transcript,
                params: ProtocolParams):
    """Bob's side, a function of (rho_B, sketch, seed) only.

    Returns (key or None, corrected bit count, failure reason or None).
    """
    levels = bob.levels[:params.n]
    rho_b = embed_trace(levels)
    try:
        recovered = ss_recover(rho_b, transcript.sketch, neighbor_bits(levels))
    except UncorrectableBlockError as exc:
        return None, 0, str(exc)
    return extract(recovered, transcript.seed), hamming_distance(recovered, rho_b), None


def run_exchange(alice: MeasurementTrace, bob: MeasurementTrace,
                 params: ProtocolParams, seed: int) -> KeyResult:
    """One full exchange over aligned traces; reproducible for a fixed seed."""
    assert_aligned(alice, bob)
    if len(alice) < params.n:
        raise ValueError(f"traces hold {len(alice)} samples, plan needs {params.n}")
    rng = np.random.default_rng(seed)
    _, transcript, alice_key = alice_messages(alice, params, rng)
    bob_key, corrected, reason = bob_respond(bob, transcript, params)
    success = bob_key is not None and bob_key == alice_key
    if bob_key is not None and reason is None and not success:
        reason = "key mismatch after reconciliation"
    ledger = entropy_ledger(params.entropy_fit(params.n), transcript.sketch.bit_length,
                            params.lambda_)
    return KeyResult(alice_key=alice_key, bob_key=bob_key, success=success,
                     ledger=ledger, transcript=transcript,
                     failure_reason=reason, n_corrected_bits=corrected)
