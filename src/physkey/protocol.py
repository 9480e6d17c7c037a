"""End-to-end key agreement, entropy-loss accounting and parameter planning.

Exchange shape: both parties quantize their aligned level traces.  Alice
publishes the syndrome sketch of her residue words (|x| mod 8 in 3-bit
Gray code, 3n bits) plus a Toeplitz extractor seed for her 8n-bit unary
string.  Bob recovers her residue words from his own, takes for each
sample the one level within 3 of his with that residue, and both extract
the key from the unary string of those levels.  The public transcript is
exactly (sketch, seed).  Bob also names the bits of his residue words
that an off-by-one level would flip, two per word; the pooled decoder
searches those first and every bit only when they do not explain the
sketch, so they change its cost, never its result.  An offset of exactly
4 leaves Bob no level and fails closed; plan_parameters refuses a fitted
channel whose offsets exceed 3.

Accounting chain: starting from the fitted conditional min-entropy g(n),
the sketch leaks its own bit-length |u| and the extractor costs
2*lambda - 2, leaving floor(g(n) - |u| - 2*lambda + 2) extractable key
bits.

The planner inverts the two fitted growth lines:

* entropy condition     g(n) - 16*(6/5)*o*e(n) >= l + 2*lambda - 2,
* correctness condition e(n) >= 100*c   (Chernoff exponent for staying
  within a 6/5 error-budget margin),

and sizes one pooled binary BCH code over GF(2^m) for the 3n-bit residue
string: m is the smallest field degree with 2^m - 1 >= 3n, and
t = ceil((6/5) o e(n)) bit errors.  A level offset of o flips up to o bits
of a residue word, so o is the largest offset the fitted traces showed,
capped at 3, or 1 when that is unknown or at most 1; the entropy
condition charges the same o.  The sketch is a function of Alice's levels
of m*t bits, so it costs at most m*t bits of average min-entropy (Dodis,
Ostrovsky, Reyzin and Smith, "Fuzzy extractors", 2008, Lemma 2.2b).  The
report's residual charges those real m*t bits; at the reference point
that is 13 * 121 = 1573, within the 19.2 e(n) = 1920.4 the entropy
condition budgets.  (Per-block Reed-Solomon capacity sized from the mean
budget cannot clear both conditions at the reference rates; see
tests/test_protocol.py::TestBlockwiseFeasibility.)

The closed-form reference bound max(12.54*lambda + 6.27*l - 3.24,
2326*c - 1) is reported alongside for cross-checking, as is the published
margin constant 549.4 whose recomputation from the same fitted lines gives
545.4; the planner surfaces both rather than guessing which was intended.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .coding import BchCode, BchSketch, ss_recover, ss_sketch
from .errors import InfeasiblePlanError, SketchFormatError, UncorrectableBlockError
from .extract import ExtractorSeed, extract, max_extractable_length, random_seed
from .hmm import LinearFit, seeded_rng
from .quantize import BITS_PER_SAMPLE, MAX_RESIDUE_OFFSET, RESIDUE_BITS, BitString, \
    embed_trace, residue_levels, residue_neighbor_bits, residue_words
from .stats import binomial_cdf
from .traces import MeasurementTrace, assert_aligned

# the planner's idealised sketch charge per budgeted error, which sizes n;
# the pooled BCH sketch of the residue words really spends m bits per bit
# error (m = 13 at the reference operating point), and the plan certifies
# those m*t bits
SKETCH_BITS_PER_ERROR = 16
ERROR_SAFETY_FACTOR = 6.0 / 5.0
CHERNOFF_DENOMINATOR = 100.0

# fitted growth lines from the reference deployment:
# conditional min-entropy bits and word errors per n samples
REFERENCE_ENTROPY_FIT = LinearFit(slope=0.985, intercept=1.467)
REFERENCE_ERROR_FIT = LinearFit(slope=0.043, intercept=0.048)

# margin constant as originally published vs. recomputed from the lines above
PUBLISHED_MARGIN_CONSTANT = 549.4


def _check_security_targets(*targets) -> None:
    for name, value in targets:
        if not (math.isfinite(value) and value >= 0):  # NaN fails both
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ProtocolParams:
    """Everything one exchange needs: sample count, code, key-length targets."""

    n: int
    code: BchCode
    l: int
    lambda_: float
    entropy_fit: LinearFit
    report: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise ValueError("n and l must be >= 1")
        _check_security_targets(("lambda", self.lambda_))
        bits = self.n * RESIDUE_BITS
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
            if RESIDUE_BITS * seed.t != BITS_PER_SAMPLE * sketch.n_bits:
                raise ValueError(f"seed takes a {seed.t}-bit input, the sketch covers "
                                 f"{sketch.n_bits} bits; {BITS_PER_SAMPLE} unary bits "
                                 f"go with {RESIDUE_BITS} residue bits")
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
    n = (target - intercept) / slope - 1e-12
    if not math.isfinite(n):
        raise InfeasiblePlanError(f"no finite n has {slope!r} * n + {intercept!r} >= {target}")
    return max(1, math.ceil(n))


def plan_parameters(l: int, lambda_: float, c: float,
                    entropy_fit: LinearFit = REFERENCE_ENTROPY_FIT,
                    error_fit: LinearFit = REFERENCE_ERROR_FIT,
                    n: Optional[int] = None,
                    max_level_offset: Optional[int] = None) -> ProtocolParams:
    """Choose the sample count and code for an (l, e^-c, 2^-lambda) exchange.

    c = 0 disables the correctness condition (useful when probing the
    entropy bound alone).  The code corrects t = ceil((6/5) o e(n)) bits,
    where o, the residue bits one erring sample can flip, is
    min(max_level_offset, MAX_RESIDUE_OFFSET) from 2 up and 1 otherwise, and
    the entropy condition that sizes n charges 16 o bits per budgeted error.
    The report's ``predicted_success_exact`` is the pooled sketch's success
    probability P[Binomial(n, e(n)/n) <= t // o] (a lower bound for o > 1),
    next to the Chernoff figure ``predicted_correctness_bound``;
    ``feasible`` holds when the residual is certified, that probability
    reaches the 1 - e^-c target and ``max_level_offset``, the largest
    |alice - bob| level offset the fitted traces showed (None: not measured,
    not checked), is at most MAX_RESIDUE_OFFSET; ``infeasible_reasons`` names
    each condition that fails.  The code covers n residue words of
    ``RESIDUE_BITS`` bits.  A given ``n`` replaces the planned sample count;
    the code and the report are then sized for it.  Raises ValueError unless
    l >= 1 fits a float, lambda_ and c are finite and >= 0 and max_level_offset
    is None or >= 0, and InfeasiblePlanError when the fitted lines cannot
    satisfy the conditions at any n, or when no supported code fits the chosen n.
    """
    _check_security_targets(("lambda", lambda_), ("c", c))
    if abs(l) > sys.float_info.max:  # an int compares with a float exactly
        raise ValueError(f"l of {l.bit_length()} bits does not fit a float")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if max_level_offset is not None and max_level_offset < 0:
        raise ValueError(f"max_level_offset must be >= 0, got {max_level_offset}")
    if entropy_fit.slope <= 0:
        raise InfeasiblePlanError("entropy fit must have positive slope")
    per_error = min(max_level_offset or 1, MAX_RESIDUE_OFFSET)  # o
    loss_rate = SKETCH_BITS_PER_ERROR * ERROR_SAFETY_FACTOR * per_error  # 19.2 o bits per e(n)
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

    bits = n * RESIDUE_BITS
    budget = ERROR_SAFETY_FACTOR * per_error * error_fit(n)
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
    # sketch succeeds when at most t // o of them do (iff, at o = 1)
    success = binomial_cdf(code.t // per_error, n, min(max(error_fit(n) / n, 0.0), 1.0))
    target = 1.0 - math.exp(-c)
    reasons = []
    if not certified:
        reasons.append(f"predicted residual {residual:.1f} bits is below the "
                       f"required {need:.1f}")
    if success < target:
        reasons.append(f"predicted success {success:.4f} is below the target {target:.4f}")
    if max_level_offset is not None and max_level_offset > MAX_RESIDUE_OFFSET:
        reasons.append(f"max_level_offset {max_level_offset} exceeds {MAX_RESIDUE_OFFSET}: "
                       f"a residue word names a level only within {MAX_RESIDUE_OFFSET} "
                       "of Bob's")

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
        "max_level_offset": max_level_offset,
        "feasible": not reasons,
        "infeasible_reasons": reasons,
        "margin_constant_published": PUBLISHED_MARGIN_CONSTANT,
        "margin_constant_recomputed": recomputed_constant,
        "margin_constant_discrepancy": PUBLISHED_MARGIN_CONSTANT - recomputed_constant,
    }
    return ProtocolParams(n=n, code=code, l=l, lambda_=lambda_,
                          entropy_fit=entropy_fit, report=report)


def alice_messages(alice: MeasurementTrace, params: ProtocolParams,
                   rng: np.random.Generator):
    """Alice's side: quantize, sketch the residue words, draw the extractor
    seed, extract from the unary string.  Returns (transcript, key)."""
    levels = alice.levels[:params.n]
    rho_a = embed_trace(levels)
    sketch = ss_sketch(residue_words(levels), params.code)
    seed = random_seed(rng, t=len(rho_a), l=params.l)
    key = extract(rho_a, seed)
    return Transcript(sketch, seed), key


def bob_respond(bob: MeasurementTrace, transcript: Transcript,
                params: ProtocolParams):
    """Bob's side, a function of (his levels, sketch, seed) only.

    Recovers Alice's residue words, takes for each sample the one level
    within 3 of his own with that residue, and extracts from its unary
    string.  Returns (key or None, corrected unary bit count, failure
    reason or None).
    """
    levels = bob.levels[:params.n]
    try:
        residues = ss_recover(residue_words(levels), transcript.sketch,
                              residue_neighbor_bits(levels))
    except UncorrectableBlockError as exc:
        return None, 0, str(exc)
    try:
        recovered = residue_levels(residues, levels)
    except ValueError as exc:
        return None, 0, f"no level for the recovered residues: {exc}"
    corrected = int(np.abs(recovered - np.abs(levels)).sum())
    return extract(embed_trace(recovered), transcript.seed), corrected, None


def run_exchange(alice: MeasurementTrace, bob: MeasurementTrace,
                 params: ProtocolParams, seed: int) -> KeyResult:
    """One full exchange over aligned traces; reproducible for a fixed seed."""
    assert_aligned(alice, bob)
    if len(alice) < params.n:
        raise ValueError(f"traces hold {len(alice)} samples, plan needs {params.n}")
    rng = seeded_rng(seed)
    transcript, alice_key = alice_messages(alice, params, rng)
    bob_key, corrected, reason = bob_respond(bob, transcript, params)
    success = bob_key is not None and bob_key == alice_key
    if bob_key is not None and reason is None and not success:
        reason = "key mismatch after reconciliation"
    ledger = entropy_ledger(params.entropy_fit(params.n), transcript.sketch.bit_length,
                            params.lambda_)
    return KeyResult(alice_key=alice_key, bob_key=bob_key, success=success,
                     ledger=ledger, transcript=transcript,
                     failure_reason=reason, n_corrected_bits=corrected)
