"""Physical-layer key extraction from paired channel measurements.

Pipeline: learn a hidden-Markov channel model from aligned trace pairs,
estimate the conditional min-entropy available against an eavesdropper,
then quantize, reconcile through a BCH-syndrome secure sketch and amplify
with a Toeplitz extractor, keeping an explicit entropy-loss ledger.
"""

from .channel import ChannelConfig, SimulatedRun, calibrate_to_reference_rates, \
    family_config, measure_rates, simulate_run
from .coding import BchCode, BchSketch, GfTables, RsCode, RsSketch, bch_decode, \
    bch_syndrome, decode_error_from_syndrome, field_tables, rs_recover, rs_sketch, \
    rs_syndrome, ss_recover, ss_sketch
from .errors import CalibrationError, ImpossibleObservationError, InfeasiblePlanError, \
    PhyskeyError, SketchFormatError, UncorrectableBlockError
from .extract import ExtractorSeed, extract, max_extractable_length, random_seed
from .hmm import EntropyEstimate, HmmModel, LinearFit, conditional_min_entropy_given_obs, \
    estimate_avg_conditional_min_entropy, exact_avg_conditional_min_entropy, \
    fit_hmm_from_traces, fit_linear_growth, forward_likelihood, obs_from_values, \
    validate_model, viterbi_max_joint
from .protocol import EntropyLedger, KeyResult, ProtocolParams, Transcript, \
    REFERENCE_ENTROPY_FIT, REFERENCE_ERROR_FIT, correctness_bound, entropy_ledger, \
    plan_parameters, run_exchange
from .quantize import BitString, embed_trace, embed_unary, hamming_distance, \
    residue_levels, residue_neighbor_bits, residue_words
from .stats import AssumptionReport, CorrelationReport, KsReport, ks_two_sample, \
    lag_correlation_profile, pearson_significance, validate_assumptions
from .traces import MeasurementTrace, TraceFile, ingest_traces, make_trace

__version__ = "0.1.0"
