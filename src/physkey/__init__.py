"""Physical-layer key extraction from paired channel measurements.

Pipeline: learn a hidden-Markov channel model from aligned trace pairs,
estimate the conditional min-entropy available against an eavesdropper,
then quantize, reconcile through a BCH-syndrome secure sketch and amplify
with a Toeplitz extractor, keeping an explicit entropy-loss ledger.
"""

__version__ = "0.1.0"
