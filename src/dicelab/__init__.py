"""Imbalance-aware classification losses with analytic gradients.

Seven interchangeable training losses for binary classifiers (cross entropy,
weighted cross entropy, per-sample and set-level soft dice, Tversky,
self-adjusting dice, focal), each wired with a hand-derived gradient, plus a
bit-reproducible synthetic data generator, a deterministic SGD trainer,
finite-difference gradient audits, and an experiment runner that reports
precision/recall/F1/accuracy across imbalance ratios.

Import the API from its submodules: `dicelab.losses`, `dicelab.metrics`,
`dicelab.rng`, `dicelab.data`, `dicelab.trainer`, `dicelab.verify`,
`dicelab.experiments` and `dicelab.cli`.
"""

__version__ = "0.1.0"
