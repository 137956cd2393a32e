"""Collective entanglement witness laboratory.

Samples random two-qubit and qubit-qutrit density matrices, simulates
two-copy collective measurements, trains a small neural regressor of
Negativity on the outcome probabilities, and characterizes the resulting
witness with ROC curves against analytic baselines.

The API lives in the submodules (`cewlab.states`, `cewlab.measure`,
`cewlab.dataset`, `cewlab.model`, `cewlab.evaluate`, `cewlab.cli`).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
