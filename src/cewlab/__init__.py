"""Collective entanglement witness laboratory.

Samples random two-qubit and qubit-qutrit density matrices, simulates
two-copy collective measurements, trains a small neural regressor of
Negativity on the outcome probabilities, and characterizes the resulting
witness with ROC curves against analytic baselines.
"""

__version__ = "0.1.0"

from .dataset import (CHUNK, Dataset, generate, load, regenerate_states,
                      restrict, save, split)
from .errors import (CewlabError, DegenerateConditioning, DegenerateLabels,
                     DimensionMismatch, DivergedTraining, EmptyDataset,
                     FormatError, NotHermitian, UnknownPreset)
from .evaluate import (RocCurve, Witness, baseline_rates, baseline_sensitivity,
                       chsh_violation, fef, roc_curve, tpr_at_fpr, witness_scores,
                       write_roc)
from .measure import (FeatureVector, LocalEffect, MeasurementPreset, bell_singlet,
                      builtin_presets, features, local_effects, p_xy,
                      preset_by_name, qubit_tetrahedron, qutrit_nine)
from .model import (Mlp, TrainConfig, TrainResult, forward, gradient, init_mlp,
                    load_model, predict_negativity, save_model, train)
from .qlinalg import (haar_unitary, hermitian_eigenvalues, make_rng,
                      swap_operator)
from .states import (ENTANGLE_EPS, CollectiveState, DensityMatrix, SystemKind,
                     collective_state, is_entangled, negativity,
                     partial_transpose, sample_density)

__all__ = [
    "CHUNK", "CewlabError", "CollectiveState", "Dataset",
    "DegenerateConditioning", "DegenerateLabels", "DensityMatrix",
    "DimensionMismatch", "DivergedTraining", "ENTANGLE_EPS", "EmptyDataset",
    "FeatureVector", "FormatError", "LocalEffect", "MeasurementPreset", "Mlp",
    "NotHermitian", "RocCurve", "SystemKind", "TrainConfig", "TrainResult",
    "UnknownPreset", "Witness", "baseline_rates", "baseline_sensitivity",
    "bell_singlet", "builtin_presets", "chsh_violation", "collective_state",
    "features", "fef", "forward", "generate", "gradient", "haar_unitary",
    "hermitian_eigenvalues", "init_mlp", "is_entangled", "load", "load_model",
    "local_effects", "make_rng", "negativity", "p_xy", "partial_transpose",
    "predict_negativity", "preset_by_name", "qubit_tetrahedron", "qutrit_nine",
    "regenerate_states", "restrict", "roc_curve", "sample_density", "save",
    "save_model", "split", "swap_operator", "tpr_at_fpr", "train",
    "witness_scores", "write_roc",
]
