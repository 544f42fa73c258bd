"""Deterministic full-batch training of MLPs and GCNs by alternating
block minimization of an augmented Lagrangian, with backprop-based
reference optimizers for comparison."""

from .errors import (
    BacktrackError,
    DataError,
    DivergenceError,
    FormatError,
    ShapeError,
)
from .linalg import Rng
from .objective import Dataset, MlpArchitecture, MlpState, Regularizer
from .training import TrainConfig, TrainResult, train
from .gcn import GcnConfig, Graph, gcn_train
from .baselines import BaselineConfig, run_baseline

__version__ = "0.1.0"

__all__ = [
    "BacktrackError",
    "BaselineConfig",
    "DataError",
    "Dataset",
    "DivergenceError",
    "FormatError",
    "GcnConfig",
    "Graph",
    "MlpArchitecture",
    "MlpState",
    "Regularizer",
    "Rng",
    "ShapeError",
    "TrainConfig",
    "TrainResult",
    "gcn_train",
    "run_baseline",
    "train",
]
