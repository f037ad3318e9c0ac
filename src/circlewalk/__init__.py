"""Numerical laboratory for a one-layer softmax-attention predictor
trained on circular random walks: data generation, exact gradients with a
finite-difference oracle, gradient-descent training, and executable checks
of the closed-form training-dynamics predictions.
"""

__version__ = "0.1.0"

from .markov import transition_matrix
from .model import Params, forward, loss_value
from .posembed import build_positional
from .trainer import TrainConfig, train, evaluate, first_step_oracle_v
from .walkgen import WalkConfig, make_dataset, enumerate_deterministic

__all__ = [
    "__version__",
    "WalkConfig", "make_dataset", "enumerate_deterministic",
    "build_positional",
    "transition_matrix",
    "Params", "forward", "loss_value",
    "TrainConfig", "train", "evaluate", "first_step_oracle_v",
]
