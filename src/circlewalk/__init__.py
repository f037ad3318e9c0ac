"""Numerical laboratory for a one-layer softmax-attention predictor
trained on circular random walks: data generation, closed-form batched
gradients, gradient-descent training, and executable checks of the
closed-form training-dynamics predictions.  The dense per-episode model
and its finite-difference oracle, for the tests, are `circlewalk.model`.
"""

__version__ = "0.1.0"

from .markov import transition_matrix
from .posembed import build_positional
from .trainer import TrainConfig, train, evaluate, first_step_oracle_v
from .walkgen import WalkConfig, make_dataset, enumerate_deterministic

__all__ = [
    "__version__",
    "WalkConfig", "make_dataset", "enumerate_deterministic",
    "build_positional",
    "transition_matrix",
    "TrainConfig", "train", "evaluate", "first_step_oracle_v",
]
