from .layers import (
    Conv1D,
    Dense,
    Dropout,
    GlobalAvgPool1D,
    HeadState,
    Layer,
    LSTM,
    MaxPool1D,
    ModelGraph,
    ReLU,
    layer_from_spec,
    softmax,
    softmax_cross_entropy,
)
from .optim import Adam
from .gradcheck import finite_diff_check
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint

__all__ = [
    "Adam",
    "Checkpoint",
    "Conv1D",
    "Dense",
    "Dropout",
    "GlobalAvgPool1D",
    "HeadState",
    "LSTM",
    "Layer",
    "MaxPool1D",
    "ModelGraph",
    "ReLU",
    "finite_diff_check",
    "layer_from_spec",
    "load_checkpoint",
    "save_checkpoint",
    "softmax",
    "softmax_cross_entropy",
]
