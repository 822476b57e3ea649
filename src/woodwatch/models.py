"""The four classifier architectures and their shared training loop.

``dnn_mean`` consumes 40-dim time-mean feature vectors; the three sequence
models consume standardized [T, 40] coefficient matrices. All output two
logits; :func:`predict` turns them into probabilities. Training is
mini-batch Adam with per-epoch seeded shuffling and is bit-reproducible for
a fixed seed.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio import CANONICAL_RATE
from .errors import CheckpointError, TrainingDivergedError
from .features import (FeatureConfig, FeatureSet, StandardizeStats, apply_standardize, fit_standardize,
                       mel_filterbank)
from .nn import (
    Adam,
    Conv1D,
    Dense,
    Dropout,
    GlobalAvgPool1D,
    HeadState,
    LSTM,
    MaxPool1D,
    ModelGraph,
    ReLU,
    load_checkpoint,
    softmax,
    softmax_cross_entropy,
)

N_CLASSES = 2


class ModelKind(str, enum.Enum):
    DNN_MEAN = "dnn_mean"
    CNN = "cnn"
    LSTM = "lstm"
    CNN_LSTM = "cnn_lstm"


@dataclass(frozen=True)
class GraphDims:
    """Architecture sizes; the defaults are the published configuration."""

    n_features: int = 40
    dense_units: tuple[int, ...] = (256, 128, 64)
    conv1_filters: int = 32
    conv1_kernel: int = 5
    conv2_filters: int = 64
    conv2_kernel: int = 3
    pool_width: int = 2
    lstm_hidden: int = 64
    head_units: int = 64
    dropout: float = 0.3


#: Reduced sizes for gradient diagnostics (keeps graphs under 10^4 parameters).
TOY_DIMS = GraphDims(
    dense_units=(24, 12, 8),
    conv1_filters=6,
    conv2_filters=8,
    lstm_hidden=8,
    head_units=12,
)


def build_model(kind: ModelKind, seed: int = 0, dims: GraphDims = GraphDims()) -> ModelGraph:
    """Construct an initialized graph. All weights come from one generator
    seeded here, drawn in layer order."""
    rng = np.random.default_rng(seed)
    kind = ModelKind(kind)
    drop = dims.dropout
    layers = []
    if kind is ModelKind.DNN_MEAN:
        in_dim = dims.n_features
        for units in dims.dense_units:
            layers += [Dense(in_dim, units, rng), ReLU(), Dropout(drop)]
            in_dim = units
        layers.append(Dense(in_dim, N_CLASSES, rng))
        return ModelGraph(layers)

    if kind in (ModelKind.CNN, ModelKind.CNN_LSTM):
        layers += [
            Conv1D(dims.n_features, dims.conv1_filters, dims.conv1_kernel, rng), ReLU(),
            MaxPool1D(dims.pool_width),
            Conv1D(dims.conv1_filters, dims.conv2_filters, dims.conv2_kernel, rng), ReLU(),
            MaxPool1D(dims.pool_width),
        ]
        if kind is ModelKind.CNN:
            layers.append(GlobalAvgPool1D())
            head_in = dims.conv2_filters
        else:
            layers.append(LSTM(dims.conv2_filters, dims.lstm_hidden, rng))
            head_in = dims.lstm_hidden
    else:  # pure LSTM
        layers.append(LSTM(dims.n_features, dims.lstm_hidden, rng))
        head_in = dims.lstm_hidden

    layers += [
        Dense(head_in, dims.head_units, rng), ReLU(), Dropout(drop),
        Dense(dims.head_units, N_CLASSES, rng),
    ]
    return ModelGraph(layers)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _onehot(labels: np.ndarray) -> np.ndarray:
    out = np.zeros((len(labels), N_CLASSES))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _eval_pass(graph: ModelGraph, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    logits = graph.forward(x, train=False)
    loss, probs, _ = softmax_cross_entropy(logits, _onehot(y))
    accuracy = float((probs.argmax(axis=1) == y).mean())
    return loss, accuracy


def train(graph: ModelGraph, x_train: np.ndarray, y_train: np.ndarray,
          x_val: np.ndarray | None, y_val: np.ndarray | None,
          cfg: TrainConfig = TrainConfig()) -> TrainHistory:
    """Train in place; returns the per-epoch history.

    One generator seeded with cfg.seed drives both the per-epoch shuffle
    and the dropout masks, so identical seeds give bit-identical parameters.
    Training loss/accuracy are running means over the epoch's batches;
    validation is a full inference pass at each epoch end. With ``x_val``
    and ``y_val`` None there is no validation and the ``val_*`` lists stay
    empty; the validation pass draws nothing from the generator, so the
    parameters are the same either way.
    """
    n = len(x_train)
    if n == 0:
        raise ValueError("training set must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    adam = Adam(graph.params())
    onehot_all = _onehot(y_train)
    history = TrainHistory()

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            logits = graph.forward(x_train[idx], train=True, rng=rng)
            loss, probs, dlogits = softmax_cross_entropy(logits, onehot_all[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            graph.backward(dlogits)
            try:
                adam.step(graph.grads())
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"epoch {epoch}, batch {batch_index}: {exc}"
                ) from exc
            loss_sum += loss * len(idx)
            correct += int((probs.argmax(axis=1) == y_train[idx]).sum())
        history.train_loss.append(loss_sum / n)
        history.train_accuracy.append(correct / n)
        if x_val is not None:
            val_loss, val_acc = _eval_pass(graph, x_val, y_val)
            history.val_loss.append(val_loss)
            history.val_accuracy.append(val_acc)
    return history


def predict(graph: ModelGraph, x: np.ndarray, head: HeadState | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Inference-mode class probabilities and argmax labels (ties -> clean).
    With ``head``, the graph's LSTM resumes from that state (``ModelGraph.forward``)."""
    probs = softmax(graph.forward(x, head=head))
    return probs, probs.argmax(axis=1)


def to_model_input(kind: ModelKind, matrices: np.ndarray, stats: StandardizeStats | None) -> np.ndarray:
    """[N, T, C] MFCC matrices as model input: time means for dnn_mean, else standardized."""
    if ModelKind(kind) is ModelKind.DNN_MEAN:
        return matrices.mean(axis=1)
    return apply_standardize(matrices, stats)


def model_inputs(kind: ModelKind, features: FeatureSet,
                 fit_indices: np.ndarray) -> tuple[np.ndarray, StandardizeStats | None]:
    """Model input for every clip of the set, plus the standardization stats
    (None for dnn_mean), fit on ``fit_indices`` only (the training portion)."""
    stats = None if ModelKind(kind) is ModelKind.DNN_MEAN else fit_standardize(features.matrices[fit_indices])
    return to_model_input(kind, features.matrices, stats), stats


def split_inputs(kind: ModelKind, features: FeatureSet, train_idx: np.ndarray, test_idx: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, StandardizeStats | None]:
    """``model_inputs(kind, features, train_idx)``'s rows at ``train_idx`` and at
    ``test_idx``, bit-equal, and its stats, built from those rows alone, so no
    input for the whole set is held."""
    x_train = features.matrices[train_idx]
    stats = None if ModelKind(kind) is ModelKind.DNN_MEAN else fit_standardize(x_train)
    return to_model_input(kind, x_train, stats), to_model_input(kind, features.matrices[test_idx], stats), stats


def load_model(path: str | Path) -> tuple[ModelGraph, ModelKind, FeatureConfig,
                                         StandardizeStats | None, str]:
    """A checkpoint's graph, kind, feature config, standardization stats and id.

    The feature config must run at the canonical rate, and stats must hold
    one finite mean and one finite, positive std per coefficient of it;
    anything else raises CheckpointError.
    """
    checkpoint = load_checkpoint(path)
    try:
        kind = ModelKind(checkpoint.kind)
        cfg = FeatureConfig.from_dict(checkpoint.feature_config) if checkpoint.feature_config else FeatureConfig()
        mel_filterbank(cfg, CANONICAL_RATE)  # fmax past the canonical Nyquist raises
        stats = StandardizeStats.from_dict(checkpoint.feature_stats) if checkpoint.feature_stats else None
        if stats is not None:
            if not stats.mean.shape == stats.std.shape == (cfg.n_mfcc,):
                raise ValueError(f"feature_stats mean {stats.mean.shape} and std {stats.std.shape} "
                                 f"must both hold n_mfcc = {cfg.n_mfcc} values")
            if not (np.isfinite(stats.mean).all() and np.isfinite(stats.std).all() and (stats.std > 0).all()):
                raise ValueError("feature_stats must be finite, with every std > 0")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad header: {exc!r}") from exc
    if kind is not ModelKind.DNN_MEAN and checkpoint.feature_stats is None:
        raise CheckpointError(f"{path}: {kind.value} checkpoint lacks feature standardization stats")
    return checkpoint.graph, kind, cfg, stats, checkpoint.digest
