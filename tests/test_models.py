import hashlib
import re

import numpy as np
import pytest

from woodwatch.cli import main
from woodwatch.errors import TrainingDivergedError
from woodwatch.evaluation import stratified_split
from woodwatch.features import FeatureConfig, save_features
from woodwatch.models import (
    GraphDims,
    ModelKind,
    TOY_DIMS,
    TrainConfig,
    build_model,
    model_inputs,
    predict,
    split_inputs,
    train,
)
from woodwatch.nn import Dense, finite_diff_check, load_checkpoint, save_checkpoint


# sha256 of save_checkpoint's bytes for build_model(kind, seed=7, dims): any
# drift in a layer's KIND, its spec keys or its parameter order changes them
_CHECKPOINT_SHA256 = {
    ("published", "dnn_mean"): "6c0da05b757dcbf12c4c24b172fb51b2cbaeb5712044c21f48614ad83139e8a8",
    ("published", "cnn"): "07186da0429bed60c2304ab7192a5faf8308f44b09b3e8177fcc10a97e1b798a",
    ("published", "lstm"): "a852167dc19b20f65bcaf016d34c65aee5ec7a7afeb77a8a8d8e1d8cc9213309",
    ("published", "cnn_lstm"): "8061df5ca6ad42bdc37dbe8c1bdbbffa6c2c5351679a51d2cc3fd29c29868f57",
    ("toy", "dnn_mean"): "1d881e4ae57620ea6e2a0f3563765782b79d2ad5138a143e0711aecc70d446a9",
    ("toy", "cnn"): "98f7eee8401d930f276dc3e3352b1802277815361f8e3d0ef36f5914fbad4f1a",
    ("toy", "lstm"): "3a6a3cb7de236e89ae77376d4b2767b5d823a24b62d7d55558738c3fb4410552",
    ("toy", "cnn_lstm"): "7c622a7debedfd2089ea019ea35286180d98e05b33e487ad574f7300034947a0",
}


@pytest.mark.parametrize("dims_name, kind", sorted(_CHECKPOINT_SHA256))
def test_checkpoint_bytes_are_pinned(tmp_path, dims_name, kind):
    dims = {"published": GraphDims(), "toy": TOY_DIMS}[dims_name]
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model(kind, seed=7, dims=dims), kind, seed=7,
                    feature_stats={"mean": [0.25] * 40, "std": [2.0] * 40},
                    feature_config=FeatureConfig().to_dict())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _CHECKPOINT_SHA256[dims_name, kind]


def test_dnn_mean_parameter_count():
    graph = build_model(ModelKind.DNN_MEAN, seed=0)
    expected = (40 * 256 + 256) + (256 * 128 + 128) + (128 * 64 + 64) + (64 * 2 + 2)
    assert graph.param_count == expected == 51778


def test_every_kind_outputs_normalized_pairs():
    rng = np.random.default_rng(0)
    for kind in ModelKind:
        graph = build_model(kind, seed=1)
        x = rng.normal(size=(3, 40)) if kind is ModelKind.DNN_MEAN else rng.normal(size=(3, 157, 40))
        probs, _ = predict(graph, x)
        assert probs.shape == (3, 2)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_cnn_lstm_pooled_length():
    # two halvings: floor(floor(157/2)/2) = 39
    graph = build_model(ModelKind.CNN_LSTM, seed=0)
    x = np.random.default_rng(1).normal(size=(1, 157, 40))
    out = x
    for layer in graph.layers[:6]:  # conv/relu/pool, conv/relu/pool
        out = layer.forward(out)
    assert out.shape == (1, 39, 64)


def test_build_model_deterministic_per_seed():
    a = build_model(ModelKind.CNN_LSTM, seed=5)
    b = build_model(ModelKind.CNN_LSTM, seed=5)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa, pb)


def test_toy_dims_under_gradcheck_budget():
    for kind in ModelKind:
        assert build_model(kind, seed=0, dims=TOY_DIMS).param_count < 10_000


def test_gradcheck_passes_for_all_kinds_at_toy_size():
    rng = np.random.default_rng(7)
    onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
    for kind in ModelKind:
        graph = build_model(kind, seed=3, dims=TOY_DIMS)
        x = rng.normal(size=(2, 40)) if kind is ModelKind.DNN_MEAN else rng.normal(size=(2, 8, 40))
        assert finite_diff_check(graph, x, onehot, epsilon=1e-4, seed=11) < 1e-4, kind


def test_train_rejects_zero_epochs():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_train_is_bit_deterministic(tiny_features):
    idx = np.arange(len(tiny_features))
    x, _ = model_inputs(ModelKind.CNN, tiny_features, idx)
    y = tiny_features.labels
    cfg = TrainConfig(epochs=3, batch_size=4, seed=17)
    results = []
    for _ in range(2):
        graph = build_model(ModelKind.CNN, seed=17)
        train(graph, x, y, x, y, cfg)
        results.append([p.copy() for p in graph.params()])
    for pa, pb in zip(*results):
        assert np.array_equal(pa, pb)


def test_train_leaves_no_layer_cache(tiny_features):
    idx = np.arange(len(tiny_features))
    for kind in ModelKind:
        x, _ = model_inputs(kind, tiny_features, idx)
        graph = build_model(kind, seed=8, dims=TOY_DIMS)
        train(graph, x, tiny_features.labels, x, tiny_features.labels,
              TrainConfig(epochs=1, batch_size=4, seed=8))
        assert all(layer._cache is None for layer in graph.layers), kind


@pytest.mark.parametrize("kind", list(ModelKind))
def test_graph_backward_forms_no_gradient_of_the_data(kind):
    graph = build_model(kind, seed=3, dims=TOY_DIMS)
    first = graph.layers[0]
    returned = []
    full_backward = first.backward

    def spy(dy, **kwargs):
        returned.append(full_backward(dy, **kwargs))
        return returned[-1]

    first.backward = spy
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 40)) if kind is ModelKind.DNN_MEAN else rng.normal(size=(2, 8, 40))
    logits = graph.forward(x, train=True, rng=rng)
    assert graph.backward(np.ones_like(logits)) is None
    assert len(returned) == 1 and returned[0] is None


@pytest.mark.parametrize("kind", list(ModelKind))
def test_train_without_validation_fits_the_same_parameters(tiny_features, kind):
    idx = np.arange(len(tiny_features))
    x, _ = model_inputs(kind, tiny_features, idx)
    y = tiny_features.labels
    cfg = TrainConfig(epochs=2, batch_size=4, seed=9)
    runs = []
    for x_val, y_val in ((x, y), (None, None)):
        graph = build_model(kind, seed=9, dims=TOY_DIMS)
        runs.append((train(graph, x, y, x_val, y_val, cfg), graph.params()))
    (validated, validated_params), (unvalidated, params) = runs
    assert len(validated.val_loss) == len(validated.val_accuracy) == 2
    assert unvalidated.val_loss == unvalidated.val_accuracy == []
    assert unvalidated.train_loss == validated.train_loss
    assert unvalidated.train_accuracy == validated.train_accuracy
    for a, b in zip(validated_params, params):
        assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_aborts_on_divergence(tiny_features):
    idx = np.arange(len(tiny_features))
    x, _ = model_inputs(ModelKind.DNN_MEAN, tiny_features, idx)
    graph = build_model(ModelKind.DNN_MEAN, seed=0)
    graph.params()[0][...] = np.inf
    with pytest.raises(TrainingDivergedError):
        train(graph, x, tiny_features.labels, x, tiny_features.labels,
              TrainConfig(epochs=1, batch_size=4, seed=0))


def test_a_non_finite_gradient_stops_training_at_its_epoch_and_batch(tiny_features, tmp_path, monkeypatch,
                                                                     capsys):
    backward = Dense.backward

    def poisoned(self, dy, need_dx=True):
        dx = backward(self, dy, need_dx)
        self.dw[0, 0] = np.nan
        return dx

    monkeypatch.setattr(Dense, "backward", poisoned)
    message = r"epoch 0, batch 0: non-finite gradient in parameter \d+$"
    x, _ = model_inputs(ModelKind.DNN_MEAN, tiny_features, np.arange(len(tiny_features)))
    with pytest.raises(TrainingDivergedError, match="^" + message):
        train(build_model(ModelKind.DNN_MEAN, seed=0), x, tiny_features.labels, None, None,
              TrainConfig(epochs=1, batch_size=4, seed=0))
    dump, ckpt = tmp_path / "f.bin", tmp_path / "m.ckpt"
    save_features(dump, tiny_features)
    assert main(["train", "--features", str(dump), "--kind", "dnn_mean", "--epochs", "1",
                 "--out-checkpoint", str(ckpt)]) == 3
    assert re.search("^error: " + message, capsys.readouterr().err.strip())
    assert not ckpt.exists()


def test_overfit_eight_samples_and_objective_monotone(tiny_features):
    # 8 separable samples; every kind must reach 100% training accuracy and
    # the epoch-end objective (inference-mode loss on the training set, the
    # val series of a train==val run) must not increase after epoch 5.
    pick = np.concatenate([np.arange(4), 8 + np.arange(4)])  # 4 clean + 4 infested
    labels = tiny_features.labels[pick]
    for kind in ModelKind:
        x_all, _ = model_inputs(kind, tiny_features, pick)
        x = x_all[pick]
        graph = build_model(kind, seed=2)
        history = train(graph, x, labels, x, labels,
                        TrainConfig(epochs=60, batch_size=32, seed=2))
        assert max(history.train_accuracy) == 1.0, kind
        objective = history.val_loss
        for epoch in range(5, len(objective) - 1):
            assert objective[epoch + 1] <= objective[epoch] + 1e-3, (kind, epoch)


def test_predict_tie_breaks_toward_clean():
    graph = build_model(ModelKind.DNN_MEAN, seed=0)
    # zero the head: logits are exactly equal
    head = graph.layers[-1]
    head.w[...] = 0.0
    head.b[...] = 0.0
    probs, labels = predict(graph, np.random.default_rng(0).normal(size=(4, 40)))
    assert np.abs(probs - 0.5).max() < 1e-15
    assert not labels.any()


def test_predict_pure_function_of_inputs(tiny_features):
    idx = np.arange(len(tiny_features))
    x, _ = model_inputs(ModelKind.LSTM, tiny_features, idx)
    graph = build_model(ModelKind.LSTM, seed=4)
    p1, l1 = predict(graph, x)
    p2, l2 = predict(graph, x)
    assert np.array_equal(p1, p2) and np.array_equal(l1, l2)


def test_checkpoint_save_load_predict_identical(tmp_path, tiny_features):
    idx = np.arange(len(tiny_features))
    x, stats = model_inputs(ModelKind.CNN_LSTM, tiny_features, idx)
    graph = build_model(ModelKind.CNN_LSTM, seed=6)
    train(graph, x, tiny_features.labels, x, tiny_features.labels,
          TrainConfig(epochs=2, batch_size=8, seed=6))
    before, _ = predict(graph, x)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, graph, ModelKind.CNN_LSTM.value, seed=6,
                    feature_stats=stats.to_dict())
    loaded = load_checkpoint(path)
    after, _ = predict(loaded.graph, x)
    assert np.array_equal(before, after)


def test_model_inputs_contract(tiny_features):
    fit_idx = np.arange(8)
    mean_x, stats = model_inputs(ModelKind.DNN_MEAN, tiny_features, fit_idx)
    assert mean_x.shape == (len(tiny_features), 40)
    assert np.array_equal(mean_x, tiny_features.matrices.mean(axis=1))  # the time mean
    assert stats is None
    seq_x, stats = model_inputs(ModelKind.LSTM, tiny_features, fit_idx)
    assert seq_x.shape == tiny_features.matrices.shape
    assert stats is not None
    # stats derive from the fit rows only
    frames = tiny_features.matrices[fit_idx].reshape(-1, 40)
    assert np.abs(stats.mean - frames.mean(axis=0)).max() < 1e-12


@pytest.mark.parametrize("kind", list(ModelKind))
def test_split_inputs_are_the_model_inputs_rows_bit_for_bit(tiny_features, kind):
    train_idx, test_idx = stratified_split(tiny_features.labels, seed=4)
    full, full_stats = model_inputs(kind, tiny_features, train_idx)
    x_train, x_test, stats = split_inputs(kind, tiny_features, train_idx, test_idx)
    assert x_train.tobytes() == full[train_idx].tobytes()
    assert x_test.tobytes() == full[test_idx].tobytes()
    if full_stats is None:
        assert stats is None
    else:
        assert stats.to_dict() == full_stats.to_dict()


# -- a model run in two pieces: the head rows of a streamed clip, then the rest ------------

def _random_graph(kind):
    """A graph whose every parameter, biases too, is drawn at random."""
    graph = build_model(kind, seed=11)
    rng = np.random.default_rng(11)
    for param in graph.params():
        param[...] = rng.uniform(-0.5, 0.5, size=param.shape)
    return graph


@pytest.mark.parametrize("kind, head_rows, rows, steps", [
    (ModelKind.LSTM, 128, 157, 128),
    (ModelKind.CNN_LSTM, 128, 157, 31),  # each 'same' conv loses its half-kernel, each pool halves
    (ModelKind.LSTM, 34, 157, 34),
    (ModelKind.CNN_LSTM, 100, 157, 24),
])
def test_a_model_resumed_from_its_head_rows_scores_as_one_pass_bit_for_bit(kind, head_rows, rows, steps):
    graph = _random_graph(kind)
    x = np.random.default_rng(rows).standard_normal((1, rows, 40))
    assert graph.head_steps(head_rows, rows) == steps
    head = graph.run_head(x[:, :head_rows], steps)
    assert head.steps == steps and head.h.shape == head.c.shape == (1, 64)
    one_pass, labels = predict(graph, x)
    for _ in range(2):  # resuming leaves the head state as it was
        resumed, resumed_labels = predict(graph, x, head)
        assert resumed.tobytes() == one_pass.tobytes() and np.array_equal(resumed_labels, labels)


@pytest.mark.parametrize("kind, head_rows, rows", [
    (ModelKind.CNN, 128, 157),  # its global pool reads every row
    (ModelKind.DNN_MEAN, 128, 157),
    (ModelKind.LSTM, 33, 157),  # the head piece would end in a one-step projection block
    (ModelKind.LSTM, 120, 153),  # the resumed piece would
    (ModelKind.LSTM, 48, 129),  # the one forward does
    (ModelKind.CNN_LSTM, 136, 157),  # 33 settled steps of 39
    (ModelKind.CNN_LSTM, 5, 157),  # no step settled
    (ModelKind.LSTM, 157, 157),  # no step left to resume
])
def test_a_graph_gives_no_head_steps_where_two_pieces_may_not_give_one_forwards_bits(kind, head_rows, rows):
    assert build_model(kind).head_steps(head_rows, rows) is None
