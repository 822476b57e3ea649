import numpy as np
import pytest

from woodwatch.errors import TrainingDivergedError
from woodwatch.evaluation import stratified_split
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
from woodwatch.nn import finite_diff_check, load_checkpoint, save_checkpoint


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
    full, _ = model_inputs(kind, tiny_features, train_idx)
    x_train, x_test = split_inputs(kind, tiny_features, train_idx, test_idx)
    assert x_train.tobytes() == full[train_idx].tobytes()
    assert x_test.tobytes() == full[test_idx].tobytes()
