import builtins
import hashlib
import io
import json
import math
import struct

import numpy as np
import pytest

import oracles
from woodwatch.container import write_container
from woodwatch.errors import CheckpointError, TrainingDivergedError
from woodwatch.nn import (
    Adam,
    Conv1D,
    Dense,
    Dropout,
    GlobalAvgPool1D,
    LSTM,
    MaxPool1D,
    ModelGraph,
    ReLU,
    finite_diff_check,
    layer_from_spec,
    load_checkpoint,
    save_checkpoint,
    softmax,
    softmax_cross_entropy,
)
from woodwatch.nn.layers import _LAYER_KINDS

RNG = np.random.default_rng(12345)


# -- dense --------------------------------------------------------------------

def test_dense_identity_and_bias():
    layer = Dense(3, 3)
    layer.w[...] = np.eye(3)
    x = RNG.normal(size=(4, 3))
    assert np.array_equal(layer.forward(x), x)

    layer.w[...] = 0.0
    layer.b[...] = [1.0, 2.0, 3.0]
    out = layer.forward(x)
    assert np.array_equal(out, np.tile([1.0, 2.0, 3.0], (4, 1)))


def test_dense_matches_triple_loop():
    x = RNG.normal(size=(3, 4))
    layer = Dense(4, 2, rng=np.random.default_rng(0))
    out = layer.forward(x)
    expected = np.zeros((3, 2))
    for b in range(3):
        for j in range(2):
            expected[b, j] = layer.b[j] + sum(x[b, i] * layer.w[i, j] for i in range(4))
    assert np.abs(out - expected).max() < 1e-12


def test_dense_shape_error():
    with pytest.raises(ValueError):
        Dense(4, 2).forward(np.zeros((3, 5)))


# -- conv ---------------------------------------------------------------------

def test_conv_pointwise_identity():
    layer = Conv1D(3, 3, 1)
    layer.k[0] = np.eye(3)
    x = RNG.normal(size=(2, 7, 3))
    assert np.abs(layer.forward(x) - x).max() < 1e-15


def test_conv_zero_input_broadcasts_bias():
    layer = Conv1D(2, 4, 3, rng=np.random.default_rng(1))
    layer.b[...] = [1.0, -1.0, 2.0, 0.5]
    out = layer.forward(np.zeros((2, 5, 2)))
    assert np.array_equal(out, np.tile(layer.b, (2, 5, 1)))


def test_conv_matches_five_loop_oracle():
    x = RNG.normal(size=(2, 6, 3))
    layer = Conv1D(3, 4, 5, rng=np.random.default_rng(2))
    out = layer.forward(x)
    pad = 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    expected = np.zeros((2, 6, 4))
    for b in range(2):
        for t in range(6):
            for co in range(4):
                acc = layer.b[co]
                for dt in range(5):
                    for ci in range(3):
                        acc += xp[b, t + dt, ci] * layer.k[dt, ci, co]
                expected[b, t, co] = acc
    assert np.abs(out - expected).max() < 1e-12


@pytest.mark.parametrize("batch,steps,c_in,c_out,width", [
    (2, 1, 3, 2, 5),  # T < width: every output reads padding on both sides
    (2, 2, 3, 2, 5),
    (3, 9, 4, 5, 3),
    (2, 7, 3, 4, 1),
])
def test_conv_forward_and_backward_match_loop_oracle(batch, steps, c_in, c_out, width):
    rng = np.random.default_rng(100 * steps + width)
    layer = Conv1D(c_in, c_out, width, rng=rng)
    layer.b[...] = rng.normal(size=c_out)
    x = rng.normal(size=(batch, steps, c_in))
    dy = rng.normal(size=(batch, steps, c_out))
    y = layer.forward(x, train=True)
    dx = layer.backward(dy)
    expected = oracles.conv1d_reference(x, layer.k, layer.b, dy)
    for got, ref in zip((y, dx, layer.dk, layer.db), expected):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() < 1e-12


def test_conv_rejects_even_kernel():
    with pytest.raises(ValueError):
        Conv1D(1, 1, 2)


# -- pooling ------------------------------------------------------------------

def test_maxpool_example_and_identity():
    x = np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1)
    assert MaxPool1D(2).forward(x).reshape(-1).tolist() == [3.0, 5.0]
    assert np.array_equal(MaxPool1D(1).forward(x), x)


def test_maxpool_gradient_routes_to_first_argmax():
    layer = MaxPool1D(2)
    x = np.array([2.0, 2.0, 1.0, 4.0]).reshape(1, 4, 1)
    layer.forward(x, train=True)
    dx = layer.backward(np.array([10.0, 20.0]).reshape(1, 2, 1))
    assert dx.reshape(-1).tolist() == [10.0, 0.0, 0.0, 20.0]


@pytest.mark.parametrize("tied", [False, True])
def test_maxpool_matches_argmax_oracle_bit_for_bit(tied):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 11, 3))  # width 3: windows of 3 and a remainder of 2
    if tied:
        x = rng.integers(0, 2, size=x.shape).astype(float)  # most windows hold ties
    dy = rng.normal(size=(2, 3, 3))
    layer = MaxPool1D(3)
    y = layer.forward(x, train=True)
    ref_y, ref_dx = oracles.maxpool_reference(x, 3, dy)
    assert np.array_equal(y, ref_y)
    assert np.array_equal(layer.backward(dy), ref_dx)


def test_global_avg_pool():
    x = RNG.normal(size=(2, 5, 3))
    layer = GlobalAvgPool1D()
    assert np.abs(layer.forward(x) - x.mean(axis=1)).max() < 1e-15


# -- lstm ---------------------------------------------------------------------

# The row-block GEMMs of the served graphs (batch 1, T = 157, published dims):
# the first Conv1D, the second after a pool, the cnn_lstm LSTM's input
# projection, and the lstm's, which takes its input 32 steps at a time.
_SERVED_GEMMS = [(157, 40, 32), (78, 32, 64), (39, 64, 256), *((m, 40, 256) for m in range(2, 33))]


@pytest.mark.parametrize("m, k, n", _SERVED_GEMMS)
def test_a_product_over_rows_lo_to_hi_is_those_rows_of_the_whole_product(m, k, n):
    # ModelGraph.head_steps relies on this BLAS property to run a model in
    # two pieces; a one-row piece takes the gemv path and may differ
    rng = np.random.default_rng([m, k, n])
    x, w = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    whole = x @ w
    for lo in range(m - 1):
        for hi in range(lo + 2, m + 1):
            assert np.array_equal(x[lo:hi] @ w, whole[lo:hi]), (lo, hi)


def test_lstm_zero_weights_zero_state():
    layer = LSTM(2, 3)
    layer.b[...] = 0.0
    h = layer.forward(np.zeros((2, 1, 2)))
    assert not h.any()  # o=0.5, tanh(c)=0


def test_lstm_zero_weights_carries_half_cell():
    # step 1 writes c_prev = 0.5 * tanh(x) through the cell-candidate columns of W;
    # step 2 has zero input, U and b, so every sigmoid gate is 0.5 and g = 0
    layer = LSTM(3, 3)
    layer.b[...] = 0.0
    layer.w[:, 6:9] = np.eye(3)
    x = np.array([[np.arctanh([0.8, -0.4, 0.9]), np.zeros(3)]])
    h = layer.forward(x, train=True)
    _, _, cs, _ = layer._cache  # cell states c_0 .. c_T
    c_prev, c = cs[1], cs[2]
    assert np.abs(c_prev - 0.5 * np.array([[0.8, -0.4, 0.9]])).max() < 1e-15
    assert np.abs(c - 0.5 * c_prev).max() < 1e-15
    assert np.abs(h - 0.5 * np.tanh(0.5 * c_prev)).max() < 1e-15


@pytest.mark.parametrize("batch, steps", [(1, 1), (3, 33), (2, 64), (2, 70)])
def test_lstm_matches_per_step_oracle(batch, steps):
    # T = 33 and 70 cross the 32-step input-projection block; 64 fills two exactly
    rng = np.random.default_rng(steps)
    layer = LSTM(3, 4, rng=rng)
    layer.b[...] = rng.normal(size=layer.b.shape)
    x = rng.normal(size=(batch, steps, 3))
    dh = rng.normal(size=(batch, 4))
    h = layer.forward(x, train=True)
    dx = layer.backward(dh)
    ref_h, ref_dx, ref_dw, ref_du, ref_db = oracles.lstm_reference(x, layer.w, layer.u, layer.b, dh)
    assert np.abs(h - ref_h).max() < 1e-12
    assert np.abs(layer.forward(x) - ref_h).max() < 1e-12  # inference path
    head = layer.run(x[:, : steps // 2])
    kept = [s.copy() for s in head]
    assert np.abs(layer.forward(x[:, steps // 2 :], state=head) - ref_h).max() < 1e-12  # resumed
    assert all(np.array_equal(s, k) for s, k in zip(head, kept))  # the state it started from is unchanged
    assert dx.shape == x.shape and np.abs(dx - ref_dx).max() < 1e-12
    assert np.abs(layer.dw - ref_dw).max() < 1e-12
    assert np.abs(layer.du - ref_du).max() < 1e-12
    assert np.abs(layer.db - ref_db).max() < 1e-12


def test_lstm_forget_bias_initialized_to_one():
    layer = LSTM(4, 5, rng=np.random.default_rng(0))
    assert np.array_equal(layer.b[5:10], np.ones(5))
    assert not layer.b[:5].any() and not layer.b[10:].any()


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    graph = ModelGraph([LSTM(3, 3, rng=rng), Dense(3, 2, rng=rng)])
    x = rng.normal(size=(2, 4, 3))
    onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert finite_diff_check(graph, x, onehot, epsilon=1e-4) < 1e-4


# -- softmax cross-entropy ------------------------------------------------------

def test_softmax_ce_symmetric_logits():
    logits = np.zeros((4, 2))
    onehot = np.tile([1.0, 0.0], (4, 1))
    loss, probs, grad = softmax_cross_entropy(logits, onehot)
    assert loss == pytest.approx(math.log(2))
    assert np.abs(probs - 0.5).max() < 1e-15


def test_softmax_ce_saturated_is_finite():
    logits = np.array([[1000.0, 0.0]])
    loss, probs, _ = softmax_cross_entropy(logits, np.array([[1.0, 0.0]]))
    assert 0.0 <= loss < 1e-6
    assert np.isfinite(probs).all()


def test_softmax_rows_sum_to_one():
    logits = RNG.normal(size=(8, 2)) * 10
    _, probs, _ = softmax_cross_entropy(logits, np.tile([0.0, 1.0], (8, 1)))
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    assert (probs > 0).all() and (probs < 1).all()
    # saturated logits still sum to 1 and stay within [0, 1]
    wild = RNG.normal(size=(8, 2)) * 500
    _, probs, _ = softmax_cross_entropy(wild, np.tile([0.0, 1.0], (8, 1)))
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
    assert (probs >= 0).all() and (probs <= 1).all()


def test_softmax_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(3, 2))
    onehot = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    _, _, grad = softmax_cross_entropy(logits, onehot)
    eps = 1e-6
    for b in range(3):
        for k in range(2):
            bumped = logits.copy()
            bumped[b, k] += eps
            lp, _, _ = softmax_cross_entropy(bumped, onehot)
            bumped[b, k] -= 2 * eps
            lm, _, _ = softmax_cross_entropy(bumped, onehot)
            numeric = (lp - lm) / (2 * eps)
            assert abs(grad[b, k] - numeric) < 1e-5


# -- dropout -------------------------------------------------------------------

def test_dropout_identity_cases():
    x = RNG.normal(size=(4, 4))
    assert np.array_equal(Dropout(0.0).forward(x, train=True, rng=np.random.default_rng(0)), x)
    assert np.array_equal(Dropout(0.5).forward(x, train=False), x)
    # rate 0 in train mode draws nothing and its backward is the identity
    gen = np.random.default_rng(0)
    layer = Dropout(0.0)
    layer.forward(x, train=True, rng=gen)
    assert np.array_equal(layer.backward(x), x)
    assert gen.random() == np.random.default_rng(0).random()


def test_dropout_mean_preserved():
    out = Dropout(0.3).forward(np.ones(100_000), train=True, rng=np.random.default_rng(3))
    assert 0.97 <= out.mean() <= 1.03


def test_dropout_requires_rng_in_train_mode():
    with pytest.raises(ValueError):
        Dropout(0.3).forward(np.ones(4), train=True)


# -- adam ----------------------------------------------------------------------

def test_adam_zero_gradient_is_noop():
    p = np.array([1.0, -2.0])
    Adam([p]).step([np.zeros(2)])
    assert p.tolist() == [1.0, -2.0]


def test_adam_first_step_magnitude():
    p = np.array([0.0])
    Adam([p]).step([np.array([0.5])])
    assert p[0] == pytest.approx(-1e-3 * 0.5 / (0.5 + 1e-8), rel=1e-9)


def test_adam_matches_scalar_recurrence():
    p = np.array([1.0])
    adam = Adam([p])
    seen = []
    for _ in range(3):
        adam.step([2.0 * p])
        seen.append(p[0])
    expected = oracles.adam_scalar_trajectory(1.0, 3)
    assert np.abs(np.array(seen) - np.array(expected)).max() < 1e-15


def test_adam_aborts_on_nonfinite_gradient():
    p = np.array([1.0])
    with pytest.raises(TrainingDivergedError):
        Adam([p]).step([np.array([np.nan])])


# -- finite difference harness ---------------------------------------------------

def test_gradcheck_small_on_linear_model():
    rng = np.random.default_rng(1)
    graph = ModelGraph([Dense(3, 2, rng=rng)])
    x = rng.normal(size=(4, 3))
    onehot = np.tile([1.0, 0.0], (4, 1))
    assert finite_diff_check(graph, x, onehot) < 1e-8


def test_gradcheck_detects_doubled_gradient():
    class DoubledDense(Dense):
        def backward(self, dy, need_dx=True):
            out = super().backward(dy, need_dx)
            self.dw *= 2.0
            return out

    rng = np.random.default_rng(2)
    layer = DoubledDense(3, 2, rng=rng)
    graph = ModelGraph([layer])
    x = rng.normal(size=(4, 3))
    onehot = np.tile([0.0, 1.0], (4, 1))
    err = finite_diff_check(graph, x, onehot)
    assert err == pytest.approx(1.0 / 3.0, abs=0.02)


def test_maxpool_gradcheck():
    rng = np.random.default_rng(3)
    graph = ModelGraph([
        Conv1D(2, 3, 3, rng=rng), ReLU(), MaxPool1D(2),
        GlobalAvgPool1D(), Dense(3, 2, rng=rng),
    ])
    x = rng.normal(size=(2, 8, 2))
    onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert finite_diff_check(graph, x, onehot) < 1e-4


# -- train-state contract ----------------------------------------------------------

# a small spec and input shape for every layer kind; a new kind fails here until it has one
_CONTRACT_CASES = {
    "dense": ({"in": 3, "out": 2}, (4, 3)),
    "relu": ({}, (2, 5, 3)),
    "dropout": ({"rate": 0.5}, (2, 5, 3)),
    "conv1d": ({"in": 3, "out": 2, "kernel": 3}, (2, 6, 3)),
    "maxpool1d": ({"width": 2}, (2, 7, 3)),
    "globalavgpool1d": ({}, (2, 5, 3)),
    "lstm": ({"in": 3, "hidden": 2}, (2, 5, 3)),
}


@pytest.mark.parametrize("kind", sorted(_LAYER_KINDS))
def test_layer_backward_takes_its_cache_and_overwrites_gradients(kind):
    spec, shape = _CONTRACT_CASES[kind]
    spec = {"kind": kind, **spec}
    rng = np.random.default_rng(21)
    layer = layer_from_spec(spec)
    for param in layer.params():
        param[...] = rng.normal(size=param.shape)
    x = rng.normal(size=shape)
    dy = rng.normal(size=layer.forward(x).shape)
    with pytest.raises(RuntimeError):  # no forward at all
        layer_from_spec(spec).backward(dy)
    with pytest.raises(RuntimeError):  # an inference forward keeps no cache
        layer.backward(dy)

    def train_step():
        before = set(vars(layer))
        layer.forward(x, train=True, rng=np.random.default_rng(5))
        assert set(vars(layer)) - before <= {"_cache"}  # no other train state
        dx = layer.backward(dy)
        assert layer._cache is None
        return [dx] + [g.copy() for g in layer.grads()]

    first = train_step()
    with pytest.raises(RuntimeError):  # the first backward took the cache
        layer.backward(dy)
    second = train_step()
    for a, b in zip(first, second):  # gradients are overwritten, not accumulated
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", sorted(_LAYER_KINDS))
def test_layer_declarations_round_trip_the_spec_and_pair_each_parameter_with_its_gradient(kind):
    spec = {"kind": kind, **_CONTRACT_CASES[kind][0]}
    layer = layer_from_spec(spec)
    assert type(layer) is _LAYER_KINDS[kind] and type(layer).KIND == kind
    assert layer.spec() == spec
    assert layer_from_spec(layer.spec()).spec() == layer.spec()
    params, grads = layer.params(), layer.grads()
    assert len(params) == len(grads) == {"dense": 2, "conv1d": 2, "lstm": 3}.get(kind, 0)
    for param, grad in zip(params, grads):
        assert param.shape == grad.shape
    arrays = params + grads
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_a_layer_spec_without_a_constructor_key_is_a_checkpoint_error(tmp_path):
    graph = ModelGraph([Dense(3, 2)])
    specs = [{"kind": "dense", "in": 3}]  # no "out"
    header = {"format_version": 2, "kind": "dnn_mean", "layers": specs, "seed": 0,
              "param_count": graph.param_count, "feature_stats": None, "feature_config": None}
    path = tmp_path / "no-out.ckpt"
    write_container(path, b"WWCK", header, np.zeros(graph.param_count))
    with pytest.raises(CheckpointError, match="bad header"):
        load_checkpoint(path)
    with pytest.raises(ValueError, match="unknown layer kind 'softmax'"):
        layer_from_spec({"kind": "softmax"})


@pytest.mark.parametrize("kind", ["dense", "conv1d", "lstm"])
def test_skipping_the_input_gradient_keeps_parameter_gradients_bit_equal(kind):
    spec, shape = _CONTRACT_CASES[kind]
    if kind == "lstm":
        shape = (2, 70, 3)  # more than one block in both passes, the last one partial
    layer = layer_from_spec({"kind": kind, **spec})
    rng = np.random.default_rng(31)
    for param in layer.params():
        param[...] = rng.normal(size=param.shape)
    x = rng.normal(size=shape)
    dy = rng.normal(size=layer.forward(x).shape)
    grads = []
    for need_dx in (True, False):
        layer.forward(x, train=True)
        dx = layer.backward(dy, need_dx=need_dx)
        assert (dx is None) is not need_dx
        grads.append([g.copy() for g in layer.grads()])
    for full, skipped in zip(*grads):
        assert full.tobytes() == skipped.tobytes()


# -- graph & checkpoint -----------------------------------------------------------

def make_graph(seed=0):
    rng = np.random.default_rng(seed)
    return ModelGraph([
        Conv1D(4, 3, 3, rng=rng), ReLU(), MaxPool1D(2),
        LSTM(3, 5, rng=rng), Dense(5, 2, rng=rng),
    ])


def test_param_count_closed_form():
    graph = make_graph()
    expected = (3 * 4 * 3 + 3) + (3 * 20 + 5 * 20 + 20) + (5 * 2 + 2)
    assert graph.param_count == expected


def test_inference_forward_writes_no_layer_state():
    graph = make_graph()
    x = RNG.normal(size=(2, 6, 4))
    before = {id(layer): dict(vars(layer)) for layer in graph.layers}
    graph.forward(x, train=False)
    for layer in graph.layers:
        assert set(vars(layer)) == set(before[id(layer)])


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    graph = make_graph(seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, graph, "cnn_lstm", seed=9,
                    feature_stats={"mean": [0.0], "std": [1.0]})
    loaded = load_checkpoint(path)
    assert loaded.kind == "cnn_lstm"
    assert loaded.seed == 9
    assert loaded.feature_stats == {"mean": [0.0], "std": [1.0]}
    for a, b in zip(graph.params(), loaded.graph.params()):
        assert np.array_equal(a, b)
    x = RNG.normal(size=(3, 6, 4))
    assert np.array_equal(graph.forward(x), loaded.graph.forward(x))


def test_checkpoint_file_is_read_once_and_its_digest_names_those_bytes(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_graph(seed=4), "cnn_lstm", seed=4)
    real_open = io.open
    opened = []

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)  # what pathlib calls
    monkeypatch.setattr(builtins, "open", counting_open)
    loaded = load_checkpoint(path)
    monkeypatch.undo()
    assert opened == ["rb"]
    assert loaded.digest == hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def test_checkpoint_builds_its_graph_once(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, make_graph(seed=4), "cnn_lstm", seed=4)
    real_from_specs = ModelGraph.from_specs.__func__
    calls = []

    def counting_from_specs(cls, specs):
        calls.append(specs)
        return real_from_specs(cls, specs)

    monkeypatch.setattr(ModelGraph, "from_specs", classmethod(counting_from_specs))
    load_checkpoint(path)
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, bad):
    graph = make_graph(seed=5)
    graph.layers[-1].b[0] = bad
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, graph, "cnn_lstm", seed=5)
    with pytest.raises(CheckpointError, match="NaN or infinite"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    for blob in [
        b"not a checkpoint at all",
        b"",
        b"WWCK",
        b"WWCK" + struct.pack("<I", 99) + b"{}",  # header longer than the file
        b"WWCK" + struct.pack("<I", 2) + b"\xff\xfe",  # header not UTF-8
        b"WWCK" + struct.pack("<I", 2) + b"[]",  # header not a JSON object
        b"WWCK" + struct.pack("<I", 2) + b"{}",  # no version, no layers
    ]:
        path.write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_rejects_truncated_payload(tmp_path):
    graph = make_graph()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, graph, "cnn_lstm", seed=0)
    blob = path.read_bytes()
    for cut in (16, 3):  # whole values, then part of one
        path.write_bytes(blob[:-cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_rejects_format_version_1(tmp_path):
    # a version 1 file: the same layout, its graph ending in a softmax layer
    graph = make_graph()
    header = json.dumps({
        "format_version": 1, "kind": "cnn_lstm", "layers": graph.specs() + [{"kind": "softmax"}],
        "seed": 0, "param_count": graph.param_count, "feature_stats": None, "feature_config": None,
    }).encode()
    payload = np.concatenate([p.reshape(-1) for p in graph.params()]).astype("<f8").tobytes()
    path = tmp_path / "v1.ckpt"
    path.write_bytes(b"WWCK" + struct.pack("<I", len(header)) + header + payload)
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(path)


def test_softmax_is_the_max_shifted_formula():
    graph = make_graph()
    x = RNG.normal(size=(3, 6, 4))
    logits = graph.forward(x)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expected = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
    assert np.array_equal(softmax(logits), expected)
