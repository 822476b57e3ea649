"""Minimal layer engine with exact backpropagation, float64 throughout.

Every layer keeps train state by one rule. A ``train=True`` forward stores
what backward needs in ``_cache``; inference-mode forwards write no state,
so concurrent inference on a shared graph is safe. ``backward`` takes the
cache (a second ``backward`` without a new train forward raises
``RuntimeError``) and overwrites each gradient array, so nothing needs zeroing.
``backward(dy, need_dx=False)`` asks for the parameter gradients alone: a
layer with parameters then forms no input gradient and returns None, which
:meth:`ModelGraph.backward` uses for its first layer, whose input is the data.

A :class:`ModelGraph` chains layers and outputs logits. Training pairs it
with the fused softmax cross-entropy below; inference turns logits into
probabilities with :func:`softmax`.

Each layer class states its facts once, as class attributes: ``KIND``
names it in a checkpoint, ``_SPEC`` maps each spec key to the constructor
argument and attribute of the same meaning, and ``_PARAMS`` lists its
parameter attributes in checkpoint and optimizer order, the gradient of
``w`` being ``dw``. :class:`Layer` derives ``params``, ``grads`` and ``spec``
from them, and :func:`layer_from_spec` the constructor call.

Weight init is Glorot uniform (limit sqrt(6 / (fan_in + fan_out))) for
dense, convolution and LSTM matrices; biases start at zero except the LSTM
forget gate, which starts at 1. All draws come from the single generator
passed in, in layer order (Dense: W; Conv1D: K; LSTM: W then U). Without a
generator every matrix starts at zero.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _glorot(rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    if rng is None:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base class; parameter-free layers inherit the empty declarations."""

    KIND: str  # the layer's name in a checkpoint
    _SPEC: dict[str, str] = {}  # spec key -> constructor argument and attribute
    _PARAMS: tuple[str, ...] = ()  # parameter attributes; the gradient of "w" is "dw"
    _cache = None  # what a train-mode forward left for backward

    def _take_cache(self):
        """Hand the train-mode cache to backward and drop the layer's reference."""
        cache = self._cache
        if cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a train-mode forward "
                               "since the last backward")
        self._cache = None
        return cache

    def _zero_grads(self) -> None:
        """One zeroed gradient array per parameter, for backward to overwrite."""
        for name in self._PARAMS:
            setattr(self, "d" + name, np.zeros_like(getattr(self, name)))

    def params(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self._PARAMS]

    def grads(self) -> list[np.ndarray]:
        return [getattr(self, "d" + name) for name in self._PARAMS]

    def spec(self) -> dict:
        return {"kind": self.KIND, **{key: getattr(self, attr) for key, attr in self._SPEC.items()}}

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        raise NotImplementedError


class Dense(Layer):
    KIND = "dense"
    _SPEC = {"in": "in_dim", "out": "out_dim"}
    _PARAMS = ("w", "b")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        self.in_dim, self.out_dim = in_dim, out_dim
        self.w = _glorot(rng, (in_dim, out_dim), in_dim, out_dim)
        self.b = np.zeros(out_dim)
        self._zero_grads()

    def forward(self, x, train=False, rng=None):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"dense expects [batch, {self.in_dim}], got {x.shape}")
        if train:
            self._cache = x
        return x @ self.w + self.b

    def backward(self, dy, need_dx=True):
        x = self._take_cache()
        np.matmul(x.T, dy, out=self.dw)
        np.sum(dy, axis=0, out=self.db)
        return dy @ self.w.T if need_dx else None


class ReLU(Layer):
    KIND = "relu"

    def forward(self, x, train=False, rng=None):
        if train:
            self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy, need_dx=True):
        return dy * self._take_cache()


class Dropout(Layer):
    """Inverted dropout: kept elements are scaled by 1/(1-rate); inference is identity."""

    KIND = "dropout"
    _SPEC = {"rate": "rate"}

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, train=False, rng=None):
        if not train:
            return x
        if self.rate == 0.0:
            self._cache = 1.0  # keeps everything and draws nothing: backward is the identity
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs a generator")
        keep = rng.random(x.shape) >= self.rate
        self._cache = keep / (1.0 - self.rate)
        return x * self._cache

    def backward(self, dy, need_dx=True):
        return dy * self._take_cache()


class Conv1D(Layer):
    """Same-length 1-D convolution over time, channels last. Odd kernels only."""

    KIND = "conv1d"
    _SPEC = {"in": "in_channels", "out": "out_channels", "kernel": "kernel"}
    _PARAMS = ("k", "b")

    def __init__(self, in_channels: int, out_channels: int, kernel: int, rng: np.random.Generator | None = None):
        if kernel % 2 == 0:
            raise ValueError(f"kernel width must be odd, got {kernel}")
        self.in_channels, self.out_channels, self.kernel = in_channels, out_channels, kernel
        self.k = _glorot(rng, (kernel, in_channels, out_channels), kernel * in_channels, kernel * out_channels)
        self.b = np.zeros(out_channels)
        self._zero_grads()

    def forward(self, x, train=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ValueError(f"conv expects [batch, T, {self.in_channels}], got {x.shape}")
        pad = (self.kernel - 1) // 2
        padded = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        t = x.shape[1]
        y = np.tile(self.b, (x.shape[0], t, 1))
        for dt in range(self.kernel):
            y += padded[:, dt : dt + t, :] @ self.k[dt]
        if train:
            self._cache = padded
        return y

    def backward(self, dy, need_dx=True):
        padded = self._take_cache()
        batch, t = dy.shape[:2]
        flat_dy = dy.reshape(batch * t, self.out_channels)
        for dt in range(self.kernel):
            slab = padded[:, dt : dt + t, :].reshape(batch * t, self.in_channels)
            np.matmul(slab.T, flat_dy, out=self.dk[dt])
        np.sum(dy, axis=(0, 1), out=self.db)
        if not need_dx:
            return None
        dxp = np.zeros_like(padded)
        for dt in range(self.kernel):
            dxp[:, dt : dt + t, :] += dy @ self.k[dt].T
        pad = (self.kernel - 1) // 2
        return dxp[:, pad : pad + t, :]


class MaxPool1D(Layer):
    """Window maximum over time; trailing remainder dropped; ties route to the first index."""

    KIND = "maxpool1d"
    _SPEC = {"width": "width"}

    def __init__(self, width: int):
        if width < 1:
            raise ValueError(f"pool width must be >= 1, got {width}")
        self.width = width

    def _slices(self, x, t_out):
        """The k-th element of every window, k = 0 .. width-1, as strided views."""
        return [x[:, k : t_out * self.width : self.width, :] for k in range(self.width)]

    def forward(self, x, train=False, rng=None):
        t_out = x.shape[1] // self.width
        slices = self._slices(x, t_out)
        y = slices[0].copy()
        for xk in slices[1:]:
            np.maximum(y, xk, out=y)
        if train:
            self._cache = (x, y)
        return y

    def backward(self, dy, need_dx=True):
        x, y = self._take_cache()
        t_out = y.shape[1]
        dx = np.empty(x.shape)
        dx[:, t_out * self.width :] = 0.0  # the dropped remainder; the slices cover the rest
        free = np.ones(y.shape, dtype=bool)  # windows whose max has not been routed yet
        hit = np.empty(y.shape, dtype=bool)
        for xk, dxk in zip(self._slices(x, t_out), self._slices(dx, t_out)):
            np.equal(xk, y, out=hit)
            hit &= free
            np.multiply(dy, hit, out=dxk)
            free ^= hit
        return dx


class GlobalAvgPool1D(Layer):
    """Mean over the time axis: [batch, T, C] -> [batch, C]."""

    KIND = "globalavgpool1d"

    def forward(self, x, train=False, rng=None):
        if train:
            self._cache = x.shape[1]
        return x.mean(axis=1)

    def backward(self, dy, need_dx=True):
        t = self._take_cache()
        return np.repeat(dy[:, None, :], t, axis=1) / t


class LSTM(Layer):
    """Single-layer LSTM consuming [batch, T, in]; emits the last hidden state.

    Gate order in the packed matrices is (input, forget, cell, output).
    Backward is full backpropagation through time in ``_BACKWARD_BLOCK``-step
    blocks, last block first: a block's gate-derivative factors are formed
    at once, in the cached gate buffer, so each step is one ``dz @ Uᵀ`` GEMM
    and five elementwise calls.

    The sigmoid gates use sigmoid(z) = (1 + tanh(z/2)) / 2. The forward
    pass folds the 1/2 into copies of W, U and b (exact: a power of two),
    so one tanh per step serves all four gates. Inputs are projected
    ``_BLOCK`` steps at a time with one GEMM, time-major, into the gate
    buffer the recurrence then updates in place. In train mode that
    buffer spans all T steps and is the BPTT cache; in inference mode one
    block-sized buffer is reused, so memory does not grow with T.
    """

    KIND = "lstm"
    _SPEC = {"in": "in_dim", "hidden": "hidden"}
    _PARAMS = ("w", "u", "b")
    _BLOCK = 32
    # Backward blocks are shorter: at batch 32 and 4H = 256, 16 steps of gates
    # and their temporaries take ~2 MB, a Xeon core's L2 cache; 32-step blocks
    # (~4 MB) cost ~7% more CPU in a four-kind compare on that Xeon.
    _BACKWARD_BLOCK = 16

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator | None = None):
        self.in_dim, self.hidden = in_dim, hidden
        h4 = 4 * hidden
        self.w = _glorot(rng, (in_dim, h4), in_dim, h4)
        self.u = _glorot(rng, (hidden, h4), hidden, h4)
        self.b = np.zeros(h4)
        self.b[hidden : 2 * hidden] = 1.0  # forget-gate bias aids trainability
        self._zero_grads()

    def _gate_views(self, a):
        hd = self.hidden
        return a[..., :hd], a[..., hd : 2 * hd], a[..., 2 * hd : 3 * hd], a[..., 3 * hd :]

    def forward(self, x, train=False, rng=None, state=None):
        """The last hidden state; an inference-mode forward starts from ``state``, see :meth:`run`."""
        return self.run(x, train, state)[0]

    def run(self, x, train=False, state=None):
        """The hidden and cell state (h, c) after the last step of ``x``.

        An inference-mode run starts from ``state``, an (h, c) pair it does
        not modify, or from zeros when that is None, so a sequence can be run
        in pieces (see :meth:`ModelGraph.head_steps` for when the pieces give
        the bits of one run). A train-mode run starts from zeros.
        """
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ValueError(f"lstm expects [batch, T, {self.in_dim}], got {x.shape}")
        batch, t, _ = x.shape
        hd, h4 = self.hidden, 4 * self.hidden
        scale = np.full(h4, 0.5)
        scale[2 * hd : 3 * hd] = 1.0  # the cell candidate g is a plain tanh
        ws, us, bs = self.w * scale, self.u * scale, self.b * scale
        xs = np.ascontiguousarray(np.swapaxes(x, 0, 1))  # time-major rows: [T, batch, in]
        if train:
            gates = np.empty((t, batch, h4))
            cs = np.zeros((t + 1, batch, hd))
            hs = np.zeros((t + 1, batch, hd))
        else:
            block = np.empty((min(t, self._BLOCK), batch, h4))
            # updated in place, step after step
            h, c = (np.zeros((batch, hd)), np.zeros((batch, hd))) if state is None else (s.copy() for s in state)
        ig = np.empty((batch, hd))
        for t0 in range(0, t, self._BLOCK):
            t1 = min(t0 + self._BLOCK, t)
            buf = gates[t0:t1] if train else block[: t1 - t0]
            np.matmul(xs[t0:t1].reshape(-1, self.in_dim), ws, out=buf.reshape(-1, h4))
            buf += bs
            for step in range(t0, t1):
                if train:
                    h_prev, c_prev, h, c = hs[step], cs[step], hs[step + 1], cs[step + 1]
                else:
                    h_prev, c_prev = h, c
                a = buf[step - t0]
                a += h_prev @ us
                np.tanh(a, out=a)
                i, f, g, o = self._gate_views(a)
                for sig in (a[:, : 2 * hd], o):
                    sig += 1.0
                    sig *= 0.5
                np.multiply(f, c_prev, out=c)
                np.multiply(i, g, out=ig)
                c += ig
                np.tanh(c, out=h)
                h *= o
        if train:
            self._cache = (xs, gates, cs, hs)
            return hs[t].copy(), cs[t].copy()
        return h, c

    def _derivative_factors(self, a, cs):
        """Turn one block of activated gates ``a`` = (i, f, g, o) into the
        factors that map (dc, dh) to the pre-activation gradients, in place:
        (g·i(1−i), c_prev·f(1−f), i(1−g²), tanh_c·o(1−o)). ``cs`` holds the
        block's cell states c_prev .. c. Returns o(1−tanh_c²), which scales
        dh into dc, and a copy of f, which carries dc one step back."""
        i, f, g, o = self._gate_views(a)
        tanh_c = np.tanh(cs[1:])
        dc_gain = np.multiply(tanh_c, tanh_c)
        np.subtract(1.0, dc_gain, out=dc_gain)
        dc_gain *= o
        f_copy = f.copy()
        tmp = np.subtract(1.0, o)
        tmp *= o
        np.multiply(tmp, tanh_c, out=o)
        np.subtract(1.0, f, out=tmp)
        f *= tmp
        f *= cs[:-1]
        np.subtract(1.0, i, out=tmp)
        tmp *= i
        tmp *= g  # g·i(1−i), written to the i gate once g is no longer read
        np.multiply(g, g, out=g)
        np.subtract(1.0, g, out=g)
        g *= i
        i[...] = tmp
        return dc_gain, f_copy

    def backward(self, dh_last, need_dx=True):
        xs, dz, cs, hs = self._take_cache()  # the gate buffer becomes dz, block by block
        t, batch, h4 = dz.shape
        hd = self.hidden
        dz_by_gate = dz.reshape(t, batch, 4, hd)
        u_t = np.ascontiguousarray(self.u.T)  # a contiguous right operand: a faster GEMM
        dh = dh_last.copy()
        dc = np.zeros((batch, hd))
        dc_by_gate = dc[:, None, :]  # dc broadcast over the i, f and g gates
        dh_dc = np.empty((batch, hd))
        for t0 in reversed(range(0, t, self._BACKWARD_BLOCK)):
            t1 = min(t0 + self._BACKWARD_BLOCK, t)
            dc_gain, f = self._derivative_factors(dz[t0:t1], cs[t0 : t1 + 1])
            for step in range(t1 - 1, t0 - 1, -1):
                np.multiply(dh, dc_gain[step - t0], out=dh_dc)
                dc += dh_dc
                dz_by_gate[step, :, :3] *= dc_by_gate
                dz_by_gate[step, :, 3] *= dh
                dc *= f[step - t0]
                np.matmul(dz[step], u_t, out=dh)
        flat_dz = dz.reshape(-1, h4)
        np.matmul(xs.reshape(-1, self.in_dim).T, flat_dz, out=self.dw)
        np.matmul(hs[:t].reshape(-1, hd).T, flat_dz, out=self.du)
        np.sum(flat_dz, axis=0, out=self.db)
        if not need_dx:
            return None
        return np.swapaxes((flat_dz @ self.w.T).reshape(t, batch, self.in_dim), 0, 1)


_LAYER_KINDS = {cls.KIND: cls for cls in (Dense, ReLU, Dropout, Conv1D, MaxPool1D, GlobalAvgPool1D, LSTM)}


def layer_from_spec(d: dict) -> Layer:
    """The layer a spec names; a missing spec key raises KeyError."""
    try:
        cls = _LAYER_KINDS[d["kind"]]
    except KeyError as exc:
        raise ValueError(f"unknown layer kind {d.get('kind')!r}") from exc
    return cls(**{attr: d[key] for key, attr in cls._SPEC.items()})


class HeadState(NamedTuple):
    """A graph's LSTM state after the first ``steps`` steps of one input."""

    steps: int
    h: np.ndarray
    c: np.ndarray


class ModelGraph:
    """A fixed chain of layers mapping inputs to logits."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def forward(self, x, train: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def head_steps(self, head_rows: int, rows: int) -> int | None:
        """How many LSTM steps the first ``head_rows`` of an input's ``rows``
        rows settle, so that :meth:`run_head` over those rows and
        :meth:`resume` from its state give the logits of :meth:`forward`, bit
        for bit; or None, when the graph has no LSTM or a layer before it
        reads every row.

        A 'same' Conv1D row reads half a kernel past itself, so the last
        half-kernel of settled rows no longer is; a MaxPool1D window is
        settled when all its rows are. The LSTM projects its input
        ``LSTM._BLOCK`` steps at a time from its first step, and a one-row
        product takes a BLAS path whose bits may differ from the same row in
        a larger one; so a split that leaves a one-step block, in either
        piece or in the one forward, gives None too.
        """
        settled = head_rows
        for layer in self.layers:
            if isinstance(layer, LSTM):
                pieces = (settled, rows - settled, rows)
                return settled if 0 < settled < rows and all(n % LSTM._BLOCK != 1 for n in pieces) else None
            if isinstance(layer, Conv1D):
                settled -= layer.kernel // 2
            elif isinstance(layer, MaxPool1D):
                settled, rows = settled // layer.width, rows // layer.width
            elif not isinstance(layer, (ReLU, Dropout)):
                return None
        return None

    def run_head(self, x: np.ndarray, steps: int) -> HeadState:
        """The LSTM's state after its first ``steps`` steps over inference-mode
        input ``x``, the head rows of an input for which :meth:`head_steps`
        gave ``steps``."""
        for layer in self.layers:
            if isinstance(layer, LSTM):
                return HeadState(steps, *layer.run(x[:, :steps]))
            x = layer.forward(x)
        raise ValueError("the graph has no LSTM")

    def resume(self, x: np.ndarray, head: HeadState) -> np.ndarray:
        """Inference-mode logits of ``x`` whose LSTM starts at step ``head.steps``
        from ``head``'s state; every other layer reads all of ``x``."""
        for layer in self.layers:
            if isinstance(layer, LSTM):
                x = layer.forward(x[:, head.steps :], state=(head.h, head.c))
            else:
                x = layer.forward(x)
        return x

    def backward(self, dlogits: np.ndarray) -> None:
        """Every layer's parameter gradients; the gradient of the data is not formed."""
        grad = dlogits
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        self.layers[0].backward(grad, need_dx=False)

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params())

    def specs(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]

    @classmethod
    def from_specs(cls, specs: list[dict]) -> "ModelGraph":
        return cls([layer_from_spec(d) for d in specs])


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise max-shifted softmax: class probabilities from logits."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, onehot: np.ndarray):
    """Mean categorical cross-entropy with a max-shifted softmax.

    Returns (loss, probabilities, dloss/dlogits). The gradient is
    (probs - onehot) / batch, exact for the mean-reduced loss.
    """
    if logits.shape != onehot.shape:
        raise ValueError(f"logits {logits.shape} and onehot {onehot.shape} must match")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    probs = np.exp(log_probs)
    batch = logits.shape[0]
    loss = float(-(onehot * log_probs).sum() / batch)
    dlogits = (probs - onehot) / batch
    return loss, probs, dlogits
