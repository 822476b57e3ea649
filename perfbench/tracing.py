"""In-memory span tracing by wrapping the package's public functions.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces a
module attribute or a class method with a wrapper that records a span and
restores the original on :meth:`Tracer.uninstall`. A span is
``[id, parent_id, root_id, name, start, end, attrs]`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in
different processes share one clock). Spans of one request share the root
span's id. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

_LAYER_CLASSES = ("Dense", "Conv1D", "MaxPool1D", "LSTM", "GlobalAvgPool1D")


def graph_kind(graph) -> str:
    """The model kind of a graph, read from the layer types it holds."""
    names = {type(layer).__name__ for layer in graph.layers}
    if "LSTM" in names:
        return "cnn_lstm" if "Conv1D" in names else "lstm"
    return "cnn" if "Conv1D" in names else "dnn_mean"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def kind(self) -> str:
        return getattr(self._local, "kind", "unknown")

    def call(self, name, fn, args, kwargs, attrs=None, kind: str | None = None):
        """Run fn(*args, **kwargs) inside a span.

        ``name`` is a string or a function of the tracer, resolved after
        ``kind`` (if given) became the thread's current model kind.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        root = stack[0] if stack else span_id
        previous_kind = getattr(self._local, "kind", "unknown")
        if kind is not None:
            self._local.kind = kind
        name = name(self) if callable(name) else name
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._local.kind = previous_kind
            self.spans.append([span_id, parent, root, name, start, end, attrs])

    # -- installing wrappers --------------------------------------------------

    def wrap(self, owner, attr: str, name, attrs=None, kind=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``name`` is a span name or a function of the tracer giving one (for
        names that carry the current model kind). ``attrs`` and ``kind``
        are optional functions of the call's positional arguments.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs,
                               attrs(args) if attrs else None,
                               kind(args) if kind else None)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- target groups ----------------------------------------------------------

    def install_extract_io(self) -> None:
        """WAV reads and the feature dump, as ``woodwatch extract``/``train`` use them."""
        from woodwatch import audio, features

        self.wrap(audio, "load_wav", "audio.load_wav")
        self.wrap(features, "save_features", "features.save_features")
        self.wrap(features, "load_features", "features.load_features")

    def install_training(self) -> None:
        """Training: the fit loop, Adam steps and every layer's backward pass."""
        from woodwatch import evaluation, models
        from woodwatch.nn import layers, optim

        by_graph = lambda args: graph_kind(args[0])  # noqa: E731
        self.wrap(models, "train", lambda t: f"models.train.{t.kind}", kind=by_graph)
        self.wrap(evaluation, "train", lambda t: f"models.train.{t.kind}", kind=by_graph)
        self.wrap(optim.Adam, "step", lambda t: f"nn.{t.kind}.Adam.step")
        for cls_name in _LAYER_CLASSES:
            cls = getattr(layers, cls_name)
            self.wrap(cls, "backward", lambda t, c=cls_name: f"nn.{t.kind}.{c}.bwd")

    def install_compute(self, server_module=None) -> None:
        """Resampling, the MFCC stages, inference and every layer's forward pass.

        Call sites that imported a function by name are wrapped where they
        look it up: ``woodwatch.evaluation`` for the experiment, and the
        server module when one is given.
        """
        from woodwatch import audio, evaluation, features
        from woodwatch.nn import layers

        by_graph = lambda args: graph_kind(args[0])  # noqa: E731
        self.wrap(audio, "resample_linear", "audio.resample_linear")
        for stage in ("frame_signal", "power_spectrum", "power_to_db", "dct2_ortho", "mfcc_frames"):
            self.wrap(features, stage, f"features.{stage}")
        self.wrap(evaluation, "predict", "models.predict", kind=by_graph)
        if server_module is not None:
            self.wrap(server_module, "resample_linear", "audio.resample_linear")
            self.wrap(server_module, "mfcc_frames", "features.mfcc_frames")
            self.wrap(server_module, "predict", "models.predict", kind=by_graph)
        for cls_name in _LAYER_CLASSES:
            cls = getattr(layers, cls_name)
            self.wrap(cls, "forward", lambda t, c=cls_name: f"nn.{t.kind}.{c}.fwd")

    def install_ingest_server(self, server_module) -> None:
        """Frame reads, per-clip processing and store appends inside the server."""
        from woodwatch.ingest import protocol

        server_cls = server_module.IngestServer
        self.wrap(protocol, "read_frame", "ingest.protocol.read_frame")
        self.wrap(server_cls, "classify_pcm", "ingest.server.classify_pcm")
        self.wrap(server_cls, "process_clip", "ingest.server.process_clip",
                  attrs=lambda args: {"device": args[1].device_id, "start": args[1].stream_position})
        self.wrap(server_module, "append_records", "ingest.store.append_records",
                  attrs=lambda args: {"device": args[1][0].device_id, "start": args[1][0].clip_start})

    def install_ingest_client(self) -> None:
        from woodwatch.ingest import protocol

        self.wrap(protocol, "encode_frame", "ingest.protocol.encode_frame")


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total and self seconds (self excludes child spans)."""
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, _root, _name, start, end, _attrs in spans:
        if parent:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for span_id, _parent, _root, name, start, end, _attrs in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time.get(span_id, 0.0)
    return out


def merge_summaries(*summaries) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
    return out


_UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def layer_metrics(summary: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """Mean time per call for every span, named ``<span>.<unit>``.

    Units follow the size of the step: whole-run steps in s, per-frame
    steps in us, everything else in ms. ``nn.*`` layers also report call
    counts, and ``features.mel_project.ms`` is the self time of
    ``features.mfcc_frames`` (the filterbank product and the checks around it).
    """
    metrics: dict[str, tuple[float, str]] = {}
    for name, entry in sorted(summary.items()):
        calls = entry["calls"]
        if name.startswith(("models.train.", "features.save_features", "features.load_features")):
            unit = "s"
        elif name.startswith("ingest.protocol."):
            unit = "us"
        else:
            unit = "ms"
        if name.startswith("nn."):
            layer, step = name.rsplit(".", 1)  # step: fwd | bwd | step
            metrics[f"{layer}.{step}_ms"] = (entry["total_s"] / calls * 1e3, "ms")
            metrics[f"{layer}.{step}_calls"] = (calls, "count")
            continue
        metrics[f"{name}.{unit}"] = (entry["total_s"] / calls * _UNIT_SCALE[unit], unit)
        if name == "features.mfcc_frames":
            metrics["features.mel_project.ms"] = (entry["self_s"] / calls * 1e3, "ms")
    return metrics
