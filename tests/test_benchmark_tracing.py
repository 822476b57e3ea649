"""The benchmark's tracer still finds every function it wraps.

The benchmark (``perfbench/``) times layers by replacing package functions
with traced wrappers by name, so a rename under ``src/`` would break a
traced run without failing any other test here.
"""

from pathlib import Path

import numpy as np

from conftest import wait_for
from woodwatch.features import FeatureConfig, StandardizeStats
from woodwatch.ingest import IngestServer, simulate_device
from woodwatch.ingest import server as server_module
from woodwatch.models import ModelKind, build_model
from woodwatch.nn import save_checkpoint
from woodwatch.synth import SynthConfig, gen_infested_clip

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_benchmark_tracer_wraps_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer  # tracing.py alone: common.py would set BLAS variables

    tracer = Tracer()
    try:
        tracer.install_extract_io()
        tracer.install_training()
        tracer.install_compute(server_module)
        tracer.install_ingest_server(server_module)
        tracer.install_ingest_client()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr).__wrapped__ is original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)


def test_a_traced_server_records_the_spans_of_a_streamed_clip(monkeypatch, tmp_path):
    """What a traced ingest run reads: each clip's ``process_clip`` span with its
    device and start, the store append, and the MFCC inside the clip's span."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    checkpoint = tmp_path / "cnn_lstm.ckpt"
    save_checkpoint(checkpoint, build_model(ModelKind.CNN_LSTM, seed=1), ModelKind.CNN_LSTM.value, seed=1,
                    feature_stats=StandardizeStats(np.zeros(40), np.ones(40)).to_dict(),
                    feature_config=FeatureConfig().to_dict())
    server = IngestServer(0, checkpoint, tmp_path / "store.jsonl")
    tracer = Tracer()
    try:
        tracer.install_compute(server_module)
        tracer.install_ingest_server(server_module)
        server.start()
        simulate_device("127.0.0.1", server.port, gen_infested_clip(SynthConfig(), seed=7), device_id=7)
        assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    finally:
        server.stop()
        tracer.uninstall()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    [process] = by_name["ingest.server.process_clip"]
    assert process[6] == {"device": 7, "start": 0}
    [append] = by_name["ingest.store.append_records"]
    assert append[1] == process[0] and append[6] == {"device": 7, "start": 0}
    assert any(span[1] == process[0] for span in by_name["features.mfcc_frames"])
