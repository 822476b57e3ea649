"""The benchmark's tracer still finds every function it wraps.

The benchmark (``perfbench/``) times layers by replacing package functions
with traced wrappers by name, so a rename under ``src/`` would break a
traced run without failing any other test here.
"""

from pathlib import Path

from woodwatch.ingest import server as server_module

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
