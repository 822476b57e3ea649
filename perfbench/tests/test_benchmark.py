"""The benchmark's own tests: each check rejects a perturbed answer, and tiny runs emit every metric.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402  (puts src/ on the path)
from checks import (  # noqa: E402
    MfccReference,
    check_comparison,
    check_mfcc,
    check_predictions,
    check_records,
    check_server_stats,
)
from tracing import Tracer, summarize  # noqa: E402

from woodwatch import evaluation, features, synth  # noqa: E402
from woodwatch.ingest import DetectionRecord  # noqa: E402


def _record(device: int, start: int, p: float, length: int = 80_000) -> DetectionRecord:
    return DetectionRecord(timestamp="2026-01-01T00:00:00+00:00", device_id=device,
                           clip_start=start, clip_length=length,
                           label="infested" if p > 0.5 else "clean", p_infested=p,
                           checkpoint_id="abc")


def test_mfcc_check_accepts_the_library_and_rejects_a_shifted_value():
    clip = synth.gen_infested_clip(synth.SynthConfig(duration_s=1.0), seed=3)
    values = features.mfcc_frames(clip).values
    reference = MfccReference()(clip.samples)
    assert check_mfcc(reference, values) == []
    shifted = values.copy()
    shifted[7, 5] += 2e-6
    assert check_mfcc(reference, shifted)
    assert check_mfcc(reference, values[:-1])


def test_prediction_check_rejects_a_changed_p_infested_and_a_wrong_label():
    offline = {(1, 0): 0.93, (1, 80_000): 0.04}
    records = [_record(1, 0, 0.93), _record(1, 80_000, 0.04)]
    assert check_predictions(records, offline) == []
    assert check_predictions([_record(1, 0, 0.93 + 1e-8), records[1]], offline)
    relabelled = DetectionRecord(**{**records[0].__dict__, "label": "clean"})
    assert check_predictions([relabelled, records[1]], offline)


def test_record_check_rejects_a_missing_or_duplicated_record():
    expected = {1: (3, 80_000), 2: (2, 240_000)}
    records = [_record(1, k * 80_000, 0.1) for k in range(3)]
    records += [_record(2, k * 240_000, 0.9, length=240_000) for k in range(2)]
    assert check_records(records, expected) == []
    assert check_records(records[1:], expected)
    assert check_records(records + [records[0]], expected)
    gap = records[:2] + [_record(1, 3 * 80_000, 0.1)] + records[3:]
    assert check_records(gap, expected)


def test_server_stats_check_rejects_lost_frames_and_error_counts():
    stats = {"frames_ok": 64, "records_written": 2, "integrity_errors": 0, "protocol_errors": 0,
             "duplicate_frames": 0, "sequence_gaps": 0, "classify_errors": 0}
    assert check_server_stats(stats, 64, 2) == []
    assert check_server_stats(stats, 65, 2)
    assert check_server_stats({**stats, "classify_errors": 1}, 64, 2)


def test_comparison_check_rejects_a_miscounted_confusion_cell():
    confusion = evaluation.ConfusionMatrix(tp=19, fn=1, fp=2, tn=18)
    report = evaluation.ComparativeReport(
        rows={"cnn": evaluation.metrics_from_confusion(confusion)},
        confusions={"cnn": confusion}).to_dict()
    split = {"clean": 20, "infested": 20}
    assert check_comparison(report, split, 0.85) == []
    moved = json.loads(json.dumps(report))
    moved["confusions"]["cnn"].update(tp=18, fn=2)  # sums still match, arithmetic does not
    assert check_comparison(moved, split, 0.85)
    extra = json.loads(json.dumps(report))
    extra["confusions"]["cnn"]["tn"] += 1
    assert check_comparison(extra, split, 0.85)
    assert check_comparison(report, split, 0.95)


def test_tracer_keeps_every_span_and_its_parent_under_thread_switching():
    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2
    tracer = Tracer()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer")
    n_threads, calls = 6, 2000
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [module.outer(i) for i in range(calls)])
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
        tracer.uninstall()
    summary = summarize(tracer.spans)
    assert summary["outer"]["calls"] == summary["inner"]["calls"] == n_threads * calls
    names = {span[0]: span[3] for span in tracer.spans}
    for span_id, parent, root, name, *_ in tracer.spans:
        if name == "inner":
            assert names[parent] == "outer" and root == parent
        else:
            assert parent == 0 and root == span_id
    assert module.outer(1) == 4 and not hasattr(module.outer, "__wrapped__")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["experiment", "ingest_burst", "ingest_paced"])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _run(common.ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in declared[section]}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in declared[section]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_run_without_the_sources_fails_without_a_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "experiment", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
