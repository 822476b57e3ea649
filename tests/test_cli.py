import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import woodwatch
from woodwatch import models
from woodwatch.audio import (CANONICAL_RATE, CANONICAL_SECONDS, AudioClip, load_wav, resample_linear, save_wav,
                             segment_clip)
from woodwatch.cli import build_parser, main
from woodwatch.container import write_container
from woodwatch.evaluation import FOLDS, HOLDOUT_RATIO, stratified_split
from woodwatch.features import FeatureConfig, FeatureSet, load_features, mfcc_frames, save_features
from woodwatch.ingest.protocol import MAX_PAYLOAD_BYTES
from woodwatch.ingest.server import DEFAULT_HOST, IngestServer
from woodwatch.ingest.simulator import FRAME_SAMPLES
from woodwatch.models import ModelKind, TrainConfig, build_model, model_inputs, train
from woodwatch.nn import save_checkpoint
from woodwatch.synth import SynthConfig, gen_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    lines = []
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            lines.append(json.loads(line))
    return lines


def test_help_lists_all_subcommands(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    for name in ["gen-synth", "extract", "train", "evaluate", "crossval",
                 "compare", "serve", "simulate-device", "report"]:
        assert name in out


REQUIRED_FLAGS = {
    "gen-synth": ["--out", "d"],
    "extract": ["--dataset", "d", "--out", "f"],
    "train": ["--features", "f", "--kind", "cnn", "--out-checkpoint", "c"],
    "evaluate": [],
    "crossval": ["--features", "f", "--kind", "cnn"],
    "compare": ["--features", "f"],
    "serve": ["--checkpoint", "c", "--store", "s"],
    "simulate-device": ["--port", "1"],
    "report": ["--store", "s"],
}


def test_every_default_is_the_librarys():
    args = {cmd: vars(build_parser().parse_args([cmd, *flags])) for cmd, flags in REQUIRED_FLAGS.items()}
    gen = args["gen-synth"]
    assert SynthConfig(**{f.name: gen[f.name] for f in fields(SynthConfig)}) == SynthConfig()
    assert (SynthConfig().sample_rate, SynthConfig().duration_s) == (CANONICAL_RATE, CANONICAL_SECONDS)
    for cmd in ("train", "crossval", "compare"):
        parsed = args[cmd]
        assert TrainConfig(parsed["epochs"], parsed["batch_size"], parsed["seed"]) == TrainConfig()
    assert args["train"]["val_ratio"] == args["compare"]["test_ratio"] == HOLDOUT_RATIO
    assert args["crossval"]["k"] == FOLDS
    assert args["serve"]["host"] == args["simulate-device"]["host"] == DEFAULT_HOST
    assert args["simulate-device"]["frame_samples"] == FRAME_SAMPLES
    assert args["simulate-device"]["snr_db"] == SynthConfig().snr_db
    assert {cmd: parsed["seed"] for cmd, parsed in args.items()} == dict.fromkeys(args, 0)


def test_usage_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "train")  # missing required flags
    assert code == 1
    assert "error" in err


def test_unknown_flag_rejected(capsys):
    code, _, _ = run_cli(capsys, "gen-synth", "--out", "x", "--does-not-exist", "1")
    assert code == 1


def test_missing_file_is_data_error(capsys):
    code, _, err = run_cli(capsys, "extract", "--dataset", "/nonexistent/dir", "--out", "f.json")
    assert code == 2


def test_config_echo_precedes_work(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen-synth", "--out", str(tmp_path / "d"),
                           "--n", "1", "--duration-s", "0.25", "--seed", "5")
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert first["command"] == "gen-synth"
    assert first["seed"] == 5
    assert first["n"] == 1


def test_gen_synth_deterministic_trees(capsys, tmp_path):
    for name in ("a", "b"):
        code, _, _ = run_cli(capsys, "gen-synth", "--out", str(tmp_path / name),
                             "--n", "2", "--duration-s", "0.5", "--seed", "7")
        assert code == 0
    for rel in ["manifest.json", "clean/clip_0000.wav", "clean/clip_0001.wav",
                "infested/clip_0000.wav", "infested/clip_0001.wav"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_evaluate_published_confusion_fixture(capsys, tmp_path):
    # 50 infested: 48 right, 2 missed; 50 clean: 47 right, 3 false alarms
    truth = ["infested"] * 50 + ["clean"] * 50
    pred = ["infested"] * 48 + ["clean"] * 2 + ["clean"] * 47 + ["infested"] * 3
    fixture = tmp_path / "preds.json"
    fixture.write_text(json.dumps({"true_labels": truth, "predicted_labels": pred}))
    confusion_csv = tmp_path / "confusion.csv"
    code, out, _ = run_cli(capsys, "evaluate", "--predictions", str(fixture),
                           "--out-confusion", str(confusion_csv))
    assert code == 0
    result = json_lines(out)[-1]
    assert result["metrics"]["accuracy"] == pytest.approx(0.95)
    assert result["metrics"]["recall"] == pytest.approx(0.96)
    assert result["metrics"]["precision"] == pytest.approx(48 / 51, abs=1e-9)
    assert result["confusion"] == {"tp": 48, "fn": 2, "fp": 3, "tn": 47}
    csv = confusion_csv.read_text().splitlines()
    assert csv[1] == "clean,47,3"
    assert csv[2] == "infested,2,48"


def test_evaluate_requires_exactly_one_source(capsys):
    code, _, _ = run_cli(capsys, "evaluate")
    assert code == 2


def test_evaluate_rejects_labels_outside_the_two_classes(capsys, tmp_path):
    fixture = tmp_path / "preds.json"
    fixture.write_text(json.dumps({"true_labels": [0, 1, 2, 2], "predicted_labels": [0, 1, 0, 1]}))
    code, _, err = run_cli(capsys, "evaluate", "--predictions", str(fixture))
    assert code == 2
    assert "unknown label 2" in err


def test_train_rejects_json_feature_dump(capsys, tmp_path):
    # the JSON layout dumps had before the binary container
    old = tmp_path / "features.json"
    old.write_text(json.dumps({"config": {}, "records": [
        {"id": "clean/a.wav", "label": "clean", "t": 1, "n_mfcc": 1, "values": [0.0]},
    ]}))
    code, _, err = run_cli(capsys, "train", "--features", str(old), "--kind", "dnn_mean",
                           "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert code == 2
    assert "not a WWFD file" in err


@pytest.mark.parametrize("fault", [{"config": {"bogus": 1}}, {"config": [1]}, {"labels": None}])
def test_train_on_a_dump_with_a_malformed_header_is_data_error(capsys, tmp_path, fault):
    dump = tmp_path / "bad.wwfd"
    header = {"format_version": 1, "config": FeatureConfig().to_dict(), "ids": ["a", "b"],
              "labels": ["clean", "infested"], "shape": [2, 3, 40]}
    write_container(dump, b"WWFD", {**header, **fault}, np.zeros((2, 3, 40)))
    code, _, err = run_cli(capsys, "train", "--features", str(dump), "--kind", "dnn_mean",
                           "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert code == 2
    assert str(dump) in err and "Traceback" not in err


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """gen-synth + extract once for the train/evaluate/compare smoke tests."""
    root = tmp_path_factory.mktemp("pipeline")
    dataset = root / "dataset"
    feats = root / "features.json"
    assert main(["gen-synth", "--out", str(dataset), "--n", "4", "--snr-db", "14", "--seed", "21"]) == 0
    assert main(["extract", "--dataset", str(dataset), "--out", str(feats)]) == 0
    return root, feats


def test_extract_output_shape(small_pipeline):
    _, feats = small_pipeline
    feature_set = load_features(feats)
    assert len(feature_set) == 8
    assert feature_set.matrices.shape[2] == 40
    assert sorted(np.unique(feature_set.labels).tolist()) == [0, 1]


def test_extract_cuts_the_window_the_server_serves(tmp_path):
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    rng = np.random.default_rng(17)
    save_wav(AudioClip(rng.uniform(-0.5, 0.5, 12 * 48_000), 48_000), dataset / "x.wav")  # 2.4 windows
    save_wav(AudioClip(rng.uniform(-0.5, 0.5, 5 * CANONICAL_RATE), CANONICAL_RATE), dataset / "y.wav")
    save_wav(AudioClip(rng.uniform(-0.5, 0.5, 7 * 44_100 + 13), 44_100), dataset / "z.wav")  # interpolated
    assert main(["extract", "--dataset", str(dataset), "--out", str(tmp_path / "f.bin")]) == 0
    feature_set = load_features(tmp_path / "f.bin")
    assert feature_set.ids == ["x.wav#0", "x.wav#1", "x.wav#2", "y.wav", "z.wav#0", "z.wav#1"]
    assert IngestServer.clip_seconds == CANONICAL_SECONDS
    assert feature_set.matrices.shape == (6, 157, 40)  # T of a 5 s clip, as the server classifies it
    # each file's fill gives the dump of the float clip resampled
    segments = [segment for name in ("x.wav", "y.wav", "z.wav")
                for segment in segment_clip(resample_linear(load_wav(dataset / name), CANONICAL_RATE),
                                            CANONICAL_SECONDS)]
    save_features(tmp_path / "g.bin", FeatureSet(feature_set.ids, feature_set.labels,
                                                 np.stack([mfcc_frames(seg).values for seg in segments]),
                                                 FeatureConfig()))
    assert (tmp_path / "f.bin").read_bytes() == (tmp_path / "g.bin").read_bytes()


@pytest.mark.parametrize("cut", [1, 2])  # inside a sample; on a sample boundary
def test_extract_on_a_truncated_wav_is_data_error(capsys, tmp_path, cut):
    dataset = tmp_path / "dataset"
    (dataset / "clean").mkdir(parents=True)
    for name in ("a.wav", "b.wav"):
        save_wav(AudioClip(np.zeros(CANONICAL_RATE), CANONICAL_RATE), dataset / "clean" / name)
    truncated = dataset / "clean" / "b.wav"
    truncated.write_bytes(truncated.read_bytes()[:-cut])
    code, _, err = run_cli(capsys, "extract", "--dataset", str(dataset), "--out", str(tmp_path / "f.bin"))
    assert code == 2
    assert str(truncated) in err and "Traceback" not in err
    assert not (tmp_path / "f.bin").exists()


def _extract_minor_faults(dataset, out) -> int:
    """Minor page faults of one ``woodwatch extract`` in a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(Path(woodwatch.__file__).parents[1]))
    program = "from woodwatch.cli import entry_point; entry_point()"
    proc = subprocess.Popen([sys.executable, "-c", program, "extract", "--dataset", str(dataset),
                             "--out", str(out)], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait for it again
    assert proc.returncode == 0
    return usage.ru_minflt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_the_woodwatch_program_does_not_fault_in_each_clips_arrays_again(tmp_path):
    for n in (2, 10):
        gen_dataset(tmp_path / f"n{n}", n, SynthConfig(seed=n))
    few, many = (_extract_minor_faults(tmp_path / f"n{n}", tmp_path / f"n{n}.bin") for n in (2, 10))
    assert (many - few) / 16 < 300  # about 1,400 per clip under glibc's default policy


def test_train_smoke_under_a_minute(capsys, small_pipeline, tmp_path):
    root, feats = small_pipeline
    ckpt = tmp_path / "model.ckpt"
    start = time.time()
    code, out, _ = run_cli(capsys, "train", "--features", str(feats),
                           "--kind", "cnn_lstm", "--epochs", "1", "--seed", "3",
                           "--val-ratio", "0.25", "--out-checkpoint", str(ckpt))
    elapsed = time.time() - start
    assert code == 0
    assert ckpt.exists()
    assert elapsed < 60.0
    summary = json_lines(out)[-1]
    assert "final_val_accuracy" in summary


def test_train_then_evaluate_roundtrip(capsys, small_pipeline, tmp_path):
    _, feats = small_pipeline
    ckpt = tmp_path / "dnn.ckpt"
    code, _, _ = run_cli(capsys, "train", "--features", str(feats),
                         "--kind", "dnn_mean", "--epochs", "30", "--seed", "3",
                         "--val-ratio", "0.25", "--out-checkpoint", str(ckpt),
                         "--out-history", str(tmp_path / "hist.json"))
    assert code == 0
    history = json.loads((tmp_path / "hist.json").read_text())
    assert len(history["train_loss"]) == 30
    code, out, _ = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt),
                           "--features", str(feats), "--out-report", str(tmp_path / "report.json"))
    assert code == 0
    result = json_lines(out)[-1]
    assert result["metrics"]["accuracy"] >= 0.5
    assert (tmp_path / "report.json").read_text() == out.splitlines()[-1]


def test_train_never_builds_an_input_for_the_whole_dump(capsys, small_pipeline, tmp_path, monkeypatch):
    _, feats = small_pipeline
    rows, to_model_input = [], models.to_model_input

    def counting(kind, matrices, stats):
        rows.append(len(matrices))
        return to_model_input(kind, matrices, stats)

    monkeypatch.setattr(models, "to_model_input", counting)
    for kind in (ModelKind.DNN_MEAN, ModelKind.CNN):
        code, _, _ = run_cli(capsys, "train", "--features", str(feats), "--kind", kind.value,
                             "--epochs", "1", "--out-checkpoint", str(tmp_path / f"{kind.value}.ckpt"))
        assert code == 0
    assert rows and max(rows) < len(load_features(feats))


@pytest.mark.parametrize("kind", [ModelKind.DNN_MEAN, ModelKind.LSTM])
def test_train_writes_what_a_library_fit_on_the_model_inputs_rows_writes(capsys, small_pipeline, tmp_path,
                                                                          kind):
    _, feats = small_pipeline
    code, _, _ = run_cli(capsys, "train", "--features", str(feats), "--kind", kind.value, "--epochs", "2",
                         "--seed", "5", "--val-ratio", "0.25", "--out-checkpoint", str(tmp_path / "cli.ckpt"))
    assert code == 0
    dump = load_features(feats)
    train_idx, val_idx = stratified_split(dump.labels, ratio=0.25, seed=5)
    x, stats = model_inputs(kind, dump, train_idx)
    graph = build_model(kind, seed=5)
    history = train(graph, x[train_idx], dump.labels[train_idx], x[val_idx], dump.labels[val_idx],
                    TrainConfig(epochs=2, seed=5))
    save_checkpoint(tmp_path / "library.ckpt", graph, kind.value, 5,
                    feature_stats=stats.to_dict() if stats else None, feature_config=dump.config.to_dict())
    assert (tmp_path / "cli.ckpt").read_bytes() == (tmp_path / "library.ckpt").read_bytes()
    assert json.loads((tmp_path / "cli.ckpt.history.json").read_text()) == history.to_dict()


def test_evaluate_sequence_checkpoint_without_stats_is_data_error(capsys, small_pipeline, tmp_path):
    _, feats = small_pipeline
    ckpt = tmp_path / "no-stats.ckpt"
    save_checkpoint(ckpt, build_model(ModelKind.CNN_LSTM, seed=0), ModelKind.CNN_LSTM.value, seed=0)
    code, _, err = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt), "--features", str(feats))
    assert code == 2
    assert "lacks feature standardization stats" in err


def test_evaluate_rejects_a_dump_extracted_with_another_feature_config(capsys, small_pipeline, tmp_path):
    root, feats = small_pipeline
    dump = load_features(feats)
    ckpt = tmp_path / "cnn.ckpt"
    _, stats = model_inputs(ModelKind.CNN, dump, np.arange(len(dump)))
    save_checkpoint(ckpt, build_model(ModelKind.CNN, seed=0), ModelKind.CNN.value, seed=0,
                    feature_stats=stats.to_dict(), feature_config=dump.config.to_dict())
    cfg = FeatureConfig(hop=256)
    matrices = [mfcc_frames(load_wav(root / "dataset" / clip_id), cfg).values for clip_id in dump.ids]
    other = tmp_path / "hop256.wwfd"
    save_features(other, FeatureSet(dump.ids, dump.labels, np.stack(matrices), cfg))
    code, _, err = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt), "--features", str(other))
    assert code == 2
    assert "feature config" in err and "hop=256" in err


@pytest.mark.parametrize("command, kind, fault", [
    ("evaluate", ModelKind.DNN_MEAN, {"feature_config": {"bogus": 1}}),
    ("serve", ModelKind.DNN_MEAN, {"feature_config": {"bogus": 1}}),
    ("evaluate", ModelKind.CNN, {"feature_stats": {"mean": [0.0] * 40}}),  # no "std"
])
def test_checkpoint_with_a_malformed_header_is_data_error(capsys, monkeypatch, small_pipeline, tmp_path,
                                                         command, kind, fault):
    _, feats = small_pipeline
    monkeypatch.setattr(IngestServer, "run", IngestServer.stop)  # a server that starts returns at once
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, build_model(kind, seed=0), kind.value, seed=0, **fault)
    flags = {"evaluate": ["--features", str(feats)],
             "serve": ["--store", str(tmp_path / "s.jsonl"), "--port", "0"]}[command]
    code, out, err = run_cli(capsys, command, "--checkpoint", str(ckpt), *flags)
    assert code == 2
    assert str(ckpt) in err and "bad header" in err
    assert "listening" not in out  # serve stopped before it bound


@pytest.mark.parametrize("command, stats, fault", [
    ("evaluate", {"mean": [0.0] * 3, "std": [1.0] * 3}, "n_mfcc = 40"),
    ("serve", {"mean": [0.0] * 3, "std": [1.0] * 3}, "n_mfcc = 40"),
    ("evaluate", {"mean": [math.nan] + [0.0] * 39, "std": [1.0] * 40}, "finite"),
    ("evaluate", {"mean": [0.0] * 40, "std": [1.0] * 39 + [0.0]}, "std > 0"),
], ids=["short-evaluate", "short-serve", "nan-mean", "zero-std"])
def test_checkpoint_stats_that_do_not_fit_its_feature_config_are_data_error(capsys, monkeypatch, small_pipeline,
                                                                           tmp_path, command, stats, fault):
    _, feats = small_pipeline
    monkeypatch.setattr(IngestServer, "run", IngestServer.stop)  # a server that starts returns at once
    ckpt = tmp_path / "bad-stats.ckpt"
    save_checkpoint(ckpt, build_model(ModelKind.CNN, seed=0), ModelKind.CNN.value, seed=0,
                    feature_stats=stats)
    flags = {"evaluate": ["--features", str(feats)],
             "serve": ["--store", str(tmp_path / "s.jsonl"), "--port", "0"]}[command]
    code, out, err = run_cli(capsys, command, "--checkpoint", str(ckpt), *flags)
    assert code == 2
    assert str(ckpt) in err and fault in err
    assert "listening" not in out  # serve stopped before it bound


def test_serve_refuses_a_checkpoint_whose_features_cannot_run_at_16_khz(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(IngestServer, "run", IngestServer.stop)  # a server that starts returns at once
    ckpt = tmp_path / "fmax9k.ckpt"
    save_checkpoint(ckpt, build_model(ModelKind.DNN_MEAN, seed=0), ModelKind.DNN_MEAN.value, seed=0,
                    feature_config=FeatureConfig(fmax=9000.0).to_dict())
    code, out, err = run_cli(capsys, "serve", "--checkpoint", str(ckpt),
                             "--store", str(tmp_path / "s.jsonl"), "--port", "0")
    assert code == 2
    assert str(ckpt) in err and "Nyquist" in err
    assert "listening" not in out  # serve stopped before it bound


@pytest.mark.parametrize("field", ["kind", "seed"])
def test_checkpoint_header_without_kind_or_seed_is_data_error(capsys, small_pipeline, tmp_path, field):
    _, feats = small_pipeline
    graph = build_model(ModelKind.DNN_MEAN, seed=0)
    header = {"format_version": 2, "kind": "dnn_mean", "layers": graph.specs(), "seed": 0,
              "param_count": graph.param_count, "feature_stats": None, "feature_config": None}
    del header[field]
    ckpt = tmp_path / f"no-{field}.ckpt"
    write_container(ckpt, b"WWCK", header, np.concatenate([p.reshape(-1) for p in graph.params()]))
    code, _, err = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt), "--features", str(feats))
    assert code == 2
    assert str(ckpt) in err and "bad header" in err and repr(field) in err


def test_serve_prints_the_port_it_listens_on(capsys, monkeypatch, tmp_path):
    ckpt = tmp_path / "dnn.ckpt"
    save_checkpoint(ckpt, build_model(ModelKind.DNN_MEAN, seed=0), ModelKind.DNN_MEAN.value, seed=0)
    monkeypatch.setattr(IngestServer, "run", IngestServer.stop)  # returns at once, socket closed
    code, out, _ = run_cli(capsys, "serve", "--checkpoint", str(ckpt),
                           "--store", str(tmp_path / "s.jsonl"), "--port", "0")
    assert code == 0
    listening, stopped = (json.loads(line) for line in out.strip().splitlines()[-2:])
    assert listening["listening"] == DEFAULT_HOST and listening["port"] > 0
    # once run() returns, every counter, as stats.snapshot() holds it
    counters = ["frames_ok", "integrity_errors", "protocol_errors", "truncated_frames", "duplicate_frames",
                "sequence_gaps", "records_written", "head_scored_clips", "classify_errors", "store_errors", "dropped_samples",
                "connection_errors", "rejected_connections"]
    assert stopped == {"stopped": dict.fromkeys(counters, 0)}


def test_crossval_cli(capsys, small_pipeline, tmp_path):
    _, feats = small_pipeline
    out_path = tmp_path / "cv.json"
    code, out, _ = run_cli(capsys, "crossval", "--features", str(feats),
                           "--kind", "dnn_mean", "--k", "2", "--epochs", "10",
                           "--seed", "1", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == out.splitlines()[-1]
    report = json.loads(out_path.read_text())
    assert len(report["folds"]) == 2
    assert 0.0 <= report["mean_accuracy"] <= 1.0


def test_compare_cli_emits_table(capsys, small_pipeline, tmp_path):
    _, feats = small_pipeline
    table_path = tmp_path / "table.txt"
    code, out, _ = run_cli(capsys, "compare", "--features", str(feats),
                           "--epochs", "2", "--seed", "1", "--test-ratio", "0.25",
                           "--out-table", str(table_path), "--out", str(tmp_path / "compare.json"))
    assert code == 0
    table = table_path.read_text()
    assert "CNN-LSTM" in table and "LSTM only" in table
    result = json_lines(out)[-1]
    assert set(result["models"]) == {"dnn_mean", "cnn", "lstm", "cnn_lstm"}
    assert (tmp_path / "compare.json").read_text() == out.splitlines()[-1]


def test_report_on_missing_store_is_data_error(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "report", "--store", str(tmp_path / "none.jsonl"))
    assert code == 2


def test_report_filters_store(capsys, tmp_path):
    from woodwatch.ingest import DetectionRecord, append_records

    store = tmp_path / "store.jsonl"
    append_records(store, [
        DetectionRecord("2026-01-01T00:00:00+00:00", 1, 0, 80000, "clean", 0.1, "abc"),
        DetectionRecord("2026-01-01T00:00:05+00:00", 1, 80000, 80000, "infested", 0.95, "abc"),
    ])
    code, out, _ = run_cli(capsys, "report", "--store", str(store), "--label", "infested")
    assert code == 0
    result = json_lines(out)[-1]
    assert result["count"] == 1
    assert result["records"][0]["label"] == "infested"


def test_serve_bad_checkpoint_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"nope")
    code, _, _ = run_cli(capsys, "serve", "--checkpoint", str(bad),
                         "--store", str(tmp_path / "s.jsonl"), "--port", "0")
    assert code == 2


def test_serve_busy_port_is_runtime_error(capsys, small_pipeline, tmp_path):
    import socket

    _, feats = small_pipeline
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--features", str(feats), "--kind", "dnn_mean",
                 "--epochs", "1", "--seed", "0", "--val-ratio", "0.25",
                 "--out-checkpoint", str(ckpt)]) == 0
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    try:
        code, _, err = run_cli(capsys, "serve", "--checkpoint", str(ckpt),
                               "--store", str(tmp_path / "s.jsonl"), "--port", str(port))
    finally:
        blocker.close()
    assert code == 3
    assert "cannot bind" in err


def test_serve_archive_path_that_is_a_file_is_runtime_error(capsys, small_pipeline, tmp_path):
    _, feats = small_pipeline
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--features", str(feats), "--kind", "dnn_mean",
                 "--epochs", "1", "--seed", "0", "--val-ratio", "0.25",
                 "--out-checkpoint", str(ckpt)]) == 0
    (tmp_path / "archive").write_bytes(b"")
    code, _, err = run_cli(capsys, "serve", "--checkpoint", str(ckpt), "--store", str(tmp_path / "s.jsonl"),
                           "--port", "0", "--archive-dir", str(tmp_path / "archive"))
    assert code == 3
    assert "archive directory" in err


def test_simulate_device_dead_server_is_runtime_error(capsys):
    code, _, _ = run_cli(capsys, "simulate-device", "--port", "1",
                         "--synth", "clean", "--seed", "1")
    assert code == 3


def test_simulate_device_frame_over_the_cap_is_data_error(capsys):
    code, _, err = run_cli(capsys, "simulate-device", "--port", "1", "--synth", "clean",
                           "--frame-samples", str(MAX_PAYLOAD_BYTES // 2 + 1))
    assert code == 2  # refused before connecting: a dead port would be exit 3
    assert "frame_samples" in err
