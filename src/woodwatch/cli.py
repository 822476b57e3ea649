"""Command-line entry point.

Subcommands cover the full pipeline: gen-synth, extract, train, evaluate,
crossval, compare, serve, simulate-device, report. Every subcommand takes
--seed and echoes its resolved configuration as a JSON line to stdout
before doing any work, so artifacts are traceable to exact settings.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import audio, features, synth
from .allocator import keep_malloc_heap
from .errors import DataError, InvalidDatasetError, WoodwatchError
from .evaluation import (
    FOLDS,
    HOLDOUT_RATIO,
    comparative_report,
    confusion_from_predictions,
    crossval_run,
    metrics_from_confusion,
    stratified_split,
)
from .ingest import IngestServer, query_store, simulate_device
from .ingest.server import DEFAULT_HOST
from .ingest.simulator import FRAME_SAMPLES
from .models import ModelKind, TrainConfig, build_model, load_model, predict, split_inputs, to_model_input, train
from .nn import save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

_DATA_ERRORS = (
    DataError,
    FileNotFoundError,
    IsADirectoryError,
    KeyError,
    ValueError,
)
_SYNTH_FIELDS = [f for f in fields(synth.SynthConfig) if f.name != "seed"]  # --seed is shared


class _Parser(argparse.ArgumentParser):
    """argparse counts usage problems as exit 2 by default; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _echo_config(command: str, args: argparse.Namespace) -> None:
    resolved = {"command": command}
    resolved.update({k: v for k, v in sorted(vars(args).items()) if k != "func"})
    print(json.dumps(resolved, default=str))


def _print_json(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


# --------------------------------------------------------------------------
# subcommand implementations

def _cmd_gen_synth(args) -> int:
    cfg = synth.SynthConfig(seed=args.seed, **{f.name: getattr(args, f.name) for f in _SYNTH_FIELDS})
    manifest = synth.gen_dataset(args.out, args.n, cfg)
    _print_json({"written": len(manifest["clips"]), "out": str(args.out)})
    return EXIT_OK


def _cmd_extract(args) -> int:
    dataset = Path(args.dataset)
    if not dataset.is_dir():
        raise InvalidDatasetError(f"{dataset} is not a directory")
    wavs = sorted(dataset.glob("*/*.wav")) + sorted(dataset.glob("*.wav"))
    if not wavs:
        raise InvalidDatasetError(f"no WAV files under {dataset}")
    cfg = features.FeatureConfig()
    codes = {label.text: int(label) for label in audio.ClipLabel}
    ids, labels, matrices = [], [], []
    for wav_path in wavs:
        pcm, rate = audio.read_wav_pcm16(wav_path)
        fill = audio.CanonicalFill(rate, len(pcm))
        fill.add(pcm)
        segments = audio.segment_clip(fill.clip(), audio.CANONICAL_SECONDS)
        label = codes.get(wav_path.parent.name, -1)
        for k, segment in enumerate(segments):
            suffix = f"#{k}" if len(segments) > 1 else ""
            ids.append(str(wav_path.relative_to(dataset)) + suffix)
            labels.append(label)
            matrices.append(features.mfcc_frames(segment, cfg).values)
    feature_set = features.FeatureSet(ids, np.asarray(labels), np.stack(matrices), cfg)
    features.save_features(args.out, feature_set)
    _print_json({"clips": len(feature_set), "frames": int(feature_set.matrices.shape[1]), "out": str(args.out)})
    return EXIT_OK


def _labeled_features(path) -> features.FeatureSet:
    feature_set = features.load_features(path)
    if np.any(feature_set.labels < 0):
        raise InvalidDatasetError("feature dump contains unlabeled clips")
    return feature_set


def _train_config(args) -> TrainConfig:
    return TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)


def _cmd_train(args) -> int:
    feature_set = _labeled_features(args.features)
    kind = ModelKind(args.kind)
    train_idx, val_idx = stratified_split(feature_set.labels, ratio=args.val_ratio, seed=args.seed)
    x_train, x_val, stats = split_inputs(kind, feature_set, train_idx, val_idx)
    graph = build_model(kind, seed=args.seed)
    history = train(graph, x_train, feature_set.labels[train_idx],
                    x_val, feature_set.labels[val_idx], _train_config(args))
    save_checkpoint(args.out_checkpoint, graph, kind.value, args.seed,
                    feature_stats=stats.to_dict() if stats else None,
                    feature_config=feature_set.config.to_dict())
    history_path = args.out_history or f"{args.out_checkpoint}.history.json"
    Path(history_path).write_text(json.dumps(history.to_dict()))
    _print_json({
        "checkpoint": str(args.out_checkpoint),
        "final_train_accuracy": history.train_accuracy[-1],
        "final_val_accuracy": history.val_accuracy[-1],
    })
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    if bool(args.predictions) == bool(args.checkpoint):
        raise ValueError("provide exactly one of --predictions or --checkpoint/--features")
    if args.predictions:
        payload = json.loads(Path(args.predictions).read_text())
        true_labels = np.asarray([int(audio.ClipLabel.parse(v)) for v in payload["true_labels"]])
        predicted = np.asarray([int(audio.ClipLabel.parse(v)) for v in payload["predicted_labels"]])
    else:
        if not args.features:
            raise ValueError("--checkpoint requires --features")
        graph, kind, feature_config, stats, _ = load_model(args.checkpoint)
        feature_set = _labeled_features(args.features)
        if feature_set.config != feature_config:
            raise InvalidDatasetError(f"{args.features}: feature config {feature_set.config} differs "
                                      f"from the checkpoint's {feature_config}")
        true_labels = feature_set.labels
        _, predicted = predict(graph, to_model_input(kind, feature_set.matrices, stats))
    confusion = confusion_from_predictions(true_labels, predicted)
    report = metrics_from_confusion(confusion)
    if args.out_report:
        Path(args.out_report).write_text(json.dumps({
            "metrics": report.to_dict(), "confusion": confusion.to_dict(),
        }))
    if args.out_confusion:
        Path(args.out_confusion).write_text(confusion.to_csv())
    _print_json({"metrics": report.to_dict(), "confusion": confusion.to_dict()})
    return EXIT_OK


def _cmd_crossval(args) -> int:
    report = crossval_run(ModelKind(args.kind), _labeled_features(args.features), k=args.k,
                          seed=args.seed, cfg=_train_config(args))
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict()))
    _print_json(report.to_dict())
    return EXIT_OK


def _cmd_compare(args) -> int:
    report = comparative_report(_labeled_features(args.features), seed=args.seed,
                                cfg=_train_config(args), ratio=args.test_ratio)
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict()))
    if args.out_table:
        Path(args.out_table).write_text(report.format_table())
    print(report.format_table(), end="")
    _print_json(report.to_dict())
    return EXIT_OK


def _cmd_serve(args) -> int:
    server = IngestServer(args.port, args.checkpoint, args.store, archive_dir=args.archive_dir, host=args.host)
    _print_json({"listening": args.host, "port": server.port})
    server.run()
    _print_json({"stopped": server.stats.snapshot()})
    return EXIT_OK


def _cmd_simulate_device(args) -> int:
    if bool(args.wav) == bool(args.synth):
        raise ValueError("provide exactly one of --wav or --synth")
    if args.wav:
        source = args.wav
    else:
        cfg = synth.SynthConfig(snr_db=args.snr_db)
        infested = audio.ClipLabel.parse(args.synth) is audio.ClipLabel.INFESTED
        generate = synth.gen_infested_clip if infested else synth.gen_clean_clip
        source = generate(cfg, args.seed)
    sent = simulate_device(args.host, args.port, source, args.device_id,
                           frame_samples=args.frame_samples, realtime=args.realtime)
    _print_json({"frames_sent": sent})
    return EXIT_OK


def _cmd_report(args) -> int:
    records = query_store(args.store, device_id=args.device, label=args.label,
                          since=args.since, until=args.until)
    _print_json({"count": len(records), "records": [asdict(r) for r in records]})
    return EXIT_OK


# --------------------------------------------------------------------------
# parser wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="woodwatch",
                     description="Acoustic wood-pest detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    label_names = [label.text for label in audio.ClipLabel]

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.set_defaults(func=func)
        return p

    def add_training(p):
        p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
        p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)

    p = add("gen-synth", _cmd_gen_synth, "generate a labeled synthetic WAV dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--n", type=int, default=100, help="clips per class")
    for f in _SYNTH_FIELDS:
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)

    p = add("extract", _cmd_extract, "extract MFCC features from a WAV directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="binary feature dump path")

    p = add("train", _cmd_train, "train one model kind on a feature dump")
    p.add_argument("--features", required=True)
    p.add_argument("--kind", required=True, choices=[k.value for k in ModelKind])
    add_training(p)
    p.add_argument("--val-ratio", type=float, default=HOLDOUT_RATIO)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-history", default=None,
                   help="history JSON path (default: <checkpoint>.history.json)")

    p = add("evaluate", _cmd_evaluate, "metrics from a checkpoint or a prediction file")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--features", default=None)
    p.add_argument("--predictions", default=None,
                   help="JSON file with true_labels and predicted_labels")
    p.add_argument("--out-report", default=None)
    p.add_argument("--out-confusion", default=None, help="2x2 CSV path")

    p = add("crossval", _cmd_crossval, "stratified k-fold cross-validation")
    p.add_argument("--features", required=True)
    p.add_argument("--kind", required=True, choices=[k.value for k in ModelKind])
    p.add_argument("--k", type=int, default=FOLDS)
    add_training(p)
    p.add_argument("--out", default=None)

    p = add("compare", _cmd_compare, "train all four kinds on one split and tabulate")
    p.add_argument("--features", required=True)
    add_training(p)
    p.add_argument("--test-ratio", type=float, default=HOLDOUT_RATIO)
    p.add_argument("--out", default=None)
    p.add_argument("--out-table", default=None)

    p = add("serve", _cmd_serve, "run the ingestion server")
    p.add_argument("--port", type=int, default=7071)
    p.add_argument("--host", default=DEFAULT_HOST)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--store", required=True, help="JSON-lines detection store")
    p.add_argument("--archive-dir", default=None, help="optional WAV archive directory")

    p = add("simulate-device", _cmd_simulate_device, "stream audio to the server")
    p.add_argument("--host", default=DEFAULT_HOST)
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--device-id", type=int, default=1)
    p.add_argument("--wav", default=None, help="stream this WAV file")
    p.add_argument("--synth", default=None, choices=label_names,
                   help="stream a synthetic clip instead of a file")
    p.add_argument("--snr-db", type=float, default=synth.SynthConfig.snr_db)
    p.add_argument("--frame-samples", type=int, default=FRAME_SAMPLES)
    p.add_argument("--realtime", action="store_true")

    p = add("report", _cmd_report, "query the detection store")
    p.add_argument("--store", required=True)
    p.add_argument("--device", type=int, default=None)
    p.add_argument("--label", default=None, choices=label_names)
    p.add_argument("--since", default=None, help="ISO-8601 lower bound")
    p.add_argument("--until", default=None, help="ISO-8601 upper bound")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _echo_config(args.command, args)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        # checked first: FileNotFoundError is an OSError but counts as bad data
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, WoodwatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry_point() -> None:
    """The ``woodwatch`` program: sets the process's allocator policy, then runs ``main``.

    ``main`` leaves the allocator alone, since tests and library callers run
    it inside their own process.
    """
    keep_malloc_heap()
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
