"""Splits, cross-validation, metrics, and the comparative model report.

The positive class is Infested throughout, so recall directly measures the
miss rate that matters for intervention. Degenerate precision/recall (no
predicted or no actual positives) are defined as 0 to keep fold aggregation
total.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .audio import ClipLabel
from .errors import InvalidDatasetError, WoodwatchError
from .features import FeatureSet
from .models import ModelKind, TrainConfig, build_model, predict, split_inputs, train

HOLDOUT_RATIO = 0.2  # share of each class held out for testing or validation
FOLDS = 5  # cross-validation folds


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with Infested as the positive class."""

    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        # rows = actual (clean, infested), columns = predicted (clean, infested)
        clean, infested = ClipLabel.CLEAN.text, ClipLabel.INFESTED.text
        return (
            f"actual\\predicted,{clean},{infested}\n"
            f"{clean},{self.tn},{self.fp}\n"
            f"{infested},{self.fn},{self.tp}\n"
        )


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CvReport:
    fold_reports: list[MetricReport]
    mean_accuracy: float
    std_accuracy: float

    def to_dict(self) -> dict:
        return {
            "folds": [r.to_dict() for r in self.fold_reports],
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
        }


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _class_indices(labels: np.ndarray) -> dict[int, np.ndarray]:
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if len(classes) < 2:
        raise InvalidDatasetError("dataset must contain both classes")
    return {int(c): np.flatnonzero(labels == c) for c in classes}


def stratified_split(labels: np.ndarray, ratio: float = HOLDOUT_RATIO, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per-class round-half-up test allocation (at least 1), seeded shuffle within class.

    Returns sorted (train_indices, test_indices); disjoint and exhaustive.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    by_class = _class_indices(labels)
    train_parts, test_parts = [], []
    for cls in sorted(by_class):
        members = rng.permutation(by_class[cls])
        n_test = max(1, _round_half_up(len(members) * ratio))
        if n_test >= len(members):
            raise InvalidDatasetError(f"class {cls} too small for test ratio {ratio}")
        test_parts.append(members[:n_test])
        train_parts.append(members[n_test:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


def kfold_indices(labels: np.ndarray, k: int = FOLDS, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold: per class, seeded shuffle then contiguous chunks.

    Chunk sizes differ by at most one, so stratification is preserved within
    +-1 per class. Test folds are pairwise disjoint and exhaustive.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    by_class = _class_indices(labels)
    for cls, members in by_class.items():
        if len(members) < k:
            raise InvalidDatasetError(f"class {cls} has {len(members)} samples, fewer than k={k}")
    rng = np.random.default_rng(seed)
    fold_members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in sorted(by_class):
        members = rng.permutation(by_class[cls])
        base, extra = divmod(len(members), k)
        start = 0
        for fold in range(k):
            size = base + (1 if fold < extra else 0)
            fold_members[fold].append(members[start : start + size])
            start += size
    all_indices = np.arange(len(labels))
    pairs = []
    for fold in range(k):
        test = np.sort(np.concatenate(fold_members[fold]))
        train = np.setdiff1d(all_indices, test)
        pairs.append((train, test))
    return pairs


def confusion_from_predictions(true_labels: np.ndarray, predicted_labels: np.ndarray) -> ConfusionMatrix:
    true_labels = np.asarray(true_labels)
    predicted_labels = np.asarray(predicted_labels)
    if true_labels.shape != predicted_labels.shape or true_labels.size == 0:
        raise ValueError("label arrays must be equal-length and non-empty")
    for labels in (true_labels, predicted_labels):
        if not np.isin(labels, (0, 1)).all():
            raise ValueError(f"labels must be ClipLabel codes 0 or 1, got {np.unique(labels).tolist()}")
    tp = int(np.sum((true_labels == 1) & (predicted_labels == 1)))
    fn = int(np.sum((true_labels == 1) & (predicted_labels == 0)))
    fp = int(np.sum((true_labels == 0) & (predicted_labels == 1)))
    tn = int(np.sum((true_labels == 0) & (predicted_labels == 0)))
    return ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)


def metrics_from_confusion(m: ConfusionMatrix) -> MetricReport:
    if m.total < 1:
        raise ValueError("empty confusion matrix")
    accuracy = (m.tp + m.tn) / m.total
    precision = m.tp / (m.tp + m.fp) if (m.tp + m.fp) > 0 else 0.0
    recall = m.tp / (m.tp + m.fn) if (m.tp + m.fn) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return MetricReport(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


#: The variables OpenBLAS reads at load for its thread count, in its order.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads(cpus: int) -> int:
    """Threads per BLAS call: the first of those variables set to a positive
    count, else one per CPU, as OpenBLAS chooses at load."""
    for name in _BLAS_THREAD_VARS:
        try:
            count = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            return count
    return cpus


def _run_all(jobs: list[Callable[[], object]]) -> list:
    """Call every job and return the results in job order, as a serial loop would.

    Jobs start in order, on the calling thread plus one daemon helper per
    further usable CPU that BLAS leaves free: with BLAS on every CPU there is
    no helper, because threaded fits on a multi-threaded BLAS ran 2x slower
    than serial ones. Threads keep the fits' CPU time and peak memory in this
    process. Once a job fails no new job starts, and the failure with the
    lowest index is raised. Ctrl-C in the calling thread does not wait for a
    helper's job.
    """
    cpus = len(os.sched_getaffinity(0))
    n_helpers = min(len(jobs), cpus // _blas_threads(cpus)) - 1
    results = [None] * len(jobs)
    errors: dict[int, Exception] = {}
    pending = iter(range(len(jobs)))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while True:
            with lock:
                index = None if stop.is_set() else next(pending, None)
            if index is None:
                return
            try:
                results[index] = jobs[index]()
            except Exception as exc:
                errors[index] = exc
                stop.set()

    helpers = [threading.Thread(target=work, daemon=True) for _ in range(n_helpers)]
    try:
        for helper in helpers:
            helper.start()
        work()
        for helper in helpers:
            helper.join()
    finally:
        stop.set()  # after Ctrl-C no helper starts another job
    if errors:
        raise errors[min(errors)]
    return results


def _fit_and_score(kind: ModelKind, inputs: tuple[np.ndarray, np.ndarray], labels: np.ndarray,
                   train_idx: np.ndarray, test_idx: np.ndarray, seed: int,
                   cfg: TrainConfig) -> tuple[MetricReport, ConfusionMatrix]:
    """Fit one model on ``inputs`` = (train rows, test rows) and score it on the test rows.

    The fit runs no per-epoch validation: only the final predictions are read."""
    x_train, x_test = inputs
    graph = build_model(kind, seed=seed)
    train(graph, x_train, labels[train_idx], None, None, replace(cfg, seed=seed))
    _, predicted = predict(graph, x_test)
    confusion = confusion_from_predictions(labels[test_idx], predicted)
    return metrics_from_confusion(confusion), confusion


def crossval_run(kind: ModelKind, features: FeatureSet, k: int = FOLDS, seed: int = 0,
                 cfg: TrainConfig = TrainConfig()) -> CvReport:
    """Independent model per fold, seeded as seed + fold index. Population std."""
    folds = kfold_indices(features.labels, k=k, seed=seed)

    def fold_job(fold_index: int, train_idx: np.ndarray, test_idx: np.ndarray) -> MetricReport:
        try:
            inputs = split_inputs(kind, features, train_idx, test_idx)[:2]
            report, _ = _fit_and_score(kind, inputs, features.labels, train_idx, test_idx,
                                       seed + fold_index, cfg)
        except WoodwatchError as exc:
            exc.args = (f"fold {fold_index}: {exc}",)
            raise
        return report

    reports = _run_all([functools.partial(fold_job, i, *fold) for i, fold in enumerate(folds)])
    accuracies = np.array([r.accuracy for r in reports])
    return CvReport(
        fold_reports=reports,
        mean_accuracy=float(accuracies.mean()),
        std_accuracy=float(accuracies.std()),  # divisor k
    )


@dataclass
class ComparativeReport:
    """Accuracy and F1 for every model kind over one shared stratified split."""

    rows: dict[str, MetricReport]
    confusions: dict[str, ConfusionMatrix] = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "models": {k: r.to_dict() for k, r in self.rows.items()},
            "confusions": {k: c.to_dict() for k, c in self.confusions.items()},
        }

    def format_table(self) -> str:
        names = {
            "dnn_mean": "DNN (mean MFCC)",
            "cnn": "CNN only",
            "lstm": "LSTM only",
            "cnn_lstm": "CNN-LSTM",
        }
        lines = [f"{'Model':<16} {'Accuracy':>9} {'F1 Score':>9}",
                 f"{'-' * 16} {'-' * 9} {'-' * 9}"]
        for key, report in self.rows.items():
            lines.append(
                f"{names.get(key, key):<16} {report.accuracy * 100:>8.1f}% {report.f1 * 100:>8.1f}%"
            )
        return "\n".join(lines) + "\n"


def comparative_report(features: FeatureSet, seed: int = 0, cfg: TrainConfig = TrainConfig(),
                       ratio: float = HOLDOUT_RATIO) -> ComparativeReport:
    """Train all four kinds on one shared stratified split and tabulate.

    The three sequence kinds read one shared, read-only copy of their inputs.
    """
    train_idx, test_idx = stratified_split(features.labels, ratio=ratio, seed=seed)
    mean_inputs = split_inputs(ModelKind.DNN_MEAN, features, train_idx, test_idx)[:2]
    sequence_inputs = split_inputs(ModelKind.CNN, features, train_idx, test_idx)[:2]
    for x in (*mean_inputs, *sequence_inputs):
        x.setflags(write=False)
    kinds = list(ModelKind)
    results = _run_all([
        functools.partial(_fit_and_score, kind,
                          mean_inputs if kind is ModelKind.DNN_MEAN else sequence_inputs,
                          features.labels, train_idx, test_idx, seed, cfg)
        for kind in kinds
    ])
    return ComparativeReport(
        rows={kind.value: report for kind, (report, _) in zip(kinds, results)},
        confusions={kind.value: confusion for kind, (_, confusion) in zip(kinds, results)},
        seed=seed,
    )
