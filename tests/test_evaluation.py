import numpy as np
import pytest

from woodwatch.errors import InvalidDatasetError
from woodwatch.evaluation import (
    ConfusionMatrix,
    comparative_report,
    confusion_from_predictions,
    crossval_run,
    kfold_indices,
    metrics_from_confusion,
    stratified_split,
)
from woodwatch.models import ModelKind, TrainConfig


def labels_of(n_clean, n_infested, seed=0):
    labels = np.array([0] * n_clean + [1] * n_infested)
    return np.random.default_rng(seed).permutation(labels)


# -- stratified split -----------------------------------------------------------

def test_split_balanced_dataset():
    labels = labels_of(50, 50)
    train_idx, test_idx = stratified_split(labels, ratio=0.2, seed=3)
    assert len(train_idx) == 80 and len(test_idx) == 20
    assert labels[test_idx].sum() == 10  # 10 infested, 10 clean
    # disjoint and exhaustive
    assert np.array_equal(np.sort(np.concatenate([train_idx, test_idx])), np.arange(100))


def test_split_deterministic():
    labels = labels_of(30, 40)
    a = stratified_split(labels, seed=9)
    b = stratified_split(labels, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_round_half_up():
    labels = np.array([0] * 7 + [1] * 13)
    _, test_idx = stratified_split(labels, ratio=0.2, seed=0)
    assert len(test_idx) == 4  # round(1.4)=1 clean + round(2.6)=3 infested
    assert labels[test_idx].sum() == 3


def test_split_rejects_single_class():
    with pytest.raises(InvalidDatasetError):
        stratified_split(np.zeros(10, dtype=int))


# -- k-fold -----------------------------------------------------------------------

def test_kfold_partitions_cleanly():
    labels = labels_of(50, 50, seed=1)
    folds = kfold_indices(labels, k=5, seed=2)
    assert len(folds) == 5
    all_test = np.concatenate([test for _, test in folds])
    assert len(all_test) == 100 and len(np.unique(all_test)) == 100
    for train_idx, test_idx in folds:
        assert len(test_idx) == 20
        assert np.array_equal(np.sort(np.concatenate([train_idx, test_idx])), np.arange(100))


def test_kfold_rejects_k_below_two():
    with pytest.raises(ValueError):
        kfold_indices(labels_of(10, 10), k=1)


def test_kfold_rejects_small_class():
    labels = np.array([0] * 3 + [1] * 50)
    with pytest.raises(InvalidDatasetError):
        kfold_indices(labels, k=5)


def test_kfold_stratification_within_one():
    labels = labels_of(48, 52, seed=4)
    folds = kfold_indices(labels, k=5, seed=4)
    for _, test_idx in folds:
        infested = labels[test_idx].sum()
        assert infested in (10, 11)
        assert len(test_idx) - infested in (9, 10)


# -- confusion & metrics -----------------------------------------------------------

def test_confusion_perfect_predictions():
    y = np.array([0, 1, 0, 1, 1])
    m = confusion_from_predictions(y, y)
    assert m.fn == 0 and m.fp == 0
    assert m.tp == 3 and m.tn == 2


def test_confusion_enumeration():
    truth = np.array([1, 1, 0, 0])
    pred = np.array([1, 0, 0, 1])
    m = confusion_from_predictions(truth, pred)
    assert (m.tp, m.fn, m.tn, m.fp) == (1, 1, 1, 1)


def test_confusion_matches_counting_loop():
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 2, size=100)
    pred = rng.integers(0, 2, size=100)
    m = confusion_from_predictions(truth, pred)
    counts = {"tp": 0, "fn": 0, "fp": 0, "tn": 0}
    for t, p in zip(truth, pred):
        key = ("t" if t == p else "f") + ("p" if p == 1 else "n")
        counts[key] += 1
    assert m.to_dict() == counts


def test_confusion_rejects_length_mismatch():
    with pytest.raises(ValueError):
        confusion_from_predictions(np.array([0, 1]), np.array([0]))


def test_confusion_rejects_labels_outside_the_two_classes():
    with pytest.raises(ValueError):
        confusion_from_predictions(np.array([0, 1, 2, 2]), np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError):
        confusion_from_predictions(np.array([0, 1]), np.array([0, -1]))


def test_metrics_published_counts():
    m = ConfusionMatrix(tp=48, fn=2, fp=3, tn=47)
    report = metrics_from_confusion(m)
    assert report.accuracy == pytest.approx(0.95)
    assert report.precision == pytest.approx(48 / 51, abs=1e-9)
    assert report.recall == pytest.approx(0.96)
    assert report.f1 == pytest.approx(0.950495, abs=1e-5)


def test_metrics_perfect_and_degenerate():
    perfect = metrics_from_confusion(ConfusionMatrix(tp=5, fn=0, fp=0, tn=5))
    assert (perfect.accuracy, perfect.precision, perfect.recall, perfect.f1) == (1.0, 1.0, 1.0, 1.0)
    degenerate = metrics_from_confusion(ConfusionMatrix(tp=0, fn=0, fp=0, tn=4))
    assert (degenerate.precision, degenerate.recall, degenerate.f1) == (0.0, 0.0, 0.0)


def test_metric_identity_on_self_predictions():
    y = np.array([0, 1, 1, 0, 1])
    report = metrics_from_confusion(confusion_from_predictions(y, y))
    assert (report.accuracy, report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0, 1.0)


def test_accuracy_equals_direct_mean():
    rng = np.random.default_rng(6)
    truth = rng.integers(0, 2, size=57)
    pred = rng.integers(0, 2, size=57)
    report = metrics_from_confusion(confusion_from_predictions(truth, pred))
    assert report.accuracy == np.mean(truth == pred)


# -- cross-validation ---------------------------------------------------------------

def test_cv_aggregation_arithmetic():
    accuracies = np.array([0.9, 1.0, 0.9, 1.0, 1.0])
    assert accuracies.mean() == pytest.approx(0.96)
    assert accuracies.std() == pytest.approx(0.04899, abs=1e-5)  # population std


def test_crossval_runs_and_aggregates(tiny_features):
    cfg = TrainConfig(epochs=8, batch_size=8, seed=0)
    report = crossval_run(ModelKind.DNN_MEAN, tiny_features, k=4, seed=0, cfg=cfg)
    assert len(report.fold_reports) == 4
    accuracies = np.array([r.accuracy for r in report.fold_reports])
    assert report.mean_accuracy == pytest.approx(accuracies.mean())
    assert report.std_accuracy == pytest.approx(accuracies.std())
    assert report.mean_accuracy >= 0.75  # easy synthetic data


def test_comparative_report_shape(tiny_features):
    cfg = TrainConfig(epochs=2, batch_size=8, seed=1)
    report = comparative_report(tiny_features, seed=1, cfg=cfg)
    assert set(report.rows) == {k.value for k in ModelKind}
    for row in report.rows.values():
        assert 0.0 <= row.accuracy <= 1.0 and 0.0 <= row.f1 <= 1.0
    table = report.format_table()
    assert "CNN-LSTM" in table and "Accuracy" in table
    assert len(table.strip().splitlines()) == 6  # header + rule + 4 rows
