import functools
import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from woodwatch import evaluation
from woodwatch.errors import InvalidDatasetError, TrainingDivergedError
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
from woodwatch.nn import ModelGraph


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


def test_each_fit_runs_one_inference_pass_on_its_test_rows(monkeypatch, tiny_features):
    passes = []  # (graph, rows) per inference forward
    forward = ModelGraph.forward

    def counting_forward(self, x, train=False, rng=None):
        if not train:
            passes.append((self, len(x)))
        return forward(self, x, train=train, rng=rng)

    monkeypatch.setattr(ModelGraph, "forward", counting_forward)
    cfg = TrainConfig(epochs=3, batch_size=8)
    comparative_report(tiny_features, seed=1, cfg=cfg)
    _, test_idx = stratified_split(tiny_features.labels, seed=1)
    assert len({id(graph) for graph, _ in passes}) == len(passes) == len(ModelKind)
    assert [rows for _, rows in passes] == [len(test_idx)] * len(ModelKind)

    passes.clear()
    crossval_run(ModelKind.CNN, tiny_features, k=4, cfg=cfg)
    test_sizes = [len(test) for _, test in kfold_indices(tiny_features.labels, k=4)]
    assert len({id(graph) for graph, _ in passes}) == len(passes) == 4
    assert sorted(rows for _, rows in passes) == sorted(test_sizes)


# -- fits spread over the usable CPUs --------------------------------------------

def use_cpus(monkeypatch, n_cpus, **blas_env):
    """n_cpus usable CPUs and only the given BLAS thread variables set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in blas_env.items():
        monkeypatch.setenv(name, value)


@pytest.mark.parametrize("run", [
    lambda f: comparative_report(f, seed=2, cfg=TrainConfig(epochs=2, batch_size=8)),
    lambda f: crossval_run(ModelKind.CNN, f, k=4, seed=3, cfg=TrainConfig(epochs=2, batch_size=8)),
], ids=["compare", "crossval"])
def test_one_and_two_workers_give_byte_equal_reports(monkeypatch, tiny_features, run):
    reports = []
    for n_cpus in (1, 2):
        use_cpus(monkeypatch, n_cpus, OPENBLAS_NUM_THREADS="1")
        reports.append(json.dumps(run(tiny_features).to_dict()))
    assert reports[0] == reports[1]


def test_two_usable_cpus_run_two_jobs_at_once(monkeypatch):
    use_cpus(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    barrier = threading.Barrier(2, timeout=10)  # broken unless two jobs meet at it

    def job(index):
        barrier.wait()
        return index

    assert evaluation._run_all([functools.partial(job, i) for i in range(4)]) == [0, 1, 2, 3]


def test_every_job_runs_once_with_more_helpers_than_cores(monkeypatch):
    use_cpus(monkeypatch, 4, OPENBLAS_NUM_THREADS="1")  # 3 helpers, whatever the host has
    runs = [0] * 300

    def job(index):
        runs[index] += 1
        return index

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = evaluation._run_all([functools.partial(job, i) for i in range(300)])
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(300)) and runs == [1] * 300


@pytest.mark.parametrize("blas_env", [{}, {"GOTO_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
                         ids=["unset", "goto", "omp"])
def test_blas_on_every_cpu_runs_the_folds_serially_on_the_calling_thread(monkeypatch, tiny_features,
                                                                          blas_env):
    use_cpus(monkeypatch, 2, **blas_env)
    threads = []

    def fake_train(graph, x_train, y_train, x_val, y_val, cfg):
        threads.append(threading.current_thread())

    monkeypatch.setattr(evaluation, "train", fake_train)
    crossval_run(ModelKind.DNN_MEAN, tiny_features, k=4, cfg=TrainConfig(epochs=1))
    assert threads == [threading.current_thread()] * 4


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_failing_fold_gives_the_serial_error_and_no_later_fold_starts(monkeypatch, tiny_features,
                                                                         n_cpus):
    use_cpus(monkeypatch, n_cpus, OPENBLAS_NUM_THREADS="1")
    started, raised = [], threading.Event()

    def fake_train(graph, x_train, y_train, x_val, y_val, cfg):
        fold = cfg.seed - 10
        started.append(fold)
        if fold == 1:
            raised.set()
            raise TrainingDivergedError("non-finite loss at epoch 0, batch 0")
        if n_cpus == 2:  # fold 0 runs beside fold 1: end after its failure is recorded
            assert raised.wait(timeout=10)
            time.sleep(0.2)

    monkeypatch.setattr(evaluation, "train", fake_train)
    with pytest.raises(TrainingDivergedError, match=r"^fold 1: non-finite loss at epoch 0, batch 0$"):
        crossval_run(ModelKind.DNN_MEAN, tiny_features, k=4, seed=10, cfg=TrainConfig(epochs=1))
    assert sorted(started) == [0, 1]


def test_the_lowest_failing_fold_is_raised(monkeypatch, tiny_features):
    use_cpus(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    raised = threading.Event()

    def fake_train(graph, x_train, y_train, x_val, y_val, cfg):
        if cfg.seed == 1:
            raised.set()
            raise TrainingDivergedError("fold 1 failed first")
        assert raised.wait(timeout=10)
        raise TrainingDivergedError("fold 0 failed second")

    monkeypatch.setattr(evaluation, "train", fake_train)
    with pytest.raises(TrainingDivergedError, match="^fold 0: fold 0 failed second$"):
        crossval_run(ModelKind.DNN_MEAN, tiny_features, k=4, cfg=TrainConfig(epochs=1))


def test_ctrl_c_in_the_calling_thread_does_not_wait_for_a_helpers_job(monkeypatch):
    use_cpus(monkeypatch, 2, OPENBLAS_NUM_THREADS="1")
    caller = threading.current_thread()
    both_started = threading.Barrier(2, timeout=10)
    release, helper_done = threading.Event(), threading.Event()

    def job():
        both_started.wait()
        if threading.current_thread() is caller:
            raise KeyboardInterrupt
        release.wait(timeout=10)
        helper_done.set()

    try:
        with pytest.raises(KeyboardInterrupt):
            evaluation._run_all([job, job, job])
        assert not helper_done.is_set()
    finally:
        release.set()
