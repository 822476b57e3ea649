"""Correctness checks, written from the defining formulas.

Nothing here calls the code under test to produce an expected value except
where a check says so (the offline p_infested pass reuses the package's
pipeline on purpose: it checks the server against the library). Each check
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np


class MfccReference:
    """Brute-force MFCC: direct DFT, triangle filters evaluated bin by bin, direct DCT.

    The canonical chain: reflect-padded centred frames (2048 points, hop
    512) under a periodic Hann window, one-sided power, 128 Slaney-scale
    triangles of unit area between 0 and 8 kHz, 10*log10 with a 1e-10
    floor, orthonormal DCT-II keeping 40 coefficients.
    """

    def __init__(self, sample_rate: int = 16_000, fft_size: int = 2048, hop: int = 512,
                 n_mels: int = 128, fmin: float = 0.0, fmax: float = 8000.0,
                 n_mfcc: int = 40, log_floor: float = 1e-10):
        self.fft_size, self.hop, self.log_floor = fft_size, hop, log_floor
        n_bins = fft_size // 2 + 1
        angles = 2.0 * math.pi * np.outer(np.arange(fft_size), np.arange(n_bins)) / fft_size
        self.dft_cos, self.dft_sin = np.cos(angles), np.sin(angles)
        self.window = np.array([0.5 - 0.5 * math.cos(2.0 * math.pi * k / fft_size)
                                for k in range(fft_size)])

        def to_mel(hz: float) -> float:
            if hz < 1000.0:
                return 3.0 * hz / 200.0
            return 15.0 + 27.0 * math.log(hz / 1000.0) / math.log(6.4)

        def to_hz(mel: float) -> float:
            if mel < 15.0:
                return 200.0 * mel / 3.0
            return 1000.0 * math.exp(math.log(6.4) * (mel - 15.0) / 27.0)

        lo, hi = to_mel(fmin), to_mel(fmax)
        edges = [to_hz(lo + (hi - lo) * i / (n_mels + 1)) for i in range(n_mels + 2)]
        self.filters = np.zeros((n_mels, n_bins))
        for row in range(n_mels):
            left, centre, right = edges[row], edges[row + 1], edges[row + 2]
            for j in range(n_bins):
                f = j * sample_rate / fft_size
                if left <= f <= centre:
                    value = (f - left) / (centre - left)
                elif centre < f <= right:
                    value = (right - f) / (right - centre)
                else:
                    value = 0.0
                self.filters[row, j] = value * 2.0 / (right - left)

        self.dct = np.zeros((n_mels, n_mfcc))
        for k in range(n_mfcc):
            scale = math.sqrt((1.0 if k == 0 else 2.0) / n_mels)
            for n in range(n_mels):
                self.dct[n, k] = scale * math.cos(math.pi * (n + 0.5) * k / n_mels)

    def __call__(self, samples: np.ndarray) -> np.ndarray:
        pad, n_fft = self.fft_size // 2, self.fft_size
        x = np.asarray(samples, dtype=np.float64)
        padded = np.concatenate([x[1 : pad + 1][::-1], x, x[-pad - 1 : -1][::-1]])
        n_frames = 1 + len(x) // self.hop
        frames = np.stack([padded[i * self.hop : i * self.hop + n_fft] for i in range(n_frames)])
        frames = frames * self.window
        power = (frames @ self.dft_cos) ** 2 + (frames @ self.dft_sin) ** 2
        return 10.0 * np.log10(np.maximum(power @ self.filters.T, self.log_floor)) @ self.dct


def check_mfcc(reference: np.ndarray, values: np.ndarray, tol: float = 1e-6) -> list[str]:
    if reference.shape != values.shape:
        return [f"MFCC shape {values.shape}, reference {reference.shape}"]
    worst = float(np.max(np.abs(reference - values)))
    return [] if worst <= tol else [f"MFCC differs from brute force by {worst:.3g} > {tol}"]


def metrics_from_counts(tp: int, fn: int, fp: int, tn: int) -> dict[str, float]:
    """Accuracy, precision, recall and F1 with infested positive; 0 where undefined."""
    total = tp + fn + fp + tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"accuracy": (tp + tn) / total, "precision": precision, "recall": recall, "f1": f1}


def check_comparison(report: dict, n_test_per_class: dict[str, int], min_accuracy: float,
                     tol: float = 1e-12) -> list[str]:
    """A comparative report (its ``to_dict``) against the split sizes and the metric arithmetic.

    ``n_test_per_class`` maps "clean"/"infested" to the stratified test counts.
    """
    problems = []
    for kind, counts in report["confusions"].items():
        tp, fn, fp, tn = counts["tp"], counts["fn"], counts["fp"], counts["tn"]
        if tp + fn != n_test_per_class["infested"] or fp + tn != n_test_per_class["clean"]:
            problems.append(f"{kind}: confusion {counts} does not cover the test split {n_test_per_class}")
            continue
        expected = metrics_from_counts(tp, fn, fp, tn)
        for name, value in expected.items():
            if abs(report["models"][kind][name] - value) > tol:
                problems.append(f"{kind}: reported {name} {report['models'][kind][name]} != {value}")
        if expected["accuracy"] < min_accuracy:
            problems.append(f"{kind}: test accuracy {expected['accuracy']:.3f} < {min_accuracy}")
    return problems


def check_records(records, expected: dict[int, tuple[int, int]]) -> list[str]:
    """Exactly one record per clip sent, spans contiguous per device.

    ``records`` are store records of one round; ``expected`` maps device id
    to (clips sent, samples per clip). Clip k of a device must span
    ``[k * clip_samples, (k + 1) * clip_samples)``.
    """
    problems = []
    by_device: dict[int, list[int]] = {}
    for record in records:
        if record.device_id not in expected:
            problems.append(f"record from unknown device {record.device_id}")
            continue
        clip_samples = expected[record.device_id][1]
        if record.clip_length != clip_samples:
            problems.append(f"device {record.device_id}: clip length {record.clip_length} != {clip_samples}")
        by_device.setdefault(record.device_id, []).append(record.clip_start)
    for device, (n_clips, clip_samples) in expected.items():
        starts = sorted(by_device.get(device, []))
        want = [k * clip_samples for k in range(n_clips)]
        if starts != want:
            problems.append(f"device {device}: clip starts {starts[:4]}... ({len(starts)}) "
                            f"!= {n_clips} contiguous clips")
    return problems


def check_predictions(records, expected: dict[tuple[int, int], float], tol: float = 1e-9) -> list[str]:
    """Each record's p_infested against an offline pass, and its label against that p.

    ``expected`` maps (device id, clip start) to the offline P(infested).
    The label is "infested" exactly when P(infested) > P(clean).
    """
    problems = []
    for record in records:
        key = (record.device_id, record.clip_start)
        if key not in expected:
            problems.append(f"no offline prediction for {key}")
            continue
        p = expected[key]
        if abs(record.p_infested - p) > tol:
            problems.append(f"{key}: p_infested {record.p_infested!r} != offline {p!r}")
        label = "infested" if p > 1.0 - p else "clean"
        if record.label != label:
            problems.append(f"{key}: label {record.label} inconsistent with p_infested {p}")
    return problems


def check_server_stats(stats: dict, frames_sent: int, records: int) -> list[str]:
    problems = []
    if stats["frames_ok"] != frames_sent:
        problems.append(f"frames_ok {stats['frames_ok']} != frames sent {frames_sent}")
    if stats["records_written"] != records:
        problems.append(f"records_written {stats['records_written']} != {records}")
    for key in ("integrity_errors", "protocol_errors", "duplicate_frames", "sequence_gaps",
                "classify_errors"):
        if stats[key]:
            problems.append(f"{key} = {stats[key]}")
    return problems
