"""The researcher's workload: extract MFCCs from a WAV dataset, compare the four kinds.

Set-up writes a synthetic dataset with ``synth.gen_dataset`` and warms the
caches. One round then does what ``woodwatch extract`` followed by
``woodwatch compare`` do, through the same public functions.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from common import vm_hwm_mb
from checks import MfccReference, check_comparison, check_mfcc
from tracing import Tracer, layer_metrics, summarize

from woodwatch import audio, features, synth
from woodwatch.evaluation import comparative_report
from woodwatch.models import ModelKind, TrainConfig, build_model, predict

#: The acceptance suite's accuracy floor for every kind on this experiment.
MIN_ACCURACY = 0.85
SETUPS = 3
MFCC_CHECKS_PER_ROUND = 2


@dataclass(frozen=True)
class Size:
    n_per_class: int
    epochs: int


#: The acceptance suite's 100 clips per class; 6 epochs, far below the
#: published 50, still keep the LSTM above the floor.
FULL = Size(n_per_class=100, epochs=6)
#: For the benchmark's own tests: few clips need more epochs to pass the floor.
TINY = Size(n_per_class=20, epochs=20)


def set_up(work: Path, seed: int, n_per_class: int) -> Path:
    dataset = work / "dataset"
    synth.gen_dataset(dataset, n_per_class, synth.SynthConfig(seed=seed))
    # warm the window and filterbank caches and each kind's first inference
    features.mfcc_frames(audio.AudioClip(np.zeros(80_000), audio.CANONICAL_RATE))
    for kind in ModelKind:
        x = np.zeros((2, 40)) if kind is ModelKind.DNN_MEAN else np.zeros((2, 157, 40))
        predict(build_model(kind, seed=0), x)
    return dataset


def extract(dataset: Path, out: Path, keep: set[int]) -> tuple[features.FeatureSet, list[float], dict]:
    """``woodwatch extract``: load_wav -> resample_linear -> segment_clip -> mfcc_frames -> save_features.

    Returns the feature set, per-clip latencies in ms (load to MFCC) and
    the canonical-rate samples of the clips whose index is in ``keep``,
    for the reference check.
    """
    wavs = sorted(dataset.glob("*/*.wav")) + sorted(dataset.glob("*.wav"))
    cfg = features.FeatureConfig()
    ids, labels, matrices, latencies, samples = [], [], [], [], {}
    for wav_path in wavs:
        start = time.perf_counter()
        clip = audio.load_wav(wav_path)
        clip = audio.resample_linear(clip, audio.CANONICAL_RATE)
        segments = audio.segment_clip(clip, 5.0)
        parent = wav_path.parent.name
        label = int(audio.ClipLabel.from_name(parent)) if parent in ("clean", "infested") else -1
        for k, segment in enumerate(segments):
            suffix = f"#{k}" if len(segments) > 1 else ""
            clip_id = str(wav_path.relative_to(dataset)) + suffix
            ids.append(clip_id)
            labels.append(label)
            if len(ids) - 1 in keep:
                samples[len(ids) - 1] = segment.samples
            matrices.append(features.mfcc_frames(segment, cfg).values)
        latencies.append((time.perf_counter() - start) * 1e3)
    feature_set = features.FeatureSet(ids, np.asarray(labels), np.stack(matrices), cfg)
    features.save_features(out, feature_set)
    return feature_set, latencies, samples


def run(work: Path, seed: int, seconds: float, trace: bool, size: Size) -> dict:
    setup_times = []
    for _ in range(SETUPS):
        shutil.rmtree(work / "setup", ignore_errors=True)
        start = time.perf_counter()
        dataset = set_up(work / "setup", seed, size.n_per_class)
        setup_times.append(time.perf_counter() - start)

    n_clips = 2 * size.n_per_class
    train_cfg = TrainConfig(epochs=size.epochs, batch_size=32, seed=seed)
    rng = np.random.default_rng(seed)
    tracer = Tracer() if trace else None
    rounds, problems, dump_bytes, mfcc_pending = [], [], [], []
    began = None
    # Round 0 warms the process up and is not reported: it ran 5-30% slower
    # than the rounds after it. Traced runs then alternate untraced and
    # traced rounds, in pairs.
    while len(rounds) < 2 or time.perf_counter() - began < seconds or (trace and len(rounds) % 2 == 0):
        traced = trace and len(rounds) >= 2 and len(rounds) % 2 == 0
        if traced:
            tracer.install_extract_io()
            tracer.install_training()
            tracer.install_compute()
        keep = {int(i) for i in rng.choice(n_clips, size=MFCC_CHECKS_PER_ROUND, replace=False)}
        dump = work / "features.json"
        cpu0, t0 = time.process_time(), time.perf_counter()
        feature_set, latencies, samples = extract(dataset, dump, keep)
        t1 = time.perf_counter()
        loaded = features.load_features(dump)
        report = comparative_report(loaded, seed=seed, cfg=train_cfg)
        t2, cpu2 = time.perf_counter(), time.process_time()
        if not rounds:
            # one pass is what a researcher runs; later passes only add
            # allocator retention that varies from run to run
            peak_mb = vm_hwm_mb()
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "extract_s": t1 - t0, "compare_s": t2 - t1,
                       "wall_s": t2 - t0, "cpu_s": cpu2 - cpu0, "clips": len(feature_set),
                       "latencies_ms": latencies})
        dump_bytes.append(dump.stat().st_size)
        if began is None:
            began = time.perf_counter()
        problems += check_round(feature_set, loaded, report.to_dict())
        mfcc_pending += [(feature_set.ids[i], samples[i], feature_set.matrices[i].copy())
                         for i in sorted(keep)]
        # drop this round's data so every round starts from the same footprint
        del feature_set, loaded, report, samples
    reference = MfccReference()
    for clip_id, clip_samples, values in mfcc_pending:
        problems += [f"{clip_id}: {p}" for p in check_mfcc(reference(clip_samples), values)]

    untraced = [r for r in rounds[1:] if not r["traced"]]
    result = {
        "attempted": sum(r["clips"] + len(ModelKind) for r in rounds),
        "failed": 0,
        "problems": problems,
        "end_to_end": _end_to_end(untraced, peak_mb, median(setup_times)),
        "detail": {
            "rounds": len(rounds) - 1,
            "round_wall_s": [r["wall_s"] for r in rounds],
            "setup_s_each": setup_times,
            "wall_s": median([r["wall_s"] for r in untraced]),
            "extract_s": median([r["extract_s"] for r in untraced]),
            "compare_s": median([r["compare_s"] for r in untraced]),
            "epochs": size.epochs,
            "clips_per_round": n_clips,
            "mfcc_clips_checked": len(mfcc_pending),
        },
    }
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        result["traced_end_to_end"] = _end_to_end(traced_rounds, peak_mb, median(setup_times))
        metrics = layer_metrics(summarize(tracer.spans))
        metrics["features.dump_mb"] = (median(dump_bytes) / 1e6, "MB")
        result["layers"] = metrics
        result["spans"] = tracer.spans
    return result


def _end_to_end(rounds: list[dict], peak_mb: float, setup_s: float) -> dict:
    return {
        "clips_per_s": (median([r["clips"] / r["wall_s"] for r in rounds]), "1/s"),
        "cpu_ms_per_clip": (median([r["cpu_s"] * 1e3 / r["clips"] for r in rounds]), "ms"),
        "latency_p50_ms": (median([v for r in rounds for v in r["latencies_ms"]]), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def check_round(extracted: features.FeatureSet, loaded: features.FeatureSet, report: dict) -> list[str]:
    problems = []
    if not (loaded.ids == extracted.ids and np.array_equal(loaded.labels, extracted.labels)
            and loaded.matrices.tobytes() == extracted.matrices.tobytes()
            and loaded.config == extracted.config):
        problems.append("feature dump does not reload bit-equal")
    n_test = {}
    for name, code in (("clean", 0), ("infested", 1)):
        # the stratified split's definition: round-half-up of 20% per class, at least one
        n_test[name] = max(1, math.floor(int(np.sum(loaded.labels == code)) * 0.2 + 0.5))
    problems += check_comparison(report, n_test, MIN_ACCURACY)
    return problems
