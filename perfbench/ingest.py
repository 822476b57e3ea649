"""The operator's workloads: two devices streaming into ``woodwatch serve``.

Set-up does what an operator does before serving: ``gen-synth`` ->
``extract`` -> ``train --kind cnn_lstm`` on a small synthetic set, then
starts the server (perfbench/ingest_server.py) as its own process. It also
synthesises each device's clips and encodes their frames ahead of time.

The load generator is this process: one thread per device connection. A
round opens both connections, streams every device's clips, closes them
and waits until the server appended one record per clip; the next round
starts from an idle server. ``ingest_burst`` sends as fast as the sockets
accept (closed loop); ``ingest_paced`` sends each frame at a fixed due
time (open loop within the round) and times each clip from when its last
frame was due.
"""

from __future__ import annotations

import bisect
import json
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from common import BENCH_DIR, percentile_with_tail
from checks import check_predictions, check_records, check_server_stats
from experiment import extract
from tracing import Tracer, layer_metrics, merge_summaries, summarize

from woodwatch import audio, evaluation, features, models, synth
from woodwatch.ingest import load_store, protocol
from woodwatch.nn import load_checkpoint, save_checkpoint

#: Each device's sample rate: the canonical rate and one that must be resampled.
DEVICE_RATES = {1: 16_000, 2: 48_000}
#: Samples per frame, as ``woodwatch simulate-device`` sends by default.
FRAME_SAMPLES = 2500
CLIP_SECONDS = 5.0
#: Offered load of ingest_paced, both devices together: about a third of
#: the ingest_burst throughput measured on the reference machine (README).
PACED_CLIPS_PER_S = 26.0
#: Share of clips whose label must match the synthetic ground truth.
LABEL_FLOOR = 0.9


TRAIN_EPOCHS = 10
SETUPS = 3


@dataclass(frozen=True)
class Size:
    train_per_class: int
    clips_per_device: int


FULL = Size(train_per_class=24, clips_per_device=12)
#: For the benchmark's own tests.
TINY = Size(train_per_class=8, clips_per_device=2)


@dataclass
class Device:
    device_id: int
    rate: int
    truth: list[str]
    pcm: list[np.ndarray]
    frames: list[bytes]

    @property
    def clip_samples(self) -> int:
        return int(round(CLIP_SECONDS * self.rate))

    @property
    def frames_per_clip(self) -> int:
        return self.clip_samples // FRAME_SAMPLES


class ServerProcess:
    """The server child and its JSON-lines control channel."""

    def __init__(self, checkpoint: Path, store: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "ingest_server.py"), str(checkpoint), str(store)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.port: int | None = None

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"ingest server exited with code {self.proc.wait()}")
        return json.loads(line)

    def wait_ready(self) -> dict:
        hello = self._read()
        self.port = hello["port"]
        return hello

    def ask(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        reply = self.ask(cmd="stop")
        self.proc.wait(timeout=30)
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def train_checkpoint(work: Path, seed: int, size: Size) -> Path:
    """``woodwatch gen-synth``, ``extract`` and ``train --kind cnn_lstm``, through the library."""
    dataset = work / "train-set"
    synth.gen_dataset(dataset, size.train_per_class, synth.SynthConfig(seed=seed))
    extract(dataset, work / "features.json", keep=set())
    feature_set = features.load_features(work / "features.json")
    train_idx, val_idx = evaluation.stratified_split(feature_set.labels, ratio=0.2, seed=seed)
    kind = models.ModelKind.CNN_LSTM
    inputs, stats = models.model_inputs(kind, feature_set, train_idx)
    graph = models.build_model(kind, seed=seed)
    models.train(graph, inputs[train_idx], feature_set.labels[train_idx],
                 inputs[val_idx], feature_set.labels[val_idx],
                 models.TrainConfig(epochs=TRAIN_EPOCHS, batch_size=32, seed=seed))
    checkpoint = work / "model.ckpt"
    save_checkpoint(checkpoint, graph, kind.value, seed, feature_stats=stats.to_dict(),
                    feature_config=feature_set.config.to_dict())
    return checkpoint


def make_device(device_id: int, rate: int, seed: int, n_clips: int) -> Device:
    """Alternating clean/infested synthetic clips at ``rate``, framed and encoded."""
    cfg = synth.SynthConfig(sample_rate=rate)
    clip_seeds = np.random.default_rng([seed, device_id]).integers(0, 2**63, size=n_clips)
    truth, pcm = [], []
    for k, clip_seed in enumerate(clip_seeds):
        label = "infested" if k % 2 else "clean"
        generate = synth.gen_infested_clip if label == "infested" else synth.gen_clean_clip
        pcm.append(audio.float_to_pcm16(generate(cfg, int(clip_seed)).samples))
        truth.append(label)
    stream = np.concatenate(pcm)
    frames = [protocol.encode_frame(protocol.DeviceFrame(device_id, seq, rate,
                                                         stream[i : i + FRAME_SAMPLES].tobytes()))
              for seq, i in enumerate(range(0, len(stream), FRAME_SAMPLES))]
    return Device(device_id, rate, truth, pcm, frames)


@dataclass
class Setup:
    checkpoint: Path
    server: ServerProcess
    devices: list[Device]
    seconds: float


def set_up(work: Path, seed: int, size: Size, tracer: Tracer | None) -> Setup:
    start = time.perf_counter()
    if tracer:
        tracer.install_extract_io()
        tracer.install_training()
        tracer.install_ingest_client()
    try:
        checkpoint = train_checkpoint(work, seed, size)
        server = ServerProcess(checkpoint, work / "store.jsonl")
        try:
            # the server warms up while the device streams are encoded
            devices = [make_device(d, rate, seed, size.clips_per_device)
                       for d, rate in DEVICE_RATES.items()]
            server.wait_ready()
        except BaseException:
            server.kill()
            raise
    finally:
        if tracer:
            tracer.uninstall()
    return Setup(checkpoint, server, devices, time.perf_counter() - start)


def stream_round(port: int, devices: list[Device], paced: bool) -> dict:
    """Send every device's frames over a fresh connection per device.

    Returns the round's start (first frame sent, or due when paced) and,
    per device, each clip's reference time (last frame's send completed,
    or due when paced), its last frame's send completion, and the
    generator's lateness per frame when paced.
    """
    conns = [socket.create_connection(("127.0.0.1", port)) for _ in devices]
    per_clip_rate = PACED_CLIPS_PER_S / len(devices)
    t0 = time.perf_counter() + 0.005
    out: list[dict | None] = [None] * len(devices)
    errors: list[BaseException] = []

    def send(index: int) -> None:
        device, conn = devices[index], conns[index]
        fpc = device.frames_per_clip
        period = 1.0 / (per_clip_rate * fpc)
        # devices are spread evenly over one clip interval, not in lockstep
        origin = t0 + index / (per_clip_rate * len(devices))
        first, sent_last, due_last, lags = None, [], [], []
        try:
            with conn:
                for j, frame in enumerate(device.frames):
                    if paced:
                        due = origin + j * period
                        delay = due - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                        lags.append(time.perf_counter() - due)
                    if first is None:
                        first = time.perf_counter()
                    conn.sendall(frame)
                    if (j + 1) % fpc == 0:
                        sent_last.append(time.perf_counter())
                        due_last.append(origin + j * period)
        except OSError as exc:
            errors.append(exc)
            return
        out[index] = {"first": first, "sent_last": sent_last, "due_last": due_last, "lags": lags}

    threads = [threading.Thread(target=send, args=(i,)) for i in range(len(devices))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    start = t0 if paced else min(d["first"] for d in out)
    return {
        "start": start,
        "ref": {dev.device_id: (d["due_last"] if paced else d["sent_last"]) for dev, d in zip(devices, out)},
        "sent_last": {dev.device_id: d["sent_last"] for dev, d in zip(devices, out)},
        "lags": [lag for d in out for lag in d["lags"]],
    }


def offline_predictions(checkpoint: Path, devices: list[Device]) -> dict[tuple[int, int], float]:
    """P(infested) for every device clip by mfcc_frames -> apply_standardize -> predict."""
    ckpt = load_checkpoint(checkpoint)
    cfg = features.FeatureConfig.from_dict(ckpt.feature_config)
    stats = features.StandardizeStats.from_dict(ckpt.feature_stats)
    out = {}
    for device in devices:
        for k, pcm in enumerate(device.pcm):
            clip = audio.AudioClip(audio.pcm16_to_float(pcm), device.rate)
            if device.rate != audio.CANONICAL_RATE:
                clip = audio.resample_linear(clip, audio.CANONICAL_RATE)
            x = features.apply_standardize(features.mfcc_frames(clip, cfg), stats)[None, :, :]
            probs, _ = models.predict(ckpt.graph, x)
            out[(device.device_id, k * device.clip_samples)] = float(probs[0, 1])
    return out


def run(work: Path, paced: bool, seed: int, seconds: float, trace: bool, size: Size) -> dict:
    tracer = Tracer() if trace else None
    setup_times = []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        # traced runs trace only the last set-up, the one whose server is measured
        setup = set_up(work / f"setup{i}", seed, size, tracer if last else None)
        setup_times.append(setup.seconds)
        if not last:
            try:
                setup.server.stop()
            finally:
                setup.server.kill()
            shutil.rmtree(work / f"setup{i}")

    server, devices = setup.server, setup.devices
    per_round = len(devices) * size.clips_per_device
    rounds = []
    try:
        began = time.perf_counter()
        while not rounds or time.perf_counter() - began < seconds or (trace and len(rounds) % 2):
            traced = trace and len(rounds) % 2 == 1
            if trace:
                server.ask(cmd="trace", on=traced)
            sent = stream_round(server.port, devices, paced)
            sent["traced"] = traced
            rounds.append(sent)
            if server.ask(cmd="wait", records=len(rounds) * per_round)["records"] < len(rounds) * per_round:
                break  # records went missing; stop and count them as failed
        final = server.stop()
    finally:
        server.kill()

    return _analyse(rounds, final, setup, devices, per_round, setup_times, paced, tracer)


def _analyse(rounds, final, setup: Setup, devices, per_round, setup_times, paced, tracer) -> dict:
    by_id = {d.device_id: d for d in devices}
    completions = final["completions"]
    cpu_before = final["cpu_ready"]
    for r, rnd in enumerate(rounds):
        done = completions[r * per_round : (r + 1) * per_round]
        latencies = {d: [] for d in by_id}
        for device_id, clip_start, t_done, _cpu in done:
            k = clip_start // by_id[device_id].clip_samples
            latencies[device_id].append((t_done - rnd["ref"][device_id][k]) * 1e3)
        rnd["latencies_by_device"] = latencies
        rnd["latencies_ms"] = [v for values in latencies.values() for v in values]
        if done:
            rnd["wall_s"] = max(c[2] for c in done) - rnd["start"]
            cpu_after = max(c[3] for c in done)
            rnd["cpu_ms_per_clip"] = (cpu_after - cpu_before) * 1e3 / len(done)
            cpu_before = cpu_after

    attempted = len(rounds) * per_round
    problems, agree = _check(final, setup.checkpoint, devices, rounds, per_round)
    complete = [r for r in rounds if len(r["latencies_ms"]) == per_round]
    untraced = [r for r in complete if not r["traced"]]
    latencies = [v for r in untraced for v in r["latencies_ms"]]
    lags = [v * 1e3 for r in untraced for v in r["lags"]]
    result = {
        "attempted": attempted,
        "failed": attempted - len(completions),
        "problems": problems,
        # a traced run traced its last set-up; the others stay untraced
        "end_to_end": _end_to_end(untraced, final["peak_rss_mb"],
                                  median(setup_times[:-1] if tracer else setup_times)),
        "detail": {
            "mode": "paced (open loop)" if paced else "burst (closed loop)",
            "rounds": len(rounds),
            "clips_per_round": per_round,
            "setup_s_each": setup_times,
            "server_cpu_ms_per_clip": median([r["cpu_ms_per_clip"] for r in untraced]),
            "latency_samples": len(latencies),
            "latency_p50_ms_by_rate": {
                by_id[d].rate: median([v for r in untraced for v in r["latencies_by_device"][d]])
                for d in by_id},
            "latency_p95_ms": percentile_with_tail(latencies, 0.95),
            "offered_clips_per_s": PACED_CLIPS_PER_S if paced else None,
            "generator_lag_ms": {"p50": median(lags), "max": max(lags)} if lags else None,
            "labels_matching_truth": f"{agree}/{per_round}",
            "server_stats": final["stats"],
            "frames_sent": len(rounds) * sum(len(d.frames) for d in devices),
            "bytes_sent": len(rounds) * sum(len(f) for d in devices for f in d.frames),
        },
    }
    if tracer:
        traced = [r for r in complete if r["traced"]]
        result["traced_end_to_end"] = _end_to_end(traced, final["peak_rss_mb"], setup_times[-1])
        server_spans = final["spans"]
        summary = merge_summaries(summarize(tracer.spans), summarize(server_spans))
        metrics = layer_metrics(summary)
        metrics.update(_waits(server_spans, rounds, by_id))
        dump = setup.checkpoint.parent / "features.json"
        metrics["features.dump_mb"] = (dump.stat().st_size / 1e6, "MB")
        result["layers"] = metrics
        result["spans"] = {"generator": tracer.spans, "server": server_spans}
    return result


def _end_to_end(rounds: list[dict], peak_mb: float, setup_s: float) -> dict:
    return {
        "clips_per_s": (median([len(r["latencies_ms"]) / r["wall_s"] for r in rounds]), "1/s"),
        "cpu_ms_per_clip": (median([r["cpu_ms_per_clip"] for r in rounds]), "ms"),
        "latency_p50_ms": (median([v for r in rounds for v in r["latencies_ms"]]), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _waits(server_spans, rounds, devices_by_id: dict[int, Device]) -> dict:
    """frame_wait: last frame sent -> process_clip start; queue_wait: process_clip end -> append start."""
    starts = [r["start"] for r in rounds]
    processed, frame_wait, queue_wait = {}, [], []
    for _id, _parent, _root, name, start, end, attrs in server_spans:
        if name != "ingest.server.process_clip":
            continue
        r = bisect.bisect_right(starts, start) - 1
        device, clip_start = attrs["device"], attrs["start"]
        processed[(r, device, clip_start)] = end
        sent = rounds[r]["sent_last"][device][clip_start // devices_by_id[device].clip_samples]
        frame_wait.append((start - sent) * 1e3)
    for _id, _parent, _root, name, start, end, attrs in server_spans:
        if name != "ingest.store.append_records":
            continue
        r = bisect.bisect_right(starts, start) - 1
        queued = processed.get((r, attrs["device"], attrs["start"]))
        if queued is not None:
            queue_wait.append((start - queued) * 1e3)
    return {"ingest.server.frame_wait.ms": (float(np.mean(frame_wait)), "ms"),
            "ingest.store.queue_wait.ms": (float(np.mean(queue_wait)), "ms")}


def _check(final, checkpoint: Path, devices, rounds, per_round) -> tuple[list[str], int]:
    """Problems found, and how many first-round labels match the ground truth."""
    store = checkpoint.parent / "store.jsonl"
    records, corrupt = load_store(store)
    problems = [f"{corrupt} corrupt store lines"] if corrupt else []
    frames_sent = len(rounds) * sum(len(d.frames) for d in devices)
    problems += check_server_stats(final["stats"], frames_sent, len(rounds) * per_round)
    expected = {d.device_id: (len(d.pcm), d.clip_samples) for d in devices}
    offline = offline_predictions(checkpoint, devices)
    for r in range(len(rounds)):
        block = records[r * per_round : (r + 1) * per_round]
        problems += [f"round {r}: {p}" for p in check_records(block, expected)]
        problems += [f"round {r}: {p}" for p in check_predictions(block, offline)]
    truth = {(d.device_id, k * d.clip_samples): label
             for d in devices for k, label in enumerate(d.truth)}
    first = records[:per_round]
    agree = sum(r.label == truth.get((r.device_id, r.clip_start)) for r in first)
    if not first or agree / per_round < LABEL_FLOOR:
        problems.append(f"labels match ground truth on {agree}/{per_round} clips, floor {LABEL_FLOOR}")
    return problems, agree
