import json
import os
import platform
import resource
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import oracles
import woodwatch
from conftest import wait_for
from woodwatch import allocator
from woodwatch.audio import (CANONICAL_RATE, AudioClip, float_to_pcm16, pcm16_to_float, read_wav_pcm16,
                             resample_linear, save_wav)
from woodwatch.errors import CheckpointError, ServerStartupError, TransportError
from woodwatch.features import FeatureConfig, apply_standardize, mfcc_frames
from woodwatch.ingest import (
    DetectionRecord,
    IngestServer,
    append_records,
    load_store,
    query_store,
    simulate_device,
)
from woodwatch.ingest import server as server_module
from woodwatch.ingest.protocol import HEADER_SIZE, DeviceFrame, encode_frame
from woodwatch.models import ModelKind, TrainConfig, build_model, load_model, model_inputs, predict, train
from woodwatch.nn import load_checkpoint, save_checkpoint
from woodwatch.synth import SynthConfig, gen_clean_clip, gen_infested_clip


# -- store ----------------------------------------------------------------------

def record(ts, device=1, label="clean", p=0.1):
    return DetectionRecord(timestamp=ts, device_id=device, clip_start=0,
                           clip_length=80000, label=label, p_infested=p,
                           checkpoint_id="abc123")


def test_store_roundtrip_and_corrupt_lines(tmp_path):
    path = tmp_path / "store.jsonl"
    append_records(path, [record("2026-01-01T00:00:00+00:00"),
                          record("2026-01-02T00:00:00+00:00", label="infested", p=0.9)])
    with open(path, "a") as fh:
        fh.write("this is not json\n")
        fh.write(json.dumps({"timestamp": "x"}) + "\n")  # missing fields
    records, corrupt = load_store(path)
    assert len(records) == 2
    assert corrupt == 2


def test_query_store_empty(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text("")
    assert query_store(path) == []


def test_query_store_filters_match_linear_scan(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "store.jsonl"
    rows = []
    for i in range(1000):
        rows.append(DetectionRecord(
            timestamp=f"2026-01-01T00:{i // 60:02d}:{i % 60:02d}+00:00",
            device_id=int(rng.integers(1, 4)),
            clip_start=i * 80000,
            clip_length=80000,
            label="infested" if rng.random() < 0.5 else "clean",
            p_infested=float(rng.random()),
            checkpoint_id="abc123",
        ))
    append_records(path, rows)

    got = query_store(path, device_id=2, label="infested", since="2026-01-01T00:03:00+00:00")
    expected = sorted(
        (r for r in rows if r.device_id == 2 and r.label == "infested"
         and r.timestamp >= "2026-01-01T00:03:00+00:00"),
        key=lambda r: r.timestamp,
    )
    assert got == expected
    assert [r for r in query_store(path, label="infested") if r.label != "infested"] == []


def test_a_store_query_holds_its_hits_not_the_file(tmp_path):
    path = tmp_path / "store.jsonl"
    miss = record("2026-01-01T00:00:00+00:00", device=1).to_json_line() + "\n"
    hit = record("2026-01-01T00:00:00+00:00", device=2).to_json_line() + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(200_000):
            fh.write(hit if i % 20_000 == 0 else miss)
    tracemalloc.start()
    try:
        hits = query_store(path, device_id=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hits) == 10
    assert peak < 1e6  # the file is 32 MB; the whole text and a record per line held several times that


def test_record_validation():
    with pytest.raises(ValueError):
        record("t", label="noise")
    with pytest.raises(ValueError):
        record("t", p=1.5)


# -- reassembly -------------------------------------------------------------------------

def reassembly_oracle(frames, clip_samples):
    """Clips and counters from the plain rule: the payloads of the device's
    first frame, in sequence order from that frame's seq, zero-filled for each
    missing frame at the revealing frame's length, cut every ``clip_samples``."""
    first = frames[0]
    parts, next_seq = [], first.seq
    counts = {"protocol_errors": 0, "duplicate_frames": 0, "sequence_gaps": 0}
    for frame in frames:
        samples = np.frombuffer(frame.payload, dtype="<i2")
        if (frame.device_id, frame.sample_rate) != (first.device_id, first.sample_rate):
            counts["protocol_errors"] += 1
        elif frame.seq < next_seq:
            counts["duplicate_frames"] += 1
        else:
            if frame.seq > next_seq:
                parts.append(np.zeros((frame.seq - next_seq) * len(samples), dtype="<i2"))
                counts["sequence_gaps"] += 1
            parts.append(samples)
            next_seq = frame.seq + 1
    stream = np.concatenate(parts)
    n_clips = len(stream) // clip_samples
    return [stream[k * clip_samples : (k + 1) * clip_samples] for k in range(n_clips)], counts


@pytest.mark.parametrize("rate, clip_seconds", [(8000, 0.00123), (16000, 0.0125), (44100, 0.01)])
def test_session_reassembly_matches_the_oracle(rate, clip_seconds, monkeypatch):
    monkeypatch.setattr(server_module, "CANONICAL_SECONDS", clip_seconds)  # windows of a few frames
    rng = np.random.default_rng(rate)
    clip_samples = int(round(clip_seconds * rate))
    origin = int(rng.integers(0, 2**31))  # a device may resume its numbering anywhere
    frames, seq = [], origin
    for _ in range(300):
        n = int(rng.integers(0, 3 * clip_samples))  # empty frames and frames of several clips too
        payload = rng.integers(-2**15, 2**15, size=n, dtype=np.int16).astype("<i2").tobytes()
        roll = rng.random()
        if roll < 0.1 and seq > origin:
            frames.append(DeviceFrame(3, int(rng.integers(origin, seq)), rate, payload))  # duplicate
            continue
        if roll < 0.15:
            frames.append(DeviceFrame(4, seq, rate, payload))  # another device: refused
            continue
        missing = int(rng.integers(1, 3)) if roll < 0.3 else 0
        if missing * n > clip_samples:  # a gap longer than a clip ends the connection
            missing = 0
        seq += missing
        frames.append(DeviceFrame(3, seq, rate, payload))
        seq += 1
    session, stats = server_module._DeviceSession(), server_module._Stats()
    clips = [clip for frame in frames for clip in session.accept(frame, stats)]
    want_clips, want_counts = reassembly_oracle(frames, clip_samples)
    assert len(clips) == len(want_clips) > 10
    assert all(np.array_equal(got, want) for got, want in zip(clips, want_clips))
    counts = stats.snapshot()
    assert {key: counts[key] for key in want_counts} == want_counts
    assert want_counts["sequence_gaps"] > 0 and want_counts["duplicate_frames"] > 0
    assert len(session.pending) < 2 * clip_samples  # less than one clip held between frames


@pytest.mark.parametrize("origin", [10, 100])
def test_a_session_counts_its_sequence_from_its_first_frame(origin):
    pcm = np.arange(80_000, dtype="<i2")  # one 5 s clip at 16 kHz
    session, stats = server_module._DeviceSession(), server_module._Stats()
    frames = [DeviceFrame(3, seq, 16_000, pcm[start : start + 2500].tobytes())
              for seq, start in enumerate(range(0, len(pcm), 2500), start=origin)]
    clips = [clip for frame in frames for clip in session.accept(frame, stats)]
    assert len(clips) == 1 and np.array_equal(clips[0], pcm)
    assert not session.pending and stats.snapshot()["sequence_gaps"] == 0


# -- server fixtures -----------------------------------------------------------------

@pytest.fixture(scope="module")
def served_checkpoint(tmp_path_factory):
    """A quick CNN-LSTM checkpoint trained on short synthetic clips at the
    canonical rate (full 5 s classification still works: T only changes)."""
    from conftest import make_feature_set

    features = make_feature_set(8, duration_s=5.0, snr_db=12.0, seed=303)
    idx = np.arange(len(features))
    x, stats = model_inputs(ModelKind.CNN_LSTM, features, idx)
    graph = build_model(ModelKind.CNN_LSTM, seed=303)
    train(graph, x, features.labels, x, features.labels,
          TrainConfig(epochs=12, batch_size=8, seed=303))
    path = tmp_path_factory.mktemp("ckpt") / "cnn_lstm.ckpt"
    save_checkpoint(path, graph, ModelKind.CNN_LSTM.value, seed=303,
                    feature_stats=stats.to_dict(),
                    feature_config=features.config.to_dict())
    return path


@pytest.fixture()
def running_server(served_checkpoint, tmp_path):
    store = tmp_path / "store.jsonl"
    archive = tmp_path / "archive"
    server = IngestServer(0, served_checkpoint, store, archive_dir=archive)
    server.start()
    yield server, store, archive
    server.stop()


# -- simulator + server end to end ----------------------------------------------------

def test_single_device_end_to_end(running_server, tmp_path):
    server, store, archive = running_server
    clip = gen_infested_clip(SynthConfig(snr_db=12.0), seed=904)
    wav = tmp_path / "source.wav"
    save_wav(clip, wav)

    sent = simulate_device("127.0.0.1", server.port, wav, device_id=9)
    assert sent == 32  # 80000 / 2500
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)

    records, corrupt = load_store(store)
    assert corrupt == 0 and len(records) == 1
    assert records[0].device_id == 9
    assert records[0].clip_length == 80000
    assert records[0].label == "infested"

    # lossless reassembly: archived samples equal the source exactly
    source_pcm, _ = read_wav_pcm16(wav)
    archived_pcm, _ = read_wav_pcm16(archive / "device9_clip0000.wav")
    assert np.array_equal(source_pcm, archived_pcm)


def test_a_device_that_connects_again_archives_under_a_new_name(running_server, tmp_path):
    server, store, archive = running_server
    cfg = SynthConfig(snr_db=12.0)
    sources = [tmp_path / "clean.wav", tmp_path / "infested.wav"]
    save_wav(gen_clean_clip(cfg, seed=905), sources[0])
    save_wav(gen_infested_clip(cfg, seed=906), sources[1])
    for n, source in enumerate(sources, start=1):  # each connection numbers its clips from 0
        simulate_device("127.0.0.1", server.port, source, device_id=5)
        assert wait_for(lambda: server.stats.snapshot()["records_written"] == n)
    assert [r.clip_start for r in load_store(store)[0]] == [0, 0]
    archived = [archive / "device5_clip0000.wav", archive / "device5_clip0000-1.wav"]
    assert set(archive.iterdir()) == set(archived)
    assert [path.read_bytes() for path in archived] == [path.read_bytes() for path in sources]


def test_a_device_that_resumes_its_numbering_on_a_new_connection_is_served(running_server):
    server, store, archive = running_server
    pcm = float_to_pcm16(gen_clean_clip(SynthConfig(snr_db=12.0), seed=907).samples)
    for n, origin in enumerate((0, 100), start=1):  # the second connection goes on at seq 100
        frames = [encode_frame(DeviceFrame(device_id=39, seq=seq, sample_rate=16000,
                                           payload=pcm[start : start + 2500].tobytes()))
                  for seq, start in enumerate(range(0, len(pcm), 2500), start=origin)]
        with socket.create_connection(("127.0.0.1", server.port)) as conn:
            conn.sendall(b"".join(frames))
        assert wait_for(lambda: server.stats.snapshot()["records_written"] == n)
    stats = server.stats.snapshot()
    assert stats["protocol_errors"] == 0 and stats["sequence_gaps"] == 0
    assert [r.device_id for r in load_store(store)[0]] == [39, 39]
    resumed, _ = read_wav_pcm16(archive / "device39_clip0000-1.wav")
    assert np.array_equal(resumed, pcm)  # no zeros ahead of the audio


def test_the_archive_holds_the_pcm_as_it_arrived(running_server, tmp_path):
    server, _, archive = running_server
    pcm = np.resize(np.arange(-32768, 32768, dtype="<i2"), 80_000)  # every int16 value
    simulate_device("127.0.0.1", server.port, AudioClip(pcm16_to_float(pcm), 16_000), device_id=6)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    save_wav(AudioClip(pcm16_to_float(pcm), 16_000), tmp_path / "round_trip.wav")
    assert (archive / "device6_clip0000.wav").read_bytes() == (tmp_path / "round_trip.wav").read_bytes()


def test_a_192_khz_classify_pass_peaks_as_a_16_khz_pass(running_server):
    server, _, _ = running_server
    peaks = {}
    for rate in (16_000, 192_000):
        pcm = (np.random.default_rng(7).standard_normal(5 * rate) * 3000).astype("<i2")
        server.classify_pcm(pcm, rate)  # fills the feature caches
        tracemalloc.start()
        try:
            server.classify_pcm(pcm, rate)
            _, peaks[rate] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # decimated as int16, a 192 kHz clip becomes float64 only at 16 kHz: both peak
    # at 7.08 MB, where converting it at 192 kHz first peaked at 8.32 MB
    assert peaks[192_000] <= peaks[16_000] + 64 * 1024, peaks


def test_three_concurrent_devices(running_server, tmp_path):
    server, store, _ = running_server
    cfg = SynthConfig(snr_db=12.0)
    sources = {
        1: gen_infested_clip(cfg, 11),
        2: gen_clean_clip(cfg, 12),
        3: gen_infested_clip(cfg, 13),
    }
    threads = [
        threading.Thread(target=simulate_device,
                         args=("127.0.0.1", server.port, clip, device_id))
        for device_id, clip in sources.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 3)
    by_device = {r.device_id: r for r in query_store(store)}
    assert set(by_device) == {1, 2, 3}
    assert by_device[1].label == "infested"
    assert by_device[2].label == "clean"
    assert by_device[3].label == "infested"


def test_odd_frame_sizes_still_one_record_per_window(running_server):
    server, store, _ = running_server
    clip = gen_clean_clip(SynthConfig(snr_db=12.0), seed=77)
    sent = simulate_device("127.0.0.1", server.port, clip, device_id=4, frame_samples=1461)
    assert sent == -(-80000 // 1461)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    records = query_store(store, device_id=4)
    assert len(records) == 1 and records[0].clip_length == 80000


def test_corrupt_and_duplicate_frames_are_counted_not_fatal(running_server):
    server, store, _ = running_server
    pcm = float_to_pcm16(gen_clean_clip(SynthConfig(snr_db=12.0), seed=500).samples)
    frame_bytes = []
    for seq, start in enumerate(range(0, len(pcm), 2500)):
        frame = DeviceFrame(device_id=6, seq=seq, sample_rate=16000,
                            payload=pcm[start : start + 2500].astype("<i2").tobytes())
        frame_bytes.append(encode_frame(frame))

    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        # bad crc on the wire: flip one payload bit of a copy of frame 0
        corrupted = bytearray(frame_bytes[0])
        corrupted[30] ^= 0x01
        conn.sendall(bytes(corrupted))
        for blob in frame_bytes:
            conn.sendall(blob)
        conn.sendall(frame_bytes[5])  # duplicate seq 5 (retransmit)
        conn.sendall(frame_bytes[-1])  # duplicate of the final frame too
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    stats = server.stats.snapshot()
    assert stats["integrity_errors"] == 1
    assert stats["duplicate_frames"] == 2
    assert len(query_store(store, device_id=6)) == 1


def test_sequence_gap_zero_fills(running_server):
    server, store, _ = running_server
    pcm = float_to_pcm16(gen_clean_clip(SynthConfig(snr_db=12.0), seed=501).samples)
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        for seq, start in enumerate(range(0, len(pcm), 2500)):
            if seq == 3:
                continue  # dropped frame; 2500 samples zero-filled on arrival of seq 4
            frame = DeviceFrame(device_id=8, seq=seq, sample_rate=16000,
                                payload=pcm[start : start + 2500].astype("<i2").tobytes())
            conn.sendall(encode_frame(frame))
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    assert server.stats.snapshot()["sequence_gaps"] == 1
    assert len(query_store(store, device_id=8)) == 1


def test_mid_stream_rate_or_device_change_is_dropped_and_zero_filled(running_server):
    server, store, archive = running_server
    pcm = float_to_pcm16(gen_clean_clip(SynthConfig(snr_db=12.0), seed=509).samples)
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        for seq, start in enumerate(range(0, len(pcm), 2500)):
            device_id, rate = {5: (19, 48000), 9: (20, 16000)}.get(seq, (19, 16000))
            conn.sendall(encode_frame(DeviceFrame(device_id=device_id, seq=seq, sample_rate=rate,
                                                  payload=pcm[start : start + 2500].tobytes())))
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    stats = server.stats.snapshot()
    assert stats["protocol_errors"] == 2 and stats["sequence_gaps"] == 2
    assert [r.device_id for r in load_store(store)[0]] == [19]
    # the two refused frames are zeros in the clip; every other sample is the source's
    archived, rate = read_wav_pcm16(archive / "device19_clip0000.wav")
    assert rate == 16000
    expected = pcm.copy()
    for seq in (5, 9):
        expected[seq * 2500 : (seq + 1) * 2500] = 0
    assert np.array_equal(archived, expected)


def test_gap_longer_than_a_clip_ends_the_connection(running_server):
    server, store, _ = running_server
    payload = np.zeros(2500, dtype="<i2").tobytes()
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        for seq in (0, 2**32 - 1):  # the fill would be ~10^13 samples
            conn.sendall(encode_frame(DeviceFrame(device_id=11, seq=seq, sample_rate=16000,
                                                  payload=payload)))
        conn.settimeout(10.0)
        assert conn.recv(1) == b""  # the server closed its end
    assert wait_for(lambda: server.stats.snapshot()["protocol_errors"] == 1)
    stats = server.stats.snapshot()
    assert stats["sequence_gaps"] == 0 and stats["records_written"] == 0
    # another device is then served
    simulate_device("127.0.0.1", server.port, gen_clean_clip(SynthConfig(snr_db=12.0), seed=504),
                    device_id=12)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    assert [r.device_id for r in load_store(store)[0]] == [12]


@pytest.mark.parametrize("rate", [0, 1, 2**32 - 1])
def test_sample_rate_outside_the_range_ends_the_connection(running_server, rate):
    # read_frame refuses 0 Hz; at 1 Hz this frame alone would be two 5-sample clips;
    # at 2**32-1 a clip never fills
    server, store, _ = running_server
    payload = np.zeros(10, dtype="<i2").tobytes()
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        conn.sendall(oracles.raw_frame(13, 0, rate, payload))
        conn.settimeout(10.0)
        assert conn.recv(1) == b""  # the server closed its end
    assert wait_for(lambda: server.stats.snapshot()["protocol_errors"] == 1)
    assert server.stats.snapshot()["records_written"] == 0
    simulate_device("127.0.0.1", server.port, gen_clean_clip(SynthConfig(snr_db=12.0), seed=505),
                    device_id=14)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    assert [r.device_id for r in load_store(store)[0]] == [14]


def test_idle_connection_times_out_and_is_counted(running_server, monkeypatch):
    server, store, _ = running_server
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        conn.settimeout(10.0)
        assert conn.recv(1) == b""  # the handler returned and closed its end
    assert server.stats.snapshot()["connection_errors"] == 1
    simulate_device("127.0.0.1", server.port, gen_clean_clip(SynthConfig(snr_db=12.0), seed=506),
                    device_id=15)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    assert [r.device_id for r in load_store(store)[0]] == [15]


def test_a_client_that_drips_a_frame_is_closed_at_the_frame_deadline(served_checkpoint, tmp_path,
                                                                     monkeypatch):
    timeout = 0.5
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", timeout)
    server = IngestServer(0, served_checkpoint, tmp_path / "store.jsonl")
    server.start()
    frame = encode_frame(DeviceFrame(device_id=18, seq=0, sample_rate=16000, payload=bytes(200)))
    closed = threading.Event()
    with socket.create_connection(("127.0.0.1", server.port)) as conn:

        def drip():  # one byte every 0.3 s: each recv is well inside the timeout
            for byte in frame:
                try:
                    conn.sendall(bytes([byte]))
                except OSError:
                    return
                if closed.wait(0.3):
                    return

        sender = threading.Thread(target=drip, daemon=True)
        start = time.monotonic()
        sender.start()
        counted = wait_for(lambda: server.stats.snapshot()["connection_errors"] == 1, timeout=8 * timeout)
        elapsed = time.monotonic() - start
        conn.settimeout(5.0)
        try:
            assert conn.recv(1) == b""  # the handler returned and closed its end
        except ConnectionResetError:  # or reset it, with a dripped byte still unread
            pass
        closed.set()
        sender.join(timeout=5.0)
    assert not sender.is_alive()
    assert counted and elapsed < 2 * timeout
    start = time.monotonic()
    server.stop()
    assert time.monotonic() - start < 2.0
    assert server.stats.snapshot()["frames_ok"] == 0


def test_reset_mid_header_is_counted_without_a_traceback(running_server, capfd):
    server, store, _ = running_server
    frame = encode_frame(DeviceFrame(device_id=16, seq=0, sample_rate=16000, payload=b"\0\0"))
    conn = socket.create_connection(("127.0.0.1", server.port))
    conn.sendall(frame[: HEADER_SIZE // 2])
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    conn.close()  # linger 0: the close sends a reset, not a clean end of stream
    assert wait_for(lambda: server.stats.snapshot()["connection_errors"] == 1)
    simulate_device("127.0.0.1", server.port, gen_clean_clip(SynthConfig(snr_db=12.0), seed=507),
                    device_id=17)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    stats = server.stats.snapshot()
    assert stats["protocol_errors"] == 0 and stats["connection_errors"] == 1
    assert "Traceback" not in capfd.readouterr().err


def test_garbage_bytes_close_connection_without_crash(running_server):
    server, store, _ = running_server
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        conn.sendall(b"GARBAGE STREAM THAT IS NOT A FRAME AT ALL" * 3)
    assert wait_for(lambda: server.stats.snapshot()["protocol_errors"] >= 1)
    # server still accepts new work
    clip = gen_clean_clip(SynthConfig(snr_db=12.0), seed=502)
    simulate_device("127.0.0.1", server.port, clip, device_id=2)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)


def test_stop_writes_every_clip_already_sent(served_checkpoint, tmp_path):
    clips_per_device = 10
    cfg = SynthConfig(duration_s=5.0 * clips_per_device, snr_db=12.0)
    sources = {device_id: gen_clean_clip(cfg, seed=600 + device_id) for device_id in (1, 2, 3)}
    store = tmp_path / "store.jsonl"
    server = IngestServer(0, served_checkpoint, store)
    server.start()
    threads = [
        threading.Thread(target=simulate_device, args=("127.0.0.1", server.port, clip, device_id))
        for device_id, clip in sources.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server.stop()  # as soon as the senders have closed
    sent = clips_per_device * len(sources)
    assert server.stats.snapshot()["records_written"] == sent
    assert len(load_store(store)[0]) == sent


def test_stop_does_not_hang_on_an_idle_client(served_checkpoint, tmp_path):
    server = IngestServer(0, served_checkpoint, tmp_path / "store.jsonl")
    server.start()
    with socket.create_connection(("127.0.0.1", server.port)):
        time.sleep(0.2)  # accepted; the client sends nothing and keeps the connection
        start = time.time()
        server.stop()
        assert time.time() - start < 10.0


def test_stop_before_start_returns(served_checkpoint, tmp_path):
    server = IngestServer(0, served_checkpoint, tmp_path / "store.jsonl")
    stopper = threading.Thread(target=server.stop, daemon=True)  # a hang must fail, not stall
    stopper.start()
    stopper.join(timeout=5.0)
    assert not stopper.is_alive()


def test_run_serves_until_ctrl_c_then_stops(served_checkpoint, tmp_path):
    server = IngestServer(0, served_checkpoint, tmp_path / "store.jsonl")

    def stream_then_interrupt():
        try:
            simulate_device("127.0.0.1", server.port,
                            gen_clean_clip(SynthConfig(snr_db=12.0), seed=508), device_id=18)
        finally:  # run() is waiting by then: the record needs its accept loop
            wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
            os.kill(os.getpid(), signal.SIGINT)

    sender = threading.Thread(target=stream_then_interrupt, daemon=True)
    sender.start()
    server.run()
    sender.join(timeout=5.0)
    assert not sender.is_alive()
    assert server.stats.snapshot()["records_written"] == 1
    with pytest.raises(ConnectionRefusedError):  # stop() closed the listening socket
        socket.create_connection(("127.0.0.1", server.port), timeout=5.0)


def test_store_failure_is_counted_not_fatal(running_server, monkeypatch):
    server, store, _ = running_server
    real_append = server_module.append_records
    calls = []

    def fail_first(path, records):
        calls.append(records)
        if len(calls) == 1:
            raise OSError("disk full")
        real_append(path, records)

    monkeypatch.setattr(server_module, "append_records", fail_first)
    clip = gen_clean_clip(SynthConfig(duration_s=10.0, snr_db=12.0), seed=503)  # two windows
    sent = simulate_device("127.0.0.1", server.port, clip, device_id=7)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    stats = server.stats.snapshot()
    assert stats["store_errors"] == 1 and stats["records_written"] == 1
    assert stats["frames_ok"] == sent and stats["protocol_errors"] == 0  # kept reading
    records, corrupt = load_store(store)
    assert corrupt == 0
    assert [r.clip_start for r in records] == [80000]


def test_unbuildable_record_is_a_classify_error(running_server, monkeypatch, capfd):
    server, store, _ = running_server
    real_score = server.score_rows
    calls = []

    def nan_first(rows, head=None):
        calls.append(len(rows))
        return ("infested", float("nan")) if len(calls) == 1 else real_score(rows, head)

    monkeypatch.setattr(server, "score_rows", nan_first)
    clip = gen_clean_clip(SynthConfig(duration_s=10.0, snr_db=12.0), seed=510)  # two windows
    sent = simulate_device("127.0.0.1", server.port, clip, device_id=21)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    stats = server.stats.snapshot()
    assert stats["classify_errors"] == 1 and stats["frames_ok"] == sent
    assert [r.clip_start for r in load_store(store)[0]] == [80000]
    assert "Traceback" not in capfd.readouterr().err


def test_simulator_realtime_pacing(running_server):
    server, _, _ = running_server
    clip = AudioClip(np.zeros(8000), 16000)  # 0.5 s
    start = time.time()
    simulate_device("127.0.0.1", server.port, clip, device_id=5,
                    frame_samples=2000, realtime=True)
    assert time.time() - start >= 0.45


def test_simulator_reports_partial_count_on_dead_server():
    with pytest.raises(TransportError) as info:
        simulate_device("127.0.0.1", 1, AudioClip(np.zeros(4000), 16000), device_id=1)
    assert info.value.frames_sent == 0


def test_server_startup_errors(served_checkpoint, tmp_path):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    with pytest.raises(ServerStartupError):
        IngestServer(port, served_checkpoint, tmp_path / "s.jsonl")
    blocker.close()
    with pytest.raises(ServerStartupError):
        IngestServer(0, served_checkpoint, tmp_path / "missing-dir" / "s.jsonl")
    checkpoint = load_checkpoint(served_checkpoint)  # features that cannot run at 16 kHz
    save_checkpoint(tmp_path / "fmax9k.ckpt", checkpoint.graph, checkpoint.kind, checkpoint.seed,
                    feature_stats=checkpoint.feature_stats,
                    feature_config=FeatureConfig(fmax=9000.0).to_dict())
    with pytest.raises(CheckpointError, match="Nyquist"):
        IngestServer(0, tmp_path / "fmax9k.ckpt", tmp_path / "s.jsonl")


# -- connection cap ---------------------------------------------------------------------

def test_a_connection_over_the_cap_is_closed_and_counted(served_checkpoint, tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
    store = tmp_path / "store.jsonl"
    server = IngestServer(0, served_checkpoint, store)
    server.start()
    try:
        pcm = float_to_pcm16(gen_clean_clip(SynthConfig(snr_db=12.0), seed=511).samples)
        admitted = [socket.create_connection(("127.0.0.1", server.port)) for _ in range(2)]
        with socket.create_connection(("127.0.0.1", server.port)) as third:
            third.settimeout(10.0)
            assert third.recv(1) == b""  # closed on accept, before any handler ran
        assert server.stats.snapshot()["rejected_connections"] == 1
        for device_id, conn in zip((31, 32), admitted):
            with conn:
                for seq, start in enumerate(range(0, len(pcm), 2500)):
                    conn.sendall(encode_frame(DeviceFrame(device_id=device_id, seq=seq, sample_rate=16000,
                                                          payload=pcm[start : start + 2500].tobytes())))
        assert wait_for(lambda: server.stats.snapshot()["records_written"] == 2)
        # once their handlers have returned, a new connection is served again
        simulate_device("127.0.0.1", server.port, AudioClip(pcm16_to_float(pcm), 16000), device_id=33)
        assert wait_for(lambda: server.stats.snapshot()["records_written"] == 3)
    finally:
        server.stop()
    assert sorted(r.device_id for r in load_store(store)[0]) == [31, 32, 33]
    assert server.stats.snapshot()["rejected_connections"] == 1


def test_at_most_max_classifying_clips_are_classified_at_once(served_checkpoint, tmp_path, monkeypatch):
    running, most = [0], [0]
    lock = threading.Lock()
    featurize = IngestServer.featurize_pcm  # each MFCC pass, head, tail or whole clip

    def counted(self, pcm, sample_rate):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        time.sleep(0.2)  # long enough for every handler to get here
        try:
            return featurize(self, pcm, sample_rate)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(IngestServer, "featurize_pcm", counted)
    server = IngestServer(0, served_checkpoint, tmp_path / "store.jsonl")
    server.start()
    try:
        clip = gen_clean_clip(SynthConfig(snr_db=12.0), seed=515)
        senders = [threading.Thread(target=simulate_device, args=("127.0.0.1", server.port, clip, 40 + i))
                   for i in range(server_module.MAX_CLASSIFYING + 2)]
        for sender in senders:
            sender.start()
        for sender in senders:
            sender.join()
        assert wait_for(lambda: server.stats.snapshot()["records_written"] == len(senders))
    finally:
        server.stop()
    assert most[0] == server_module.MAX_CLASSIFYING


# -- connection lifecycle -----------------------------------------------------------------

def frames_of(device_id, pcm, rate=16_000, frame_samples=2500):
    return [encode_frame(DeviceFrame(device_id=device_id, seq=seq, sample_rate=rate,
                                     payload=pcm[start : start + frame_samples].tobytes()))
            for seq, start in enumerate(range(0, len(pcm), frame_samples))]


class _AbortsFirstAccept:
    """A listening socket whose first ``accept`` fails as if the client had gone before it."""

    def __init__(self, sock):
        self._sock, self.aborted = sock, False

    def accept(self):
        if not self.aborted:
            self.aborted = True
            raise ConnectionAbortedError("software caused connection abort")
        return self._sock.accept()

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_an_accept_failure_is_counted_and_the_server_goes_on(served_checkpoint, tmp_path):
    server = IngestServer(0, served_checkpoint, tmp_path / "store.jsonl")
    server._sock = _AbortsFirstAccept(server._sock)
    server.start()
    try:
        simulate_device("127.0.0.1", server.port, gen_clean_clip(SynthConfig(snr_db=12.0), seed=516),
                        device_id=36)
        assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    finally:
        server.stop()
    assert server._sock.aborted and server.stats.snapshot()["connection_errors"] == 1


def test_a_listening_descriptor_past_1023_accepts_and_stops(served_checkpoint, tmp_path):
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    needed = 1024 + 64  # descriptors 0-1023 taken, and room for the server's own
    if hard != resource.RLIM_INFINITY and hard < needed:
        pytest.skip(f"the hard RLIMIT_NOFILE, {hard}, is below {needed}")
    raise_soft = soft != resource.RLIM_INFINITY and soft < needed
    if raise_soft:
        resource.setrlimit(resource.RLIMIT_NOFILE, (needed, hard))
    fillers = []
    try:
        while not fillers or fillers[-1] < 1023:  # the lowest free descriptor is taken first
            fillers.append(os.open(os.devnull, os.O_RDONLY))
        store = tmp_path / "store.jsonl"
        server = IngestServer(0, served_checkpoint, store)
        assert server._sock.fileno() > 1023
        server.start()
        try:
            pcm = float_to_pcm16(gen_clean_clip(SynthConfig(snr_db=12.0), seed=521).samples)
            with socket.create_connection(("127.0.0.1", server.port), timeout=20.0) as conn:
                conn.sendall(b"".join(frames_of(47, pcm)))
            assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
        finally:
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stopper.join(timeout=20.0)
        assert not stopper.is_alive()
        assert [r.device_id for r in load_store(store)[0]] == [47]
    finally:
        for fd in fillers:
            os.close(fd)
        if raise_soft:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def test_a_close_counts_the_frame_it_cuts_and_the_samples_it_drops(running_server):
    server, _, _ = running_server
    pcm = np.arange(4 * 2500, dtype="<i2")
    with socket.create_connection(("127.0.0.1", server.port)) as a:  # ends at a frame boundary
        a.sendall(b"".join(frames_of(37, pcm)[:3]))
    with socket.create_connection(("127.0.0.1", server.port)) as b:  # ends inside its second frame
        first, second = frames_of(38, pcm)[:2]
        b.sendall(first + second[: len(second) // 2])
    expected = dict.fromkeys(server.stats.snapshot(), 0)
    expected.update(frames_ok=4, truncated_frames=1, dropped_samples=3 * 2500 + 2500)
    assert wait_for(lambda: server.stats.snapshot() == expected), server.stats.snapshot()


@pytest.fixture()
def frequent_thread_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # 50 times as often as the default: a lost update shows sooner
    yield
    sys.setswitchinterval(interval)


def test_a_hostile_mix_is_served_counted_and_stopped(served_checkpoint, tmp_path, monkeypatch,
                                                     frequent_thread_switches):
    cap, over_cap = 10, 5
    monkeypatch.setattr(server_module, "MAX_CONNECTIONS", cap)
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 1.5)
    monkeypatch.setattr(server_module, "_DRAIN_S", 1.0)
    rng = np.random.default_rng(517)

    def source(rate=16_000):
        return (rng.standard_normal(5 * rate) * 3000).astype("<i2")

    def zeroed(pcm, *seqs):
        pcm = pcm.copy()
        for seq in seqs:
            pcm[seq * 2500 : (seq + 1) * 2500] = 0
        return pcm

    scripts, clips = {}, {}  # device -> the bytes it sends before it closes; the clip its record scores
    for device_id, rate, frame_samples in ((51, 16_000, 2500), (52, 48_000, 4800), (53, 192_000, 9600)):
        clips[device_id] = source(rate), rate
        scripts[device_id] = b"".join(frames_of(device_id, clips[device_id][0], rate, frame_samples))
    for device_id in (55, 56, 57, 58):
        clips[device_id] = source(), 16_000
    frames = frames_of(55, clips[55][0])
    corrupted = bytearray(frames[0])
    corrupted[30] ^= 0x01  # a payload bit: the CRC fails
    scripts[55] = bytes(corrupted) + b"".join(frames)
    frames = frames_of(56, clips[56][0])
    scripts[56] = b"".join(frames) + frames[5]  # a duplicate
    frames = frames_of(57, clips[57][0])
    scripts[57] = b"".join(frames[:3] + frames[4:])  # seq 3 lost: zero-filled
    clips[57] = zeroed(clips[57][0], 3), 16_000
    frames = frames_of(58, clips[58][0])
    frames[5] = frames_of(58, clips[58][0], rate=48_000)[5]  # refused, then zero-filled
    scripts[58] = b"".join(frames)
    clips[58] = zeroed(clips[58][0], 5), 16_000
    scripts[59] = b"".join(frames_of(59, source())[:10])  # closes at a frame boundary
    frames = frames_of(60, source())[:11]
    scripts[60] = b"".join(frames)[: -len(frames[10]) // 2]  # closes inside its 11th frame
    drip_frame = frames_of(54, source())[0]
    # a device's head pass runs only if its connection ever waits: count them, for the clips they score
    head_pass_devices, run_head_pass = [], IngestServer.run_head_pass
    monkeypatch.setattr(IngestServer, "run_head_pass",
                        lambda self, session: head_pass_devices.append(session.device_id) or run_head_pass(self, session))

    store = tmp_path / "store.jsonl"
    server = IngestServer(0, served_checkpoint, store)
    server.start()
    try:
        conns = {device_id: socket.create_connection(("127.0.0.1", server.port)) for device_id in [*scripts, 54]}
        assert wait_for(lambda: len(server._open) == cap)
        for _ in range(over_cap):
            with socket.create_connection(("127.0.0.1", server.port)) as extra:
                extra.settimeout(10.0)
                assert extra.recv(1) == b""  # closed on accept

        def send(device_id):
            with conns[device_id] as conn:
                conn.sendall(scripts[device_id])

        done = threading.Event()

        def drip():  # one byte every 0.2 s: closed at its frame deadline
            with conns[54] as conn:
                for byte in drip_frame:
                    try:
                        conn.sendall(bytes([byte]))
                    except OSError:
                        return
                    if done.wait(0.2):
                        return

        clients = [threading.Thread(target=send, args=(device_id,)) for device_id in scripts]
        clients.append(threading.Thread(target=drip))
        for client in clients:
            client.start()
        assert wait_for(lambda: not server._open)  # every connection ended on its own
        done.set()
        for client in clients:
            client.join(timeout=5.0)
        assert not any(client.is_alive() for client in clients)

        # read per frame: a client that connects now outlasts the drain, so stop() cuts it
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 30.0)
        held = socket.create_connection(("127.0.0.1", server.port))
        held.sendall(b"".join(frames_of(61, source())[:4]))
        frames_ok = 32 + 50 + 100 + 32 + 33 + 31 + 32 + 10 + 10 + 4
        assert wait_for(lambda: server.stats.snapshot()["frames_ok"] == frames_ok)
        start = time.monotonic()
    finally:
        server.stop()
    stopped_in = time.monotonic() - start
    held.close()

    assert stopped_in < 2 * server_module._DRAIN_S + 1
    assert not server._open
    expected = dict.fromkeys(server.stats.snapshot(), 0)
    expected.update(frames_ok=frames_ok, integrity_errors=1, protocol_errors=1, truncated_frames=1,
                    duplicate_frames=1, sequence_gaps=2, records_written=len(clips),
                    dropped_samples=10 * 2500 + 10 * 2500 + 4 * 2500,  # devices 59, 60 and 61
                    connection_errors=1, rejected_connections=over_cap,
                    head_scored_clips=len(head_pass_devices))  # each device with one sends one whole clip
    assert server.stats.snapshot() == expected
    records, corrupt = load_store(store)
    assert corrupt == 0 and sorted(r.device_id for r in records) == sorted(clips)
    graph, _, config, stats, _ = load_model(served_checkpoint)
    for record in records:
        pcm, rate = clips[record.device_id]
        clip = AudioClip(pcm16_to_float(pcm), rate)
        if rate != CANONICAL_RATE:
            clip = resample_linear(clip, CANONICAL_RATE)
        probs, _ = predict(graph, apply_standardize(mfcc_frames(clip, config), stats)[None])
        assert record.p_infested == float(probs[0, 1])


# -- malloc policy ------------------------------------------------------------------------

_FAULTS_PER_CLIP_ON_A_THREAD = """
import resource, sys, threading
import numpy as np
from woodwatch.ingest import IngestServer

server = IngestServer(0, sys.argv[1], sys.argv[2])
rng = np.random.default_rng(0)
pcm = {rate: (rng.standard_normal(5 * rate) * 3000).astype("<i2") for rate in (48_000, 16_000)}
for rate in (48_000, 16_000):  # warmed on the main thread, as perfbench's server is
    server.classify_pcm(pcm[rate], rate)
faults = []

def handler_like():
    server.classify_pcm(pcm[48_000], 48_000)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(8):
        server.classify_pcm(pcm[48_000], 48_000)
    faults.append((resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before) / 8)

thread = threading.Thread(target=handler_like)
thread.start()
thread.join()
server.stop()
print(faults[0])
"""


def _glibc_with_thread_rusage() -> bool:
    try:
        import resource
    except ImportError:
        return False
    return platform.libc_ver()[0] == "glibc" and hasattr(resource, "RUSAGE_THREAD")


@pytest.mark.skipif(not _glibc_with_thread_rusage(), reason="needs glibc's mallopt and RUSAGE_THREAD")
def test_a_handler_thread_does_not_fault_in_each_clips_arrays_again(tmp_path):
    # a fresh interpreter: this one already has per-thread arenas from earlier tests
    ckpt = tmp_path / "untrained.ckpt"
    save_checkpoint(ckpt, build_model(ModelKind.CNN_LSTM, seed=0), ModelKind.CNN_LSTM.value, seed=0,
                    feature_stats={"mean": [0.0] * 40, "std": [1.0] * 40})
    env = dict(os.environ, PYTHONPATH=str(Path(woodwatch.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _FAULTS_PER_CLIP_ON_A_THREAD, str(ckpt),
                           str(tmp_path / "s.jsonl")], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 100  # about 3,000 per 48 kHz clip with one arena per thread


def _no_c_library(name):
    raise OSError("no C library")


def _refusing_mallopt(calls):
    return lambda name: types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 0)


@pytest.mark.parametrize("library, made_calls", [
    pytest.param(lambda calls: _no_c_library, [], id="no-libc"),
    pytest.param(lambda calls: lambda name: types.SimpleNamespace(), [], id="no-mallopt"),
    # M_MMAP_THRESHOLD goes first, so its refusal sets nothing: M_ARENA_MAX 1 alone would still fault
    pytest.param(_refusing_mallopt, [(-3, 32 << 20)], id="mallopt-fails"),
])
def test_the_server_serves_without_the_malloc_policy(served_checkpoint, tmp_path, monkeypatch, library,
                                                     made_calls):
    calls = []
    monkeypatch.setattr(allocator.ctypes, "CDLL", library(calls))
    server = IngestServer(0, served_checkpoint, tmp_path / "store.jsonl")
    assert calls == made_calls
    server.start()
    try:
        simulate_device("127.0.0.1", server.port, gen_clean_clip(SynthConfig(snr_db=12.0), seed=513),
                        device_id=34)
        assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    finally:
        server.stop()


def test_a_served_clip_scores_bit_equal_to_the_offline_pass(running_server, served_checkpoint):
    server, store, _ = running_server
    clip = gen_infested_clip(SynthConfig(sample_rate=48_000, snr_db=12.0), seed=514)
    simulate_device("127.0.0.1", server.port, clip, device_id=35)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    [record] = load_store(store)[0]
    graph, _, config, stats, _ = load_model(served_checkpoint)
    sent = AudioClip(pcm16_to_float(float_to_pcm16(clip.samples)), 48_000)
    matrix = mfcc_frames(resample_linear(sent, CANONICAL_RATE), config)
    probs, _ = predict(graph, apply_standardize(matrix, stats)[None])
    assert record.p_infested == float(probs[0, 1])


# -- two MFCC passes per clip -------------------------------------------------------------

def offline_rows(pcm, rate, cfg=FeatureConfig()):
    """The MFCC rows of one pass over int16 samples, as the offline pipeline computes them."""
    clip = AudioClip(pcm16_to_float(pcm), rate)
    if rate != CANONICAL_RATE:
        clip = resample_linear(clip, CANONICAL_RATE)
    return mfcc_frames(clip, cfg).values


@pytest.fixture()
def served_passes(running_server, monkeypatch):
    """The samples and the row range of each MFCC pass of the running server, and the rows
    of each clip it scores."""
    server = running_server[0]
    spans, scored = [], []
    featurize, score = server.featurize_pcm, server.score_rows

    def featurize_logged(pcm, sample_rate, rows=slice(None)):
        spans.append((len(pcm), rows))
        return featurize(pcm, sample_rate, rows)

    def score_logged(rows, head=None):
        scored.append(rows)
        return score(rows, head)

    monkeypatch.setattr(server, "featurize_pcm", featurize_logged)
    monkeypatch.setattr(server, "score_rows", score_logged)
    return spans, scored


@pytest.fixture()
def head_passes(running_server, monkeypatch):
    """A semaphore the running server releases each time a head pass returns."""
    server = running_server[0]
    done, run = threading.Semaphore(0), server.run_head_pass

    def run_released(session):
        try:
            run(session)
        finally:
            done.release()

    monkeypatch.setattr(server, "run_head_pass", run_released)
    return done


def send_pausing_for_head_passes(conn, frames, pauses, head_passes):
    """Send the frames; after the first n, for each n in pauses, wait until the
    server's next head pass has returned. A head pass runs only while the
    connection has nothing waiting, which a client that sends on at full
    speed does not leave it."""
    sent = 0
    for n in pauses:
        conn.sendall(b"".join(frames[sent:n]))
        assert head_passes.acquire(timeout=20.0)
        sent = n
    conn.sendall(b"".join(frames[sent:]))


HEAD_SPAN = FeatureConfig().span(server_module.HEAD_ROWS)  # samples at 16 kHz
HEAD_FRAMES = -(-HEAD_SPAN // 2500)  # the 2,500-sample frames that bring a 16 kHz head span
HEAD, TAIL, WHOLE = slice(server_module.HEAD_ROWS), slice(server_module.HEAD_ROWS, None), slice(None)


@pytest.mark.parametrize("rate, spans", [
    (16_000, [(HEAD_SPAN, HEAD), (80_000, TAIL)]),
    (48_000, [(3 * HEAD_SPAN, HEAD), (240_000, TAIL)]),
    (44_100, [(5 * 44_100, WHOLE)]),  # not a multiple of 16 kHz: one pass at the clip's end
    (96_000, [(6 * HEAD_SPAN, HEAD), (480_000, TAIL)]),
    (192_000, [(12 * HEAD_SPAN, HEAD), (960_000, TAIL)]),
    (32_000, [(2 * HEAD_SPAN, HEAD), (160_000, TAIL)]),
])
def test_a_served_clip_is_scored_on_the_whole_clip_rows(running_server, served_passes, head_passes,
                                                        served_checkpoint, rate, spans):
    server, store, _ = running_server
    pcm = (np.random.default_rng(rate).standard_normal(5 * rate) * 3000).astype("<i2")
    pauses = [-(-spans[0][0] // 2500)] if len(spans) == 2 else []
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        send_pausing_for_head_passes(conn, frames_of(41, pcm, rate), pauses, head_passes)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    assert served_passes[0] == spans
    [rows] = served_passes[1]
    assert np.array_equal(rows, offline_rows(pcm, rate))
    graph, _, config, stats, _ = load_model(served_checkpoint)
    probs, _ = predict(graph, apply_standardize(offline_rows(pcm, rate, config), stats)[None])
    assert load_store(store)[0][0].p_infested == float(probs[0, 1])
    assert server.stats.snapshot()["head_scored_clips"] == (len(spans) == 2)  # its LSTM resumed


def test_a_config_that_would_leave_a_one_row_pass_takes_one_pass(served_checkpoint, tmp_path):
    cfg = FeatureConfig(fft_size=1024, hop=625)  # 129 rows, and rows [0, 128) read 79,887 samples
    assert cfg.rows(80_000) == server_module.HEAD_ROWS + 1 and cfg.span(server_module.HEAD_ROWS) < 80_000
    assert server_module._head_span(cfg, 16_000) is None  # the clip's end would compute one row
    checkpoint = load_checkpoint(served_checkpoint)
    save_checkpoint(tmp_path / "hop625.ckpt", checkpoint.graph, checkpoint.kind, checkpoint.seed,
                    feature_stats=checkpoint.feature_stats, feature_config=cfg.to_dict())
    server = IngestServer(0, tmp_path / "hop625.ckpt", tmp_path / "store.jsonl")
    passes, featurize = [], server.featurize_pcm

    def featurize_logged(pcm, sample_rate, rows=slice(None)):
        passes.append(rows)
        return featurize(pcm, sample_rate, rows)

    server.featurize_pcm = featurize_logged
    server.start()
    try:
        pcm = (np.random.default_rng(524).standard_normal(80_000) * 3000).astype("<i2")
        frames = frames_of(48, pcm)
        with socket.create_connection(("127.0.0.1", server.port)) as conn:
            conn.sendall(b"".join(frames[:-1]))
            time.sleep(0.2)  # an idle connection past the span: a head pass, were one due, would run
            conn.sendall(frames[-1])
        assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    finally:
        server.stop()
    assert passes == [WHOLE] and server.stats.snapshot()["head_scored_clips"] == 0
    graph, _, _, stats, _ = load_model(tmp_path / "hop625.ckpt")
    probs, _ = predict(graph, apply_standardize(offline_rows(pcm, 16_000, cfg), stats)[None])
    assert load_store(tmp_path / "store.jsonl")[0][0].p_infested == float(probs[0, 1])


def test_a_clip_whose_rest_waits_behind_its_head_span_takes_one_pass(running_server, served_passes,
                                                                    served_checkpoint, monkeypatch):
    server, store, _ = running_server
    read_frame, reads = server_module.protocol.read_frame, []

    def read_once_the_stream_is_in(stream):
        reads.append(len(reads))
        if len(reads) == HEAD_FRAMES:  # the read of the frame that completes the head span
            poller = select.poll()
            poller.register(stream._sock, select.POLLRDHUP)
            poller.poll(20_000)  # the client's close is in, so every frame it sent is too
        return read_frame(stream)

    monkeypatch.setattr(server_module.protocol, "read_frame", read_once_the_stream_is_in)
    pcm = (np.random.default_rng(522).standard_normal(80_000) * 3000).astype("<i2")
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        conn.sendall(b"".join(frames_of(46, pcm)))
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    assert served_passes[0] == [(80_000, WHOLE)]
    [rows] = served_passes[1]
    assert np.array_equal(rows, offline_rows(pcm, 16_000))
    graph, _, config, stats, _ = load_model(served_checkpoint)
    probs, _ = predict(graph, apply_standardize(offline_rows(pcm, 16_000, config), stats)[None])
    assert load_store(store)[0][0].p_infested == float(probs[0, 1])


def test_a_reader_is_idle_only_when_no_received_byte_waits():
    ours, theirs = socket.socketpair()
    with ours, theirs:
        stream = server_module._FrameDeadlineReader(ours)
        stream.deadline = time.monotonic() + 20.0
        assert stream.idle()
        theirs.sendall(b"0123456789")
        assert not stream.idle()  # in the socket
        assert bytes(stream.read(4)) == b"0123"
        assert not stream.idle()  # in the reader, which received all ten: the socket is empty
        assert bytes(stream.read(6)) == b"456789"
        assert stream.idle()
        theirs.shutdown(socket.SHUT_WR)
        assert not stream.idle()  # the stream's end waits to be read


def test_a_gap_filled_inside_the_head_span_is_in_the_head_rows(running_server, served_passes, head_passes):
    server, _, _ = running_server
    pcm = (np.random.default_rng(518).standard_normal(80_000) * 3000).astype("<i2")
    frames = [frame for seq, frame in enumerate(frames_of(42, pcm)) if seq != 3]
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        send_pausing_for_head_passes(conn, frames, [HEAD_FRAMES - 1], head_passes)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    assert server.stats.snapshot()["sequence_gaps"] == 1
    zero_filled = pcm.copy()
    zero_filled[3 * 2500 : 4 * 2500] = 0
    assert served_passes[0] == [(HEAD_SPAN, HEAD), (80_000, TAIL)]
    assert np.array_equal(served_passes[1][0], offline_rows(zero_filled, 16_000))


def test_one_frame_completes_a_clip_and_starts_the_next(running_server, served_passes, head_passes):
    server, store, _ = running_server
    pcm = (np.random.default_rng(519).standard_normal(300_000) * 3000).astype("<i2")
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        send_pausing_for_head_passes(conn, frames_of(43, pcm, frame_samples=75_000), [1, 2], head_passes)
    assert wait_for(lambda: server.stats.snapshot()["dropped_samples"] == 60_000)
    assert server.stats.snapshot()["records_written"] == 3
    # frame 1 ends clip 0 and brings clip 1's head span; clip 2's head span was
    # not in before its last frame, so it takes one pass
    assert served_passes[0] == [(HEAD_SPAN, HEAD), (80_000, TAIL), (HEAD_SPAN, HEAD), (80_000, TAIL),
                                (80_000, WHOLE)]
    for k, rows in enumerate(served_passes[1]):
        assert np.array_equal(rows, offline_rows(pcm[k * 80_000 : (k + 1) * 80_000], 16_000)), k
    assert [r.clip_start for r in load_store(store)[0]] == [0, 80_000, 160_000]


def test_a_connection_that_ends_after_its_head_pass_writes_no_record(running_server, served_passes,
                                                                     head_passes):
    server, store, _ = running_server
    pcm = np.arange(27 * 2500, dtype="<i2")  # past the head span, short of a clip
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        send_pausing_for_head_passes(conn, frames_of(44, pcm), [27], head_passes)
    expected = dict.fromkeys(server.stats.snapshot(), 0)
    expected.update(frames_ok=27, dropped_samples=27 * 2500)
    assert wait_for(lambda: server.stats.snapshot() == expected), server.stats.snapshot()
    assert served_passes == ([(HEAD_SPAN, HEAD)], [])
    assert load_store(store)[0] == []


def test_a_failed_head_pass_leaves_its_clip_one_pass_at_the_end(running_server, head_passes, monkeypatch):
    server, store, _ = running_server
    featurize, spans = server.featurize_pcm, []

    def fail_first(pcm, sample_rate, rows=slice(None)):
        spans.append((len(pcm), rows))
        if len(spans) == 1:
            raise MemoryError("no room for the head pass")
        return featurize(pcm, sample_rate, rows)

    monkeypatch.setattr(server, "featurize_pcm", fail_first)
    pcm = (np.random.default_rng(520).standard_normal(80_000) * 3000).astype("<i2")
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        send_pausing_for_head_passes(conn, frames_of(45, pcm), [HEAD_FRAMES], head_passes)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    assert spans == [(HEAD_SPAN, HEAD), (80_000, WHOLE)] and server.stats.snapshot()["classify_errors"] == 0
    assert [r.device_id for r in load_store(store)[0]] == [45]


def test_a_head_pass_whose_model_part_fails_leaves_its_clip_one_pass_at_the_end(
        running_server, served_passes, head_passes, served_checkpoint, monkeypatch):
    server, store, _ = running_server
    score_head, calls = server.score_head, []

    def fail_first(head_rows):
        calls.append(len(head_rows))
        if len(calls) == 1:
            raise MemoryError("no room for the model's head state")
        return score_head(head_rows)

    monkeypatch.setattr(server, "score_head", fail_first)
    pcm = (np.random.default_rng(523).standard_normal(80_000) * 3000).astype("<i2")
    with socket.create_connection(("127.0.0.1", server.port)) as conn:
        send_pausing_for_head_passes(conn, frames_of(47, pcm), [HEAD_FRAMES], head_passes)
    assert wait_for(lambda: server.stats.snapshot()["records_written"] == 1)
    assert calls == [server_module.HEAD_ROWS]
    assert served_passes[0] == [(HEAD_SPAN, HEAD), (80_000, WHOLE)]  # the head rows went with the state
    stats_now = server.stats.snapshot()
    assert stats_now["classify_errors"] == 0 and stats_now["head_scored_clips"] == 0
    graph, _, config, stats, _ = load_model(served_checkpoint)
    probs, _ = predict(graph, apply_standardize(offline_rows(pcm, 16_000, config), stats)[None])
    assert load_store(store)[0][0].p_infested == float(probs[0, 1])
