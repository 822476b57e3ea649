import math
import re
import struct
import wave

import numpy as np
import pytest

from woodwatch.audio import (
    AudioClip,
    ClipLabel,
    decimate_pcm16,
    float_to_pcm16,
    load_wav,
    pcm16_to_float,
    read_wav_pcm16,
    resample_linear,
    save_wav,
    segment_clip,
    write_wav_pcm16,
)
from woodwatch.errors import UnsupportedWavError, WavFormatError


def write_pcm16(path, samples_int16, rate=16000, channels=1):
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(np.asarray(samples_int16, dtype="<i2").tobytes())


def test_clip_labels_have_stable_codes():
    assert ClipLabel.CLEAN == 0
    assert ClipLabel.INFESTED == 1
    assert ClipLabel.from_name("infested") is ClipLabel.INFESTED
    assert [label.text for label in ClipLabel] == ["clean", "infested"]
    for label in ClipLabel:
        assert ClipLabel.parse(label.text) is label
        assert ClipLabel.parse(int(label)) is label
        assert ClipLabel.parse(np.int64(label)) is label
    for bad in ("CLEAN", "1", "noise", 2, -1, 0.5, None):
        with pytest.raises(ValueError):
            ClipLabel.parse(bad)


def test_clip_clamps_and_is_immutable():
    clip = AudioClip([0.0, 2.0, -3.0], 16000)
    assert clip.samples.tolist() == [0.0, 1.0, -1.0]
    with pytest.raises(ValueError):
        clip.samples[0] = 0.5
    with pytest.raises(ValueError):
        AudioClip([0.0], 0)


def test_load_wav_fixed_point_mapping(tmp_path):
    path = tmp_path / "a.wav"
    write_pcm16(path, [0, 16384, -32768])
    clip = load_wav(path)
    assert clip.sample_rate == 16000
    assert clip.samples.tolist() == [0.0, 0.5, -1.0]


def test_load_wav_averages_stereo(tmp_path):
    path = tmp_path / "st.wav"
    # one frame with channels at full scale and zero
    write_pcm16(path, [32767, 0], channels=2)
    clip = load_wav(path)
    assert len(clip) == 1
    assert abs(clip.samples[0] - 0.5) <= 1.0 / 32768


def test_save_wav_zero_clip_writes_zero_data(tmp_path):
    path = tmp_path / "z.wav"
    save_wav(AudioClip(np.zeros(100), 16000), path)
    with wave.open(str(path), "rb") as wav:
        data = wav.readframes(wav.getnframes())
    assert data == b"\x00" * 200


def test_save_wav_saturates_positive_full_scale(tmp_path):
    path = tmp_path / "s.wav"
    save_wav(AudioClip([1.0], 16000), path)
    pcm, _ = read_wav_pcm16(path)
    assert pcm[0] == 32767


def test_roundtrip_preserves_samples_within_quantum(tmp_path):
    rng = np.random.default_rng(0)
    original = rng.integers(-32768, 32768, size=100).astype("<i2")
    path = tmp_path / "r.wav"
    write_pcm16(path, original)
    clip = load_wav(path)
    save_wav(clip, path)
    clip2 = load_wav(path)
    assert np.abs(clip2.samples - clip.samples).max() <= 1.0 / 32768
    # int path is lossless
    pcm, _ = read_wav_pcm16(path)
    assert np.array_equal(pcm, original)


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"NOTAWAVEFILE" + b"\x00" * 64)
    with pytest.raises(WavFormatError):
        load_wav(path)


@pytest.mark.parametrize("size, present", [(45, 0), (60, 8), (243, 99)])
def test_load_rejects_a_data_chunk_cut_short(tmp_path, size, present):
    path = tmp_path / "cut.wav"
    write_pcm16(path, np.arange(100))
    assert path.stat().st_size == 244
    path.write_bytes(path.read_bytes()[:size])  # inside a sample at 45 and 243, on a boundary at 60
    message = rf"^{re.escape(str(path))}: .*declares 100 frames, file holds {present}$"
    with pytest.raises(WavFormatError, match=message):
        read_wav_pcm16(path)


def test_load_rejects_float_and_wide_pcm(tmp_path):
    # float32 format tag (3)
    path = tmp_path / "f32.wav"
    header = struct.pack("<4sI4s", b"RIFF", 36, b"WAVE")
    header += struct.pack("<4sIHHIIHH", b"fmt ", 16, 3, 1, 16000, 64000, 4, 32)
    header += struct.pack("<4sI", b"data", 0)
    path.write_bytes(header)
    with pytest.raises(UnsupportedWavError):
        load_wav(path)

    # 24-bit PCM
    path24 = tmp_path / "w24.wav"
    with wave.open(str(path24), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(3)
        wav.setframerate(16000)
        wav.writeframes(b"\x00\x00\x00" * 4)
    with pytest.raises(UnsupportedWavError):
        load_wav(path24)


def test_resample_identity_at_same_rate():
    clip = AudioClip(np.linspace(-1, 1, 50), 16000)
    assert resample_linear(clip, 16000) is clip


def test_resample_doubles_with_edge_hold():
    clip = AudioClip([0.0, 1.0], 2)
    out = resample_linear(clip, 4)
    assert out.sample_rate == 4
    assert out.samples.tolist() == [0.0, 0.5, 1.0, 1.0]


@pytest.mark.parametrize("rate", [16_000, 32_000, 44_100, 48_000, 96_000, 192_000])
def test_a_decimated_int16_stream_is_the_resampled_clip_bit_for_bit(rate):
    step, remainder = divmod(rate, 16_000)
    rng = np.random.default_rng(rate)
    for n in [0, 1, 2, *range(5 * step, 6 * step)]:  # every length mod step
        pcm = rng.integers(-32768, 32768, n).astype("<i2")
        expected = resample_linear(AudioClip.from_pcm16(pcm, rate), 16_000)
        decimated, decimated_rate = decimate_pcm16(pcm, rate, 16_000)
        assert (decimated is pcm) == bool(remainder or step == 1)  # left for interpolation, or nothing to do
        out = resample_linear(AudioClip.from_pcm16(decimated, decimated_rate), 16_000)
        assert out.sample_rate == expected.sample_rate == 16_000
        assert out.samples.tobytes() == expected.samples.tobytes(), n


def test_pcm16_to_float_is_the_division_for_every_int16():
    pcm = np.arange(-32768, 32768, dtype="<i2")
    assert pcm16_to_float(pcm).tobytes() == (np.asarray(pcm, dtype=np.float64) / 32768).tobytes()


@pytest.mark.parametrize("rate", [16_000, 192_000])
def test_a_clip_from_pcm16_is_the_clamped_clip_bit_for_bit(rate):
    pcm = np.arange(-32768, 32768, dtype="<i2")
    clip = AudioClip.from_pcm16(pcm, rate)
    assert clip.samples.tobytes() == AudioClip(pcm16_to_float(pcm), rate).samples.tobytes()
    assert clip.sample_rate == rate
    with pytest.raises(ValueError):
        clip.samples[0] = 0.5
    with pytest.raises(ValueError):
        AudioClip.from_pcm16(pcm, 0)


def test_an_integer_ratio_resample_owns_a_compact_read_only_copy():
    clip = AudioClip.from_pcm16(np.arange(-32768, 32768, dtype="<i2"), 48_000)
    out = resample_linear(clip, 16_000)
    assert out.samples.base is None and out.samples.flags.c_contiguous  # holds nothing of the source
    assert out.samples.tobytes() == clip.samples[: 3 * len(out) : 3].tobytes()
    with pytest.raises(ValueError):
        out.samples[0] = 0.5


def test_write_wav_pcm16_writes_what_save_wav_writes(tmp_path):
    pcm = np.arange(-32768, 32768, dtype="<i2")
    write_wav_pcm16(tmp_path / "pcm.wav", pcm, 192_000)
    save_wav(AudioClip(pcm16_to_float(pcm), 192_000), tmp_path / "clip.wav")
    assert (tmp_path / "pcm.wav").read_bytes() == (tmp_path / "clip.wav").read_bytes()
    assert read_wav_pcm16(tmp_path / "pcm.wav")[1] == 192_000


def test_resample_sine_matches_analytic():
    t16 = np.arange(16000) / 16000
    clip = AudioClip(0.5 * np.sin(2 * np.pi * 440 * t16), 16000)
    out = resample_linear(clip, 8000)
    assert len(out) == 8000
    t8 = np.arange(len(out)) / 8000
    analytic = 0.5 * np.sin(2 * np.pi * 440 * t8)
    rms = np.sqrt(np.mean((out.samples - analytic) ** 2))
    assert rms < 0.01


def test_segment_basic_arithmetic():
    clip = AudioClip(np.ones(12 * 16000), 16000)
    segments = segment_clip(clip, 5.0)
    assert len(segments) == 3
    assert all(len(s) == 80000 for s in segments)
    # last segment: 2 s of signal + 3 s of zeros
    assert segments[2].samples[: 2 * 16000].min() == 1.0
    assert segments[2].samples[2 * 16000 :].max() == 0.0


def test_segment_exact_fit_is_identity():
    clip = AudioClip(np.linspace(-1, 1, 80000), 16000)
    segments = segment_clip(clip, 5.0)
    assert len(segments) == 1
    assert np.array_equal(segments[0].samples, clip.samples)


def test_segment_reassembly_reproduces_input():
    rng = np.random.default_rng(3)
    n = int(13.7 * 16000)
    clip = AudioClip(rng.uniform(-1, 1, n), 16000)
    segments = segment_clip(clip, 5.0)
    glued = np.concatenate([s.samples for s in segments])[:n]
    assert np.array_equal(glued, clip.samples)
    assert np.all(np.concatenate([s.samples for s in segments])[n:] == 0.0)


def test_segment_empty_clip_gives_one_zero_segment():
    segments = segment_clip(AudioClip(np.empty(0), 16000), 5.0)
    assert len(segments) == 1
    assert len(segments[0]) == 80000
    assert not segments[0].samples.any()


@pytest.mark.parametrize("length_s", [math.inf, -math.inf, math.nan])
def test_segment_rejects_a_length_that_is_not_finite(length_s):
    with pytest.raises(ValueError, match="not finite"):
        segment_clip(AudioClip(np.ones(16000), 16000), length_s)


def test_float_to_pcm16_rounding_bounds():
    pcm = float_to_pcm16(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    assert pcm.tolist() == [-32768, -16384, 0, 16384, 32767]
