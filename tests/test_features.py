import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
import woodwatch
from woodwatch.audio import CANONICAL_RATE, AudioClip, resample_linear
from woodwatch.errors import InvalidDatasetError
from woodwatch.features import (
    FeatureConfig,
    FeatureSet,
    MfccMatrix,
    StandardizeStats,
    apply_standardize,
    dct2_ortho,
    fit_standardize,
    frame_signal,
    hann_window,
    hz_to_mel,
    load_features,
    mel_filterbank,
    mel_to_hz,
    mfcc_frames,
    power_spectrum,
    power_to_db,
    save_features,
)

CFG = FeatureConfig()


def pink_clip(seed=0, n=80000, rate=16000, amplitude=0.4):
    rng = np.random.default_rng(seed)
    return AudioClip(rng.uniform(-amplitude, amplitude, n), rate)


# -- window ------------------------------------------------------------------

def test_hann_small_values():
    assert hann_window(4) == pytest.approx([0.0, 0.5, 1.0, 0.5], abs=1e-15)
    assert hann_window(1).tolist() == [0.0]
    assert hann_window(2048).sum() == pytest.approx(1024.0, abs=1e-9)
    assert hann_window(2048) is hann_window(2048)  # cached, so shared and read-only
    assert not hann_window(2048).flags.writeable
    with pytest.raises(ValueError):
        hann_window(0)


# -- framing -----------------------------------------------------------------

def test_frame_count_and_zero_frames():
    clip = AudioClip(np.zeros(80000), 16000)
    frames = frame_signal(clip, CFG)
    assert frames.shape == (157, 2048)
    assert not frames.any()


def test_frame_zero_length_clip():
    frames = frame_signal(AudioClip(np.empty(0), 16000), CFG)
    assert frames.shape == (1, 2048)
    assert not frames.any()


def test_reflect_padding_centers_leading_impulse():
    x = np.zeros(4096)
    x[0] = 1.0
    frames = frame_signal(AudioClip(x, 16000), CFG)
    center = CFG.fft_size // 2
    # reflect padding mirrors the signal, so frame 0 is symmetric about the impulse
    for offset in (1, 5, 100, 511):
        assert frames[0, center + offset] == pytest.approx(frames[0, center - offset], abs=1e-15)


def test_frames_of_a_row_range_are_those_rows_of_the_whole_clip_bit_for_bit():
    tiny = FeatureConfig(fft_size=16, hop=3, n_mels=8, n_mfcc=4)
    rng = np.random.default_rng(2)
    cases = [(tiny, n) for n in range(40)] + [(CFG, n) for n in (0, 1, 5, 700, 1023, 1024, 1025, 3000)]
    for cfg, n in cases:
        clip = AudioClip(rng.uniform(-1, 1, n), 16000)
        # the whole clip reflect-padded by fft_size / 2 at both ends, as np.pad reflects it
        padded = np.pad(clip.samples, cfg.fft_size // 2, mode="reflect") if n else np.zeros(cfg.fft_size)
        whole = np.lib.stride_tricks.sliding_window_view(padded, cfg.fft_size)[:: cfg.hop][: cfg.rows(n)]
        whole = whole * hann_window(cfg.fft_size)
        assert frame_signal(clip, cfg).tobytes() == whole.tobytes(), (cfg, n)
        if cfg is tiny:  # every range, in numpy's slice terms, including the ones a reflection bounces in
            for start in range(-len(whole) - 1, len(whole) + 2):
                for stop in [None, *range(-len(whole) - 1, len(whole) + 2)]:
                    frames = frame_signal(clip, cfg, slice(start, stop))
                    assert frames.shape == whole[start:stop].shape, (n, start, stop)
                    assert frames.tobytes() == whole[start:stop].tobytes(), (n, start, stop)
    with pytest.raises(ValueError, match="contiguous"):
        frame_signal(pink_clip(), CFG, slice(0, 10, 2))


# -- power spectrum ----------------------------------------------------------

def test_power_spectrum_zero_and_dc():
    assert not power_spectrum(np.zeros(2048)).any()
    bins = power_spectrum(np.ones(256))
    assert bins[0] == pytest.approx(256.0**2)
    assert np.abs(bins[1:]).max() < 1e-18


def test_power_spectrum_matches_direct_dft():
    rng = np.random.default_rng(1)
    frame = rng.normal(size=512)
    fast = power_spectrum(frame)
    slow = oracles.direct_power_spectrum(frame)
    assert np.abs(fast - slow).max() / np.abs(slow).max() < 1e-8


# -- mel scale ---------------------------------------------------------------

def test_mel_scale_pinned_points():
    assert hz_to_mel(0.0) == 0.0
    assert hz_to_mel(1000.0) == 15.0
    expected = 15.0 + 27.0 * math.log(8.0) / math.log(6.4)
    assert hz_to_mel(8000.0) == pytest.approx(expected, abs=1e-12)
    assert mel_to_hz(hz_to_mel(8000.0)) == pytest.approx(8000.0, abs=1e-9)
    with pytest.raises(ValueError):
        hz_to_mel(-1.0)


def test_mel_roundtrip_dense_grid():
    hz = np.linspace(0.0, 8000.0, 1001)
    back = mel_to_hz(hz_to_mel(hz))
    assert np.abs(back - hz).max() < 1e-9


# -- filterbank --------------------------------------------------------------

def test_filterbank_shape_and_positivity():
    bank = mel_filterbank(CFG, 16000)
    assert bank.shape == (128, 1025)
    assert bank.min() >= 0.0
    assert (bank.max(axis=1) > 0).all()


def test_filterbank_row_matches_triangle_oracle():
    bank = mel_filterbank(CFG, 16000)
    row = oracles.triangle_filter_row(CFG.fmin, CFG.fmax, CFG.n_mels, 10, 16000, CFG.fft_size)
    assert np.abs(bank[10] - row).max() < 1e-10


def test_filterbank_rejects_fmax_above_nyquist():
    with pytest.raises(ValueError):
        mel_filterbank(FeatureConfig(fmax=9000.0), 16000)


# -- dB ----------------------------------------------------------------------

def test_power_to_db_values():
    assert power_to_db(1.0) == 0.0
    assert power_to_db(0.0) == -100.0
    assert power_to_db(1e-3) == pytest.approx(-30.0)


# -- DCT ---------------------------------------------------------------------

def test_dct_constant_input_hits_only_dc():
    out = dct2_ortho(np.full(128, 3.25), 40)
    assert out[0] == pytest.approx(3.25 * math.sqrt(128))
    assert np.abs(out[1:]).max() < 1e-12


def test_dct_two_point_example():
    out = dct2_ortho(np.array([1.0, 0.0]), 2)
    assert out == pytest.approx([math.sqrt(0.5), math.cos(math.pi / 4)], abs=1e-12)


def test_dct_parseval_energy():
    rng = np.random.default_rng(2)
    x = rng.normal(size=128)
    full = dct2_ortho(x, 128)
    assert np.sum(full**2) == pytest.approx(np.sum(x**2), abs=1e-9)


def test_dct_matches_direct_summation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=64)
    assert np.abs(dct2_ortho(x, 20) - oracles.direct_dct2_ortho(x, 20)).max() < 1e-10
    frames = rng.normal(size=(5, 64))
    for keep in (20, 64):
        expected = np.stack([oracles.direct_dct2_ortho(row, keep) for row in frames])
        assert np.abs(dct2_ortho(frames, keep) - expected).max() < 1e-10


def test_dct_keep_out_of_range():
    with pytest.raises(ValueError):
        dct2_ortho(np.zeros(8), 9)


# -- full pipeline -----------------------------------------------------------

def test_mfcc_zero_clip_analytic_value():
    matrix = mfcc_frames(AudioClip(np.zeros(80000), 16000), CFG)
    expected = np.zeros(40)
    expected[0] = -100.0 * math.sqrt(128)
    assert np.abs(matrix.values - expected).max() < 1e-9


def test_mfcc_shape():
    matrix = mfcc_frames(pink_clip(), CFG)
    assert matrix.values.shape == (157, 40)
    # its own compact buffer, not a view of all 128 DCT coefficients
    assert matrix.values.base is None and matrix.values.flags.c_contiguous


def test_mfcc_matches_brute_force_oracle_sine():
    t = np.arange(80000) / 16000
    clip = AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), 16000)
    produced = mfcc_frames(clip, CFG).values
    expected = oracles.mfcc_pipeline(clip.samples, 16000)
    assert np.abs(produced - expected).max() < 1e-6


def test_mfcc_mel_product_matches_the_dense_filterbank():
    coarse = FeatureConfig(fft_size=256, hop=128)
    assert (mel_filterbank(coarse, 16000).max(axis=1) == 0).sum() == 13  # filters between bins
    cases = [
        (CFG, 16000),
        (FeatureConfig(n_mels=100), 16000),  # not a whole number of filter groups
        (FeatureConfig(fmin=300.0, fmax=4000.0), 16000),  # leading and trailing bins unused
        (coarse, 16000),
        (CFG, 22050),
    ]
    for cfg, rate in cases:
        t = np.arange(5 * rate) / rate
        for clip in (pink_clip(3, 5 * rate, rate), AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), rate)):
            mel_power = power_spectrum(frame_signal(clip, cfg)) @ mel_filterbank(cfg, rate).T
            dense = dct2_ortho(power_to_db(mel_power, cfg.log_floor), cfg.n_mfcc)
            assert np.abs(mfcc_frames(clip, cfg).values - dense).max() <= 1e-12, (cfg, rate)


SPLIT_CONFIGS = {
    "default": FeatureConfig(),
    "1024-256": FeatureConfig(fft_size=1024, hop=256),
    "512-160": FeatureConfig(fft_size=512, hop=160, n_mels=40, n_mfcc=13),
    "hop-300": FeatureConfig(hop=300),  # fft_size / 2 is no multiple of hop
}


@pytest.mark.parametrize("rate", [16_000, 32_000, 48_000, 96_000, 192_000])
@pytest.mark.parametrize("config", SPLIT_CONFIGS)
def test_rows_in_two_pieces_are_the_whole_clip_rows_bit_for_bit(config, rate):
    """Rows [0, h) from the samples they read and rows [h, T) from the whole clip, as a
    streaming server computes them, for pieces of at least 2 rows."""
    cfg = SPLIT_CONFIGS[config]
    pcm = (np.random.default_rng([rate, cfg.hop]).standard_normal(5 * rate) * 3000).astype("<i2")
    step = rate // CANONICAL_RATE

    def rows(pcm, rows=slice(None)):
        return mfcc_frames(resample_linear(AudioClip.from_pcm16(pcm, rate), CANONICAL_RATE), cfg, rows).values

    whole = rows(pcm)
    assert len(whole) == cfg.rows(5 * CANONICAL_RATE)
    for h in (2, 3, 64, 128, len(whole) - 3, len(whole) - 2):
        head = rows(pcm[: step * cfg.span(h)], slice(h))
        assert np.array_equal(np.concatenate([head, rows(pcm, slice(h, None))]), whole), h


def test_the_package_loads_no_third_party_module_but_numpy():
    # a fresh interpreter: modules that site loaded before the program runs do not count
    program = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import numpy as np\n"
        "import woodwatch, woodwatch.cli, woodwatch.ingest.server\n"
        "from woodwatch.audio import AudioClip\n"
        "from woodwatch.features import mfcc_frames\n"
        "mfcc_frames(AudioClip(np.zeros(16000), 16000))\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(woodwatch.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['numpy', 'woodwatch']"


def test_mfcc_deterministic():
    clip = pink_clip(7)
    a = mfcc_frames(clip, CFG).values
    b = mfcc_frames(clip, CFG).values
    assert np.array_equal(a, b)


def test_gain_moves_only_coefficient_zero():
    clip = pink_clip(5)
    gain = 0.5
    base = mfcc_frames(clip, CFG).values
    scaled = mfcc_frames(AudioClip(clip.samples * gain, 16000), CFG).values
    shift = 10.0 * math.log10(gain**2) * math.sqrt(128)
    assert np.abs(scaled[:, 0] - base[:, 0] - shift).max() < 1e-9
    assert np.abs(scaled[:, 1:] - base[:, 1:]).max() < 1e-9


def test_hop_shift_barely_moves_the_mean():
    clip = pink_clip(11)
    rolled = AudioClip(np.roll(clip.samples, CFG.hop), 16000)
    mean_a = mfcc_frames(clip, CFG).values.mean(axis=0)
    mean_b = mfcc_frames(rolled, CFG).values.mean(axis=0)
    assert np.linalg.norm(mean_a - mean_b) / np.linalg.norm(mean_a) < 0.01


# -- standardization --------------------------------------------------------

def test_standardize_constant_matrix_floors_std():
    matrix = MfccMatrix(np.full((5, 3), 2.0))
    stats = fit_standardize([matrix])
    assert np.array_equal(stats.std, np.ones(3))
    assert not apply_standardize(matrix, stats).any()


def test_standardize_zero_mean_on_fit_data():
    rng = np.random.default_rng(4)
    matrices = [rng.normal(size=(10, 4)) * 3 + 1 for _ in range(6)]
    stats = fit_standardize(matrices)
    stacked = np.concatenate([apply_standardize(m, stats) for m in matrices])
    assert np.abs(stacked.mean(axis=0)).max() < 1e-9
    assert np.abs(stacked.std(axis=0) - 1.0).max() < 1e-9


def test_standardize_matches_two_pass_oracle():
    rng = np.random.default_rng(8)
    matrices = [rng.normal(size=(7, 5)) for _ in range(4)]
    stats = fit_standardize(matrices)
    stacked = np.concatenate(matrices)
    mean = np.array([stacked[:, j].sum() / len(stacked) for j in range(5)])
    var = np.array([((stacked[:, j] - mean[j]) ** 2).sum() / len(stacked) for j in range(5)])
    assert np.abs(stats.mean - mean).max() < 1e-9
    assert np.abs(stats.std - np.sqrt(var)).max() < 1e-9


# -- dump container ------------------------------------------------------------

def test_feature_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    feature_set = FeatureSet(
        ids=["a", "b", "c"],
        labels=np.array([0, 1, -1]),
        matrices=rng.normal(size=(3, 6, 40)),
        config=CFG,
    )
    path = tmp_path / "features.json"
    save_features(path, feature_set)
    loaded = load_features(path)
    assert loaded.ids == feature_set.ids
    assert np.array_equal(loaded.labels, feature_set.labels)
    assert np.array_equal(loaded.matrices, feature_set.matrices)
    assert loaded.config == CFG


def test_feature_dump_is_loaded_into_one_buffer(tmp_path):
    path = tmp_path / "features.bin"
    matrices = np.random.default_rng(10).normal(size=(40, 157, 40))  # 2 MB
    save_features(path, FeatureSet([str(i) for i in range(40)], np.zeros(40), matrices, CFG))
    tracemalloc.start()
    try:
        loaded = load_features(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size  # the file's bytes are held once, not copied
    assert loaded.matrices.flags.writeable
    assert np.array_equal(loaded.matrices, matrices)


def test_feature_dump_rejects_json_and_truncated_dumps(tmp_path):
    path = tmp_path / "features.bin"
    save_features(path, FeatureSet(["a", "b"], np.array([0, 1]), np.zeros((2, 6, 40)), CFG))
    blob = path.read_bytes()
    # the JSON layout dumps had before the binary container
    old = json.dumps({"config": CFG.to_dict(), "records": [
        {"id": "a", "label": "clean", "t": 1, "n_mfcc": 2, "values": [0.0, 1.0]},
    ]}).encode()
    for bad in (old, blob[:-8], blob[:-3], blob[:10]):  # JSON; a value, part of one, the header cut
        path.write_bytes(bad)
        with pytest.raises(InvalidDatasetError):
            load_features(path)
