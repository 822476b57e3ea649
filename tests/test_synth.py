import json

import numpy as np
import pytest

from woodwatch.audio import load_wav
from woodwatch.features import mfcc_frames
from woodwatch.synth import (
    SynthConfig,
    _render_infested,
    gen_clean_clip,
    gen_dataset,
    gen_infested_clip,
    load_manifest,
)

CFG = SynthConfig()


def test_clean_clip_shape_and_determinism():
    a = gen_clean_clip(CFG, 42)
    b = gen_clean_clip(CFG, 42)
    assert len(a) == 80000
    assert np.array_equal(a.samples, b.samples)
    assert np.max(np.abs(a.samples)) == pytest.approx(0.5)


def test_clean_clip_spectral_slope_is_pink():
    # averaged periodogram over many frames, slope fit across 100-4000 Hz
    n_fft = 4096
    acc = np.zeros(n_fft // 2 + 1)
    count = 0
    for seed in range(20):
        x = gen_clean_clip(CFG, seed).samples
        for start in range(0, len(x) - n_fft + 1, n_fft):
            acc += np.abs(np.fft.rfft(x[start : start + n_fft])) ** 2
            count += 1
    freqs = np.fft.rfftfreq(n_fft, 1.0 / CFG.sample_rate)
    mask = (freqs >= 100) & (freqs <= 4000)
    slope = np.polyfit(np.log2(freqs[mask]), 10 * np.log10(acc[mask] / count), 1)[0]
    assert -4.0 < slope < -2.0  # -3 dB/octave within +-1


def test_infested_zero_click_limit_matches_clean():
    cfg = SynthConfig(click_rate=1e-9)
    clean = gen_clean_clip(cfg, 5)
    infested = gen_infested_clip(cfg, 5)
    assert abs(np.sum(clean.samples**2) - np.sum(infested.samples**2)) < 1e-6


def test_click_count_poisson_statistics():
    lam = CFG.click_rate * CFG.duration_s
    counts = [len(_render_infested(CFG, seed)[3]) for seed in range(200)]
    assert abs(np.mean(counts) - lam) < 3.0 * np.sqrt(lam / 200)


def test_snr_of_generated_clip():
    # estimate from the output alone, using the known click regions
    mix, noise, clicks, onsets = _render_infested(CFG, 43)
    click_len = max(8, int(round(6.0 * CFG.click_decay_s * CFG.sample_rate)))
    mask = np.zeros(len(mix), dtype=bool)
    for onset in onsets:
        mask[onset : onset + click_len] = True
    energy_in = np.sum(mix[mask] ** 2)
    energy_out = np.sum(mix[~mask] ** 2)
    noise_total = energy_out * len(mix) / max(1, (~mask).sum())
    click_energy = energy_in - noise_total * mask.sum() / len(mix)
    measured = 10 * np.log10(click_energy / noise_total)
    assert abs(measured - CFG.snr_db) < 1.0


def test_component_snr_exact():
    _, noise, clicks, onsets = _render_infested(CFG, 77)
    assert len(onsets) > 0
    snr = 10 * np.log10(np.sum(clicks**2) / np.sum(noise**2))
    assert snr == pytest.approx(CFG.snr_db, abs=1e-9)


def test_dataset_layout_and_manifest(tmp_path):
    cfg = SynthConfig(duration_s=0.5, seed=11)
    manifest = gen_dataset(tmp_path, 3, cfg)
    assert len(manifest["clips"]) == 6
    assert len(list((tmp_path / "clean").glob("*.wav"))) == 3
    assert len(list((tmp_path / "infested").glob("*.wav"))) == 3
    reloaded = load_manifest(tmp_path)
    assert reloaded == json.loads(json.dumps(manifest))
    labels = [c["label"] for c in manifest["clips"]]
    assert labels.count("clean") == labels.count("infested") == 3


def test_dataset_regeneration_byte_identical(tmp_path):
    cfg = SynthConfig(duration_s=0.5, seed=12)
    gen_dataset(tmp_path / "a", 2, cfg)
    gen_dataset(tmp_path / "b", 2, cfg)
    for rel in ["clean/clip_0000.wav", "clean/clip_0001.wav",
                "infested/clip_0000.wav", "infested/clip_0001.wav", "manifest.json"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_manifest_reconstructs_clips(tmp_path):
    cfg = SynthConfig(duration_s=0.5, seed=13)
    gen_dataset(tmp_path, 2, cfg)
    manifest = load_manifest(tmp_path)
    rebuilt_cfg = SynthConfig.from_dict(manifest["config"])
    for entry in manifest["clips"]:
        stored = load_wav(tmp_path / entry["path"])
        generate = gen_clean_clip if entry["label"] == "clean" else gen_infested_clip
        regenerated = generate(rebuilt_cfg, entry["seed"])
        # WAV quantization is the only difference
        assert np.abs(stored.samples - regenerated.samples).max() <= 1.0 / 32768


def test_classes_separate_in_mean_feature_space():
    clean = np.array([mfcc_frames(gen_clean_clip(CFG, 1000 + s)).values.mean(axis=0) for s in range(8)])
    infested = np.array([mfcc_frames(gen_infested_clip(CFG, 2000 + s)).values.mean(axis=0) for s in range(8)])
    center_c, center_i = clean.mean(axis=0), infested.mean(axis=0)
    between = np.linalg.norm(center_c - center_i)
    within = 0.5 * (
        np.mean(np.linalg.norm(clean - center_c, axis=1))
        + np.mean(np.linalg.norm(infested - center_i, axis=1))
    )
    assert between / within > 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(click_rate=0.0)
    with pytest.raises(ValueError):
        SynthConfig(band_high_hz=9000.0)
    with pytest.raises(ValueError):
        SynthConfig(snr_db=float("inf"))
