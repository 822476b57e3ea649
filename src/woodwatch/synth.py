"""Synthetic labeled audio: pest-like click trains over pink background noise.

Clean clips are pure pink (1/f) noise. Infested clips add a Poisson train
of band-limited noise bursts with exponential decay, mixed at a configured
clip-level SNR (click energy over noise energy). Everything is
deterministic per seed, and a generated dataset's manifest carries enough
state (config + per-clip seeds) to rebuild it byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import CANONICAL_RATE, CANONICAL_SECONDS, AudioClip, ClipLabel, save_wav

_PEAK_TARGET = 0.5


@dataclass(frozen=True)
class SynthConfig:
    sample_rate: int = CANONICAL_RATE
    duration_s: float = CANONICAL_SECONDS
    click_rate: float = 8.0          # Poisson rate, clicks per second
    band_low_hz: float = 3000.0
    band_high_hz: float = 6000.0
    click_decay_s: float = 0.005     # exponential time constant
    snr_db: float = 10.0
    seed: int = 0                    # master seed for dataset generation

    def __post_init__(self):
        if self.click_rate <= 0:
            raise ValueError(f"click_rate must be positive, got {self.click_rate}")
        if not 0 < self.band_low_hz < self.band_high_hz <= self.sample_rate / 2:
            raise ValueError("click band must sit inside (0, Nyquist]")
        if not np.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")
        if self.duration_s <= 0 or self.sample_rate <= 0:
            raise ValueError("duration and sample rate must be positive")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        return cls(**d)


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """1/f-power noise via spectral shaping of complex white noise."""
    n_bins = n // 2 + 1
    real = rng.standard_normal(n_bins)
    imag = rng.standard_normal(n_bins)
    spectrum = (real + 1j * imag) / np.sqrt(2.0)
    freq = np.arange(n_bins, dtype=np.float64)
    amplitude = np.zeros(n_bins)
    amplitude[1:] = 1.0 / np.sqrt(freq[1:])  # power falls as 1/f; DC removed
    return np.fft.irfft(spectrum * amplitude, n=n)


def _peak_normalize(x: np.ndarray) -> np.ndarray:
    peak = np.max(np.abs(x))
    return x * (_PEAK_TARGET / peak) if peak > 0 else x


def _unit_click(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    """One band-passed decaying burst, normalized to unit energy."""
    length = max(8, int(round(6.0 * cfg.click_decay_s * cfg.sample_rate)))
    white = rng.standard_normal(length)
    spectrum = np.fft.rfft(white)
    freq = np.fft.rfftfreq(length, d=1.0 / cfg.sample_rate)
    spectrum[(freq < cfg.band_low_hz) | (freq > cfg.band_high_hz)] = 0.0
    burst = np.fft.irfft(spectrum, n=length)
    t = np.arange(length) / cfg.sample_rate
    burst *= np.exp(-t / cfg.click_decay_s)
    energy = np.sum(burst**2)
    return burst / np.sqrt(energy) if energy > 0 else burst


def _render_infested(cfg: SynthConfig, seed: int):
    """Internal: (mix, scaled noise part, scaled click part, onsets).

    The pink noise consumes the generator exactly as gen_clean_clip does,
    so the zero-click limit reproduces the clean clip sample-for-sample.
    """
    rng = np.random.default_rng(seed)
    n = cfg.n_samples
    noise = _peak_normalize(_pink_noise(rng, n))
    noise_energy = float(np.sum(noise**2))

    n_clicks = int(rng.poisson(cfg.click_rate * cfg.duration_s))
    click_track = np.zeros(n)
    onsets = []
    for _ in range(n_clicks):
        click = _unit_click(rng, cfg)
        max_onset = max(1, n - len(click))
        onset = int(rng.integers(0, max_onset))
        click_track[onset : onset + len(click)] += click
        onsets.append(onset)

    track_energy = float(np.sum(click_track**2))
    if track_energy > 0:
        target_energy = noise_energy * 10.0 ** (cfg.snr_db / 10.0)
        click_track *= np.sqrt(target_energy / track_energy)

    mix = noise + click_track
    peak = np.max(np.abs(mix))
    scale = _PEAK_TARGET / peak if peak > 0 else 1.0
    return mix * scale, noise * scale, click_track * scale, onsets


def gen_clean_clip(cfg: SynthConfig, seed: int) -> AudioClip:
    """Pink noise only, peak-normalized to 0.5."""
    rng = np.random.default_rng(seed)
    samples = _peak_normalize(_pink_noise(rng, cfg.n_samples))
    return AudioClip(samples, cfg.sample_rate)


def gen_infested_clip(cfg: SynthConfig, seed: int) -> AudioClip:
    """Poisson click train over pink noise at the configured clip-level SNR."""
    mix, _, _, _ = _render_infested(cfg, seed)
    return AudioClip(mix, cfg.sample_rate)


def gen_dataset(out_dir: str | Path, n_per_class: int, cfg: SynthConfig) -> dict:
    """Write n clean + n infested WAVs under ``clean/``/``infested/`` plus a manifest.

    Per-clip integer seeds are drawn once from the master seed (clean clips
    first), so regeneration with the same config is byte-identical.
    """
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    out_dir = Path(out_dir)
    rng = np.random.default_rng(cfg.seed)
    clip_seeds = rng.integers(0, 2**63, size=2 * n_per_class)

    manifest = {"config": cfg.to_dict(), "n_per_class": n_per_class, "clips": []}
    for label, offset, generate in (
        (ClipLabel.CLEAN.text, 0, gen_clean_clip),
        (ClipLabel.INFESTED.text, n_per_class, gen_infested_clip),
    ):
        class_dir = out_dir / label
        class_dir.mkdir(parents=True, exist_ok=True)
        for i in range(n_per_class):
            seed = int(clip_seeds[offset + i])
            clip = generate(cfg, seed)
            rel_path = f"{label}/clip_{i:04d}.wav"
            save_wav(clip, out_dir / rel_path)
            manifest["clips"].append(
                {"id": f"{label}/clip_{i:04d}", "label": label, "seed": seed, "path": rel_path}
            )
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def load_manifest(dataset_dir: str | Path) -> dict:
    return json.loads((Path(dataset_dir) / "manifest.json").read_text())
