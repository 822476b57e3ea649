"""MFCC feature extraction.

Turns an AudioClip into a T x 40 coefficient matrix, the input of every
classifier (the dense baseline takes its time mean in
``models.to_model_input``), and saves batches of matrices as binary
feature dumps.

The chain per frame: reflect-padded centered framing with a periodic Hann
window, one-sided power spectrum, Slaney-scale triangular mel filterbank
with area normalization, floor-clamped dB conversion, orthonormal DCT-II
keeping the first 40 coefficients. All arithmetic is float64 and every
stage is pinned exactly so independent implementations agree bit-for-bit
in structure and to tight tolerances in value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .audio import AudioClip, ClipLabel
from .container import read_container, read_file, write_container
from .errors import InvalidDatasetError

_MEL_BREAK_HZ = 1000.0
_MEL_BREAK = 15.0  # mel value at 1 kHz: 3 * 1000 / 200
_MEL_LOG_STEP = math.log(6.4) / 27.0
# Filters per dense product in mfcc_frames. Each group spans only its own
# bins (the whole bank is ~1.5% nonzero). On a 5 s clip at the defaults (one
# OpenBLAS thread on a Xeon, minimum of 300 calls), groups of 8 took 0.10 ms,
# groups of 4, 16 and 32 took 0.14, 0.12 and 0.26 ms, and one product over
# the whole bank 0.90 ms.
_MEL_GROUP = 8


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction parameters. Defaults are the canonical pipeline settings."""

    fft_size: int = 2048
    hop: int = 512
    n_mels: int = 128
    fmin: float = 0.0
    fmax: float = 8000.0
    n_mfcc: int = 40
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        if self.hop < 1:
            raise ValueError(f"hop must be positive, got {self.hop}")
        if not 0.0 <= self.fmin < self.fmax:
            raise ValueError(f"need 0 <= fmin < fmax, got {self.fmin}, {self.fmax}")
        if not 1 <= self.n_mfcc <= self.n_mels:
            raise ValueError(f"need 1 <= n_mfcc <= n_mels, got {self.n_mfcc}, {self.n_mels}")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    def rows(self, n_samples: int) -> int:
        """MFCC rows of a clip of ``n_samples`` at the canonical rate: row r is
        the fft_size window centred on sample r * hop."""
        return 1 + n_samples // self.hop

    def span(self, rows: int) -> int:
        """The samples that rows [0, rows) read, the clip's reflection aside."""
        return (rows - 1) * self.hop + self.fft_size // 2

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureConfig":
        return cls(**d)


@dataclass(frozen=True)
class MfccMatrix:
    """Frame-wise coefficients, shape [T, n_mfcc], all finite."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("MFCC values must be finite")
        object.__setattr__(self, "values", values)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class StandardizeStats:
    """Per-coefficient mean/std, fit on training data only."""

    mean: np.ndarray
    std: np.ndarray

    def to_dict(self) -> dict:
        return {"mean": list(self.mean), "std": list(self.std)}

    @classmethod
    def from_dict(cls, d: dict) -> "StandardizeStats":
        return cls(np.asarray(d["mean"], dtype=np.float64),
                   np.asarray(d["std"], dtype=np.float64))


@functools.lru_cache(maxsize=8)
def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window w[k] = 0.5 - 0.5*cos(2*pi*k/n), read-only."""
    if n < 1:
        raise ValueError(f"window length must be >= 1, got {n}")
    k = np.arange(n)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / n)
    window.setflags(write=False)
    return window


def frame_signal(clip: AudioClip, cfg: FeatureConfig, rows: slice = slice(None)) -> np.ndarray:
    """Centered, windowed frames ``rows`` of the clip's cfg.rows(len(clip)), each
    [fft_size]: frame i is centred on sample i * hop of the clip reflected by
    fft_size/2 at both ends. Only the samples the rows read are framed, and
    they are those rows of the whole clip's frames, bit for bit. An empty clip
    has one all-zero frame.
    """
    n, n_fft, half = len(clip), cfg.fft_size, cfg.fft_size // 2
    start, stop, step = rows.indices(cfg.rows(n))
    if step != 1:
        raise ValueError(f"rows must be contiguous, got step {step}")
    if n == 0 or stop <= start:
        return np.zeros((max(stop - start, 0), n_fft))
    lo, hi = start * cfg.hop - half, (stop - 1) * cfg.hop + half  # the samples the rows read
    pad = (max(-lo, 0), max(hi - n, 0))
    # the left reflection reads samples [1, 1 - lo), the right one [2n - 1 - hi, n - 1)
    begin, end = min(max(lo, 0), 2 * n - 1 - hi), max(min(hi, n), 1 - lo)
    if begin < 0 or end > n:  # a reflection passes the clip's far end: pad all of it, as np.pad does
        begin, end, pad = 0, n, (half, half)
    padded = np.pad(clip.samples[begin:end], pad, mode="reflect")
    first = lo - (begin - pad[0])  # where row `start`'s window begins in padded
    frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[first :: cfg.hop][: stop - start]
    return frames * hann_window(n_fft)


def power_spectrum(frames: np.ndarray) -> np.ndarray:
    """One-sided squared-magnitude DFT, bins 0 .. fft_size/2 along the last axis."""
    spectrum = np.fft.rfft(np.asarray(frames, dtype=np.float64), axis=-1)
    return np.abs(spectrum) ** 2


def hz_to_mel(hz):
    """Slaney mel scale: linear below 1 kHz, logarithmic above."""
    hz = np.asarray(hz, dtype=np.float64)
    if np.any(hz < 0):
        raise ValueError("frequency must be non-negative")
    mel = 3.0 * hz / 200.0
    log_region = hz >= _MEL_BREAK_HZ
    mel = np.where(log_region, _MEL_BREAK + np.log(np.maximum(hz, _MEL_BREAK_HZ) / _MEL_BREAK_HZ) / _MEL_LOG_STEP, mel)
    return mel if mel.ndim else float(mel)


def mel_to_hz(mel):
    """Exact inverse of hz_to_mel."""
    mel = np.asarray(mel, dtype=np.float64)
    if np.any(mel < 0):
        raise ValueError("mel value must be non-negative")
    hz = 200.0 * mel / 3.0
    log_region = mel >= _MEL_BREAK
    hz = np.where(log_region, _MEL_BREAK_HZ * np.exp(_MEL_LOG_STEP * (mel - _MEL_BREAK)), hz)
    return hz if hz.ndim else float(hz)


@functools.lru_cache(maxsize=8)
def mel_filterbank(cfg: FeatureConfig, sample_rate: int) -> np.ndarray:
    """Triangular mel filters, shape [n_mels, fft_size/2 + 1].

    n_mels + 2 edges are equally spaced in mel between fmin and fmax;
    filter i rises from edge i to edge i+1 and falls to edge i+2, evaluated
    at the FFT bin center frequencies and scaled by 2 / (hz span) so each
    filter integrates to roughly unit area.
    """
    if cfg.fmax > sample_rate / 2:
        raise ValueError(f"fmax {cfg.fmax} exceeds Nyquist {sample_rate / 2}")
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2))
    bin_hz = np.arange(cfg.fft_size // 2 + 1) * (sample_rate / cfg.fft_size)

    lower = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    upper = edges_hz[2:, None]
    rising = (bin_hz[None, :] - lower) / (center - lower)
    falling = (upper - bin_hz[None, :]) / (upper - center)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights *= 2.0 / (upper - lower)
    weights.setflags(write=False)
    return weights


@functools.lru_cache(maxsize=8)
def _mel_groups(cfg: FeatureConfig, sample_rate: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """mel_filterbank as (first filter, first bin, read-only [bins, filters]
    block) per group of _MEL_GROUP filters. A block spans the bins from the
    group's first nonzero weight to its last; an all-zero group has none.
    """
    bank = mel_filterbank(cfg, sample_rate)
    groups = []
    for start in range(0, cfg.n_mels, _MEL_GROUP):
        rows = bank[start : start + _MEL_GROUP]
        bins = np.flatnonzero(rows.any(axis=0))
        if len(bins):
            block = np.ascontiguousarray(rows[:, bins[0] : bins[-1] + 1].T)
            block.setflags(write=False)
            groups.append((start, int(bins[0]), block))
    return tuple(groups)


def power_to_db(power, log_floor: float = FeatureConfig.log_floor):
    """10*log10(max(power, floor)). No top-end dynamic-range clamp."""
    return 10.0 * np.log10(np.maximum(power, log_floor))


@functools.lru_cache(maxsize=8)
def _dct2_basis(n: int, keep: int) -> np.ndarray:
    """Orthonormal DCT-II basis, shape [n, keep], read-only: column k is
    s_k * cos(pi * (i + 1/2) * k / n) with s_0 = sqrt(1/n), s_k = sqrt(2/n).
    """
    i = np.arange(n)[:, None]
    k = np.arange(keep)[None, :]
    basis = np.cos(np.pi * (2 * i + 1) * k / (2 * n)) * math.sqrt(2.0 / n)
    basis[:, 0] = math.sqrt(1.0 / n)
    basis.setflags(write=False)
    return basis


def dct2_ortho(x: np.ndarray, keep: int) -> np.ndarray:
    """Orthonormal DCT-II along the last axis, truncated to `keep` coefficients."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if not 1 <= keep <= n:
        raise ValueError(f"keep must be in [1, {n}], got {keep}")
    return x @ _dct2_basis(n, keep)


def mfcc_frames(clip: AudioClip, cfg: FeatureConfig = FeatureConfig(),
                rows: slice = slice(None)) -> MfccMatrix:
    """Full pipeline: clip at the canonical rate -> [T, n_mfcc] coefficient matrix,
    or its ``rows`` alone.

    Rows taken in pieces of at least 2 equal those of the whole matrix bit for
    bit. A one-row piece takes a BLAS matrix-vector path whose bits may differ.
    """
    frames = frame_signal(clip, cfg, rows)
    spectra = power_spectrum(frames)
    mel_power = np.zeros((len(spectra), cfg.n_mels))
    for start, lo, block in _mel_groups(cfg, clip.sample_rate):
        bins, filters = block.shape
        np.matmul(spectra[:, lo : lo + bins], block, out=mel_power[:, start : start + filters])
    mel_db = power_to_db(mel_power, cfg.log_floor)
    return MfccMatrix(dct2_ortho(mel_db, cfg.n_mfcc))


def fit_standardize(matrices) -> StandardizeStats:
    """Per-coefficient mean/std over all frames of an [N, T, C] array-like of matrices.

    Population std; entries below 1e-8 are replaced by 1 so constant
    coefficients pass through unscaled.
    """
    stacked = np.asarray(matrices, dtype=np.float64)
    if stacked.size == 0:
        raise ValueError("training set must be non-empty")
    stacked = stacked.reshape(-1, stacked.shape[-1])  # a view of contiguous rows, not a copy
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    return StandardizeStats(mean, std)


def apply_standardize(matrix, stats: StandardizeStats) -> np.ndarray:
    """(x - mean) / std per coefficient; accepts [T, C] or [N, T, C] arrays."""
    x = np.subtract(matrix, stats.mean)
    x /= stats.std
    return x


# ---------------------------------------------------------------------------
# Feature dump: a ``WWFD`` container (woodwatch.container) whose header holds
# the version, config, clip ids, label names (null if unknown) and the shape.

_DUMP_MAGIC = b"WWFD"
_DUMP_VERSION = 1


@dataclass
class FeatureSet:
    """A uniform-T batch of per-clip coefficient matrices with labels."""

    ids: list[str]
    labels: np.ndarray           # int codes per ClipLabel; -1 where unknown
    matrices: np.ndarray         # [N, T, n_mfcc]
    config: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.matrices = np.asarray(self.matrices, dtype=np.float64)
        if self.matrices.ndim != 3:
            raise ValueError("matrices must be [N, T, n_mfcc]")
        if not (len(self.ids) == len(self.labels) == len(self.matrices)):
            raise ValueError("ids, labels and matrices must have equal length")

    def __len__(self) -> int:
        return len(self.ids)


def save_features(path: str | Path, features: FeatureSet) -> None:
    header = {
        "format_version": _DUMP_VERSION,
        "config": features.config.to_dict(),
        "ids": features.ids,
        "labels": [ClipLabel(label).text if label >= 0 else None for label in features.labels],
        "shape": list(features.matrices.shape),
    }
    write_container(path, _DUMP_MAGIC, header, features.matrices)


def _dump_size(header: dict) -> int:
    if header.get("format_version") != _DUMP_VERSION:
        raise ValueError(f"unsupported feature dump version {header.get('format_version')}")
    return math.prod(header["shape"])


def load_features(path: str | Path) -> FeatureSet:
    header, values = read_container(read_file(path), path, _DUMP_MAGIC, InvalidDatasetError, _dump_size)
    try:
        labels = [-1 if name is None else int(ClipLabel.parse(name)) for name in header["labels"]]
        return FeatureSet(header["ids"], np.asarray(labels), values.reshape(header["shape"]),
                          FeatureConfig.from_dict(header["config"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidDatasetError(f"{path}: bad header: {exc!r}") from exc
