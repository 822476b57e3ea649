"""Mono PCM audio: WAV file I/O, linear resampling, fixed-length segmentation.

Every downstream stage consumes :class:`AudioClip` values. Clips are
immutable, hold float64 amplitudes in [-1, 1], and carry their sample rate.
WAV support is deliberately narrow: 16-bit integer PCM, mono or stereo in,
mono out.
"""

from __future__ import annotations

import enum
import math
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UnsupportedWavError, WavFormatError

#: Canonical processing rate; all pipelines resample on entry.
CANONICAL_RATE = 16_000
#: Canonical clip duration in seconds (80000 samples at the canonical rate).
CANONICAL_SECONDS = 5.0

_PCM_FULL_SCALE = 32768.0


class ClipLabel(enum.IntEnum):
    """The two classification targets. Codes and lower-case names are part of the file formats."""

    CLEAN = 0
    INFESTED = 1

    @property
    def text(self) -> str:
        """The lower-case name."""
        return self.name.lower()

    @classmethod
    def parse(cls, value: str | int) -> "ClipLabel":
        """The label with this lower-case name or this integer code."""
        for label in cls:
            if value in (label, label.text):
                return label
        raise ValueError(f"unknown label {value!r}")

    from_name = parse


@dataclass(frozen=True)
class AudioClip:
    """Immutable mono audio. The constructor clamps amplitudes to [-1, 1];
    ``from_pcm16`` needs no clamp."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self._adopt(np.clip(np.asarray(self.samples, dtype=np.float64), -1.0, 1.0))

    def _adopt(self, samples: np.ndarray) -> None:
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @classmethod
    def from_pcm16(cls, pcm: np.ndarray, sample_rate: int) -> "AudioClip":
        """int16 samples as a clip: ``AudioClip(pcm16_to_float(pcm), rate)``
        bit for bit, in one array, since int16 * 2**-15 lies in [-1, 1) and
        needs no clamp."""
        clip = object.__new__(cls)
        object.__setattr__(clip, "sample_rate", sample_rate)
        clip._adopt(pcm16_to_float(pcm))
        return clip

    def __len__(self) -> int:
        return len(self.samples)


def pcm16_to_float(pcm: np.ndarray) -> np.ndarray:
    """Map int16 samples to [-1, 1) by division by 32768.

    One pass: the scale 1/32768 is a power of two, so multiplying by it is
    exactly the division.
    """
    return np.multiply(pcm, 1.0 / _PCM_FULL_SCALE, dtype=np.float64)


def float_to_pcm16(samples: np.ndarray) -> np.ndarray:
    """Quantize [-1, 1] amplitudes to int16. +1.0 saturates to 32767."""
    scaled = np.rint(np.asarray(samples, dtype=np.float64) * _PCM_FULL_SCALE)
    return np.clip(scaled, -32768, 32767).astype("<i2")


def read_wav_pcm16(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a 16-bit PCM WAV as raw int16 mono samples plus its rate.

    Stereo input is averaged per frame (mean rounded to nearest integer).
    Raises WavFormatError for malformed containers and UnsupportedWavError
    for encodings other than 16-bit integer PCM.
    """
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            sample_width = wav.getsampwidth()
            comp_type = wav.getcomptype()
            rate = wav.getframerate()
            n_frames = wav.getnframes()
            raw = wav.readframes(n_frames)
    except wave.Error as exc:
        # The stdlib reports non-PCM format tags (float=3, a-law=6, ...) as
        # "unknown format: N"; anything else is a broken container.
        if str(exc).startswith("unknown format"):
            raise UnsupportedWavError(f"{path}: {exc}") from exc
        raise WavFormatError(f"{path}: {exc}") from exc
    except (EOFError, struct.error) as exc:
        raise WavFormatError(f"{path}: truncated or corrupt WAV ({exc})") from exc

    if comp_type != "NONE":
        raise UnsupportedWavError(f"{path}: compressed WAV ({comp_type}) not supported")
    if sample_width != 2:
        raise UnsupportedWavError(
            f"{path}: only 16-bit PCM supported, got {8 * sample_width}-bit"
        )
    if rate <= 0:
        raise WavFormatError(f"{path}: non-positive sample rate {rate}")
    frame_bytes = sample_width * n_channels
    if len(raw) < n_frames * frame_bytes:
        raise WavFormatError(f"{path}: truncated data chunk: header declares {n_frames} frames, "
                             f"file holds {len(raw) // frame_bytes}")

    data = np.frombuffer(raw, dtype="<i2")
    if n_channels > 1:
        data = data.reshape(-1, n_channels)
        data = np.rint(data.mean(axis=1)).astype("<i2")
    return data, rate


def load_wav(path: str | Path) -> AudioClip:
    """Load a 16-bit PCM WAV file as a mono AudioClip."""
    pcm, rate = read_wav_pcm16(path)
    return AudioClip.from_pcm16(pcm, rate)


def write_wav_pcm16(path: str | Path, pcm: np.ndarray, rate: int) -> None:
    """Write int16 samples as mono 16-bit PCM WAV (little-endian RIFF/WAVE)."""
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(np.asarray(pcm, dtype="<i2").tobytes())


def save_wav(clip: AudioClip, path: str | Path) -> None:
    """Write a clip as mono 16-bit PCM WAV, quantized by float_to_pcm16."""
    write_wav_pcm16(path, float_to_pcm16(clip.samples), clip.sample_rate)


def resample_linear(clip: AudioClip, target_rate: int) -> AudioClip:
    """Resample by linear interpolation; output length = round(n * target/source).

    Sample i of the output is taken at source position i * source/target,
    with edge-hold beyond the final input sample. Equal rates return the
    clip unchanged. When the source rate is an integer multiple k of the
    target (48 kHz to 16 kHz, say), every position is an input sample, so the
    output is every k-th sample bit for bit (``decimate_pcm16`` takes them
    before the float conversion).
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return clip
    n_in = len(clip)
    n_out = int(round(n_in * target_rate / clip.sample_rate))
    if n_in == 0 or n_out == 0:
        return AudioClip(np.zeros(n_out), target_rate)
    positions = np.arange(n_out) * (clip.sample_rate / target_rate)
    out = np.interp(positions, np.arange(n_in), clip.samples)
    return AudioClip(out, target_rate)


def decimate_pcm16(pcm: np.ndarray, sample_rate: int, target_rate: int) -> tuple[np.ndarray, int]:
    """int16 samples taken down to ``target_rate`` where that needs no
    interpolation, and their rate.

    When ``sample_rate`` is an integer multiple k > 1 of ``target_rate``,
    every k-th sample and ``target_rate``: ``AudioClip.from_pcm16`` of them is
    ``resample_linear(AudioClip.from_pcm16(pcm, sample_rate), target_rate)``
    bit for bit, with a k-th of the float64 conversion. At any other rate,
    ``pcm`` and ``sample_rate`` unchanged, for ``resample_linear``.
    """
    step, remainder = divmod(sample_rate, target_rate)
    if remainder or step < 2:
        return pcm, sample_rate
    n_out = int(round(len(pcm) * target_rate / sample_rate))  # as resample_linear counts them
    return pcm[: n_out * step : step], target_rate


def segment_samples(length_s: float, sample_rate: int) -> int:
    """round(length_s * sample_rate); ValueError for a length that is not
    finite or rounds below one sample."""
    if not math.isfinite(length_s):
        raise ValueError(f"clip length {length_s} s is not finite")
    n = int(round(length_s * sample_rate))
    if n < 1:
        raise ValueError(f"clip length {length_s} s is under one sample at {sample_rate} Hz")
    return n


def segment_clip(clip: AudioClip, length_s: float) -> list[AudioClip]:
    """Cut into consecutive non-overlapping windows of length_s seconds.

    The final short remainder is zero-padded to full length. An empty clip
    yields a single all-zero segment. Every segment has exactly
    segment_samples(length_s, sample_rate) samples.
    """
    seg_len = segment_samples(length_s, clip.sample_rate)
    n = len(clip)
    n_segments = max(1, -(-n // seg_len))  # ceil division, at least one
    segments = []
    for i in range(n_segments):
        chunk = clip.samples[i * seg_len : (i + 1) * seg_len]
        if len(chunk) < seg_len:
            chunk = np.concatenate([chunk, np.zeros(seg_len - len(chunk))])
        segments.append(AudioClip(chunk, clip.sample_rate))
    return segments
