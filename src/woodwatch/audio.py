"""Mono PCM audio: WAV file I/O, linear resampling, fixed-length segmentation.

Every downstream stage consumes :class:`AudioClip` values. Clips are
immutable, hold float64 amplitudes in [-1, 1], and carry their sample rate.
:class:`CanonicalFill` takes int16 PCM at any rate to CANONICAL_RATE.
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
    def from_pcm16(cls, pcm: np.ndarray, sample_rate: int, part: slice = slice(None)) -> "AudioClip":
        """int16 samples as a clip: ``AudioClip(pcm16_to_float(pcm), rate)``
        bit for bit, in one array, since int16 * 2**-15 lies in [-1, 1) and
        needs no clamp. Given ``part``, only those samples are converted and
        the others are left unset, for a reader of that part alone (the
        samples that ``FeatureConfig.reads`` names for a row range)."""
        clip = object.__new__(cls)
        object.__setattr__(clip, "sample_rate", sample_rate)
        samples = np.empty(len(pcm))
        np.multiply(pcm[part], 1.0 / _PCM_FULL_SCALE, out=samples[part])
        clip._adopt(samples)
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
    output is every k-th sample bit for bit.
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


class CanonicalFill:
    """One clip at CANONICAL_RATE filled from ``n`` int16 samples at ``rate``,
    piece by piece: bit for bit ``resample_linear(AudioClip.from_pcm16(pcm,
    rate), CANONICAL_RATE)`` of all ``n`` at once, however they are cut. At
    k × CANONICAL_RATE every position is a source sample, so the clip keeps
    every k-th one as int16; at any other rate each piece is interpolated into
    float64 from it and the previous piece's last sample. ``received`` counts
    the source samples in, and after each ``add`` the clip's first ``filled``
    samples are final."""

    def __init__(self, rate: int, n: int):
        self.received = self.filled = 0
        self._n, self._ratio = n, rate / CANONICAL_RATE
        step, remainder = divmod(rate, CANONICAL_RATE)
        self._step = 0 if remainder else step  # k, or 0: the clip interpolates
        size = int(round(n * CANONICAL_RATE / rate))  # as resample_linear counts them
        # a float64 clip starts at zero: one read before it is full clamps its unfilled samples too
        self._samples = np.empty(size, "<i2") if self._step else np.zeros(size)
        self._last = 0  # the last source sample in

    def __len__(self) -> int:
        return len(self._samples)

    def add(self, piece: np.ndarray) -> None:
        """Take ``piece``, the next int16 source samples: at most n − ``received`` of them."""
        a, b = self.received, self.received + len(piece)
        if self._step:
            k = self._step
            first, end = -(-a // k), min(-(-b // k), len(self._samples))
            # a memoryview copy keeps the GIL, where a numpy one hands it to a thread in
            # its MFCC pass and then waits to get it back: about 13% fewer ingest_burst clips/s
            memoryview(self._samples)[first:end] = memoryview(piece)[first * k - a :: k][: max(end - first, 0)]
        else:
            # np.interp at the clip's positions j × rate / CANONICAL_RATE from this piece and
            # the sample before it (a knot at -1 that no position reads, for the first piece):
            # a position reads the two knots around it alone, so each value is that of one
            # call over the whole clip. A position past this piece waits for the next one,
            # unless the clip ends here: then it holds the last sample.
            ends = b == self._n
            end = len(self._samples) if ends else min(int((b - 1) / self._ratio) + 2, len(self._samples))
            positions = np.arange(self.filled, end) * self._ratio
            if not ends:
                positions = positions[: np.searchsorted(positions, b - 1, side="right")]
            knots = np.concatenate(([self._last], piece))
            end = self.filled + len(positions)
            self._samples[self.filled : end] = np.interp(positions, np.arange(a - 1, b), pcm16_to_float(knots))
            self._last = int(knots[-1])
        self.received, self.filled = b, end

    def clip(self, part: slice = slice(None)) -> AudioClip:
        """The clip as it stands. Of an int16 clip only the samples in ``part``
        are converted (see ``AudioClip.from_pcm16``)."""
        if self._step:
            return AudioClip.from_pcm16(self._samples, CANONICAL_RATE, part)
        return AudioClip(self._samples, CANONICAL_RATE)


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
