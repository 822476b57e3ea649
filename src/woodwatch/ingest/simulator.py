"""Software stand-in for the microphone module: streams a WAV (or an
in-memory clip) to the ingestion server as sequenced PCM frames."""

from __future__ import annotations

import socket
import time
from pathlib import Path

import numpy as np

from ..audio import AudioClip, float_to_pcm16, read_wav_pcm16
from ..errors import TransportError
from .protocol import MAX_PAYLOAD_BYTES, DeviceFrame, encode_frame

FRAME_SAMPLES = 2500  # samples per frame a device sends


def simulate_device(host: str, port: int, source: str | Path | AudioClip, device_id: int,
                    frame_samples: int = FRAME_SAMPLES, realtime: bool = False) -> int:
    """Stream the source audio as frames of ``frame_samples`` samples.

    The final frame may be shorter. Realtime mode paces transmission at the
    source sample rate; otherwise frames go out at full speed. Returns the
    number of frames sent; a lost connection raises TransportError carrying
    the partial count.
    """
    if not 1 <= frame_samples <= MAX_PAYLOAD_BYTES // 2:
        raise ValueError(f"frame_samples must be in 1..{MAX_PAYLOAD_BYTES // 2}, got {frame_samples}")
    if isinstance(source, AudioClip):
        pcm, rate = float_to_pcm16(source.samples), source.sample_rate
    else:
        pcm, rate = read_wav_pcm16(source)

    frames_sent = 0
    try:
        with socket.create_connection((host, port)) as conn:
            for seq, start in enumerate(range(0, len(pcm), frame_samples)):
                chunk = np.ascontiguousarray(pcm[start : start + frame_samples])
                frame = DeviceFrame(device_id=device_id, seq=seq, sample_rate=rate,
                                    payload=chunk.astype("<i2").tobytes())
                conn.sendall(encode_frame(frame))
                frames_sent += 1
                if realtime:
                    time.sleep(len(chunk) / rate)
    except OSError as exc:
        raise TransportError(f"connection to {host}:{port} failed: {exc}",
                             frames_sent=frames_sent) from exc
    return frames_sent
