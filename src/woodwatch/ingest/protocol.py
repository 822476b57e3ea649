"""Framed-PCM wire protocol for sensor audio.

Frame layout, all little-endian:

    offset  size  field
    0       4     magic "WBF1"
    4       8     device_id (u64)
    12      4     seq (u32, monotonically increasing per device)
    16      4     sample_rate (u32, Hz)
    20      4     payload length in bytes (u32, even)
    24      n     payload: 16-bit signed PCM samples
    24+n    4     CRC-32 over everything before it

The checksum is the ubiquitous reflected CRC-32 (polynomial 0x04C11DB7,
init and final XOR 0xFFFFFFFF), i.e. exactly what zlib computes.

A payload longer than ``MAX_PAYLOAD_BYTES`` is a protocol error, raised
from the header alone, so a hostile length never makes a reader wait for
or buffer gigabytes. ``DeviceFrame`` refuses such a payload too, so a
sender cannot build a frame that every reader rejects.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass

from ..errors import IntegrityError, ProtocolError, TruncationError

FRAME_MAGIC = b"WBF1"
_HEADER = struct.Struct("<4sQIII")
HEADER_SIZE = _HEADER.size  # 24
CRC_SIZE = 4
MAX_PAYLOAD_BYTES = 1 << 20  # 1 MiB: ~33 s of 16 kHz mono PCM in one frame

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1


def crc32(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


@dataclass(frozen=True)
class DeviceFrame:
    device_id: int
    seq: int
    sample_rate: int
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.device_id <= _U64_MAX:
            raise ValueError(f"device_id out of u64 range: {self.device_id}")
        if not 0 <= self.seq <= _U32_MAX:
            raise ValueError(f"seq out of u32 range: {self.seq}")
        if not 0 < self.sample_rate <= _U32_MAX:
            raise ValueError(f"sample_rate out of range: {self.sample_rate}")
        if len(self.payload) % 2 != 0:
            raise ValueError("payload must hold whole 16-bit samples (even byte length)")
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            raise ValueError(f"payload of {len(self.payload)} bytes exceeds {MAX_PAYLOAD_BYTES}")


def encode_frame(frame: DeviceFrame) -> bytes:
    head = _HEADER.pack(FRAME_MAGIC, frame.device_id, frame.seq, frame.sample_rate, len(frame.payload))
    body = head + frame.payload
    return body + struct.pack("<I", crc32(body))


def decode_frame(buf: bytes) -> DeviceFrame:
    """Decode one complete frame; the buffer must contain exactly the frame."""
    stream = io.BytesIO(buf)
    frame = read_frame(stream)
    if frame is None:
        raise TruncationError(f"frame header needs {HEADER_SIZE} bytes, got 0")
    if stream.tell() != len(buf):
        raise ProtocolError(f"frame overrun: {len(buf)} bytes, expected {stream.tell()}")
    return frame


def read_frame(stream) -> DeviceFrame | None:
    """Read one frame from a blocking file-like stream.

    Returns None on a clean end-of-stream (no bytes at a frame boundary).
    Checks, in order: magic, payload length (cap and parity, from the header
    alone), truncation, CRC, zero sample rate. Raises TruncationError if the
    stream ends mid-frame, IntegrityError on a CRC mismatch and ProtocolError
    for the other faults.
    """
    head = _read_exact(stream, HEADER_SIZE, allow_empty=True)
    if head is None:
        return None
    magic, device_id, seq, sample_rate, payload_len = _HEADER.unpack(head)
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload length {payload_len} exceeds {MAX_PAYLOAD_BYTES} bytes")
    if payload_len % 2 != 0:
        raise ProtocolError(f"odd payload length {payload_len}")
    body = memoryview(_read_exact(stream, payload_len + CRC_SIZE))
    payload = body[:payload_len]
    if zlib.crc32(payload, zlib.crc32(head)) != int.from_bytes(body[payload_len:], "little"):
        raise IntegrityError(f"crc mismatch on frame seq={seq} device={device_id}")
    if sample_rate == 0:
        raise ProtocolError("zero sample_rate")
    return DeviceFrame(device_id=device_id, seq=seq, sample_rate=sample_rate, payload=bytes(payload))


def _read_exact(stream, n: int, allow_empty: bool = False) -> bytearray | None:
    buf = bytearray()
    while len(buf) < n:
        piece = stream.read(n - len(buf))
        if not piece:
            if not buf and allow_empty:
                return None
            raise TruncationError(f"stream ended after {len(buf)} of {n} bytes")
        buf += piece
    return buf
