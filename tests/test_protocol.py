import io
import struct

import numpy as np
import pytest

import oracles
from woodwatch.errors import IntegrityError, ProtocolError, TruncationError
from woodwatch.ingest.protocol import (
    HEADER_SIZE,
    MAX_PAYLOAD_BYTES,
    DeviceFrame,
    crc32,
    decode_frame,
    encode_frame,
    read_frame,
)


def random_frame(rng):
    n_samples = int(rng.integers(0, 600))
    return DeviceFrame(
        device_id=int(rng.integers(0, 2**64, dtype=np.uint64)),
        seq=int(rng.integers(0, 2**32)),
        sample_rate=int(rng.integers(1, 2**32)),
        payload=rng.integers(0, 256, size=2 * n_samples, dtype=np.uint8).tobytes(),
    )


# -- crc -----------------------------------------------------------------------

def test_crc_standard_vectors():
    assert crc32(b"") == 0x00000000
    assert crc32(b"123456789") == 0xCBF43926


def test_crc_matches_bitwise_reference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        data = rng.integers(0, 256, size=int(rng.integers(0, 64)), dtype=np.uint8).tobytes()
        assert crc32(data) == oracles.reference_crc32(data)


def test_crc_single_bit_flip_always_detected():
    rng = np.random.default_rng(1)
    for _ in range(100):
        data = bytearray(rng.integers(0, 256, size=32, dtype=np.uint8).tobytes())
        reference = crc32(bytes(data))
        position = int(rng.integers(0, len(data)))
        bit = int(rng.integers(0, 8))
        data[position] ^= 1 << bit
        assert crc32(bytes(data)) != reference


# -- frame codec -----------------------------------------------------------------

def test_zero_payload_roundtrip():
    frame = DeviceFrame(device_id=7, seq=0, sample_rate=16000, payload=b"")
    assert decode_frame(encode_frame(frame)) == frame


def test_encoded_size_arithmetic():
    payload = b"\x01\x02" * 10
    frame = DeviceFrame(device_id=1, seq=2, sample_rate=8000, payload=payload)
    assert len(encode_frame(frame)) == 24 + len(payload) + 4


def test_roundtrip_property_random_frames():
    rng = np.random.default_rng(2)
    for _ in range(200):
        frame = random_frame(rng)
        assert decode_frame(encode_frame(frame)) == frame


def test_bad_magic_rejected():
    blob = bytearray(encode_frame(DeviceFrame(1, 1, 16000, b"\x00\x00")))
    blob[0] ^= 0xFF
    with pytest.raises(ProtocolError):
        decode_frame(bytes(blob))


def test_truncation_rejected():
    blob = encode_frame(DeviceFrame(1, 1, 16000, b"\x00\x00" * 5))
    with pytest.raises(TruncationError):
        decode_frame(blob[:-3])
    with pytest.raises(TruncationError):
        decode_frame(blob[:10])
    with pytest.raises(TruncationError):
        decode_frame(b"")


def test_overrun_rejected():
    blob = encode_frame(DeviceFrame(1, 1, 16000, b"\x00\x00"))
    with pytest.raises(ProtocolError, match="overrun"):
        decode_frame(blob + b"\x00")
    damaged = bytearray(blob + b"\x00")
    damaged[HEADER_SIZE] ^= 0x01  # the crc is checked before the leftover byte is seen
    with pytest.raises(IntegrityError):
        decode_frame(bytes(damaged))


def header_declaring(payload_len: int) -> bytes:
    head = encode_frame(DeviceFrame(1, 1, 16000, b""))[:HEADER_SIZE]
    return head[:20] + struct.pack("<I", payload_len)


def test_oversized_payload_rejected_from_the_header():
    head = header_declaring(2**32 - 2)  # even, so only the size cap can reject it
    with pytest.raises(ProtocolError):
        read_frame(io.BytesIO(head))  # not TruncationError: no payload read is attempted
    with pytest.raises(ProtocolError):
        decode_frame(head)
    with pytest.raises(ProtocolError):
        decode_frame(header_declaring(MAX_PAYLOAD_BYTES + 2))


def test_odd_payload_length_rejected_from_the_header():
    blob = oracles.raw_frame(1, 1, 16000, b"\x00\x00\x00")
    for stream in (blob, blob[:HEADER_SIZE]):  # the same error whether or not the body follows
        with pytest.raises(ProtocolError, match="^odd payload length 3$"):
            read_frame(io.BytesIO(stream))


def test_zero_sample_rate_rejected_behind_a_valid_crc():
    blob = oracles.raw_frame(1, 1, 0, b"\x01\x00")
    for decode in (decode_frame, lambda b: read_frame(io.BytesIO(b))):
        with pytest.raises(ProtocolError, match="^zero sample_rate$"):
            decode(blob)


class TrickleStream(io.BytesIO):
    """A stream that hands out at most 1000 bytes per read, like a socket."""

    def read(self, n=-1):
        return super().read(min(n, 1000) if n >= 0 else 1000)


def test_largest_payload_streams_in_short_reads():
    frame = DeviceFrame(1, 2, 16000, bytes(range(256)) * (MAX_PAYLOAD_BYTES // 256))
    stream = TrickleStream(encode_frame(frame) * 2)
    assert read_frame(stream) == frame
    assert read_frame(stream) == frame
    assert read_frame(stream) is None


def test_crc_mismatch_rejected():
    blob = bytearray(encode_frame(DeviceFrame(1, 1, 16000, b"\xaa\xbb\xcc\xdd")))
    blob[26] ^= 0x01  # flip a payload bit
    with pytest.raises(IntegrityError):
        decode_frame(bytes(blob))


def test_header_corruption_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(50):
        frame = random_frame(rng)
        blob = bytearray(encode_frame(frame))
        position = int(rng.integers(0, 24))
        old = blob[position]
        blob[position] = old ^ (1 << int(rng.integers(0, 8)))
        with pytest.raises((ProtocolError, IntegrityError, TruncationError)):
            decode_frame(bytes(blob))


def test_frame_validation():
    with pytest.raises(ValueError):
        DeviceFrame(device_id=-1, seq=0, sample_rate=16000, payload=b"")
    with pytest.raises(ValueError):
        DeviceFrame(device_id=0, seq=0, sample_rate=0, payload=b"")
    with pytest.raises(ValueError):
        DeviceFrame(device_id=0, seq=0, sample_rate=16000, payload=b"\x01")


def test_frame_payload_over_the_cap_is_refused():
    DeviceFrame(1, 0, 16000, bytes(MAX_PAYLOAD_BYTES))  # the largest frame a reader accepts
    with pytest.raises(ValueError, match="exceeds"):
        DeviceFrame(1, 0, 16000, bytes(MAX_PAYLOAD_BYTES + 2))


def outcome(decode, blob):
    """The frame a decoder returns, or the class of the exception it raises."""
    try:
        return decode(blob)
    except ProtocolError as exc:
        return type(exc)


def test_decode_frame_and_read_frame_agree_on_damaged_frames():
    rng = np.random.default_rng(4)
    via_stream = lambda blob: read_frame(io.BytesIO(blob))  # noqa: E731
    blobs = []
    for _ in range(200):
        blob = encode_frame(random_frame(rng))
        blobs.append(blob)
        for lo, hi in ((0, HEADER_SIZE), (HEADER_SIZE, len(blob))):  # header, then payload + crc
            damaged = bytearray(blob)
            damaged[int(rng.integers(lo, hi))] ^= 1 << int(rng.integers(0, 8))
            blobs.append(bytes(damaged))
        blobs.append(blob[: int(rng.integers(1, len(blob)))])
    outcomes = [outcome(decode_frame, blob) for blob in blobs]
    assert outcomes == [outcome(via_stream, blob) for blob in blobs]
    assert {IntegrityError, TruncationError} <= set(outcomes)
    assert sum(isinstance(o, DeviceFrame) for o in outcomes) == 200  # only the intact blobs
