"""The binary layout shared by model checkpoints and feature dumps.

4-byte magic | u32 little-endian header length | UTF-8 JSON header | flat
little-endian float64 payload, whose size the header determines.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Callable

import numpy as np


def write_container(path: str | Path, magic: bytes, header: dict, payload: np.ndarray) -> None:
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", len(header_bytes)) + header_bytes)
        fh.write(np.ascontiguousarray(payload, dtype="<f8").data)


def read_file(path: str | Path) -> bytearray:
    """A file's bytes, read straight into one writable buffer."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]
    return blob


def read_container(blob: bytearray, path: str | Path, magic: bytes, error: type[Exception],
                   payload_size: Callable[[dict], int]) -> tuple[dict, np.ndarray]:
    """The header and flat payload of a container file's bytes; any fault raises ``error``.

    ``path`` names the file in messages. ``payload_size`` gives the number
    of float64 values the header calls for, or raises ValueError for a
    header it does not accept. The payload is a writable view of ``blob``.
    """
    start = len(magic) + 4
    if len(blob) < start or blob[: len(magic)] != magic:
        raise error(f"{path}: not a {magic.decode()} file")
    (header_len,) = struct.unpack("<I", blob[len(magic) : start])
    if len(blob) < start + header_len:
        raise error(f"{path}: truncated header")
    try:  # ValueError covers bad UTF-8 and bad JSON too
        header = json.loads(blob[start : start + header_len].decode("utf-8"))
        n_values = payload_size(header)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise error(f"{path}: bad header: {exc}") from exc
    start += header_len
    if len(blob) - start != 8 * n_values:
        raise error(f"{path}: payload holds {len(blob) - start} bytes, header needs {8 * n_values}")
    return header, np.frombuffer(blob, dtype="<f8", offset=start)
