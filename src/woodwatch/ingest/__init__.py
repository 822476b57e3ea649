from .protocol import DeviceFrame, crc32, decode_frame, encode_frame, read_frame
from .server import IngestServer
from .simulator import simulate_device
from .store import DetectionRecord, append_records, load_store, query_store

__all__ = [
    "DetectionRecord",
    "DeviceFrame",
    "IngestServer",
    "append_records",
    "crc32",
    "decode_frame",
    "encode_frame",
    "load_store",
    "query_store",
    "read_frame",
    "simulate_device",
]
