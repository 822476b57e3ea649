"""Append-only JSON-lines store of detection results."""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

from ..audio import ClipLabel

log = logging.getLogger(__name__)

_LABEL_NAMES = frozenset(label.text for label in ClipLabel)


@dataclass(frozen=True)
class DetectionRecord:
    timestamp: str          # ISO-8601, UTC
    device_id: int
    clip_start: int         # first sample index of the clip, from the connection's first frame
    clip_length: int        # samples
    label: str              # a ClipLabel name
    p_infested: float
    checkpoint_id: str

    def __post_init__(self):
        if self.label not in _LABEL_NAMES:
            raise ValueError(f"label must be a ClipLabel name, got {self.label!r}")
        if not 0.0 <= self.p_infested <= 1.0:
            raise ValueError(f"p_infested must be in [0, 1], got {self.p_infested}")
        if self.clip_start < 0 or self.clip_length < 1:
            raise ValueError("clip span must be non-negative start and positive length")

    def to_json_line(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_dict(cls, d: dict) -> "DetectionRecord":
        return cls(
            timestamp=str(d["timestamp"]),
            device_id=int(d["device_id"]),
            clip_start=int(d["clip_start"]),
            clip_length=int(d["clip_length"]),
            label=str(d["label"]),
            p_infested=float(d["p_infested"]),
            checkpoint_id=str(d["checkpoint_id"]),
        )


def append_records(path: str | Path, records: list[DetectionRecord]) -> None:
    """Append records as JSON lines. Callers must serialize writes themselves."""
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_json_line() + "\n")


def _read_store(path: str | Path, keep) -> tuple[list[DetectionRecord], int]:
    """The parseable records for which ``keep(record)`` holds, plus the count of
    corrupt lines skipped. Reads a line at a time, so memory grows with the
    records kept, not with the file."""
    records: list[DetectionRecord] = []
    corrupt = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = DetectionRecord.from_dict(json.loads(line))
            except (KeyError, TypeError, ValueError):
                corrupt += 1
                log.warning("skipping corrupt store line %d in %s", line_no, path)
                continue
            if keep(record):
                records.append(record)
    return records, corrupt


def load_store(path: str | Path) -> tuple[list[DetectionRecord], int]:
    """All parseable records plus the count of corrupt lines skipped."""
    return _read_store(path, lambda record: True)


def query_store(path: str | Path, device_id: int | None = None, label: str | None = None,
                since: str | None = None, until: str | None = None) -> list[DetectionRecord]:
    """Filtered records in timestamp order. Corrupt lines are skipped with a warning."""

    def hit(record: DetectionRecord) -> bool:
        return ((device_id is None or record.device_id == device_id)
                and (label is None or record.label == label)
                and (since is None or record.timestamp >= since)
                and (until is None or record.timestamp <= until))

    out, _ = _read_store(path, hit)
    out.sort(key=lambda r: r.timestamp)
    return out
