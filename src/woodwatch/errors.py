"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: data-shaped problems (``DataError``:
bad files, bad datasets, bad checkpoints, protocol violations) exit 2,
runtime failures (diverged training, unusable ports) exit 3.
"""


class WoodwatchError(Exception):
    """Base class for all package-specific errors."""


class DataError(WoodwatchError):
    """Base class for errors in the data the package was given."""


class WavFormatError(DataError):
    """The file is not a well-formed RIFF/WAVE container."""


class UnsupportedWavError(DataError):
    """Well-formed WAV, but not 16-bit integer PCM."""


class InvalidDatasetError(DataError):
    """A dataset violates split/fold preconditions (e.g. empty class)."""


class CheckpointError(DataError):
    """Unreadable checkpoint or architecture mismatch on load."""


class TrainingDivergedError(WoodwatchError):
    """Non-finite loss or gradient encountered during training."""


class ProtocolError(DataError):
    """Malformed device frame (bad magic, bad layout)."""


class TruncationError(ProtocolError):
    """Frame bytes end before the declared length."""


class IntegrityError(ProtocolError):
    """Frame checksum does not validate."""


class TransportError(WoodwatchError):
    """Device simulator lost its connection; carries the partial count."""

    def __init__(self, message: str, frames_sent: int = 0):
        super().__init__(message)
        self.frames_sent = frames_sent


class ServerStartupError(WoodwatchError):
    """Ingestion server could not bind its port or open its store."""
