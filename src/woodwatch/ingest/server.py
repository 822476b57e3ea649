"""Concurrent TCP ingestion: assemble device streams into clips, classify, persist.

``IngestServer`` owns the whole connection lifecycle. One accept thread
waits on the listening socket, looking at ``stop()`` every _POLL_S, and
starts one thread per device connection; one over MAX_CONNECTIONS is closed
on accept and counted. Validated frames are appended to the device's sample
buffer in sequence order, counted from the seq of the connection's first
frame, so a device may go on numbering across a reconnect; sequence gaps
are zero-filled (sized by the revealing frame) and counted, duplicates are
dropped. A gap whose fill would exceed one clip is a protocol error that
ends the connection, so one frame cannot make the server allocate without
bound. So is a first frame
whose sample rate lies outside 8-192 kHz: at an absurd rate a clip never
fills, or one frame makes thousands of clips. Each clip is
CANONICAL_SECONDS of samples, the window ``extract`` cuts for training.
A clip's MFCC rows come from two passes when the stream's rate is a
multiple of CANONICAL_RATE: the head pass computes rows [0, HEAD_ROWS) from
their span (``FeatureConfig.span``) once it has arrived and the connection has
no received byte waiting, and once the clip is full the tail pass computes
rows [HEAD_ROWS, T) from the whole clip. While bytes wait, the rest of the
clip may be in already, and then a head pass could not make the record
earlier; so the head pass waits for the first idle moment after its span, and
a clip that finds none before its last frame takes one pass over the whole
clip at its end, as every other rate does. ``features.mfcc_frames`` computes
any range of at least 2 rows bit-equal to those rows of the whole clip, so
the rows are bit-equal either way. Each pass takes its PCM to the canonical
rate: every k-th int16 sample at k times that rate, interpolation at any
other. When the checkpoint's graph holds an LSTM that
only nearby rows feed, the head pass also runs the model over its rows up to
the LSTM steps they settle, and the clip's end resumes the LSTM from there
(``ModelGraph.head_steps``), with the bits of one forward. The full clip's
rows are classified with the loaded checkpoint, and the record is appended
to the JSON-lines store, all by the connection's own thread, the append
under one lock. An
archived clip is the PCM as it arrived and never replaces an earlier one of
the same name.
Malformed frames, a frame cut by a close, store failures and broken
connections are counted, never fatal, and so are the samples of a partial
clip a connection holds when it ends. A frame must arrive in full within
IDLE_TIMEOUT_S of the moment the connection starts waiting for it, or the
connection is closed, so neither a silent client nor one that drips bytes
can hold a thread. At most MAX_CLASSIFYING passes run at once, a head pass
or a clip's last pass with its classification; the other connections wait.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import logging
import select
import socket
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ..allocator import keep_malloc_heap
from ..audio import (CANONICAL_RATE, CANONICAL_SECONDS, AudioClip, ClipLabel, decimate_pcm16,
                     resample_linear, segment_samples, write_wav_pcm16)
from ..errors import IntegrityError, ProtocolError, ServerStartupError, TruncationError
from ..features import FeatureConfig, mfcc_frames
from ..models import load_model, predict, to_model_input
from ..nn import HeadState
from . import protocol
from .store import DetectionRecord, append_records

log = logging.getLogger(__name__)

_DRAIN_S = 3.0  # how long stop() lets open connections end on their own
_POLL_S = 0.5  # how long the accept loop waits for a connection before it checks for stop()
MIN_SAMPLE_RATE = 8_000  # Hz, the range a device stream may declare
MAX_SAMPLE_RATE = 192_000
DEFAULT_HOST = "127.0.0.1"
IDLE_TIMEOUT_S = 30.0  # the time a whole frame may take, counted from when the connection waits for it
MAX_CONNECTIONS = 256  # served at once: a device sends a clip every 5 s, one core classifies hundreds
# MFCC passes at once (a head pass, or a clip's last pass and its classification):
# the GIL serialises their Python parts, so more gain no throughput, and each
# holds up to 7.1 MB of temporaries (a whole clip, at any rate)
MAX_CLASSIFYING = 2
# MFCC rows of a clip that its head pass computes before the clip's last frame
# arrives: 128 of 157 at the default FeatureConfig
HEAD_ROWS = 128


def _head_span(cfg: FeatureConfig, sample_rate: int) -> int | None:
    """The PCM bytes at ``sample_rate`` that a clip's rows [0, HEAD_ROWS) read, or
    None when each clip takes one pass at its end: at a rate that is not a
    multiple of CANONICAL_RATE (interpolation mixes samples across any cut), when
    the span is a whole clip, or when a pass would compute under 2 rows (a
    one-row piece's bits may differ from the whole clip's)."""
    step, remainder = divmod(sample_rate, CANONICAL_RATE)
    n = segment_samples(CANONICAL_SECONDS, CANONICAL_RATE)
    if remainder or not 2 <= HEAD_ROWS <= cfg.rows(n) - 2 or cfg.span(HEAD_ROWS) >= n:
        return None
    return 2 * step * cfg.span(HEAD_ROWS)


def _readable(sock: socket.socket, timeout: float) -> bool:
    """Whether ``sock`` has a byte, a connection, its end or an error waiting,
    within ``timeout`` s. ``poll``, unlike ``select``, takes a descriptor
    past 1023."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(timeout * 1000))


def _claim_wav_path(directory: Path, stem: str) -> Path:
    """Create and return ``{stem}.wav``, or the first free ``{stem}-{n}.wav``
    (n = 1, 2, ...) when that name is taken: a device that reconnects, and a
    restarted server, number clips from 0 again, and two connections may
    share a device id. Exclusive create makes the claim atomic."""
    for n in itertools.count():
        path = directory / (f"{stem}-{n}.wav" if n else f"{stem}.wav")
        try:
            open(path, "xb").close()
        except FileExistsError:
            continue
        return path


class _DeviceSession:
    """Reassembly state for one device connection, and the head rows of the clip it fills."""

    def __init__(self, feature_config: FeatureConfig = FeatureConfig()):
        self.feature_config = feature_config
        self.device_id: int | None = None
        self.sample_rate: int | None = None
        self.clip_bytes = 0  # CANONICAL_SECONDS of samples, at the first frame's rate
        self.next_seq = 0
        self.pending = bytearray()  # PCM bytes not yet cut into a clip
        self.stream_position = 0  # sample index of the next clip start, from the first frame
        self.head_span: int | None = None  # PCM bytes of a clip's head span; None: each clip takes one pass
        self.head_due: int | None = None  # head_span while the clip being filled awaits its head pass
        self.head: tuple[np.ndarray, HeadState | None] | None = None  # the head pass's rows and model state

    def take_head_span(self) -> np.ndarray:
        """The head span of the clip being filled, whose head pass is then no longer due."""
        self.head_due = None
        return np.frombuffer(self.pending[: self.head_span], dtype="<i2")

    def take_head(self) -> tuple[np.ndarray, HeadState | None] | None:
        """The head rows and model state of the clip just cut, or None if its head pass
        did not run; the next clip's head pass is then due."""
        head, self.head = self.head, None
        self.head_due = self.head_span
        return head

    def accept(self, frame: protocol.DeviceFrame, stats: "_Stats") -> list[np.ndarray]:
        """Fold one validated frame in; returns any completed clips.

        Raises ProtocolError, before allocating, for a first frame whose rate
        is outside MIN_SAMPLE_RATE..MAX_SAMPLE_RATE or a gap longer than a clip.
        """
        if self.device_id is None:
            if not MIN_SAMPLE_RATE <= frame.sample_rate <= MAX_SAMPLE_RATE:
                raise ProtocolError(f"sample rate {frame.sample_rate} Hz outside "
                                    f"{MIN_SAMPLE_RATE}-{MAX_SAMPLE_RATE} Hz")
            self.device_id = frame.device_id
            self.sample_rate = frame.sample_rate
            self.clip_bytes = 2 * segment_samples(CANONICAL_SECONDS, frame.sample_rate)
            self.next_seq = frame.seq  # a device may resume its numbering on a new connection
            self.head_span = self.head_due = _head_span(self.feature_config, frame.sample_rate)
        if frame.device_id != self.device_id or frame.sample_rate != self.sample_rate:
            stats.bump("protocol_errors")
            return []
        if frame.seq < self.next_seq:
            stats.bump("duplicate_frames")
            return []
        if frame.seq > self.next_seq:
            fill = (frame.seq - self.next_seq) * len(frame.payload)
            if fill > self.clip_bytes:
                raise ProtocolError(f"sequence gap of {fill // 2} samples exceeds one clip")
            self.pending += bytes(fill)
            stats.bump("sequence_gaps")
        self.pending += frame.payload
        self.next_seq = frame.seq + 1

        clips = []
        while len(self.pending) >= self.clip_bytes:
            clips.append(np.frombuffer(self.pending[: self.clip_bytes], dtype="<i2"))
            del self.pending[: self.clip_bytes]
        return clips


class _Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {
            "frames_ok": 0,
            "integrity_errors": 0,
            "protocol_errors": 0,
            "truncated_frames": 0,
            "duplicate_frames": 0,
            "sequence_gaps": 0,
            "records_written": 0,
            "head_scored_clips": 0,  # scored from the model state of a head pass
            "classify_errors": 0,
            "store_errors": 0,
            "dropped_samples": 0,
            "connection_errors": 0,
            "rejected_connections": 0,
        }

    def bump(self, key: str, by: int = 1) -> None:
        with self._lock:
            self._counts[key] += by

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


class _FrameDeadlineReader:
    """A connection's bytes as a stream whose reads all end by one deadline.

    ``read`` returns received bytes not yet read when there are any. Else it
    receives once, with the socket timeout set to the time left, and raises
    TimeoutError once none is left.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._pending = memoryview(b"")  # received, not yet read
        self.deadline = 0.0  # time.monotonic() by which the current frame must be in

    def read(self, n: int) -> memoryview:
        if not self._pending:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("frame not complete before its deadline")
            self._sock.settimeout(left)
            self._pending = memoryview(self._sock.recv(io.DEFAULT_BUFFER_SIZE))
        piece, self._pending = self._pending[:n], self._pending[n:]
        return piece

    def idle(self) -> bool:
        """Whether no received byte waits to be read: none left in this
        reader and none, nor the stream's end, in the socket."""
        return not self._pending and not _readable(self._sock, 0)


class IngestServer:
    """Owns the socket, the classifier and the store."""

    clip_seconds = CANONICAL_SECONDS  # the window each clip covers, as ``extract`` cuts it

    def __init__(self, port: int, checkpoint_path: str | Path, store_path: str | Path,
                 archive_dir: str | Path | None = None, host: str = DEFAULT_HOST):
        self.store_path = Path(store_path)
        self.archive_dir = Path(archive_dir) if archive_dir else None
        self.stats = _Stats()

        keep_malloc_heap()
        (self._graph, self._kind, self._feature_config, self._stats_norm,
         self._checkpoint_id) = load_model(checkpoint_path)
        # the LSTM steps a head pass settles (31 of 39 for cnn_lstm at the defaults), or None
        self._head_steps = self._graph.head_steps(
            HEAD_ROWS, self._feature_config.rows(segment_samples(CANONICAL_SECONDS, CANONICAL_RATE)))

        try:
            with open(self.store_path, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise ServerStartupError(f"store not writable: {exc}") from exc
        if self.archive_dir:
            self.archive_dir.mkdir(parents=True, exist_ok=True)

        try:
            self._sock = socket.create_server((host, port))
        except OSError as exc:
            raise ServerStartupError(f"cannot bind {host}:{port}: {exc}") from exc
        self.port: int = self._sock.getsockname()[1]
        self._stopping = threading.Event()
        self._open: set[socket.socket] = set()
        self._open_changed = threading.Condition()
        self._store_lock = threading.Lock()
        self._classifying = threading.BoundedSemaphore(MAX_CLASSIFYING)
        self._accept_thread: threading.Thread | None = None

    def start(self) -> None:
        self._accept_thread = threading.Thread(target=self._accept_until_stopped,
                                               name="ingest-accept", daemon=True)
        self._accept_thread.start()

    def run(self) -> None:
        """Serve until interrupted (Ctrl-C), then stop."""
        try:
            self.start()
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop accepting, end every connection, close the socket.

        Each connection stores its own clips, so once every connection has
        ended every complete clip is on disk. Connections still open after
        ``_DRAIN_S`` (idle or endless clients) are shut down; their partial
        clips are dropped and counted in ``dropped_samples``.
        """
        self._stopping.set()
        if self._accept_thread:
            self._accept_thread.join()
        self._accept_waiting(0)  # connected, not yet accepted
        with self._open_changed:
            if not self._open_changed.wait_for(lambda: not self._open, timeout=_DRAIN_S):
                for conn in self._open:
                    with contextlib.suppress(OSError):  # the client may have reset it
                        conn.shutdown(socket.SHUT_RDWR)
                self._open_changed.wait_for(lambda: not self._open, timeout=_DRAIN_S)
        self._sock.close()

    def _accept_until_stopped(self) -> None:
        while not self._stopping.is_set():
            self._accept_waiting(_POLL_S)

    def _accept_waiting(self, timeout: float) -> None:
        """Accept every connection waiting, or arriving within ``timeout`` s: serve each
        on a thread of its own, or close and count it when MAX_CONNECTIONS are open."""
        while _readable(self._sock, timeout):
            timeout = 0
            try:
                conn, _ = self._sock.accept()
            except OSError:  # e.g. ECONNABORTED, the client gone before it was accepted
                self.stats.bump("connection_errors")
                return  # not continue: an accept that keeps failing (EMFILE) must not hide stop()
            with self._open_changed:
                admitted = len(self._open) < MAX_CONNECTIONS
                if admitted:
                    self._open.add(conn)
            if not admitted:
                self.stats.bump("rejected_connections")
                conn.close()
                continue
            threading.Thread(target=self._serve, args=(conn,), name="ingest-connection",
                             daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        """Read one device's frames, classifying and storing each clip, until the stream ends."""
        session = _DeviceSession(self._feature_config)
        stream = _FrameDeadlineReader(conn)
        try:
            while True:
                stream.deadline = time.monotonic() + IDLE_TIMEOUT_S
                try:
                    frame = protocol.read_frame(stream)
                    if frame is None:
                        break
                    self.stats.bump("frames_ok")
                    clips = session.accept(frame, self.stats)
                except IntegrityError:
                    self.stats.bump("integrity_errors")
                    continue
                except TruncationError:
                    self.stats.bump("truncated_frames")
                    break
                except ProtocolError:
                    self.stats.bump("protocol_errors")
                    break  # cannot resync after a framing violation, a bad rate or an oversized gap
                except OSError:  # TimeoutError at the frame's deadline, or a reset
                    self.stats.bump("connection_errors")
                    break
                for clip_pcm in clips:
                    self.process_clip(session, clip_pcm)
                if (session.head_due is not None and len(session.pending) >= session.head_due
                        and stream.idle()):
                    self.run_head_pass(session)
        finally:
            self.stats.bump("dropped_samples", len(session.pending) // 2)
            conn.close()
            with self._open_changed:
                self._open.discard(conn)
                self._open_changed.notify_all()

    # -- classification path -------------------------------------------------

    def featurize_pcm(self, pcm: np.ndarray, sample_rate: int, rows: slice = slice(None)) -> np.ndarray:
        """MFCC rows ``rows`` of the [T, n_mfcc] of int16 samples resampled to the canonical rate."""
        pcm, sample_rate = decimate_pcm16(pcm, sample_rate, CANONICAL_RATE)
        clip = resample_linear(AudioClip.from_pcm16(pcm, sample_rate), CANONICAL_RATE)
        return mfcc_frames(clip, self._feature_config, rows).values

    def score_rows(self, rows: np.ndarray, head: HeadState | None = None) -> tuple[str, float]:
        """Label and P(infested) for one clip's MFCC rows, its model resumed from ``head`` if given."""
        x = to_model_input(self._kind, rows[None], self._stats_norm)
        probs, labels = predict(self._graph, x, head)
        return ClipLabel(labels[0]).text, float(probs[0, 1])

    def score_head(self, head_rows: np.ndarray) -> HeadState | None:
        """The model's state over a clip's head rows, or None when its graph scores a clip in one pass."""
        if self._head_steps is None:
            return None
        return self._graph.run_head(to_model_input(self._kind, head_rows[None], self._stats_norm),
                                    self._head_steps)

    def classify_pcm(self, pcm: np.ndarray, sample_rate: int) -> tuple[str, float]:
        """Label and P(infested) for one clip of int16 samples, from one pass over the whole clip."""
        return self.score_rows(self.featurize_pcm(pcm, sample_rate))

    def run_head_pass(self, session: _DeviceSession) -> None:
        """Compute the head rows of the clip the session is filling, whose head span has arrived,
        and the model's state over them.

        A failure is logged and leaves neither, so the clip takes one pass at its end.
        """
        span = session.take_head_span()
        try:
            with self._classifying:
                rows = self.featurize_pcm(span, session.sample_rate, slice(HEAD_ROWS))
                state = self.score_head(rows)
        except Exception:
            log.exception("head pass failed for device %s; its clip takes one pass at its end",
                          session.device_id)
            return
        session.head = rows, state

    def process_clip(self, session: _DeviceSession, clip_pcm: np.ndarray) -> None:
        start = session.stream_position
        session.stream_position += len(clip_pcm)
        index = start // len(clip_pcm)
        head_rows, head_state = session.take_head() or (None, None)
        try:  # a non-finite P(infested) fails in DetectionRecord: counted here too
            with self._classifying:
                if head_rows is None:
                    rows = self.featurize_pcm(clip_pcm, session.sample_rate)
                else:
                    rows = np.concatenate([head_rows, self.featurize_pcm(clip_pcm, session.sample_rate,
                                                                         slice(HEAD_ROWS, None))])
                label, p_infested = self.score_rows(rows, head_state)
            if head_state is not None:
                self.stats.bump("head_scored_clips")
            record = DetectionRecord(
                timestamp=datetime.now(timezone.utc).isoformat(),
                device_id=session.device_id,
                clip_start=start,
                clip_length=len(clip_pcm),
                label=label,
                p_infested=p_infested,
                checkpoint_id=self._checkpoint_id,
            )
        except Exception:
            self.stats.bump("classify_errors")
            log.exception("classification failed for device %s clip %d", session.device_id, index)
            return
        try:
            if self.archive_dir:
                write_wav_pcm16(_claim_wav_path(self.archive_dir, f"device{session.device_id}_clip{index:04d}"),
                                clip_pcm, session.sample_rate)
            with self._store_lock:
                append_records(self.store_path, [record])
        except OSError:
            self.stats.bump("store_errors")
            log.exception("storing failed for device %s clip %d", session.device_id, index)
            return
        self.stats.bump("records_written")
