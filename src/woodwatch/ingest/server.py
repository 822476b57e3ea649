"""Concurrent TCP ingestion: assemble device streams into clips, classify, persist.

``IngestServer`` owns the whole connection lifecycle. One accept thread
waits on the listening socket, looking at ``stop()`` every _POLL_S, and
starts one thread per device connection; one over MAX_CONNECTIONS is closed
on accept and counted. Validated frames are folded into the device's clip in
sequence order, counted from the seq of the connection's first frame, so a
device may go on numbering across a reconnect; sequence gaps are zero-filled
(sized by the revealing frame) and counted, duplicates are dropped. A gap
whose fill would exceed one clip is a protocol error that ends the
connection, so one frame cannot make the server allocate without bound. So
is a first frame whose sample rate lies outside 8-192 kHz: at an absurd rate
a clip never fills, or one frame makes thousands of clips. Each clip is
CANONICAL_SECONDS of samples, the window ``extract`` cuts for training.
A connection fills one clip at CANONICAL_RATE as frames arrive
(``audio.CanonicalFill``), allocated at its first sample and handed to its
passes uncopied; past arrival the source rate no longer matters. A clip's MFCC
rows come from two passes, each converting only the samples its rows read
(``FeatureConfig.reads``): the head pass computes rows [0, HEAD_ROWS) once
their samples are in and the connection has no received byte waiting, and
once the clip is full the tail pass computes rows [HEAD_ROWS, T). The clip
(``_Clip``) holds its fill, its WAV and its head pass's result from its first
sample to its record. While bytes wait, the rest of the
clip may be in already, and then a head pass could not make the record
earlier; so the head pass waits for the first idle moment after its span, and
a clip that finds none before its last frame takes one pass over the whole
clip at its end. ``features.mfcc_frames`` computes any range of at least 2
rows bit-equal to those rows of the whole clip, so the rows are bit-equal
either way. When the checkpoint's graph holds an LSTM that only nearby rows
feed, the head pass also runs the model over its rows up to the LSTM steps
they settle, and the clip's end resumes the LSTM from there
(``ModelGraph.head_steps``), with the bits of one forward. The full clip's
rows are classified with the loaded checkpoint, and the record is appended
to the JSON-lines store, all by the connection's own thread, the append
under one lock. An archived clip is the PCM as it arrived, written through to
its WAV frame by frame; it never replaces an earlier one of the same name, and
it is removed when its clip gets no record.
Malformed frames, a frame cut by a close, archive and store failures and
broken connections are counted, never fatal, and so are the samples of a
partial clip a connection holds when it ends. A frame must arrive in full
within IDLE_TIMEOUT_S of the moment the connection starts waiting for it, or
the connection is closed, so neither a silent client nor one that drips bytes
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
import wave
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ..allocator import keep_malloc_heap
from ..audio import CANONICAL_RATE, CANONICAL_SECONDS, CanonicalFill, ClipLabel, resample_linear, segment_samples
from ..errors import IntegrityError, ProtocolError, ServerStartupError, TruncationError
from ..features import mfcc_frames
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
# holds up to 7.1 MB of temporaries (a whole clip)
MAX_CLASSIFYING = 2
# MFCC rows of a clip that its head pass computes before the clip's last frame
# arrives: 128 of 157 at the default FeatureConfig
HEAD_ROWS = 128


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


class _ArchiveWav:
    """A clip's archive WAV, written as the clip's source samples arrive. Its
    header counts the whole clip from the start, so once every sample is in
    the file holds the bytes ``write_wav_pcm16`` writes for the clip. An
    OSError removes the file and is kept in ``error``: the clip is then
    unarchived, and gets no record."""

    def __init__(self, directory: Path, stem: str, rate: int, n_samples: int):
        self.path: Path | None = None
        self.error: OSError | None = None
        self._wav: wave.Wave_write | None = None
        try:
            self.path = _claim_wav_path(directory, stem)
            self._wav = wave.open(str(self.path), "wb")
            self._wav.setparams((1, 2, rate, n_samples, "NONE", "not compressed"))
        except OSError as exc:
            self.discard(exc)

    def write(self, pcm: np.ndarray) -> None:
        self._attempt("writeframesraw", pcm)

    def finish(self) -> None:
        """Close the WAV of a complete clip."""
        self._attempt("close")

    def _attempt(self, method: str, *args) -> None:
        if self.error is None:
            try:
                getattr(self._wav, method)(*args)
            except OSError as exc:
                self.discard(exc)

    def discard(self, error: OSError | None = None) -> None:
        """Close and remove the WAV, keeping ``error`` if it is the first."""
        self.error = self.error or error
        if self._wav is not None:
            with contextlib.suppress(OSError):
                self._wav.close()
        if self.path is not None:
            with contextlib.suppress(OSError):
                self.path.unlink()
        self._wav = self.path = None


class _Clip:
    """A clip from its first sample to its record: its fill at CANONICAL_RATE, its
    archive WAV, if any, and its head pass's rows and model state once that pass has run."""

    def __init__(self, fill: CanonicalFill, wav: _ArchiveWav | None):
        self.fill = fill
        self.wav = wav
        self.head_ran = False
        self.head: tuple[np.ndarray, HeadState | None] | None = None  # None after a failed head pass too


class _DeviceSession:
    """Reassembly state for one device connection and the clip it fills as frames arrive."""

    def __init__(self, archive_dir: Path | None = None):
        self.archive_dir = archive_dir
        self.device_id: int | None = None
        self.sample_rate: int | None = None
        self.clip_samples = 0  # CANONICAL_SECONDS of samples, at the first frame's rate
        self.next_seq = 0
        self.stream_position = 0  # sample index of the next clip start, from the first frame
        self.clips_cut = 0  # the index of the clip being filled
        self.clip: _Clip | None = None  # the clip being filled, from its first sample

    def accept(self, frame: protocol.DeviceFrame, stats: "_Stats") -> list[_Clip]:
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
            self.clip_samples = segment_samples(CANONICAL_SECONDS, frame.sample_rate)
            self.next_seq = frame.seq  # a device may resume its numbering on a new connection
        if frame.device_id != self.device_id or frame.sample_rate != self.sample_rate:
            stats.bump("protocol_errors")
            return []
        if frame.seq < self.next_seq:
            stats.bump("duplicate_frames")
            return []
        clips: list[_Clip] = []
        if frame.seq > self.next_seq:
            gap = (frame.seq - self.next_seq) * (len(frame.payload) // 2)
            if gap > self.clip_samples:
                raise ProtocolError(f"sequence gap of {gap} samples exceeds one clip")
            self._fold(np.zeros(gap, dtype="<i2"), clips)
            stats.bump("sequence_gaps")
        self._fold(np.frombuffer(frame.payload, dtype="<i2"), clips)
        self.next_seq = frame.seq + 1
        return clips

    def _fold(self, pcm: np.ndarray, clips: list[_Clip]) -> None:
        """Take source samples that follow those in into the clip being filled,
        and each clip they complete into ``clips``."""
        while len(pcm):
            clip = self.clip
            if clip is None:
                wav = None if self.archive_dir is None else _ArchiveWav(
                    self.archive_dir, f"device{self.device_id}_clip{self.clips_cut:04d}",
                    self.sample_rate, self.clip_samples)
                clip = self.clip = _Clip(CanonicalFill(self.sample_rate, self.clip_samples), wav)
            room = self.clip_samples - clip.fill.received
            piece, pcm = pcm[:room], pcm[room:]
            clip.fill.add(piece)
            if clip.wav is not None:
                clip.wav.write(piece)
            if clip.fill.received == self.clip_samples:
                clips.append(clip)
                if clip.wav is not None:
                    clip.wav.finish()
                self.clip = None
                self.clips_cut += 1

    def close(self) -> int:
        """End the session: remove the WAV of the clip being filled, and return
        the source samples of that clip, which no record will score."""
        clip = self.clip
        if clip is not None and clip.wav is not None:
            clip.wav.discard()
        return clip.fill.received if clip is not None else 0


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
        clip = segment_samples(CANONICAL_SECONDS, CANONICAL_RATE)
        rows, span = self._feature_config.rows(clip), self._feature_config.reads(slice(HEAD_ROWS), clip).stop
        # the LSTM steps a head pass settles (31 of 39 for cnn_lstm at the defaults), or None
        self._head_steps = self._graph.head_steps(HEAD_ROWS, rows)
        # the samples a clip's head pass waits for (66,048 at the defaults), or None when each
        # clip takes one pass: when a pass would compute under 2 rows (a one-row piece's
        # bits may differ from the whole clip's), or when the span reaches the clip's end
        self._head_samples = span if 2 <= HEAD_ROWS <= rows - 2 and span < clip else None

        try:
            with open(self.store_path, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            raise ServerStartupError(f"store not writable: {exc}") from exc
        if self.archive_dir:
            try:
                self.archive_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # a file at that path, say
                raise ServerStartupError(f"archive directory not usable: {exc}") from exc

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
        session = _DeviceSession(self.archive_dir)
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
                except Exception:  # a fault of the server's own, a MemoryError say: it ends this connection alone
                    self.stats.bump("connection_errors")
                    log.exception("connection of device %s failed", session.device_id)
                    break
                for clip in clips:
                    self.process_clip(session, clip)
                filling = session.clip
                if (self._head_samples is not None and filling is not None and not filling.head_ran
                        and filling.fill.filled >= self._head_samples and stream.idle()):
                    self.run_head_pass(session)
        finally:
            self.stats.bump("dropped_samples", session.close())
            conn.close()
            with self._open_changed:
                self._open.discard(conn)
                self._open_changed.notify_all()

    # -- classification path -------------------------------------------------

    def featurize_pcm(self, fill: CanonicalFill, rows: slice = slice(None)) -> np.ndarray:
        """MFCC rows ``rows`` of the [T, n_mfcc] of a clip's fill, reading only the samples they read."""
        audio = fill.clip(self._feature_config.reads(rows, len(fill)))
        # at the canonical rate resample_linear returns the clip as it is; the call stays
        # while perfbench's traced ingest runs time it as audio.resample_linear
        return mfcc_frames(resample_linear(audio, CANONICAL_RATE), self._feature_config, rows).values

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
        """Label and P(infested) for one clip of int16 samples at any rate, from one pass over
        the whole clip resampled at once: the reference that streamed clips equal bit for bit."""
        fill = CanonicalFill(sample_rate, len(pcm))
        fill.add(pcm)
        return self.score_rows(self.featurize_pcm(fill))

    def run_head_pass(self, session: _DeviceSession) -> None:
        """Compute the head rows of the clip the session is filling, whose head span has arrived,
        and the model's state over them.

        A failure is logged and leaves neither, so the clip takes one pass at its end.
        """
        clip = session.clip
        clip.head_ran = True
        try:
            with self._classifying:
                rows = self.featurize_pcm(clip.fill, slice(HEAD_ROWS))
                state = self.score_head(rows)
        except Exception:
            log.exception("head pass failed for device %s; its clip takes one pass at its end",
                          session.device_id)
            return
        clip.head = rows, state

    def process_clip(self, session: _DeviceSession, clip: _Clip) -> None:
        start = session.stream_position
        session.stream_position += session.clip_samples
        index = start // session.clip_samples
        head_rows, head_state = clip.head or (None, None)
        try:  # a non-finite P(infested) fails in DetectionRecord: counted here too
            with self._classifying:
                if head_rows is None:
                    rows = self.featurize_pcm(clip.fill)
                else:
                    rows = np.concatenate([head_rows, self.featurize_pcm(clip.fill, slice(HEAD_ROWS, None))])
                label, p_infested = self.score_rows(rows, head_state)
            if head_state is not None:
                self.stats.bump("head_scored_clips")
            record = DetectionRecord(
                timestamp=datetime.now(timezone.utc).isoformat(),
                device_id=session.device_id,
                clip_start=start,
                clip_length=session.clip_samples,
                label=label,
                p_infested=p_infested,
                checkpoint_id=self._checkpoint_id,
            )
        except Exception:
            self.stats.bump("classify_errors")
            log.exception("classification failed for device %s clip %d", session.device_id, index)
            if clip.wav is not None:
                clip.wav.discard()
            return
        try:
            if clip.wav is not None and clip.wav.error is not None:
                raise clip.wav.error
            with self._store_lock:
                append_records(self.store_path, [record])
        except OSError:
            self.stats.bump("store_errors")
            log.exception("storing failed for device %s clip %d", session.device_id, index)
            if clip.wav is not None:
                clip.wav.discard()
            return
        self.stats.bump("records_written")
