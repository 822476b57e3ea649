"""The ingest server under test, as a process of its own.

    python3 perfbench/ingest_server.py CHECKPOINT STORE

Starts an ``IngestServer`` on a free localhost port, warms it, and prints
one JSON line ``{"port": ..., ...}`` once ready. It then takes JSON
commands on stdin, one per line, and answers each with one JSON line:

- ``{"cmd": "wait", "records": n}``: block until n records were appended.
- ``{"cmd": "trace", "on": true|false}``: install or remove span wrappers.
- ``{"cmd": "stop"}``: stop the server and report completions, counters,
  CPU time, peak RSS and spans; then exit.

Every record append is timestamped here (CLOCK_MONOTONIC, shared with the
load generator) by wrapping the server module's ``append_records``.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import common  # pins OPENBLAS_NUM_THREADS before numpy loads

import numpy as np

from tracing import Tracer
from woodwatch.ingest import server as server_module

#: How long a "wait" may block before it answers with what has arrived.
WAIT_TIMEOUT_S = 60.0


class CompletionProbe:
    """Records (device, clip start, wall time, process CPU time) after each append."""

    def __init__(self):
        self.done: list[tuple[int, int, float, float]] = []
        self.cond = threading.Condition()

    def install(self) -> None:
        original = server_module.append_records

        def probed(path, records):
            original(path, records)
            now, cpu = time.perf_counter(), time.process_time()
            with self.cond:
                self.done.extend((r.device_id, r.clip_start, now, cpu) for r in records)
                self.cond.notify_all()

        server_module.append_records = probed

    def wait(self, n: int, timeout: float) -> int:
        with self.cond:
            self.cond.wait_for(lambda: len(self.done) >= n, timeout)
            return len(self.done)


def main(checkpoint: str, store: str) -> int:
    probe = CompletionProbe()
    probe.install()
    srv = server_module.IngestServer(0, checkpoint, store)
    # fill the feature caches and run the first inference at both device rates
    for rate in (16_000, 48_000):
        srv.classify_pcm(np.zeros(int(srv.clip_seconds * rate), dtype="<i2"), rate)
    srv.start()
    cpu_ready = time.process_time()
    tracer = Tracer()
    reply({"port": srv.port, "blas_threads": common.environment()["OPENBLAS_NUM_THREADS"]})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "wait":
            reply({"records": probe.wait(cmd["records"], WAIT_TIMEOUT_S)})
        elif cmd["cmd"] == "trace":
            tracer.uninstall()
            if cmd["on"]:
                tracer.install_compute(server_module)
                tracer.install_ingest_server(server_module)
            reply({"trace": cmd["on"]})
        elif cmd["cmd"] == "stop":
            tracer.uninstall()
            srv.stop()
            reply({"completions": probe.done, "cpu_ready": cpu_ready, "stats": srv.stats.snapshot(),
                   "peak_rss_mb": common.vm_hwm_mb(), "spans": tracer.spans})
            return 0
    srv.stop()
    return 1


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
