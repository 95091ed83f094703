#!/usr/bin/env python
"""A remote sensor fleet surviving a SIGKILLed server.

The network-era sequel to ``sensor_fleet.py``: eight sensors — each
licensed to a different tenant, each watermarked under its **own**
secret key — stream concurrently from eight client threads into one
``repro serve`` process over TCP, while a ninth client runs court-side
detection on a re-streamed copy.

Halfway through, the server process is **SIGKILLed** — no drain, no
goodbye; only its checkpoint store directory survives.  A replacement
server starts on the same port with ``--recover``.  Every client rides
through via the SDK's reconnect-and-resume (re-open with the original
key, replay from the server-reported ``items_in`` offset, deduplicate
redelivered outputs) — and every published stream is **bit-identical**
to offline watermarking, each output item delivered exactly once.  The
detector's votes match the in-process run too.  Finally SIGTERM drains
the replacement server, which exits 0::

    python examples/remote_fleet.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading

import numpy as np

from repro import DetectionSession, WatermarkParams, watermark_stream
from repro.chaos import RetryPolicy
from repro.server.client import RemoteClient
from repro.streams import TemperatureSensorGenerator

N_SENSORS = 8
N_ITEMS = 4000
CHUNK = 500
PARAMS = WatermarkParams(phi=5)
PAYLOAD = "10"
#: Patient reconnects: up to 120 dials within a minute ride out the
#: server kill and the replacement's start-up.
RETRY = RetryPolicy(attempts=120, deadline=60.0)


def sensor_key(sensor_id: str) -> bytes:
    """Per-tenant key material (a real fleet would use a KMS)."""
    return f"tenant-secret-{sensor_id}".encode()


def start_server(store: str, port: int = 0) -> "tuple[subprocess.Popen, int]":
    """Launch ``repro serve`` and parse its machine-readable ready line."""
    argv = [sys.executable, "-m", "repro", "serve", "--port", str(port),
            "--store", store]
    if port:
        argv.append("--recover")
    process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                               env=os.environ.copy(), text=True)
    ready = json.loads(process.stdout.readline())
    return process, ready["serving"]["port"]


def run_client(port: int, sensor_id: str, values: np.ndarray,
               half_done: threading.Barrier, resume: threading.Event,
               published: dict) -> None:
    """One tenant's client thread: feed half, survive the kill, finish."""
    with RemoteClient("127.0.0.1", port, tenant=sensor_id,
                      retry=RETRY) as client:
        session = client.protect(sensor_id, PAYLOAD, sensor_key(sensor_id),
                                 params=PARAMS)
        out = []
        half = N_ITEMS // 2
        for start in range(0, half, CHUNK):
            out.append(session.feed(values[start:start + CHUNK]))
        half_done.wait()      # everyone mid-stream ...
        resume.wait()         # ... while the server is killed + replaced
        for start in range(half, N_ITEMS, CHUNK):
            out.append(session.feed(values[start:start + CHUNK]))
        out.append(session.finish())
        published[sensor_id] = np.concatenate(
            [piece for piece in out if piece.size])


def main() -> None:
    sensors = {f"sensor-{i:02d}": TemperatureSensorGenerator(
        eta=60, seed=700 + i).generate(N_ITEMS)
        for i in range(N_SENSORS)}
    suspect, _ = watermark_stream(
        TemperatureSensorGenerator(eta=60, seed=999).generate(N_ITEMS),
        PAYLOAD, sensor_key("court"), params=PARAMS)
    sensors["court"] = suspect  # the detection client rides along

    with tempfile.TemporaryDirectory(prefix="remote-fleet-") as store:
        server, port = start_server(store)
        print(f"server 1: pid {server.pid} serving "
              f"{len(sensors)} tenants on port {port}")

        half_done = threading.Barrier(len(sensors) + 1)
        resume = threading.Event()
        published: "dict[str, np.ndarray]" = {}
        detected: "dict[str, object]" = {}

        def run_detector() -> None:
            with RemoteClient("127.0.0.1", port, tenant="court",
                              retry=RETRY) as client:
                session = client.detect("court", len(PAYLOAD),
                                        sensor_key("court"), params=PARAMS)
                half = N_ITEMS // 2
                for start in range(0, half, CHUNK):
                    session.feed(suspect[start:start + CHUNK])
                half_done.wait()
                resume.wait()
                for start in range(half, N_ITEMS, CHUNK):
                    session.feed(suspect[start:start + CHUNK])
                session.finish()
                detected["court"] = session.result()

        threads = [threading.Thread(target=run_client,
                                    args=(port, sensor_id, values,
                                          half_done, resume, published))
                   for sensor_id, values in sensors.items()
                   if sensor_id != "court"]
        threads.append(threading.Thread(target=run_detector))
        for thread in threads:
            thread.start()

        half_done.wait()  # every client is mid-stream now
        server.kill()     # SIGKILL: no drain, no checkpoint, no goodbye
        server.wait()
        print(f"server 1: SIGKILLed mid-run "
              f"(only the store under {store} survives)")

        server, _ = start_server(store, port=port)  # same port, --recover
        print(f"server 2: pid {server.pid} recovering on port {port}")
        resume.set()
        for thread in threads:
            thread.join()

        exact = 0
        for sensor_id, values in sensors.items():
            if sensor_id == "court":
                continue
            reference, _ = watermark_stream(values, PAYLOAD,
                                            sensor_key(sensor_id),
                                            params=PARAMS)
            exact += np.array_equal(published[sensor_id], reference)
        print(f"verdict: {exact}/{N_SENSORS} sensor streams "
              "bit-identical to a crash-free run")

        local = DetectionSession(len(PAYLOAD), sensor_key("court"),
                                 params=PARAMS)
        local.feed(suspect)
        local.finish()
        expected = local.result()
        remote = detected["court"]
        votes_match = (remote.buckets_true == expected.buckets_true
                       and remote.buckets_false == expected.buckets_false)
        estimate = "".join("1" if bit else "0"
                           for bit in remote.wm_estimate())
        print(f"court stream: payload read back as {estimate!r}, votes "
              f"{'bit-identical' if votes_match else 'DIVERGED'} vs the "
              "in-process detector")

        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=30)
        drained = json.loads(server.stdout.readline())
        print(f"server 2: SIGTERM -> drained "
              f"({drained['pushes']} pushes served), exit {code}")


if __name__ == "__main__":
    main()
