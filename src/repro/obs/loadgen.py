"""Churn load harness: a client fleet that connects, pushes, crashes.

``repro loadgen`` (and the churn and chaos-soak tests) drives
``workers`` concurrent clients against one
:class:`~repro.server.service.StreamService` — a spawned in-process
server on a free port by default, or any running ``repro serve``
endpoint when ``host``/``port`` are given.  Each worker opens one
protection stream, feeds its share of the deterministic synthetic
reference stream in fixed-size chunks, and on a configurable cadence
*crashes* its transport mid-stream (:meth:`AsyncRemoteClient.
simulate_crash` — an abort, no goodbye) before pushing on.  That is
the fleet's worst weather: every crash forces a redial, a resume
handshake and an input-suffix replay while the other workers keep the
server busy.

Every feed/finish round trip lands in an :class:`~repro.obs.Histogram`
(milliseconds — the same instrument the server uses for µs, at the ms
bucket ladder), so the run reports p50/p95/p99 next to throughput.
Correctness rides along: a worker that does not get back **exactly**
as many watermarked items as it fed counts a ``verify_failure`` —
churn must not bend the exactly-once contract — and with
``verify_bits=True`` the outputs must additionally be bit-identical
to an uninterrupted local embed of the same items.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.chaos.retry import RetryPolicy
from repro.errors import RemoteError, ReproError
from repro.obs.metrics import LATENCY_MS_BUCKETS, Histogram
from repro.server.client import AsyncRemoteClient

#: Worker clients' default policy: the SDK's, with sleeps capped at
#: 50 ms so a crash-heavy fleet redials promptly.
_WORKER_RETRY = RetryPolicy(max_delay=0.05)


async def _worker(index: int, host: str, port: int, *, tenant: str,
                  transport: str, data: np.ndarray,
                  pushes: int, chunk: int, crash_every: int, params,
                  histogram: Histogram, totals: dict,
                  verify_bits: bool, retry=None) -> None:
    """One client: open, feed (crashing on cadence), finish, verify."""
    client = AsyncRemoteClient(host, port, tenant=tenant,
                               transport=transport,
                               retry=retry if retry is not None
                               else _WORKER_RETRY)
    key = b"loadgen-%d" % index
    try:
        session = await client.protect(f"churn-{index}", "1", key,
                                       params=params, encoding="initial")
        pieces: "list[np.ndarray]" = []
        out_items = 0
        crashed = False
        for push in range(pushes):
            if crash_every and push and push % crash_every == 0:
                # An abort, not a close: the server sees a dead peer,
                # the client's next feed redials and resumes.
                client.simulate_crash()
                totals["crashes"] += 1
                crashed = True
            piece = data[push * chunk:(push + 1) * chunk]
            started = time.perf_counter()
            released = await session.feed(piece)
            histogram.observe(1e3 * (time.perf_counter() - started))
            if crashed:
                totals["resumes"] += 1
                crashed = False
            out_items += released.size
            if verify_bits:
                pieces.append(released)
        started = time.perf_counter()
        tail = await session.finish()
        histogram.observe(1e3 * (time.perf_counter() - started))
        out_items += tail.size
        if verify_bits:
            pieces.append(tail)
        totals["items"] += data.size
        totals["pushes"] += pushes
        totals["reconnects"] += client.reconnects
        if out_items != data.size:
            totals["verify_failures"] += 1
        elif verify_bits and not _bits_match(data, pieces, key, params):
            totals["verify_failures"] += 1
    finally:
        await client.close()


def _bits_match(data: np.ndarray, pieces: "list[np.ndarray]",
                key: bytes, params) -> bool:
    """Outputs must equal an uninterrupted local embed, bit for bit."""
    from repro.core.embedder import watermark_stream

    got = (np.concatenate([p for p in pieces if p.size])
           if any(p.size for p in pieces)
           else np.empty(0, dtype=np.float64))
    expected, _ = watermark_stream(data, "1", key, params=params,
                                   encoding="initial")
    return bool(np.array_equal(got, expected))


async def run_loadgen_async(*, workers: int = 4, pushes: int = 8,
                            chunk: int = 256, crash_every: int = 3,
                            host: "str | None" = None,
                            port: "int | None" = None,
                            transport: str = "tcp",
                            tenant: str = "loadgen",
                            verify_bits: bool = False,
                            retry=None) -> dict:
    """Run the churn scenario; return the summary dict.

    With no ``host``/``port`` an in-process server is spawned on a
    free loopback port (checkpointing every 4 pushes so resumes have
    durable state to land on) and drained when the fleet is done; its
    lifetime counters ride along under ``server``.  ``retry`` is an
    optional :class:`repro.chaos.RetryPolicy` for the worker clients.

    An unreachable external target (or an unbindable spawn address)
    raises :class:`~repro.errors.ReproError` up front — one clean
    failure instead of ``workers`` stacked dial errors.
    """
    from repro.experiments.config import synthetic_params
    from repro.experiments.datasets import reference_synthetic

    params = synthetic_params()
    span = pushes * chunk
    data = np.asarray(reference_synthetic(workers * span))
    service = None
    if port is None:
        from repro.server.service import StreamService
        service = StreamService(host="127.0.0.1", port=0,
                                transport=transport, checkpoint_every=4)
        try:
            host, port = await service.start()
        except OSError as exc:
            raise ReproError(
                f"cannot spawn the in-process loadgen server: {exc}"
            ) from exc
    else:
        # Preflight the external endpoint once: a dead or non-repro
        # address fails fast with one error instead of a pile of
        # per-worker dial failures.
        probe = AsyncRemoteClient(host, port, tenant=tenant,
                                  transport=transport,
                                  retry=RetryPolicy(attempts=2,
                                                    max_delay=0.1))
        try:
            await probe.connect()
            await probe.close()
        except RemoteError as exc:
            raise RemoteError(
                exc.code,
                f"loadgen target {host}:{port} ({transport}) is not "
                f"usable: {exc}") from exc
    histogram = Histogram(LATENCY_MS_BUCKETS)
    totals = {"items": 0, "pushes": 0, "crashes": 0, "resumes": 0,
              "reconnects": 0, "verify_failures": 0}
    started = time.perf_counter()
    outcomes = await asyncio.gather(
        *[_worker(index, host, port, tenant=tenant, transport=transport,
                  data=data[index * span:(index + 1) * span],
                  pushes=pushes, chunk=chunk, crash_every=crash_every,
                  params=params, histogram=histogram, totals=totals,
                  verify_bits=verify_bits, retry=retry)
          for index in range(workers)],
        return_exceptions=True)
    elapsed = time.perf_counter() - started
    errors = [repr(outcome) for outcome in outcomes
              if isinstance(outcome, BaseException)]
    server_status = None
    if service is not None:
        server_status = service.status()
        await service.drain("loadgen-complete")
    latency = histogram.snapshot()
    summary = {
        "workers": workers,
        "pushes_per_stream": pushes,
        "chunk": chunk,
        "crash_every": crash_every,
        "transport": transport,
        "items": totals["items"],
        "pushes": totals["pushes"],
        "crashes": totals["crashes"],
        "resumes": totals["resumes"],
        "reconnects": totals["reconnects"],
        "verify_failures": totals["verify_failures"],
        "worker_errors": errors,
        "elapsed_seconds": round(elapsed, 4),
        "items_per_s": (round(totals["items"] / elapsed, 1)
                        if elapsed > 0 else None),
        "push_ms": {
            "count": latency["count"],
            "mean": latency["mean"],
            "p50": latency["p50"],
            "p95": latency["p95"],
            "p99": latency["p99"],
            "max": latency["max"],
        },
    }
    if server_status is not None:
        summary["server"] = server_status
    return summary


def run_loadgen(**options) -> dict:
    """Synchronous entry point (the CLI and bench call this)."""
    return asyncio.run(run_loadgen_async(**options))
