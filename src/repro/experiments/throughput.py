"""Sec 6.4 — per-item processing overhead of the encodings.

The paper compares watermarking throughput against a *read-and-copy*
model (each item read and written downstream at fixed cost) and reports
per-item overheads of about +5.7% for the initial encoding and around
+1000% for the full multi-hash routine, decaying exponentially as the
guaranteed resilience decreases.

We reproduce the same protocol: identical stream, identical window
machinery, encoding swapped.  The pruned multi-hash search — this
library's default — is measured alongside to quantify how much of the
exponential cost the paper's "future work" search eliminates.

The primary metric is **µs/item**: it is directly comparable across
machines of similar class and across this repository's history.
``overhead_pct`` is computed against a *per-item forwarding* baseline
(read one item, write one item, in Python — the paper's cost model),
never against a vectorized memcpy, which would inflate overheads by the
interpreter/vectorization gap instead of measuring the watermarking
work.

Harness mode
------------
:func:`throughput_json` turns a measured run into the machine-readable
``BENCH_throughput.json`` payload (µs/item plus speedup over the seed
revision's recorded figures), and :func:`reference_check` verifies that
embed/detect outputs are bit-identical to the recorded reference — the
CI benchmark smoke job fails on drift.  Run standalone with::

    python -m repro.experiments.throughput --scale 0.25 \
        --json benchmarks/results/BENCH_throughput.json \
        --check benchmarks/results/reference_bits.json
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from repro.core.detector import detect_watermark
from repro.core.embedder import StreamWatermarker, watermark_stream
from repro.experiments.config import DEFAULT_KEY, scaled, synthetic_params
from repro.experiments.datasets import reference_synthetic
from repro.experiments.runner import ExperimentResult

#: µs/item recorded by the seed revision (benchmarks/results/throughput.txt
#: at the pre-vectorization commit); ``speedup_vs_seed`` in
#: BENCH_throughput.json is measured against these.
SEED_US_PER_ITEM = {
    "read-and-copy": 0.0679,
    "initial": 2.889,
    "quadres": 8.5855,
    "multihash-pruned-g6": 48.9845,
    "multihash-pruned-g3": 10.8362,
    "multihash-random-g2": 113.5435,
    "multihash-random-g3": 1082.2902,
}


#: (row name, encoding, options, active_run_length, max_subset_embed) for
#: every configuration the throughput table measures; kept addressable by
#: name so the speedup-floor gate can re-measure an individual row.
BENCH_CONFIGURATIONS = (
    ("initial", "initial", None, None, None),
    ("quadres", "quadres", {"n_prefixes": 2}, None, None),
    ("multihash-pruned-g6", "multihash", {"method": "pruned"}, 6, None),
    ("multihash-pruned-g3", "multihash", {"method": "pruned"}, 3, None),
    ("multihash-random-g2", "multihash", {"method": "random"}, 2, 5),
)

#: The exhaustive random-g3 row only runs at full scale (its expected
#: cost per extreme is what Fig 11(a) calls exponential).
BENCH_CONFIGURATION_FULL_SCALE = (
    "multihash-random-g3", "multihash", {"method": "random"}, 3, 5)

#: Rows whose ``speedup_vs_seed`` the ``--assert-speedups`` gate checks
#: (the batched-encoding hot paths; ``initial`` predates them).
SPEEDUP_GATED_ROWS = ("quadres", "multihash-pruned-g6",
                      "multihash-pruned-g3", "multihash-random-g2",
                      "multihash-random-g3")


def machine_calibration(n_items: int = 6000) -> float:
    """µs/item of the *seed revision's* baseline loop on this machine.

    ``SEED_US_PER_ITEM`` are absolute figures from the (idle) machine
    that recorded them; dividing this measurement by
    ``SEED_US_PER_ITEM["read-and-copy"]`` (the same loop, same code)
    yields a machine-speed factor that keeps speedup regression guards
    hardware-independent.  Measured in process time, like every
    compute-bound figure in this module, so background load on a
    shared host does not read as a slow machine.
    """
    values = np.arange(n_items, dtype=np.float64)
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        out: list[float] = []
        for value in values:  # the seed's boxed per-item loop, verbatim
            out.append(float(value))
        best = min(best, time.process_time() - start)
        if len(out) != n_items:  # defensive: keep the loop un-elided
            raise RuntimeError("calibration loop lost items")
    return 1e6 * best / n_items


def _read_and_copy(values: np.ndarray) -> float:
    """Per-item forwarding baseline: read each item, write it downstream.

    This is deliberately a per-item Python loop over unboxed floats —
    the paper's fixed read-and-write cost per item — so ``overhead_pct``
    measures the watermarking work, not Python-vs-NumPy dispatch.
    Best-of-3, like the embed timings.
    """
    items = values.tolist()
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        out: list[float] = []
        append = out.append
        for value in items:
            append(value)
        best = min(best, time.process_time() - start)
        if len(out) != len(items):  # defensive: keep the loop un-elided
            raise RuntimeError("copy loop lost items")
    return best


def _embed_time(values: np.ndarray, encoding: str,
                encoding_options: "dict | None" = None,
                active_run_length: "int | None" = None,
                max_subset_embed: "int | None" = None) -> float:
    """Best-of-up-to-3 CPU embed time for one configuration.

    Timing-harness practice: the minimum over repetitions estimates the
    true cost with the least scheduler/frequency noise, and process
    time (these loops never sleep) keeps a busy co-tenant on a shared
    host from inflating the figure further.  Configurations whose
    single run already exceeds a second (the exhaustive multi-hash
    searches) are measured once — their cost dwarfs the noise floor.
    """
    params = synthetic_params()
    updates: dict = {}
    if active_run_length is not None:
        updates["active_run_length"] = active_run_length
    if max_subset_embed is not None:
        updates["max_subset_embed"] = max_subset_embed
    if updates:
        params = params.with_updates(**updates)
    best = float("inf")
    for _ in range(3):
        embedder = StreamWatermarker("1", DEFAULT_KEY, params=params,
                                     encoding=encoding,
                                     encoding_options=encoding_options or {})
        start = time.process_time()
        embedder.run(np.array(values))
        best = min(best, time.process_time() - start)
        if best > 1.0:
            break
    return best


def run_throughput(scale: float = 1.0, sweeps: int = 3) -> ExperimentResult:
    """Per-item cost of each encoding vs the forwarding baseline.

    The random (exhaustive) multi-hash configurations cap the subset at
    5 items: with the default 12-item subsets their expected cost is
    ``2^23`` iterations per extreme — the exponential blow-up Fig 11(a)
    quantifies — which is exactly why the paper's full routine measured
    ~+1000% and why the pruned search exists.

    Each configuration is measured in ``sweeps`` full passes over the
    whole table, keeping the per-row *minimum*.  Consecutive
    repetitions (what :func:`_embed_time` already does within a pass)
    sample a single machine phase; burstable hosts swing their
    effective frequency on a tens-of-seconds timescale, so spreading a
    row's repetitions across sweeps gives every row an independent shot
    at an undisturbed phase.  The workloads are deterministic, so the
    minimum estimates true cost — repetition can only shed noise, never
    manufacture speed.  The forwarding baseline is swept the same way
    (it is just as frequency-sensitive as the rows it normalizes).
    """
    stream = reference_synthetic(scaled(6000, scale, 1500))
    n = len(stream)
    # Warm the scan path once (ufunc dispatch caches, adaptive-
    # interpreter specialization) so every configuration measures
    # steady-state per-item cost — the regime streaming middleware
    # actually runs in — rather than first-call warmup noise.
    _embed_time(np.array(stream[:min(n, 1500)]), "initial")
    configurations = list(BENCH_CONFIGURATIONS)
    if scale >= 1.0:
        configurations.append(BENCH_CONFIGURATION_FULL_SCALE)
    values = np.array(stream)
    baseline = float("inf")
    elapsed_by_name: "dict[str, float]" = {}
    for _ in range(max(1, sweeps)):
        baseline = min(baseline, _read_and_copy(values))
        for name, encoding, options, run_length, subset_cap in \
                configurations:
            elapsed = _embed_time(values, encoding, options,
                                  run_length, subset_cap)
            previous = elapsed_by_name.get(name)
            if previous is None or elapsed < previous:
                elapsed_by_name[name] = elapsed
    result = ExperimentResult(
        experiment_id="throughput",
        title="µs/item per encoding; overhead vs per-item forwarding "
              "(Sec 6.4)",
        columns=["configuration", "us_per_item", "overhead_pct",
                 "speedup_vs_seed", "seconds"],
        paper_expectation=("initial fastest (paper: +5.7%); exhaustive "
                           "multi-hash orders of magnitude dearer "
                           "(paper: +1000%), decaying with resilience; "
                           "the pruned search collapses the gap"))

    def speedup(name: str, us_per_item: float) -> float:
        seed = SEED_US_PER_ITEM.get(name)
        if seed is None or us_per_item <= 0:
            return 1.0
        return seed / us_per_item

    base_us = 1e6 * baseline / n
    result.add(configuration="read-and-copy", seconds=baseline,
               us_per_item=base_us, overhead_pct=0.0,
               speedup_vs_seed=speedup("read-and-copy", base_us))
    for name, _, _, _, _ in configurations:
        elapsed = elapsed_by_name[name]
        us_per_item = 1e6 * elapsed / n
        result.add(configuration=name, seconds=elapsed,
                   us_per_item=us_per_item,
                   overhead_pct=100.0 * (elapsed - baseline) / baseline,
                   speedup_vs_seed=speedup(name, us_per_item))
    return result


def throughput_json(result: ExperimentResult, scale: float = 1.0,
                    hub_soak: "dict | None" = None,
                    remote_loopback: "dict | None" = None,
                    detect_parallel: "dict | None" = None,
                    metrics_overhead: "dict | None" = None,
                    loadgen_churn: "dict | None" = None,
                    chaos_soak: "dict | None" = None) -> dict:
    """The ``BENCH_throughput.json`` payload for a measured run."""
    encodings = {}
    for row in result.rows:
        name = row["configuration"]
        encodings[name] = {
            "us_per_item": round(row["us_per_item"], 4),
            "overhead_pct": round(row["overhead_pct"], 2),
            "seed_us_per_item": SEED_US_PER_ITEM.get(name),
            "speedup_vs_seed": round(row["speedup_vs_seed"], 2),
        }
    payload = {
        "benchmark": "throughput",
        "scale": scale,
        "primary_metric": "us_per_item",
        "baseline": "per-item forwarding loop",
        "encodings": encodings,
    }
    if hub_soak is not None:
        payload["hub_soak"] = hub_soak
    if remote_loopback is not None:
        payload["remote_loopback"] = remote_loopback
    if detect_parallel is not None:
        payload["detect_parallel"] = detect_parallel
    if metrics_overhead is not None:
        payload["metrics_overhead"] = metrics_overhead
    if loadgen_churn is not None:
        payload["loadgen_churn"] = loadgen_churn
    if chaos_soak is not None:
        payload["chaos_soak"] = chaos_soak
    return payload


# ----------------------------------------------------------------------
# multi-tenant hub soak
# ----------------------------------------------------------------------
def run_hub_soak(n_streams: int = 1000, chunk: int = 64,
                 batches: int = 4) -> dict:
    """Hub µs/item vs single-session µs/item at identical chunking.

    The soak pushes ``n_streams * batches`` chunks of ``chunk`` items.
    The single-session baseline ingests them sequentially into **one**
    :class:`~repro.pipeline.ProtectionSession`; the hub run routes the
    same chunks round-robin across ``n_streams`` independently-keyed
    sessions (the multi-tenant regime: every push lands on a different
    window, labeler and hasher).  Both paths therefore execute the same
    number of pushes over the same number of items through the same
    vectorized scan, so the ratio isolates the cost of multiplexing —
    routing, stats, LRU bookkeeping plus the cache pressure of a
    thousand live windows.  The regression guard in
    ``benchmarks/test_throughput.py`` holds the ratio at <= 1.5x.
    """
    from repro.hub import StreamHub
    from repro.pipeline import ProtectionSession

    params = synthetic_params()
    total = n_streams * batches * chunk
    data = np.asarray(reference_synthetic(total))
    chunks = [data[start:start + chunk]
              for start in range(0, total, chunk)]

    # -- single-session baseline: same pushes, one stream --------------
    single = ProtectionSession("1", DEFAULT_KEY, params=params,
                               encoding="initial")
    start_time = time.process_time()
    for piece in chunks:
        single.feed(piece)
    single.finish()
    single_seconds = time.process_time() - start_time

    # -- hub: same pushes, fanned over n_streams tenants ---------------
    hub = StreamHub()
    for i in range(n_streams):
        hub.protect(f"sensor-{i}", "1", b"tenant-%d" % i,
                    params=params, encoding="initial")
    ids = [f"sensor-{i}" for i in range(n_streams)]
    routed = [(ids[i % n_streams], piece)
              for i, piece in enumerate(chunks)]
    start_time = time.process_time()
    for stream_id, piece in routed:
        hub.push(stream_id, piece)
    for stream_id in ids:
        hub.finish(stream_id)
    hub_seconds = time.process_time() - start_time

    single_us = 1e6 * single_seconds / total
    hub_us = 1e6 * hub_seconds / total
    return {
        "n_streams": n_streams,
        "chunk": chunk,
        "batches_per_stream": batches,
        "items": total,
        "encoding": "initial",
        "single_session_us_per_item": round(single_us, 4),
        "hub_us_per_item": round(hub_us, 4),
        "hub_overhead_ratio": round(hub_us / single_us, 3)
        if single_us > 0 else 1.0,
    }


# ----------------------------------------------------------------------
# observability pricing: enabled metrics vs the null registry
# ----------------------------------------------------------------------
def run_metrics_overhead(n_items: int = 120000, chunk: int = 512,
                         repeats: int = 5) -> dict:
    """µs/item cost of an *enabled* registry on the hub push path.

    The same chunks are pushed through two hubs running the ``initial``
    encoding: one with metrics off (the default — push skips straight
    past the null instruments) and one reporting into an enabled
    :class:`~repro.obs.MetricsRegistry` (three counter increments, one
    histogram observation and two clock reads per push, all amortized
    over ``chunk`` items).  Process time, minimum over ``repeats``
    *interleaved* off/on sweeps after a discarded warmup pass — the
    instrument cost is ~1-2 µs per push, far below the swing a
    burstable host's frequency phases induce between two back-to-back
    measurements, so pairing the sides per phase is what makes the
    ratio mean anything.  The regression guard in
    ``benchmarks/test_throughput.py`` holds it at <= 1.05 —
    "near-zero cost" is a measured claim, not a slogan.
    """
    from repro.hub import StreamHub
    from repro.obs import MetricsRegistry

    params = synthetic_params()
    data = np.asarray(reference_synthetic(n_items))
    chunks = [data[start:start + chunk]
              for start in range(0, n_items, chunk)]

    def measure_once(metrics) -> float:
        hub = StreamHub(metrics=metrics)
        hub.protect("bench", "1", DEFAULT_KEY, params=params,
                    encoding="initial")
        cpu0 = time.process_time()
        for piece in chunks:
            hub.push("bench", piece)
        hub.finish("bench")
        return time.process_time() - cpu0

    measure_once(None)  # warmup: ufunc dispatch + specialization
    off_seconds = on_seconds = float("inf")
    for _ in range(max(1, repeats)):
        off_seconds = min(off_seconds, measure_once(None))
        on_seconds = min(on_seconds, measure_once(MetricsRegistry()))
    off_us = 1e6 * off_seconds / n_items
    on_us = 1e6 * on_seconds / n_items
    return {
        "items": n_items,
        "chunk": chunk,
        "encoding": "initial",
        "disabled_us_per_item": round(off_us, 4),
        "enabled_us_per_item": round(on_us, 4),
        "overhead_ratio": round(on_us / off_us, 4) if off_us > 0 else 1.0,
        "overhead_pct": round(100.0 * (on_us - off_us) / off_us, 2)
        if off_us > 0 else 0.0,
    }


def run_loadgen_churn(workers: int = 6, pushes: int = 10,
                      chunk: int = 256, crash_every: int = 3) -> dict:
    """The churn scenario at bench size (see :mod:`repro.obs.loadgen`).

    Spawns an in-process server, drives ``workers`` concurrent clients
    that crash and resume on cadence, and reports the feed round-trip
    latency histogram (p50/p95/p99 ms) plus throughput — the
    ``loadgen_churn`` row of ``BENCH_throughput.json``.  Exactly-once
    delivery under churn is part of the measurement: any conservation
    failure surfaces in ``verify_failures`` and fails the bench.
    """
    from repro.obs.loadgen import run_loadgen

    return run_loadgen(workers=workers, pushes=pushes, chunk=chunk,
                       crash_every=crash_every, verify_bits=True)


def run_chaos_soak(workers: int = 3, pushes: int = 12, chunk: int = 128,
                   crash_every: int = 4, seed: int = 1104) -> dict:
    """Supervised serving under a seeded fault plan: the resilience gate.

    Spawns ``repro supervise`` around a ``repro serve`` child running
    with a seeded chaos plan (connection resets, torn checkpoint
    writes, transient store EIO, forced process crashes), then drives
    the churn fleet at it through a chaos-wrapped *client* transport
    (latency, resets, mid-frame truncation) with a generous
    :class:`~repro.chaos.RetryPolicy`.  The soak proves the robustness
    contract end to end: the supervisor restarts every forced crash
    with ``--recover``, resumed streams replay exactly the missing
    suffix, and every worker's released output is **bit-identical** to
    a fault-free local embed of the same items —
    ``verify_failures == 0`` means zero stream loss *and*
    bit-identity.  The summary is the ``chaos_soak`` row of
    ``BENCH_throughput.json``.
    """
    import os
    import shutil
    import signal
    import socket
    import subprocess
    import sys
    import tempfile
    import threading

    from repro import chaos
    from repro.obs.loadgen import run_loadgen

    workdir = tempfile.mkdtemp(prefix="repro-chaos-soak-")
    plan = chaos.FaultPlan(
        seed=seed,
        client_transport=chaos.TransportFaults(
            latency_rate=0.05, latency_ms=(0.1, 0.8),
            reset_rate=0.02, truncate_rate=0.01),
        server_transport=chaos.TransportFaults(reset_rate=0.01),
        store=chaos.StoreFaults(torn_write_rate=0.05,
                                io_error_rate=0.05),
        process=chaos.ProcessFaults(crash_after_pushes=(6, 10)),
    )
    plan_path = os.path.join(workdir, "plan.json")
    plan.dump(plan_path)
    faults_path = os.path.join(workdir, "faults.jsonl")
    store_dir = os.path.join(workdir, "store")

    # A fixed port, unlike the ``--port 0`` benches: the child must
    # come back on the *same* address after every crash or the fleet's
    # redials would land in the void.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    supervisor = subprocess.Popen(
        [sys.executable, "-m", "repro", "supervise",
         "--max-restarts", "100", "--restart-window", "300",
         "--backoff-base", "0.05", "--backoff-max", "0.2", "--",
         "--port", str(port), "--store", store_dir,
         "--chaos", plan_path, "--chaos-log", faults_path, "--json"],
        stdout=subprocess.PIPE, text=True)
    lines: "list[str]" = []
    ready = threading.Event()

    def _drain() -> None:
        for line in supervisor.stdout:
            lines.append(line)
            if '"serving"' in line:
                ready.set()
        ready.set()  # EOF unblocks the waiter even on startup failure

    reader = threading.Thread(target=_drain, daemon=True)
    reader.start()
    try:
        if not ready.wait(timeout=30) or supervisor.poll() is not None:
            raise RuntimeError(
                "supervised chaos server never came up:\n"
                + "".join(lines))
        chaos.install(plan, inner="tcp", side="client")
        try:
            summary = run_loadgen(
                workers=workers, pushes=pushes, chunk=chunk,
                crash_every=crash_every, host="127.0.0.1", port=port,
                transport="chaos", verify_bits=True,
                retry=chaos.RetryPolicy(attempts=200, base_delay=0.02,
                                        max_delay=0.25, deadline=120.0,
                                        op_timeout=15.0))
        finally:
            chaos.uninstall()
    finally:
        supervisor.send_signal(signal.SIGTERM)
        try:
            returncode = supervisor.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
            supervisor.kill()
            returncode = supervisor.wait(timeout=10)
        reader.join(timeout=10)
        supervisor.stdout.close()

    starts = crashes = 0
    for line in lines:
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if event.get("event") != "supervisor":
            continue
        if event.get("action") == "start":
            starts += 1
        elif event.get("action") == "exit" and event.get("returncode"):
            crashes += 1
    fault_events = 0
    if os.path.exists(faults_path):
        with open(faults_path) as handle:
            fault_events = sum(1 for raw in handle if raw.strip())
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "seed": seed,
        "workers": workers,
        "pushes_per_stream": pushes,
        "chunk": chunk,
        "crash_every": crash_every,
        "items": summary["items"],
        "pushes": summary["pushes"],
        "client_crashes": summary["crashes"],
        "resumes": summary["resumes"],
        "reconnects": summary["reconnects"],
        "verify_failures": summary["verify_failures"],
        "worker_errors": summary["worker_errors"],
        "server_crashes": crashes,
        "supervisor_restarts": max(starts - 1, 0),
        "supervisor_returncode": returncode,
        "fault_events": fault_events,
        "elapsed_seconds": summary["elapsed_seconds"],
        "items_per_s": summary["items_per_s"],
        "push_ms": summary["push_ms"],
    }


# ----------------------------------------------------------------------
# remote loopback: the network serving layer vs the in-process hub
# ----------------------------------------------------------------------

#: The transports the loopback bench prices.  ``tcp`` is the headline
#: (the regression guard and the top-level ratio); ``websocket`` prices
#: the RFC 6455 framing on the same codec.
LOOPBACK_SCENARIOS = ("tcp", "websocket")


def _proc_cpu_seconds(pid: int) -> "float | None":
    """CPU seconds (user + system) a live process has consumed.

    Read from ``/proc/<pid>/stat`` so a scenario can snapshot the
    serve subprocess around each repeat without cooperation from the
    server.  Returns ``None`` where procfs is unavailable (non-Linux),
    in which case callers fall back to wall-clock accounting.
    """
    import os

    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b") ", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):  # pragma: no cover
        return None


def _loopback_scenario(data: np.ndarray, chunk: int, params,
                       transport: str, repeats: int = 3) -> dict:
    """One serving-stack measurement: CPU + wall seconds + counters.

    The server runs as a separate ``repro serve`` **process** — the
    deployment shape — so the measurement prices the protocol and the
    kernel, not artificial GIL contention between a client thread and a
    server thread sharing one interpreter.  The whole stream is handed
    to :meth:`RemoteSession.feed` in one call, so the client splits it
    into ``chunk``-item pushes and keeps the server's full credit
    window in flight — the pipelined regime a fleet feeder runs in,
    where loopback RTTs overlap the scan instead of serializing with
    it.

    The headline cost is **CPU seconds** (client process time plus the
    server's procfs utime+stime delta): on a shared host, wall clock
    prices whichever neighbour burst through during the run, while CPU
    time prices the code — and the two converge on an otherwise idle
    core anyway.  Wall seconds ride along for context.  Best of
    ``repeats`` passes, like the embed timings.
    """
    import signal
    import subprocess
    import sys

    from repro.server.client import RemoteClient

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--transport", transport, "--checkpoint-every", "0",
         "--credits", "8"],
        stdout=subprocess.PIPE, text=True)
    try:
        ready = json.loads(server.stdout.readline())
        host = ready["serving"]["host"]
        port = ready["serving"]["port"]
        best_cpu = best_wall = float("inf")
        stats = None
        for attempt in range(repeats):
            with RemoteClient(host, port, push_items=chunk,
                              transport=transport) as client:
                session = client.protect(f"bench-{attempt}", "1",
                                         DEFAULT_KEY, params=params,
                                         encoding="initial")
                server_cpu0 = _proc_cpu_seconds(server.pid)
                wall0 = time.perf_counter()
                cpu0 = time.process_time()
                session.feed(data)
                session.finish()
                cpu = time.process_time() - cpu0
                wall = time.perf_counter() - wall0
                server_cpu1 = _proc_cpu_seconds(server.pid)
                if server_cpu0 is not None and server_cpu1 is not None:
                    cpu += server_cpu1 - server_cpu0
                else:  # pragma: no cover - no procfs
                    cpu = wall
                if cpu < best_cpu:
                    best_cpu = cpu
                    best_wall = wall
                    stats = client._async.wire_stats()
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
            server.kill()
            server.wait(timeout=10)
        server.stdout.close()
    return {"cpu_seconds": best_cpu, "wall_seconds": best_wall,
            "stats": stats}


def run_remote_loopback(n_items: int = 200000, chunk: int = 16000,
                        scenarios=LOOPBACK_SCENARIOS,
                        repeats: int = 3) -> dict:
    """CPU µs/item through ``repro serve`` vs the in-process hub.

    One protection stream is fed in identical ``chunk``-item pushes
    into a :class:`~repro.hub.StreamHub` directly, then through a
    ``repro serve`` subprocess on 127.0.0.1 once per transport
    scenario.  Each scenario's ratio prices that serving
    configuration — framing, payload encoding, loopback round trips,
    credit bookkeeping — on top of the same scan, and its
    ``bytes_on_wire`` / ``frames_sent`` counters (from the client's
    codec-level accounting) sit next to the timings.  All figures are
    **CPU seconds** (baseline: process time;
    scenarios: client process time + server procfs delta) so a noisy
    neighbour on a shared host cannot masquerade as protocol overhead;
    ``wall_us_per_item`` rides along per scenario for context.
    Checkpointing is off on both sides so the comparison isolates
    serving cost, pushes carry ``chunk`` items so per-frame costs
    amortize the way a fleet feeder's credit window does, and both the
    baseline and every scenario take the best of ``repeats`` passes so
    the ratios compare floors, not scheduler noise.  The top-level
    ``remote_us_per_item`` / ``remote_overhead_ratio`` track the
    ``tcp`` scenario — the production path the regression guard holds
    at <= 2.0x.
    """
    from repro.hub import StreamHub

    params = synthetic_params()
    data = np.asarray(reference_synthetic(n_items))
    chunks = [data[start:start + chunk]
              for start in range(0, n_items, chunk)]

    # -- in-process hub baseline ---------------------------------------
    hub_seconds = float("inf")
    for attempt in range(repeats):
        hub = StreamHub()
        hub.protect("bench", "1", DEFAULT_KEY, params=params,
                    encoding="initial")
        cpu0 = time.process_time()
        for piece in chunks:
            hub.push("bench", piece)
        hub.finish("bench")
        hub_seconds = min(hub_seconds, time.process_time() - cpu0)
    hub_us = 1e6 * hub_seconds / n_items

    # -- the same pushes through each serving configuration ------------
    measured = {}
    for transport in scenarios:
        run = _loopback_scenario(data, chunk, params, transport,
                                 repeats=repeats)
        us = 1e6 * run["cpu_seconds"] / n_items
        stats = run["stats"]
        measured[transport] = {
            "transport": transport,
            "us_per_item": round(us, 4),
            "wall_us_per_item": round(
                1e6 * run["wall_seconds"] / n_items, 4),
            "overhead_ratio": round(us / hub_us, 3) if hub_us > 0 else 1.0,
            "bytes_on_wire": stats["bytes_sent"] + stats["bytes_received"],
            "frames_sent": stats["frames_sent"],
            "frames_received": stats["frames_received"],
        }

    headline = measured.get("tcp") or next(iter(measured.values()))
    return {
        "items": n_items,
        "chunk": chunk,
        "encoding": "initial",
        "inprocess_hub_us_per_item": round(hub_us, 4),
        "remote_us_per_item": headline["us_per_item"],
        "remote_overhead_ratio": headline["overhead_ratio"],
        "scenarios": measured,
    }


# ----------------------------------------------------------------------
# bit-identity reference (CI benchmark smoke job)
# ----------------------------------------------------------------------
_REFERENCE_N = 3000
_REFERENCE_WATERMARK = "101"


def run_detect_parallel(n_items: int = 140000, workers: int = 4) -> dict:
    """Span-parallel detection scaling scenario (wall-clock).

    One marked stream is cut into ``workers`` contiguous spans; the
    *same* task list is detected serially and through the process pool,
    so the measured ratio isolates pool scaling (fork + pickle overhead
    against parallel scan time) from any span-boundary effect.  The
    merged results of both runs must be *identical* — that is the
    bucket merge law under test — and is reported as ``merge_exact``.

    Wall-clock (``perf_counter``) is the right clock here: the pool's
    work happens in child processes, which ``process_time`` would not
    see.  ``speedup`` only means scaling on a machine with at least
    ``workers`` cores; ``cpu_count`` is recorded so consumers can gate
    on it (a 1-core container legitimately reports ~1x).
    """
    import os

    from repro.core.parallel_detect import (DetectionTask, merge_results,
                                            run_tasks, split_spans)

    params = synthetic_params()
    stream = np.array(reference_synthetic(n_items))
    marked, _ = watermark_stream(stream, "1", DEFAULT_KEY, params=params)
    ranges = split_spans(len(marked), workers,
                         min_span=8 * params.window_size)
    tasks = [DetectionTask(values=marked[start:end], wm_length=1,
                           key=DEFAULT_KEY, params=params)
             for (start, end) in ranges]
    start_t = time.perf_counter()
    serial_parts = run_tasks(tasks, workers=None)
    serial_s = time.perf_counter() - start_t
    start_t = time.perf_counter()
    parallel_parts = run_tasks(tasks, workers=workers)
    parallel_s = time.perf_counter() - start_t
    merged_serial = merge_results(serial_parts)
    merged_parallel = merge_results(parallel_parts)
    return {
        "items": int(n_items),
        "spans": len(ranges),
        "workers": int(workers),
        "cpu_count": os.cpu_count() or 1,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 2) if parallel_s else 0.0,
        "merge_exact": merged_serial == merged_parallel,
        "total_bias": merged_parallel.total_bias,
    }


def check_speedups(result: ExperimentResult, floor: float,
                   detect_parallel: "dict | None" = None,
                   scaling_floor: float = 2.5) -> "list[str]":
    """Gate the measured speedups against the seed figures.

    Returns human-readable failures (empty == pass).  The floor is
    rescaled by the forwarding-loop calibration — a machine slower than
    the one that recorded :data:`SEED_US_PER_ITEM` owes proportionally
    less — and a row that still misses is re-measured up to three more
    times (min-of-runs, the same estimator the table uses) before
    failing: CI runners get descheduled, and a one-off stall is not a
    regression.  Burstable hosts swing their effective frequency on a
    minutes timescale, so one calibration sampled at check time can
    misrepresent the speed the *rows* were measured at; each retry
    therefore re-probes the calibration immediately before timing and
    is judged against its own adjacent floor.  ``detect_parallel`` adds
    the merge-exactness check unconditionally and the pool-scaling
    floor when the machine has enough cores for it to be meaningful.
    """
    failures: "list[str]" = []
    seed_calibration = SEED_US_PER_ITEM["read-and-copy"]

    def adjacent_floor() -> float:
        slowdown = max(machine_calibration() / seed_calibration, 1.0)
        return floor / slowdown

    effective_floor = adjacent_floor()
    by_name = {row[0]: row for row in
               BENCH_CONFIGURATIONS + (BENCH_CONFIGURATION_FULL_SCALE,)}
    measured = {row["configuration"]: row for row in result.rows}
    for name in SPEEDUP_GATED_ROWS:
        row = measured.get(name)
        if row is None:
            continue  # full-scale-only row absent at smoke scale
        speedup = row["speedup_vs_seed"]
        if speedup < effective_floor:
            # Re-measure before failing: min over extra runs discards
            # scheduler noise but can never manufacture speed.
            _, encoding, options, run_length, subset_cap = by_name[name]
            # Full-size stream regardless of the run's scale: the seed
            # figures were recorded at full scale, so the retry compares
            # like with like.
            stream = np.array(reference_synthetic(6000))
            best_us = row["us_per_item"]
            for _ in range(3):
                retry_floor = adjacent_floor()
                elapsed = _embed_time(stream, encoding, options,
                                      run_length, subset_cap)
                best_us = min(best_us, 1e6 * elapsed / len(stream))
                speedup = SEED_US_PER_ITEM[name] / best_us
                effective_floor = retry_floor
                if speedup >= effective_floor:
                    break
        if speedup < effective_floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below floor "
                f"{floor}x (calibration-adjusted {effective_floor:.2f}x)")
    if detect_parallel is not None:
        if not detect_parallel["merge_exact"]:
            failures.append("detect_parallel: serial and pooled vote "
                            "buckets diverged (merge law violated)")
        if detect_parallel["cpu_count"] >= detect_parallel["workers"] \
                and detect_parallel["speedup"] < scaling_floor:
            failures.append(
                f"detect_parallel: {detect_parallel['speedup']}x at "
                f"{detect_parallel['workers']} workers below "
                f"{scaling_floor}x on a {detect_parallel['cpu_count']}"
                f"-core machine")
    return failures


def _reference_outputs() -> dict:
    """Embed + detect the fixed reference stream; digest the outputs."""
    stream = np.array(reference_synthetic(_REFERENCE_N))
    params = synthetic_params().with_updates(phi=5)
    marked, report = watermark_stream(stream, _REFERENCE_WATERMARK,
                                      DEFAULT_KEY, params=params)
    detection = detect_watermark(marked, len(_REFERENCE_WATERMARK),
                                 DEFAULT_KEY, params=params)
    return {
        "n_items": _REFERENCE_N,
        "watermark": _REFERENCE_WATERMARK,
        "marked_sha256": hashlib.sha256(marked.tobytes()).hexdigest(),
        "embedded": report.embedded,
        "bias": [detection.bias(i) for i in range(detection.wm_length)],
        "wm_estimate": [None if b is None else bool(b)
                        for b in detection.wm_estimate()],
    }


def reference_check(path: str) -> "list[str]":
    """Compare current embed/detect outputs against a recorded reference.

    Returns a list of human-readable mismatches (empty == bit-identical).
    """
    with open(path) as handle:
        recorded = json.load(handle)
    current = _reference_outputs()
    mismatches = []
    for field, expected in recorded.items():
        if current.get(field) != expected:
            mismatches.append(
                f"{field}: recorded {expected!r}, current "
                f"{current.get(field)!r}")
    return mismatches


def write_reference(path: str) -> None:
    """Record the current embed/detect outputs as the reference."""
    with open(path, "w") as handle:
        json.dump(_reference_outputs(), handle, indent=1)
        handle.write("\n")


def main(argv: "list[str] | None" = None) -> int:
    """CLI for the benchmark smoke job (see module docstring)."""
    import argparse

    from repro.experiments.runner import format_table

    parser = argparse.ArgumentParser(
        description="throughput harness: µs/item per encoding")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload multiplier (default 1.0)")
    parser.add_argument("--json", metavar="PATH",
                        help="write BENCH_throughput.json payload here")
    parser.add_argument("--check", metavar="PATH",
                        help="verify embed/detect outputs against this "
                             "recorded reference; non-zero exit on drift")
    parser.add_argument("--write-reference", metavar="PATH",
                        help="record current embed/detect outputs as the "
                             "reference")
    parser.add_argument("--assert-speedups", type=float, metavar="FLOOR",
                        default=None,
                        help="fail unless every batched-encoding row "
                             "beats FLOORx over the seed figures "
                             "(calibration-adjusted) and the parallel "
                             "vote merge is exact")
    args = parser.parse_args(argv)

    result = run_throughput(args.scale)
    print(format_table(result))
    soak = run_hub_soak(
        n_streams=max(100, int(1000 * min(args.scale, 1.0))))
    print(f"hub soak ({soak['n_streams']} streams): "
          f"{soak['hub_us_per_item']} us/item vs single "
          f"{soak['single_session_us_per_item']} us/item "
          f"(ratio {soak['hub_overhead_ratio']})")
    loopback = run_remote_loopback(
        n_items=max(10000, int(40000 * min(args.scale, 1.0))))
    print(f"remote loopback ({loopback['items']} items): "
          f"{loopback['remote_us_per_item']} us/item vs in-process "
          f"{loopback['inprocess_hub_us_per_item']} us/item "
          f"(ratio {loopback['remote_overhead_ratio']})")
    parallel = run_detect_parallel(
        n_items=max(70000, int(140000 * min(args.scale, 1.0))))
    print(f"detect parallel ({parallel['items']} items, "
          f"{parallel['spans']} spans): {parallel['speedup']}x at "
          f"{parallel['workers']} workers on {parallel['cpu_count']} "
          f"cores, merge_exact={parallel['merge_exact']}")
    overhead = run_metrics_overhead(
        n_items=max(30000, int(120000 * min(args.scale, 1.0))))
    print(f"metrics overhead ({overhead['items']} items): enabled "
          f"{overhead['enabled_us_per_item']} us/item vs disabled "
          f"{overhead['disabled_us_per_item']} us/item "
          f"(ratio {overhead['overhead_ratio']})")
    churn = run_loadgen_churn()
    print(f"loadgen churn ({churn['workers']} workers, "
          f"{churn['crashes']} crashes): push p50 "
          f"{churn['push_ms']['p50']} ms, p99 {churn['push_ms']['p99']} "
          f"ms, {churn['items_per_s']} items/s, "
          f"verify_failures={churn['verify_failures']}")
    chaos_soak = run_chaos_soak()
    print(f"chaos soak (seed {chaos_soak['seed']}): "
          f"{chaos_soak['server_crashes']} server crashes / "
          f"{chaos_soak['supervisor_restarts']} restarts, "
          f"{chaos_soak['fault_events']} server-side faults, "
          f"{chaos_soak['reconnects']} reconnects, "
          f"verify_failures={chaos_soak['verify_failures']}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(throughput_json(result, args.scale, hub_soak=soak,
                                      remote_loopback=loopback,
                                      detect_parallel=parallel,
                                      metrics_overhead=overhead,
                                      loadgen_churn=churn,
                                      chaos_soak=chaos_soak),
                      handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.json}")
    if args.assert_speedups is not None:
        failures = check_speedups(result, args.assert_speedups,
                                  detect_parallel=parallel)
        if churn["verify_failures"] or churn["worker_errors"]:
            failures.append(
                "loadgen_churn: exactly-once delivery violated under "
                f"churn ({churn['verify_failures']} verify failures, "
                f"{len(churn['worker_errors'])} worker errors)")
        if chaos_soak["verify_failures"] or chaos_soak["worker_errors"]:
            failures.append(
                "chaos_soak: stream loss or bit drift under faults "
                f"({chaos_soak['verify_failures']} verify failures, "
                f"{len(chaos_soak['worker_errors'])} worker errors)")
        if chaos_soak["supervisor_restarts"] < 3:
            failures.append(
                "chaos_soak: expected the seeded plan to force >= 3 "
                "server crash/restart cycles, saw "
                f"{chaos_soak['supervisor_restarts']}")
        if chaos_soak["supervisor_returncode"] != 0:
            failures.append(
                "chaos_soak: supervisor did not stop cleanly on "
                f"SIGTERM (exit {chaos_soak['supervisor_returncode']})")
        if failures:
            for line in failures:
                print(f"SPEEDUP FLOOR MISSED — {line}")
            return 1
        print(f"speedup floors held (>= {args.assert_speedups}x, "
              "merge exact)")
    if args.write_reference:
        write_reference(args.write_reference)
        print(f"recorded reference outputs at {args.write_reference}")
    if args.check:
        mismatches = reference_check(args.check)
        if mismatches:
            for line in mismatches:
                print(f"REFERENCE DRIFT — {line}")
            return 1
        print("embed/detect outputs bit-identical to recorded reference")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI smoke
    raise SystemExit(main())
