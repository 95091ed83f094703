"""Bench: Sec 6.4 — per-item cost of each encoding, plus the hub soak.

Prints the human-readable table and builds the machine-readable
``BENCH_throughput.json`` payload (µs/item and speedup over the seed
revision's recorded figures, and the 1,000-stream hub soak's µs/item
next to the single-session figure), but writes nothing under
``benchmarks/results/``: timings change from run to run, so the tracked
files change only when someone records them on purpose with
``python -m repro.experiments.throughput --json``.  It asserts the
vectorized scan keeps the initial encoding at least 5x faster than the
seed, and that multiplexing 1,000 concurrent streams through a
:class:`repro.StreamHub` costs at most 1.5x the per-item price of one
dedicated session.
"""

from __future__ import annotations

import json

import numpy as np
from _util import run_once

from repro.experiments.config import bench_scale
from repro.experiments.datasets import reference_synthetic
from repro.experiments.runner import format_table
from repro.experiments.throughput import (
    SEED_US_PER_ITEM,
    _embed_time,
    machine_calibration,
    run_chaos_soak,
    run_hub_soak,
    run_loadgen_churn,
    run_metrics_overhead,
    run_remote_loopback,
    run_throughput,
    throughput_json,
)


def test_throughput_overheads(benchmark):
    scale = bench_scale()
    result = run_once(benchmark, run_throughput, scale)
    print("\n" + format_table(result))

    # Hub soak: 1,000 concurrent small-chunk streams at full scale
    # (proportionally fewer when the harness shrinks the workload).
    soak = run_hub_soak(n_streams=max(100, int(1000 * min(scale, 1.0))))
    print(f"\nhub soak: {soak['n_streams']} streams x "
          f"{soak['batches_per_stream']} x {soak['chunk']}-item chunks: "
          f"hub {soak['hub_us_per_item']} us/item vs single "
          f"{soak['single_session_us_per_item']} us/item "
          f"(ratio {soak['hub_overhead_ratio']})")

    # Remote loopback: the same pushes through a `repro serve`
    # subprocess on 127.0.0.1, pricing each transport — framing,
    # payload codec, loopback round trips, credits — against the
    # in-process hub, in CPU seconds.
    loopback = run_remote_loopback(
        n_items=max(50000, int(200000 * min(scale, 1.0))))
    print(f"remote loopback: {loopback['items']} items x "
          f"{loopback['chunk']}-item chunks vs in-process "
          f"{loopback['inprocess_hub_us_per_item']} us/item:")
    for name, scenario in loopback["scenarios"].items():
        print(f"  {name}: {scenario['us_per_item']} us/item "
              f"(ratio {scenario['overhead_ratio']}), "
              f"{scenario['bytes_on_wire']} bytes on wire in "
              f"{scenario['frames_sent']}+{scenario['frames_received']} "
              f"frames")

    # Observability pricing: an enabled registry must stay within 5% of
    # the null-instrument push path ("near-zero cost when disabled" has
    # a measured enabled-side twin).  The margin is thin enough that a
    # descheduled sample can breach it, so the guard re-measures
    # (min-of-runs, the standard noise-floor estimator) before failing.
    overhead = run_metrics_overhead(
        n_items=max(30000, int(120000 * min(scale, 1.0))))
    for _ in range(3):
        if overhead["overhead_ratio"] <= 1.05:
            break
        retry = run_metrics_overhead(
            n_items=max(30000, int(120000 * min(scale, 1.0))))
        if retry["overhead_ratio"] < overhead["overhead_ratio"]:
            overhead = retry
    print(f"metrics overhead: enabled {overhead['enabled_us_per_item']} "
          f"us/item vs disabled {overhead['disabled_us_per_item']} "
          f"us/item (ratio {overhead['overhead_ratio']})")

    # Churn harness: concurrent clients crash and resume mid-stream;
    # the p50/p99 feed latency is the fleet-facing health figure.
    churn = run_loadgen_churn()
    print(f"loadgen churn: {churn['workers']} workers, "
          f"{churn['crashes']} crashes/{churn['resumes']} resumes, "
          f"push p50 {churn['push_ms']['p50']} ms / p99 "
          f"{churn['push_ms']['p99']} ms, {churn['items_per_s']} items/s")

    # Chaos soak: the same fleet through a chaotic client transport at
    # a supervised server running a seeded fault plan (resets, torn
    # checkpoint writes, forced crashes).  The robustness gate: every
    # crash is restarted, every stream resumes, and the outputs stay
    # bit-identical to a fault-free embed.
    chaos_soak = run_chaos_soak()
    print(f"chaos soak (seed {chaos_soak['seed']}): "
          f"{chaos_soak['server_crashes']} server crashes / "
          f"{chaos_soak['supervisor_restarts']} restarts, "
          f"{chaos_soak['fault_events']} server-side faults, "
          f"{chaos_soak['reconnects']} reconnects, "
          f"verify_failures={chaos_soak['verify_failures']}")

    payload = throughput_json(result, scale, hub_soak=soak,
                              remote_loopback=loopback,
                              metrics_overhead=overhead,
                              loadgen_churn=churn,
                              chaos_soak=chaos_soak)
    json.dumps(payload)  # the recorded artifact must stay serializable

    # Enabled metrics stay within 5% µs/item on the initial encoding
    # push path, and churn must not bend exactly-once delivery.
    assert overhead["overhead_ratio"] <= 1.05
    assert churn["verify_failures"] == 0
    assert not churn["worker_errors"]
    assert churn["push_ms"]["count"] > 0
    assert churn["push_ms"]["p50"] is not None
    assert churn["push_ms"]["p99"] is not None

    # Chaos contract: zero stream loss, bit-identical outputs, the
    # seeded plan forced at least 3 crash/restart cycles (so the soak
    # actually exercised recovery), faults really fired, and SIGTERM
    # still drains cleanly through the supervisor.
    assert chaos_soak["verify_failures"] == 0
    assert not chaos_soak["worker_errors"]
    assert chaos_soak["supervisor_restarts"] >= 3
    assert chaos_soak["server_crashes"] >= 3
    assert chaos_soak["fault_events"] > 0
    assert chaos_soak["supervisor_returncode"] == 0

    # Multiplexing must stay within a small factor of a dedicated
    # session regardless of machine speed (both sides measured here).
    assert soak["hub_overhead_ratio"] <= 1.5
    # The serving layer is a per-item cost, not a per-stream stall:
    # the binary-codec TCP path measures ~1.05-1.10x the in-process hub
    # in CPU terms; the ceiling guards against per-item-Python
    # regressions in the frame path while tolerating codec-level churn.
    assert loopback["remote_overhead_ratio"] <= 2.0

    rows = {row["configuration"]: row for row in result.rows}
    baseline = rows["read-and-copy"]["seconds"]
    assert baseline > 0
    # Ordering the paper reports: initial encoding is the cheapest
    # watermarking configuration; exhaustive multi-hash the dearest.
    initial = rows["initial"]["seconds"]
    random_g2 = rows["multihash-random-g2"]["seconds"]
    assert initial <= random_g2
    # The pruned search beats the random search at equal resilience.
    if "multihash-random-g3" in rows:
        assert rows["multihash-pruned-g3"]["seconds"] <= \
            rows["multihash-random-g3"]["seconds"]
    # The vectorized scan hot path: initial encoding at least 5x faster
    # (µs/item) than the seed revision's recorded figure.  The recorded
    # figures are absolute numbers from one (idle) machine, so the
    # threshold is rescaled by how much slower this machine runs the
    # seed's own baseline loop (never tightened on faster machines).
    # The floor sits ~7% under the limit, so a cache-thrashing
    # co-tenant can push a single sample over it even in CPU time; the
    # guard re-samples the (cheap) measurement and keeps the minimum —
    # the standard noise-floor estimator — before declaring a
    # regression.  Guarded to full-scale runs; tiny streams amortize
    # fixed costs differently.
    if scale >= 1.0:
        slowdown = max(
            machine_calibration() / SEED_US_PER_ITEM["read-and-copy"], 1.0)
        limit = slowdown * SEED_US_PER_ITEM["initial"] / 5.0
        stream = np.asarray(reference_synthetic(6000))
        initial_us = rows["initial"]["us_per_item"]
        for _ in range(10):
            if initial_us <= limit:
                break
            initial_us = min(initial_us,
                             1e6 * _embed_time(stream, "initial")
                             / len(stream))
        assert initial_us <= limit
