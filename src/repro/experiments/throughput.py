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
work.  ``benchmarks/test_throughput.py`` asserts the paper's ordering
and the speedup floors over :data:`SEED_US_PER_ITEM`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.embedder import StreamWatermarker
from repro.experiments.config import DEFAULT_KEY, scaled, synthetic_params
from repro.experiments.datasets import reference_synthetic
from repro.experiments.runner import ExperimentResult

#: µs/item recorded by the seed revision (its throughput table, at the
#: pre-vectorization commit); ``speedup_vs_seed`` and the speedup floors
#: are measured against these.
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
