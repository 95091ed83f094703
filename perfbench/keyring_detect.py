"""keyring_detect: offline key-ring sweeps through ``StreamHub.detect_batch``.

A rights holder screens suspect excerpts against a ring of 8 keys.
Each suspect is swept with one ``StreamHub.detect_batch(..., workers=2)``
call: one detection task per ring key, run by the process pool that
``parallel_detect.run_tasks`` builds on every call.  There is no server
and no store, so the time goes to detection scans, ``multihash``
``detect`` and the pool.

Suspects are windows of streams marked (``multihash``, 3 bits) under one
ring key, or of an unmarked stream, sampled or summarized at degree 2
and detected at that ``transform_degree``.  At 20k items per suspect a
2-worker sweep pays a visible pool cost yet still beats a serial sweep.

Every input comes from ``--seed``; ``--seconds`` sets the number of
suspects (about ``SWEEPS_PER_SECOND`` sweeps a second on a 2-core x86
host).  Marking and attacks happen before set-up and are not timed.
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro import StreamHub, watermark_stream
from repro.core.confidence import exact_bias_fp
from repro.core.parallel_detect import DetectionTask, run_task
from repro.streams import TemperatureSensorGenerator
from repro.transforms import summarize, uniform_random_sampling

from common import (PARAMS, PAYLOAD_BITS, key_from, mean, median,
                    payload_from, percentile, ratio, rng_for)
from tracing import Tracer, duration_us

RING_SIZE = 8
WORKERS = 2
DEGREE = 2
SUSPECT_ITEMS = 20_000
SOURCE_ITEMS = 80_000
MARKED_SOURCES = 2
SWEEPS_PER_SECOND = 2.2
#: One cycle sweeps one suspect of every (source, transform) kind;
#: throughput and CPU are medians over cycles.
CYCLE = (MARKED_SOURCES + 1) * 2
MIN_CYCLES = 3
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: The warm-up sweep runs the first suspect against this many ring keys:
#: one full-size task per pool worker.
WARMUP_KEYS = WORKERS
#: A bit is decided when its exact false-positive probability
#: (``exact_bias_fp`` on |bias|) is below this.  The marking key must
#: decide every bit, correctly; no other (suspect, key) pair may decide
#: any.  ``match_fraction(...) == 1.0`` is no such test: a wrong key on a
#: 3-bit payload reaches it by chance.  Over 3.5k bits read with a wrong
#: key or from an unmarked excerpt (seeds 1-9) the smallest probability
#: was 3e-4; marking keys stayed below 1e-22.
FP_THRESHOLD = 1e-9


@dataclass
class Suspect:
    """One suspect excerpt and what detection must find in it."""

    values: "object"
    #: Ring index of the marking key, or ``None`` for an unmarked excerpt.
    marked_by: "int | None"
    payload: "str | None"


def make_suspects(seed: int, seconds: int) -> "tuple[list, list[Suspect]]":
    """The seeded ring and suspects (marking and attacks happen here)."""
    rng = rng_for(seed, 0)
    ring = [key_from(rng) for _ in range(RING_SIZE)]
    markers = rng.choice(RING_SIZE, MARKED_SOURCES, replace=False)
    sources = []
    for index in range(MARKED_SOURCES + 1):
        source_rng = rng_for(seed, 1 + index)
        values = TemperatureSensorGenerator(
            eta=60, seed=int(source_rng.integers(2 ** 31))).generate(
                SOURCE_ITEMS)
        if index < MARKED_SOURCES:
            payload = payload_from(source_rng)
            values, _ = watermark_stream(values, payload,
                                         ring[markers[index]], params=PARAMS)
            sources.append((values, int(markers[index]), payload))
        else:
            sources.append((values, None, None))
    cycles = max(MIN_CYCLES, round(seconds * SWEEPS_PER_SECOND / CYCLE))
    suspects = []
    for index in range(cycles * CYCLE):
        values, marked_by, payload = sources[index % len(sources)]
        cut_rng = rng_for(seed, 100 + index)
        span = DEGREE * SUSPECT_ITEMS
        start = int(cut_rng.integers(0, values.size - span + 1))
        window = values[start:start + span]
        if (index // len(sources)) % 2:
            excerpt = summarize(window, DEGREE)
        else:
            excerpt = uniform_random_sampling(window, DEGREE, rng=cut_rng)
        suspects.append(Suspect(excerpt, marked_by, payload))
    return ring, suspects


def make_tasks(ring, suspect: Suspect) -> "list[DetectionTask]":
    """One detection task per ring key."""
    return [DetectionTask(values=suspect.values, wm_length=PAYLOAD_BITS,
                          key=key, params=PARAMS, transform_degree=DEGREE)
            for key in ring]


def check(suspect: Suspect, results) -> "str | None":
    """Why the sweep's verdicts are wrong, or ``None`` when they are right."""
    for index, result in enumerate(results):
        fps = [exact_bias_fp(result.votes(bit), abs(result.bias(bit)))
               for bit in range(PAYLOAD_BITS)]
        if index == suspect.marked_by:
            bits = [result.bias(bit) > 0 for bit in range(PAYLOAD_BITS)]
            expected = [char == "1" for char in suspect.payload]
            if max(fps) >= FP_THRESHOLD or bits != expected:
                return (f"marking key {index} did not recover "
                        f"{suspect.payload}: fp {fps}, bias "
                        f"{[result.bias(b) for b in range(PAYLOAD_BITS)]}")
        elif min(fps) < FP_THRESHOLD:
            return f"key {index} decided a bit it never marked: fp {fps}"
    return None


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Sweeps:
    """One pass over every suspect."""

    walls: "list[float]" = field(default_factory=list)
    #: Per cycle: (items scanned, wall seconds, CPU seconds).
    cycles: "list[tuple[int, float, float]]" = field(default_factory=list)
    results: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def sweep_all(suspects: "list[Suspect]", tasks: list,
              serial: "list | None" = None) -> Sweeps:
    """Sweep every suspect, cycle by cycle, then check every verdict.

    With ``serial``, each sweep is followed by its tasks run one by one
    in process, appending ``(busy seconds per task, CPU seconds)``:
    spans recorded inside forked pool workers never reach the parent, so
    per-task busy time comes from ``run_task`` run serially.
    """
    out = Sweeps()
    for first in range(0, len(suspects), CYCLE):
        scanned = 0
        cpu = time.process_time() + _children_cpu()
        start = time.perf_counter()
        for index in range(first, first + CYCLE):
            scanned += suspects[index].values.size * RING_SIZE
            out.attempted += 1
            began = time.perf_counter()
            try:
                verdicts = StreamHub.detect_batch(tasks[index],
                                                  workers=WORKERS)
            except Exception as exc:  # counted as a failed operation
                out.failed += 1
                print("perfbench: failed: sweep: "
                      + "".join(traceback.format_exception_only(exc)),
                      file=sys.stderr)
                continue
            out.walls.append(time.perf_counter() - began)
            out.results.append((suspects[index], verdicts))
            if serial is not None:
                serial.append(_serial(tasks[index]))
        out.cycles.append((scanned, time.perf_counter() - start,
                           time.process_time() + _children_cpu() - cpu))
    for suspect, verdicts in out.results:
        out.attempted += 1
        problem = check(suspect, verdicts)
        if problem is not None:
            out.failed += 1
            print(f"perfbench: failed: {problem}", file=sys.stderr)
    return out


def _serial(tasks) -> "tuple[list[float], float]":
    busy = []
    cpu = time.process_time()
    for task in tasks:
        start = time.perf_counter()
        run_task(task)
        busy.append(time.perf_counter() - start)
    return busy, time.process_time() - cpu


def _setup(ring, suspects) -> "tuple[list, float]":
    """Task construction plus one warm-up sweep through the pool."""
    start = time.perf_counter()
    tasks = [make_tasks(ring, suspect) for suspect in suspects]
    StreamHub.detect_batch(tasks[0][:WARMUP_KEYS], workers=WORKERS)
    return tasks, time.perf_counter() - start


def _peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run(workload: str, seed: int, seconds: int, trace: bool,
        work_dir) -> dict:
    """Run keyring_detect; see :mod:`run` for the report shape."""
    ring, suspects = make_suspects(seed, seconds)
    setups = []
    for _ in range(1 if trace else SETUPS):
        tasks, elapsed = _setup(ring, suspects)
        setups.append(elapsed)
    untraced = sweep_all(suspects, tasks)
    if not trace:
        walls = untraced.walls
        return {"metrics": {
            "setup_s": (median(setups), len(setups)),
            "items_per_s": (
                median([n / wall for n, wall, _ in untraced.cycles]),
                len(untraced.cycles)),
            "cpu_us_per_item": (
                median([1e6 * cpu / n for n, _, cpu in untraced.cycles]),
                len(untraced.cycles)),
            "latency_ms_p50": (1e3 * percentile(walls, 50), len(walls)),
            "latency_ms_p99": (1e3 * percentile(walls, 99), len(walls)),
            "peak_rss_mb": (_peak_rss_mb(), 1),
        }, "attempted": untraced.attempted, "failed": untraced.failed}

    tracer = Tracer()
    tracer.install_encodings()
    serial: list = []
    try:
        traced = sweep_all(suspects, tasks, serial=serial)
    finally:
        tracer.uninstall()
    items = sum(s.values.size for s in suspects) * RING_SIZE
    return {"metrics": _per_layer(untraced, traced, serial, tracer, items),
            "attempted": untraced.attempted + traced.attempted,
            "failed": untraced.failed + traced.failed}


def _per_layer(untraced: Sweeps, traced: Sweeps, serial: list,
               tracer: Tracer, items: int) -> dict:
    busy = [sum(times) for times, _ in serial]
    tasks_ms = [1e3 * t for times, _ in serial for t in times]
    detects = [duration_us(span) for span in tracer.spans
               if span[0] == "encoding.detect"]
    overheads = [1e3 * (wall - b / WORKERS)
                 for wall, b in zip(traced.walls, busy)]
    counters = [r.counters for _, verdicts in untraced.results
                for r in verdicts]
    scanned = sum(c.items for c in counters)
    extremes = sum(c.extremes_confirmed for c in counters)
    votes = [r.votes(bit) for _, verdicts in untraced.results
             for r in verdicts for bit in range(PAYLOAD_BITS)]
    return {
        "scanner.self_us_per_item": (
            ratio(1e6 * sum(busy) - sum(detects), items), items),
        "scanner.extremes_per_kitem": (1e3 * ratio(extremes, scanned),
                                       scanned),
        "scanner.selected_per_extreme": (
            ratio(sum(c.selected for c in counters), extremes), extremes),
        "scanner.missed_evictions": (
            sum(c.missed_evictions for c in counters), scanned),
        "scanner.warmup_skips": (sum(c.warmup_skips for c in counters),
                                 scanned),
        "encoding.detect_us": (mean(detects), len(detects)),
        "detector.task_ms_p50": (percentile(tasks_ms, 50), len(tasks_ms)),
        "detector.votes_per_bit": (mean(votes), len(votes)),
        "parallel_detect.pool_overhead_ms": (median(overheads),
                                             len(overheads)),
        "parallel_detect.utilization": (
            ratio(sum(busy), WORKERS * sum(traced.walls)), len(busy)),
        "baseline.inproc_cpu_us_per_item": (
            1e6 * sum(cpu for _, cpu in serial) / items, items),
        "trace.overhead_ratio": (
            ratio(sum(traced.walls), sum(untraced.walls)), len(traced.walls)),
    }
