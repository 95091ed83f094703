"""sensor_fleet and mixed_tenants: closed-loop traffic into ``repro serve``.

Both workloads run against the same server: ``repro serve`` with every
option at its default (tcp, binary wire, the in-memory checkpoint store,
a checkpoint after every push).  One client process drives it over two
connections.  Each connection is a closed loop: it sends its next feed
only after the previous one returned.

* ``sensor_fleet``: 64 ``initial`` streams, half on each connection, fed
  round-robin in 256-item chunks.  Per-push serving work dominates:
  codec, transport, credit flow, the replay sidecar and the checkpoint.
* ``mixed_tenants``: connection A feeds 32 ``initial`` streams of tenant
  ``sensors`` in 256-item chunks; connection B re-marks 2 recordings of
  tenant ``archive`` with ``multihash`` in 4096-item chunks.  Latency
  metrics count A's pushes only.

The server runs each push inline on its one event loop and takes its
connections in turn, so while the archive runs, every sensor push waits
behind one archive push.  A sensor connection that had to outlast the
archive would see that stall on every push and could not make the 1000
pushes a p99 needs in a bounded run.  So the archive's fixed work is
``ARCHIVE_SHARE`` of A's pushes: p99 of A's latency falls among the
stalled pushes and p50 among the rest.

The client process and the server it spawns share one CPU.  The two take
turns rather than compute together; spread over the two vCPUs of a
shared VM they followed the second vCPU's availability instead.  On
mixed_tenants, runs made in pairs spread 27-31% of their median unpinned
against 12-20% pinned.  A server that computes in parallel processes
would be held to one CPU by this choice; such a change has to revisit it.

The checkpoint store is the in-memory one because the fsync'd directory
store (``--store``) made runs of identical code disagree far beyond any
bound the benchmark may set: on a 2-core host with a shared disk,
sensor_fleet's p99 spread over 26-63% of its median from run to run,
following the disk's fsync latency.  Every push still checkpoints the
session and its replay sidecar through ``CheckpointStore.save``.

Every input comes from ``--seed``.  ``--seconds`` sets how much fixed
work a run does (the rates below were measured on a 2-core x86 host);
no clock ever cuts a run short.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import signal
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import watermark_stream
from repro.server import AsyncRemoteClient
from repro.streams import TemperatureSensorGenerator

from common import (HERE, PARAMS, ROOT, SRC, key_from, mean, median,
                    payload_from, percentile, proc_cpu_seconds,
                    proc_peak_rss_mb, ratio, rng_for)
from tracing import (Tracer, covered_ns, duration_us, push_stream,
                     self_time_us, union_ns)

SENSOR_CHUNK = 256
ARCHIVE_CHUNK = 4096
FLEET_STREAMS = 64
MIXED_SENSOR_STREAMS = 32
ARCHIVE_RECORDINGS = 2
#: Archive pushes per sensor push in mixed_tenants.
ARCHIVE_SHARE = 1 / 24
#: Latency samples per segment: at least 10 lie beyond its p99.
MIN_LATENCY_SAMPLES = 1000
#: Rounds (one push per stream) per second of timed phase.
FLEET_ROUNDS_PER_SECOND = 11.5
MIXED_ROUNDS_PER_SECOND = 7.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Slices of the timed phase; every end-to-end figure but set-up time
#: and memory is the median of the segments' figures, so a burst of host
#: noise inside one segment does not move it.
SEGMENTS = 3
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0


@dataclass
class Stream:
    """One served stream: its inputs, identity and place in the traffic."""

    stream_id: str
    tenant: str
    connection: int
    encoding: str
    chunk: int
    key: bytes
    payload: str
    values: np.ndarray
    #: Whether this stream's feeds count toward the latency metrics.
    latency: bool


def make_streams(workload: str, seed: int, seconds: int) -> "list[Stream]":
    """The seeded inputs of one served workload."""
    specs = []
    if workload == "sensor_fleet":
        rounds = _rounds(seconds, FLEET_ROUNDS_PER_SECOND, FLEET_STREAMS)
        specs += [(f"sensor-{i:02d}", "sensors", i % 2, "initial",
                   SENSOR_CHUNK, rounds, True) for i in range(FLEET_STREAMS)]
    else:
        rounds = _rounds(seconds, MIXED_ROUNDS_PER_SECOND,
                         MIXED_SENSOR_STREAMS)
        archive = math.ceil(MIXED_SENSOR_STREAMS * rounds * ARCHIVE_SHARE
                            / ARCHIVE_RECORDINGS)
        specs += [(f"sensor-{i:02d}", "sensors", 0, "initial", SENSOR_CHUNK,
                   rounds, True) for i in range(MIXED_SENSOR_STREAMS)]
        specs += [(f"archive-{j}", "archive", 1, "multihash", ARCHIVE_CHUNK,
                   archive, False) for j in range(ARCHIVE_RECORDINGS)]
    streams = []
    for index, (stream_id, tenant, connection, encoding, chunk, chunks,
                latency) in enumerate(specs):
        rng = rng_for(seed, index)
        generator = TemperatureSensorGenerator(
            eta=60, seed=int(rng.integers(2 ** 31)))
        streams.append(Stream(stream_id, tenant, connection, encoding, chunk,
                              key_from(rng), payload_from(rng),
                              generator.generate(chunk * chunks), latency))
    return streams


def _rounds(seconds: int, per_second: float, streams: int) -> int:
    return max(math.ceil(SEGMENTS * MIN_LATENCY_SAMPLES / streams),
               round(seconds * per_second))


@dataclass
class Reference:
    """The in-process reference run: expected outputs and their cost."""

    outputs: "dict[str, np.ndarray]"
    reports: list
    cpu_seconds: float
    items: int


def reference_run(streams: "list[Stream]") -> Reference:
    """``watermark_stream`` of every input, single-threaded, in process."""
    outputs, reports = {}, []
    start = time.process_time()
    for stream in streams:
        marked, report = watermark_stream(stream.values, stream.payload,
                                          stream.key, params=PARAMS,
                                          encoding=stream.encoding)
        outputs[stream.stream_id] = marked
        reports.append(report)
    return Reference(outputs, reports, time.process_time() - start,
                     sum(stream.values.size for stream in streams))


class Server:
    """One ``repro serve`` child; :meth:`stop` always reaps it."""

    def __init__(self, spans_path: "Path | None") -> None:
        serve = ["serve", "--port", "0"]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"),
                    str(spans_path), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                        text=True, cwd=ROOT, env=env)

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self) -> int:
        """The port from the server's ready line."""
        readable, _, _ = select.select([self.process.stdout], [], [],
                                       READY_TIMEOUT)
        line = self.process.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError(
                f"repro serve did not report ready within {READY_TIMEOUT}s "
                f"(exit code {self.process.poll()})")
        return int(json.loads(line)["serving"]["port"])

    def stop(self) -> None:
        """SIGTERM, a bounded wait, then SIGKILL."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=STOP_TIMEOUT)
        finally:
            self.process.stdout.close()


@dataclass
class Segment:
    """One slice of the timed phase: every connection's share of rounds."""

    wall: float = 0.0
    client_cpu: float = 0.0
    server_cpu: float = 0.0
    items: int = 0
    pushes: int = 0
    latencies: "list[float]" = field(default_factory=list)


@dataclass
class Pass:
    """What one server lifetime of a workload measured."""

    setup_seconds: "list[float]" = field(default_factory=list)
    segments: "list[Segment]" = field(default_factory=list)
    window_ns: "tuple[int, int]" = (0, 0)
    peak_rss_mb: float = 0.0
    status: dict = field(default_factory=dict)
    wire: "list[dict]" = field(default_factory=list)
    reconnects: int = 0
    attempted: int = 0
    failed: int = 0
    spans: "dict | None" = None
    client_spans: list = field(default_factory=list)

    def total(self, name: str) -> float:
        """Sum of one :class:`Segment` field over the timed phase."""
        return sum(getattr(segment, name) for segment in self.segments)

    @property
    def latencies(self) -> "list[float]":
        return [value for segment in self.segments
                for value in segment.latencies]


def _failure(result: Pass, message: str) -> None:
    result.failed += 1
    print(f"perfbench: failed: {message}", file=sys.stderr)


def _segments(streams: "list[Stream]", connection: int) -> list:
    """One connection's round-robin ``(stream, chunk)`` pushes, cut into
    ``SEGMENTS`` runs of whole rounds."""
    mine = [stream for stream in streams if stream.connection == connection]
    rounds = mine[0].values.size // mine[0].chunk
    return [[(stream, stream.values[r * stream.chunk:(r + 1) * stream.chunk])
             for r in part for stream in mine]
            for part in np.array_split(np.arange(rounds), SEGMENTS)]


async def _timed_phase(result: Pass, server: Server, clients: dict,
                       sessions: dict, streams: "list[Stream]") -> dict:
    """Feed every segment, then take STATUS and finish every stream.

    Connections wait for each other at segment ends, so each segment is
    the same traffic mix.
    """
    outputs = {stream.stream_id: [] for stream in streams}
    plans = {connection: _segments(streams, connection)
             for connection in clients}

    async def drive(connection: int, pushes: list, segment: Segment) -> None:
        client = clients[connection]
        for stream, piece in pushes:
            reconnects = client.reconnects
            start = time.perf_counter()
            try:
                out = await sessions[stream.stream_id].feed(piece)
            except Exception as exc:  # counted as a failed operation
                _failure(result, f"feed {stream.stream_id}: "
                         + "".join(traceback.format_exception_only(exc)))
                continue
            elapsed = time.perf_counter() - start
            outputs[stream.stream_id].append(out)
            if client.reconnects != reconnects:
                _failure(result, f"feed {stream.stream_id} reconnected")
            if stream.latency:
                segment.latencies.append(elapsed)

    window_start = time.perf_counter_ns()
    for index in range(SEGMENTS):
        segment = Segment()
        work = [(connection, plan[index])
                for connection, plan in plans.items()]
        segment.pushes = sum(len(pushes) for _, pushes in work)
        segment.items = sum(piece.size for _, pushes in work
                            for _, piece in pushes)
        server_cpu = proc_cpu_seconds(server.pid)
        client_cpu = time.process_time()
        start = time.perf_counter()
        await asyncio.gather(*(drive(connection, pushes, segment)
                               for connection, pushes in work))
        segment.wall = time.perf_counter() - start
        segment.client_cpu = time.process_time() - client_cpu
        segment.server_cpu = proc_cpu_seconds(server.pid) - server_cpu
        result.segments.append(segment)
    result.window_ns = (window_start, time.perf_counter_ns())
    result.attempted += int(result.total("pushes"))
    # After the last feed and before any FLUSH: FLUSH drops finished
    # streams, and the hub's encoding summary covers live streams only.
    result.status = await clients[0].status()
    result.peak_rss_mb = proc_peak_rss_mb(server.pid)
    result.wire = [client.wire_stats() for client in clients.values()]
    for stream in streams:
        result.attempted += 1
        try:
            outputs[stream.stream_id].append(
                await sessions[stream.stream_id].finish())
        except Exception as exc:  # counted as a failed operation
            _failure(result, f"finish {stream.stream_id}: "
                     + "".join(traceback.format_exception_only(exc)))
    result.reconnects = sum(client.reconnects for client in clients.values())
    return outputs


async def serve_pass(streams: "list[Stream]", reference: Reference, *,
                     setups: int, spans_path: "Path | None" = None) -> Pass:
    """Set up ``setups`` times, then run the timed phase on the last one.

    Set-up is server spawn to its ready line, the HELLOs and every OPEN.
    The output of every stream is checked against the reference after
    the server is gone.
    """
    result = Pass()
    outputs: dict = {}
    for attempt in range(setups):
        last = attempt == setups - 1
        start = time.perf_counter()
        server = Server(spans_path if last else None)
        clients: "dict[int, AsyncRemoteClient]" = {}
        try:
            port = server.wait_ready()
            for stream in streams:
                if stream.connection not in clients:
                    clients[stream.connection] = AsyncRemoteClient(
                        "127.0.0.1", port, tenant=stream.tenant)
                    await clients[stream.connection].connect()
            sessions = {
                stream.stream_id: await clients[stream.connection].protect(
                    stream.stream_id, stream.payload, stream.key,
                    params=PARAMS, encoding=stream.encoding)
                for stream in streams}
            result.setup_seconds.append(time.perf_counter() - start)
            if last:
                outputs = await _timed_phase(result, server, clients,
                                             sessions, streams)
        finally:
            try:
                for client in clients.values():
                    await client.close()
            finally:
                server.stop()
    if spans_path is not None:
        with open(spans_path) as handle:
            result.spans = json.load(handle)
    for stream in streams:
        result.attempted += 1
        pieces = [piece for piece in outputs.get(stream.stream_id, ())
                  if piece.size]
        got = np.concatenate(pieces) if pieces else np.empty(0)
        if got.size != stream.values.size:
            _failure(result, f"{stream.stream_id}: {got.size} output items "
                     f"for {stream.values.size} input items")
        elif not np.array_equal(got, reference.outputs[stream.stream_id]):
            _failure(result, f"{stream.stream_id}: output differs from the "
                     "in-process watermark_stream")
    return result


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(run: Pass) -> dict:
    """``{name: (value, samples)}`` of the untraced run."""
    segments = run.segments
    samples = len(run.latencies)
    return {
        "setup_s": (median(run.setup_seconds), len(run.setup_seconds)),
        "items_per_s": (median([s.items / s.wall for s in segments]),
                        len(segments)),
        "cpu_us_per_item": (
            median([1e6 * (s.client_cpu + s.server_cpu) / s.items
                    for s in segments]), len(segments)),
        "latency_ms_p50": (median([1e3 * percentile(s.latencies, 50)
                                   for s in segments]), samples),
        "latency_ms_p99": (median([1e3 * percentile(s.latencies, 99)
                                   for s in segments]), samples),
        "peak_rss_mb": (run.peak_rss_mb, 1),
    }


def _sum_labelled(section: dict, name: str) -> float:
    return sum(value or 0 for key, value in section.items()
               if key == name or key.startswith(name + "{"))


def per_layer(streams: "list[Stream]", reference: Reference, run: Pass,
              traced: Pass) -> dict:
    """``{name: (value, samples)}`` from the untraced and traced passes."""
    items, pushes = run.total("items"), run.total("pushes")
    out = {
        "client.cpu_us_per_item": (1e6 * run.total("client_cpu") / items,
                                   pushes),
        "service.cpu_us_per_item": (1e6 * run.total("server_cpu") / items,
                                    pushes),
        "baseline.inproc_cpu_us_per_item": (
            1e6 * reference.cpu_seconds / reference.items, reference.items),
        "client.reconnects": (run.reconnects + traced.reconnects, 2),
        "protocol.bytes_per_item": (
            sum(w["bytes_sent"] + w["bytes_received"] for w in run.wire)
            / items, pushes),
        "trace.overhead_ratio": (traced.total("wall") / run.total("wall"),
                                 len(run.segments)),
    }
    out.update(_status_metrics(streams, run))
    out.update(_reference_metrics(reference))
    out.update(_span_metrics(streams, traced))
    return out


def _status_metrics(streams: "list[Stream]", run: Pass) -> dict:
    status = run.status
    counters = status["metrics"]["counters"]
    gauges = status["metrics"]["gauges"]
    pushes = status["server"]["pushes"]
    frames = (_sum_labelled(counters, "server_frames_in_total")
              + _sum_labelled(counters, "server_frames_out_total"))
    out = {
        "service.frames_per_push": (ratio(frames, pushes), pushes),
        "service.errors": (gauges["server_errors"], 1),
        "service.checkpoint_failures": (
            _sum_labelled(counters, "server_checkpoint_failures_total"), 1),
        "hub.checkpoints_per_push": (
            ratio(_sum_labelled(counters, "hub_checkpoints_total"),
                  _sum_labelled(counters, "hub_pushes_total")), pushes),
        "stores.fallbacks": (gauges["server_store_fallbacks"], 1),
        "stores.quarantined": (gauges["server_store_quarantined"], 1),
    }
    for tenant, section in status["tenants"].items():
        stats = section["stats"].values()
        items = sum(entry["items_in"] for entry in stats)
        busy = sum(entry["busy_seconds"] for entry in stats)
        out[f"hub.push_us_per_item.{tenant}"] = (1e6 * ratio(busy, items),
                                                 items)
        encoding = section["encoding"]
        if encoding["embeds"]:
            out["encoding.search_iterations_per_embed"] = (
                encoding["search_iterations"] / encoding["embeds"],
                encoding["embeds"])
            # 0 with no samples when the search never probed the memo.
            probes = encoding["pattern_probes"]
            out["encoding.memo_hit_rate"] = (
                encoding["pattern_memo_hit_rate"] if probes else 0.0, probes)
    return out


def _reference_metrics(reference: Reference) -> dict:
    counters = [report.counters for report in reference.reports]
    items = sum(c.items for c in counters)
    extremes = sum(c.extremes_confirmed for c in counters)
    return {
        "scanner.extremes_per_kitem": (1e3 * extremes / items, items),
        "scanner.selected_per_extreme": (
            ratio(sum(c.selected for c in counters), extremes), extremes),
        "scanner.missed_evictions": (
            sum(c.missed_evictions for c in counters), items),
        "scanner.warmup_skips": (sum(c.warmup_skips for c in counters),
                                 items),
        "embedder.search_failures": (
            sum(r.search_failures for r in reference.reports), extremes),
        "embedder.quality_rollbacks": (
            sum(r.quality_rollbacks for r in reference.reports), extremes),
    }


def _span_metrics(streams: "list[Stream]", traced: Pass) -> dict:
    lo, hi = traced.window_ns
    server = [span for span in traced.spans["spans"] if lo <= span[1] <= hi]
    client = [span for span in traced.client_spans if lo <= span[1] <= hi]
    tenant_of = {stream.stream_id: stream.tenant for stream in streams}
    timed_ids = {stream.stream_id for stream in streams if stream.latency}
    s_by = _by_name(server)
    c_by = _by_name(client)
    out = {}

    reads = defaultdict(float)
    for span in c_by["transport.read"]:
        reads[span[4]] += duration_us(span) / 1e3
    waits = [reads[span[3]] for span in c_by["client.feed"]
             if push_stream(span[5]) in timed_ids]
    out["client.read_wait_ms_p50"] = (percentile(waits, 50), len(waits))
    for side, by in (("client", c_by), ("server", s_by)):
        for op in ("encode", "decode"):
            spans = by[f"codec.{op}"]
            out[f"protocol.{op}_us.{side}"] = (
                mean([duration_us(span) for span in spans]), len(spans))
        writes = by["transport.write"]
        messages = sum(span[6] for span in writes)
        busy = sum(duration_us(span) for span in writes)
        out[f"transports.write_us.{side}"] = (ratio(busy, messages),
                                              messages)

    pushes = [span for span in s_by["hub.push"] if push_stream(span[5])]
    for tenant in sorted(set(tenant_of.values())):
        mine = [duration_us(span) / 1e3 for span in pushes
                if tenant_of.get(push_stream(span[5])) == tenant]
        out[f"hub.push_ms_p99.{tenant}"] = (percentile(mine, 99), len(mine))
    checkpoints = [duration_us(span) / 1e3 for span in s_by["hub.checkpoint"]
                   if push_stream(span[5])]
    out["hub.checkpoint_ms_p50"] = (percentile(checkpoints, 50),
                                    len(checkpoints))
    out["hub.checkpoint_ms_p99"] = (percentile(checkpoints, 99),
                                    len(checkpoints))
    to_state = [duration_us(span) for span in s_by["pipeline.to_state"]]
    out["pipeline.to_state_us"] = (mean(to_state), len(to_state))
    sizes = traced.spans["state_bytes"]
    out["pipeline.state_bytes"] = (mean(sizes), len(sizes))
    saves = [span for span in s_by["stores.save"] if push_stream(span[5])]
    for role in ("session", "sidecar"):
        mine = [duration_us(span) / 1e3 for span in saves if span[6] == role]
        out[f"stores.save_ms_p50.{role}"] = (percentile(mine, 50), len(mine))
        out[f"stores.save_ms_p99.{role}"] = (percentile(mine, 99), len(mine))
    out["stores.saves_per_push"] = (ratio(len(saves), len(pushes)),
                                    len(pushes))

    feeds = s_by["pipeline.feed"]
    own = self_time_us(feeds + s_by["encoding.embed"])
    items = sum(span[6] for span in feeds)
    out["scanner.self_us_per_item"] = (
        ratio(sum(own[span[3]] for span in feeds), items), items)
    embeds = defaultdict(list)
    for span in s_by["encoding.embed"]:
        embeds[span[6]].append(duration_us(span))
    for encoding, durations in embeds.items():
        out[f"encoding.embed_us.{encoding}"] = (mean(durations),
                                                len(durations))
    out["service.self_us_per_push"] = _service_self(s_by, server)
    return out


def _service_self(s_by: dict, server: list) -> "tuple[float, int]":
    """Mean server time per push spent outside every recorded span.

    A push's window runs from decoding its PUSH to the end of writing
    its RESULT.  Whatever part of the union of those windows no other
    span covers (transport reads excepted: they are waits) is the
    service layer's own work: dispatch, credits, the replay buffer and
    the event loop between them.
    """
    decoded = {span[5]: span[1] for span in s_by["codec.decode"]
               if push_stream(span[5])}
    written = {span[5]: span[2] for span in s_by["transport.write"]
               if push_stream(span[5])}
    windows = union_ns((decoded[request], written[request])
                       for request in decoded if request in written)
    busy = union_ns((span[1], span[2]) for span in server
                    if span[0] != "transport.read")
    inside = sum(end - start for start, end in windows)
    count = len([r for r in decoded if r in written])
    return (ratio(inside - covered_ns(windows, busy), count) / 1e3, count)


def _by_name(spans) -> "defaultdict[str, list]":
    out = defaultdict(list)
    for span in spans:
        out[span[0]].append(span)
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
async def _run(workload: str, seed: int, seconds: int, trace: bool,
               work_dir: Path) -> dict:
    streams = make_streams(workload, seed, seconds)
    reference = reference_run(streams)
    if not trace:
        run = await serve_pass(streams, reference, setups=SETUPS)
        return {"metrics": end_to_end(run), "attempted": run.attempted,
                "failed": run.failed}
    run = await serve_pass(streams, reference, setups=1)
    tracer = Tracer()
    tracer.install_client()
    try:
        traced = await serve_pass(streams, reference, setups=1,
                                  spans_path=work_dir / "server-spans.json")
    finally:
        tracer.uninstall()
    traced.client_spans = tracer.spans
    return {"metrics": per_layer(streams, reference, run, traced),
            "attempted": run.attempted + traced.attempted,
            "failed": run.failed + traced.failed}


def run(workload: str, seed: int, seconds: int, trace: bool,
        work_dir: Path) -> dict:
    """Run one served workload; see :mod:`run` for the report shape."""
    # Spawned servers inherit the mask (see the module docstring).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return asyncio.run(_run(workload, seed, seconds, trace, work_dir))
