"""Chaos layer: deterministic plans, retry policy, fault wrappers.

The core guarantee under test is **replay determinism**: every chaos
decision comes from a named PRNG stream seeded only by the plan seed
and the site name, so the same plan driven through the same call
sequence fires the same faults — regardless of what other sites drew
in between.  The wrapper tests then prove each fault actually produces
the failure it models (a reset that aborts, a torn write that persists
a prefix, a stale read that serves the previous entry) and that the
:class:`~repro.stores.DirectoryCheckpointStore` generation fallback
keeps working underneath the chaos wrapper.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys

import pytest

from repro import chaos
from repro.chaos import (
    ChaosChannel,
    ChaosCheckpointStore,
    FaultInjector,
    FaultPlan,
    ProcessFaults,
    RetryPolicy,
    StoreFaults,
    TransportFaults,
)
from repro.chaos.retry import RETRYABLE_ERRORS
from repro.errors import (
    CheckpointStoreError,
    ParameterError,
    ProtocolError,
    RemoteError,
)
from repro.stores import DirectoryCheckpointStore, MemoryCheckpointStore

STATE = {"kind": "protection-session", "format_version": 1,
         "config": {"encoding": "initial"}, "scan": {"counters": {}}}


class TestFaultPlan:
    def test_json_roundtrip_is_exact(self, tmp_path):
        plan = FaultPlan(
            seed=99,
            client_transport=TransportFaults(latency_rate=0.2,
                                             latency_ms=(1.0, 4.0),
                                             reset_rate=0.1,
                                             truncate_rate=0.05),
            server_transport=TransportFaults(drop_rate=0.02),
            store=StoreFaults(torn_write_rate=0.1, io_error_rate=0.2,
                              stale_read_rate=0.3),
            process=ProcessFaults(crash_after_pushes=(5, 9),
                                  exit_code=71))
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path) == plan

    def test_to_dict_is_versioned(self):
        payload = FaultPlan(seed=1).to_dict()
        assert payload["kind"] == "fault-plan"
        assert payload["format_version"] == 1

    def test_defaults_are_all_quiet(self):
        plan = FaultPlan()
        assert not plan.client_transport.active()
        assert not plan.server_transport.active()
        assert not plan.store.active()
        assert not plan.process.active()

    @pytest.mark.parametrize("rate", [-0.1, 1.5, "lots", None])
    def test_bad_rates_rejected(self, rate):
        with pytest.raises(ParameterError, match="rate"):
            TransportFaults(reset_rate=rate)
        with pytest.raises(ParameterError, match="rate"):
            StoreFaults(torn_write_rate=rate)

    def test_bad_crash_schedule_rejected(self):
        with pytest.raises(ParameterError, match="crash_after_pushes"):
            ProcessFaults(crash_after_pushes=(5, 2))
        with pytest.raises(ParameterError, match="crash_after_pushes"):
            ProcessFaults(crash_after_pushes=(-1, 3))
        with pytest.raises(ParameterError, match="exit_code"):
            ProcessFaults(crash_after_pushes=(1, 1), exit_code=0)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ParameterError, match="unknown"):
            FaultPlan.from_dict({"kind": "fault-plan", "seed": 1,
                                 "surprise": {}})

    def test_unknown_section_field_rejected(self):
        with pytest.raises(ParameterError, match="store"):
            FaultPlan.from_dict({"kind": "fault-plan",
                                 "store": {"bitrot_rate": 0.5}})

    def test_wrong_kind_rejected(self):
        with pytest.raises(ParameterError, match="kind"):
            FaultPlan.from_dict({"kind": "not-a-plan"})

    def test_newer_version_rejected(self):
        with pytest.raises(ParameterError, match="newer"):
            FaultPlan.from_dict({"kind": "fault-plan",
                                 "format_version": 2})

    def test_missing_file_is_clean_error(self, tmp_path):
        with pytest.raises(ParameterError, match="not found"):
            FaultPlan.load(tmp_path / "nope.json")

    def test_garbage_file_is_clean_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ParameterError, match="cannot read"):
            FaultPlan.load(path)


class TestNamedStreams:
    def test_same_seed_same_site_same_draws(self):
        a = FaultInjector(FaultPlan(seed=7))
        b = FaultInjector(FaultPlan(seed=7))
        assert [a.rng("client.read").random() for _ in range(50)] \
            == [b.rng("client.read").random() for _ in range(50)]

    def test_sites_are_independent(self):
        """Draining one site's stream never perturbs another's."""
        quiet = FaultInjector(FaultPlan(seed=7))
        noisy = FaultInjector(FaultPlan(seed=7))
        for _ in range(1000):
            noisy.rng("server.store").random()  # unrelated traffic
        assert [quiet.rng("client.read").random() for _ in range(20)] \
            == [noisy.rng("client.read").random() for _ in range(20)]

    def test_different_seeds_diverge(self):
        a = FaultInjector(FaultPlan(seed=1))
        b = FaultInjector(FaultPlan(seed=2))
        assert a.rng("x").random() != b.rng("x").random()

    def test_different_sites_diverge(self):
        injector = FaultInjector(FaultPlan(seed=1))
        assert injector.rng("a").random() != injector.rng("b").random()


MIXED = TransportFaults(latency_rate=0.3, latency_ms=(0.0, 2.0),
                        stall_rate=0.05, stall_seconds=0.1,
                        drop_rate=0.1, truncate_rate=0.1, reset_rate=0.1)


class TestReplayDeterminism:
    def test_message_fault_sequence_replays_exactly(self):
        plan = FaultPlan(seed=42, client_transport=MIXED)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        decisions = [first.message_fault("c.write", MIXED)
                     for _ in range(300)]
        replayed = [second.message_fault("c.write", MIXED)
                    for _ in range(300)]
        assert decisions == replayed
        # The plan is not a no-op: faults of several kinds actually fire.
        kinds = {d["fault"] for d in decisions if d}
        assert {"drop", "truncate", "reset"} <= kinds

    def test_store_fault_sequence_replays_exactly(self):
        faults = StoreFaults(torn_write_rate=0.2, io_error_rate=0.2,
                             stale_read_rate=0.3)
        plan = FaultPlan(seed=9, store=faults)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        assert [first.store_write_fault("s.put", faults)
                for _ in range(200)] \
            == [second.store_write_fault("s.put", faults)
                for _ in range(200)]
        assert [first.store_read_fault("s.get", faults)
                for _ in range(200)] \
            == [second.store_read_fault("s.get", faults)
                for _ in range(200)]

    def test_crash_point_is_armed_deterministically(self):
        plan = FaultPlan(seed=13,
                         process=ProcessFaults(crash_after_pushes=(50, 90)))
        points = []
        for _ in range(2):
            injector = FaultInjector(plan)
            injector.crash_gate("pre-ingest")  # arms without reaching it
            points.append(injector._crash_point)
        assert points[0] == points[1]
        crash_at, phase = points[0]
        assert 50 <= crash_at <= 90
        assert phase in chaos.CRASH_PHASES

    def test_fault_log_lines_are_flushed_json(self, tmp_path):
        log = tmp_path / "faults.jsonl"
        injector = FaultInjector(FaultPlan(seed=1), log_path=log)
        injector.record("client.transport", "reset", direction="write")
        injector.record("store", "torn-write", stream="s", kept=10)
        # No close(): per-line flushing must make the log readable now,
        # exactly as it must be after an os._exit crash.
        events = [json.loads(line) for line in
                  log.read_text().splitlines()]
        assert [e["fault"] for e in events] == ["reset", "torn-write"]
        assert events == injector.events
        injector.close()
        injector.close()  # idempotent


class TestMessageFault:
    def test_zero_rates_never_fire(self):
        injector = FaultInjector(FaultPlan(seed=3))
        quiet = TransportFaults()
        assert all(injector.message_fault("x", quiet) is None
                   for _ in range(200))

    def test_certain_reset_always_fires(self):
        injector = FaultInjector(FaultPlan(seed=3))
        certain = TransportFaults(reset_rate=1.0)
        assert all(injector.message_fault("x", certain)["fault"] == "reset"
                   for _ in range(50))

    def test_terminal_faults_are_mutually_exclusive(self):
        injector = FaultInjector(FaultPlan(seed=3))
        everything = TransportFaults(stall_rate=0.25, drop_rate=0.25,
                                     truncate_rate=0.25, reset_rate=0.25)
        for _ in range(300):
            decision = injector.message_fault("x", everything)
            assert decision is not None
            assert decision["fault"] in ("stall", "drop", "truncate",
                                         "reset")

    def test_latency_delay_within_bounds(self):
        injector = FaultInjector(FaultPlan(seed=3))
        slow = TransportFaults(latency_rate=1.0, latency_ms=(2.0, 8.0))
        for _ in range(100):
            decision = injector.message_fault("x", slow)
            assert decision["fault"] == "latency"
            assert 0.002 <= decision["delay"] <= 0.008

    def test_truncate_keeps_a_strict_fraction(self):
        injector = FaultInjector(FaultPlan(seed=3))
        torn = TransportFaults(truncate_rate=1.0)
        for _ in range(100):
            decision = injector.message_fault("x", torn)
            assert 0.0 < decision["keep_fraction"] < 1.0

    def test_connect_fault_rate_zero_and_one(self):
        injector = FaultInjector(FaultPlan(seed=3))
        assert not injector.connect_fault("x", TransportFaults())
        assert injector.connect_fault(
            "x", TransportFaults(connect_fail_rate=1.0))


class TestRetryPolicy:
    def test_backoff_is_capped_exponential_with_full_jitter(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0)
        rng = random.Random(5)
        for attempt in range(12):
            cap = min(1.0, 0.1 * 2.0 ** attempt)
            for _ in range(20):
                delay = policy.backoff_delay(attempt, rng=rng)
                assert 0.0 <= delay <= cap

    def test_values_are_clamped_not_rejected(self):
        policy = RetryPolicy(attempts=0, base_delay=-1, multiplier=0.5,
                             max_delay=-2)
        assert policy.attempts == 1
        assert policy.base_delay == 0.0
        assert policy.multiplier == 1.0
        assert policy.max_delay == 0.0

    @pytest.mark.parametrize("field", ["deadline", "op_timeout"])
    def test_nonpositive_budgets_rejected(self, field):
        with pytest.raises(ParameterError, match=field):
            RetryPolicy(**{field: 0})

    @pytest.mark.parametrize("error", [
        ConnectionResetError("peer died"),
        BrokenPipeError("mid-feed"),
        ConnectionRefusedError("restarting"),
        OSError("network unreachable"),
        EOFError(),
        TimeoutError(),
        asyncio.IncompleteReadError(b"", 10),
    ])
    def test_transport_weather_is_retryable(self, error):
        assert isinstance(error, RETRYABLE_ERRORS)

    @pytest.mark.parametrize("error", [
        RemoteError("bad-key", "wrong key"),
        ProtocolError("unknown frame"),
        ParameterError("phi must be positive"),
        ValueError("not ours"),
    ])
    def test_semantic_failures_fail_fast(self, error):
        assert not isinstance(error, RETRYABLE_ERRORS)


class TestChaosCheckpointStore:
    def _store(self, seed, inner, **faults):
        plan = FaultPlan(seed=seed, store=StoreFaults(**faults))
        return ChaosCheckpointStore(inner, FaultInjector(plan))

    def test_clean_plan_is_transparent(self):
        store = self._store(1, MemoryCheckpointStore())
        assert store.save("s", STATE) == 1
        assert store.save("s", dict(STATE, n=2)) == 2
        assert store.load("s")["n"] == 2
        assert store.ids() == ("s",)

    def test_io_error_leaves_disk_untouched(self, tmp_path):
        inner = DirectoryCheckpointStore(tmp_path)
        inner.save("s", dict(STATE, n=1))
        store = self._store(1, inner, io_error_rate=1.0)
        with pytest.raises(CheckpointStoreError, match="I/O error"):
            store.save("s", dict(STATE, n=2))
        assert inner.load("s")["n"] == 1

    def test_torn_write_persists_a_prefix(self):
        inner = MemoryCheckpointStore()
        store = self._store(2, inner, torn_write_rate=1.0)
        with pytest.raises(CheckpointStoreError, match="torn write"):
            store.save("s", STATE)
        # The prefix landed "durably": the inner entry is now garbage.
        assert inner._get("s") is not None
        with pytest.raises(CheckpointStoreError, match="not valid JSON"):
            inner.load("s")

    def test_torn_write_falls_back_a_generation_on_directory(self,
                                                             tmp_path):
        """The injected torn write exercises the real recovery path:
        quarantine + generation fallback + a loud rewind."""
        inner = DirectoryCheckpointStore(tmp_path)
        inner.save("s", dict(STATE, n=1))
        inner.save("s", dict(STATE, n=2))
        store = self._store(2, inner, torn_write_rate=1.0)
        with pytest.raises(CheckpointStoreError, match="torn write"):
            store.save("s", dict(STATE, n=3))
        # Reading through the chaos wrapper recovers generation 1 (the
        # last complete save) and quarantines the torn latest.
        entry = store.entry("s")
        assert entry["state"]["n"] == 2
        assert entry["sequence"] == 2
        assert inner.fallbacks == 1
        assert inner.quarantined == 1
        assert list((tmp_path / "corrupt").iterdir())

    def test_stale_read_serves_previous_entry(self):
        inner = MemoryCheckpointStore()
        store = self._store(3, inner, stale_read_rate=1.0)
        store.save("s", dict(STATE, n=1))
        store.save("s", dict(STATE, n=2))
        assert store.entry("s")["state"]["n"] == 1  # stale shadow
        assert inner.entry("s")["state"]["n"] == 2  # truth underneath
        # Sequence numbering sees the inner truth, not the stale view.
        assert store.save("s", dict(STATE, n=3)) == 3

    def test_no_shadow_read_without_stale_reads(self, tmp_path,
                                                monkeypatch):
        """A plan that never serves a stale read keeps no shadow: each
        save reads the inner entry once, for its sequence number."""
        inner = DirectoryCheckpointStore(tmp_path)
        reads = []
        real_get = inner._get
        monkeypatch.setattr(inner, "_get",
                            lambda sid: reads.append(sid) or real_get(sid))
        store = self._store(5, inner, torn_write_rate=1e-4)
        for n in range(1, 101):
            assert store.save("s", dict(STATE, n=n)) == n
        assert len(reads) <= 100

    def test_stale_read_without_history_serves_latest(self):
        store = self._store(3, MemoryCheckpointStore(),
                            stale_read_rate=1.0)
        store.save("s", dict(STATE, n=1))
        assert store.entry("s")["state"]["n"] == 1

    def test_delete_clears_shadow(self):
        store = self._store(4, MemoryCheckpointStore(),
                            stale_read_rate=1.0)
        store.save("s", dict(STATE, n=1))
        store.save("s", dict(STATE, n=2))
        store.delete("s")
        assert "s" not in store
        store.save("s", dict(STATE, n=9))
        assert store.entry("s")["state"]["n"] == 9


class _FakeChannel:
    """A loopback TransportConnection stub recording written bodies."""

    peer = "fake:0"

    def __init__(self):
        self.written = []
        self.inbox = []
        self.aborted = False
        self.closed = False
        self.peer_gone = False

    async def read_message(self):
        return self.inbox.pop(0) if self.inbox else None

    async def write_message(self, body):
        self.written.append(body)

    async def write_messages(self, bodies):
        for body in bodies:
            await self.write_message(body)

    async def close(self):
        self.closed = True

    def abort(self):
        self.aborted = True


def _chaos_channel(seed, **faults):
    plan_faults = TransportFaults(**faults)
    injector = FaultInjector(FaultPlan(seed=seed,
                                       client_transport=plan_faults))
    inner = _FakeChannel()
    return ChaosChannel(inner, injector, plan_faults, "client.t"), inner


class TestChaosChannel:
    def test_clean_faults_pass_messages_through(self):
        channel, inner = _chaos_channel(1)
        inner.inbox.append(b"pong")
        asyncio.run(channel.write_message(b"ping"))
        assert inner.written == [b"ping"]
        assert asyncio.run(channel.read_message()) == b"pong"

    def test_write_reset_aborts_and_raises(self):
        channel, inner = _chaos_channel(1, reset_rate=1.0)
        with pytest.raises(ConnectionResetError, match="injected reset"):
            asyncio.run(channel.write_message(b"ping"))
        assert inner.aborted
        assert inner.written == []

    def test_read_reset_aborts_and_raises(self):
        channel, inner = _chaos_channel(1, reset_rate=1.0)
        inner.inbox.append(b"pong")
        with pytest.raises(ConnectionResetError):
            asyncio.run(channel.read_message())
        assert inner.aborted

    def test_peer_gone_after_an_injected_reset_or_the_inners(self):
        channel, inner = _chaos_channel(1, reset_rate=1.0)
        assert not channel.peer_gone
        inner.peer_gone = True
        assert channel.peer_gone
        inner.peer_gone = False
        with pytest.raises(ConnectionResetError):
            asyncio.run(channel.write_message(b"ping"))
        assert channel.peer_gone

    def test_write_drop_swallows_the_message(self):
        channel, inner = _chaos_channel(1, drop_rate=1.0)
        asyncio.run(channel.write_message(b"ping"))
        assert inner.written == []
        assert not inner.aborted

    def test_read_drop_is_modelled_as_a_prompt_reset(self):
        """Silence forever would be unrecoverable in bounded time, so a
        read-side drop surfaces as a reset instead."""
        channel, inner = _chaos_channel(1, drop_rate=1.0)
        inner.inbox.append(b"pong")
        with pytest.raises(ConnectionResetError):
            asyncio.run(channel.read_message())
        assert inner.aborted

    def test_truncate_sends_a_strict_prefix_then_resets(self):
        channel, inner = _chaos_channel(1, truncate_rate=1.0)
        body = bytes(range(200))
        with pytest.raises(ConnectionResetError, match="truncation"):
            asyncio.run(channel.write_message(body))
        assert inner.aborted
        (sent,) = inner.written
        assert 1 <= len(sent) < len(body)
        assert body.startswith(sent)

    def test_write_messages_draws_per_message(self):
        """A batch drop loses only the dropped messages, like a real
        flaky link, and the fault log names each one."""
        channel, inner = _chaos_channel(7, drop_rate=0.3)
        bodies = [b"m%d" % i for i in range(40)]
        asyncio.run(channel.write_messages(bodies))
        dropped = 40 - len(inner.written)
        assert dropped > 0
        assert [e["fault"] for e in channel._injector.events].count(
            "drop") == dropped
        # Per-message decisions: the survivors pass through in order.
        assert inner.written == [b for b in bodies if b in inner.written]


class TestInstall:
    """A :class:`ChaosTransport` wrapped around a real transport, the
    way the service and the client SDK install one."""

    def test_chaos_transport_round_trip_over_real_tcp(self):
        """A chaos-wrapped dial against a chaos-wrapped listener moves
        real bytes over 127.0.0.1 (quiet plan: no faults fire)."""
        from repro.chaos import ChaosTransport
        from repro.server.transports import build_transport

        injector = FaultInjector(FaultPlan(seed=5))

        async def scenario():
            server = ChaosTransport(inner=build_transport("tcp"),
                                    injector=injector, side="server")
            seen = []

            async def handler(connection):
                message = await connection.read_message()
                seen.append(message)
                await connection.write_message(b"echo:" + message)
                await connection.close()

            listener = await server.serve("127.0.0.1", 0, handler)
            host, port = listener.address
            client = ChaosTransport(inner=build_transport("tcp"),
                                    injector=injector, side="client")
            channel = await client.connect(host, port)
            await channel.write_message(b"hello")
            reply = await channel.read_message()
            await channel.close()
            listener.close()
            await listener.wait_closed()
            return seen, reply

        seen, reply = asyncio.run(scenario())
        assert seen == [b"hello"]
        assert reply == b"echo:hello"

    def test_injected_dial_failure_over_real_tcp(self):
        from repro.chaos import ChaosTransport
        from repro.server.transports import build_transport

        plan = FaultPlan(seed=5, client_transport=TransportFaults(
            connect_fail_rate=1.0))
        client = ChaosTransport(inner=build_transport("tcp"),
                                injector=FaultInjector(plan),
                                side="client")
        with pytest.raises(ConnectionRefusedError, match="chaos"):
            asyncio.run(client.connect("127.0.0.1", 9))

    def test_client_fault_injector_wraps_dials(self):
        """``AsyncRemoteClient(fault_injector=...)`` dials through a
        client-side ChaosTransport: a plan that fails every dial fails
        the client's, and the injector logs each one."""
        from repro.server.client import AsyncRemoteClient

        plan = FaultPlan(seed=5, client_transport=TransportFaults(
            connect_fail_rate=1.0))
        injector = FaultInjector(plan)
        client = AsyncRemoteClient("127.0.0.1", 9,
                                   retry=RetryPolicy(attempts=2),
                                   fault_injector=injector)
        with pytest.raises(RemoteError, match="injected dial failure"):
            asyncio.run(client.connect())
        assert [event["fault"] for event in injector.events] \
            == ["connect-fail", "connect-fail"]


class TestCrashGate:
    def test_inactive_plan_never_crashes(self):
        injector = FaultInjector(FaultPlan(seed=1))
        for _ in range(100):
            for phase in chaos.CRASH_PHASES:
                injector.crash_gate(phase)  # returning is the assertion

    def test_crash_fires_with_exit_code_and_flushed_log(self, tmp_path):
        """The armed crash really kills the process (in a child) with
        the plan's exit code, and the flushed log survives it."""
        log = tmp_path / "faults.jsonl"
        script = f"""
import repro.chaos as chaos
plan = chaos.FaultPlan(seed=8, process=chaos.ProcessFaults(
    crash_after_pushes=(3, 3), exit_code=77))
injector = chaos.FaultInjector(plan, log_path={str(log)!r})
for push in range(100):
    for phase in chaos.CRASH_PHASES:
        injector.crash_gate(phase)
raise SystemExit("crash gate never fired")
"""
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 77
        (event,) = [json.loads(line) for line in
                    log.read_text().splitlines()]
        assert event["fault"] == "crash"
        assert event["push"] == 3
        assert event["exit_code"] == 77
        assert event["phase"] in chaos.CRASH_PHASES
