"""Session checkpoint state: round-trips, counters, buckets, error paths.

The fuzz classes at the bottom pin the deserialization contract: any
malformed, truncated, wrong-kind or unknown-field checkpoint raises a
clean :class:`repro.errors.ReproError` subclass — never a raw
``KeyError``/``TypeError`` from the restore plumbing, and never a
silently half-restored session.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import DetectionSession, ProtectionSession, WatermarkParams
from repro.core.encoding_factory import build_encoding
from repro.core.quality import QualityMonitor
from repro.core.quantize import Quantizer
from repro.core.serialize import params_from_dict, params_to_dict
from repro.errors import ParameterError, SessionStateError
from repro.streams.window import SlidingWindow
from repro.util.hashing import KeyedHasher
from tests.conftest import KEY


def json_roundtrip(state: dict) -> dict:
    """Force the state through strict-ish JSON text, as a shard would."""
    return json.loads(json.dumps(state))


class TestProtectionSessionState:
    def test_roundtrip_preserves_counters_and_report(self, small_stream,
                                                     params):
        session = ProtectionSession("1", KEY, params=params)
        session.feed(small_stream)
        state = json_roundtrip(session.to_state())
        resumed = ProtectionSession.from_state(state, KEY)
        assert resumed.items_ingested == session.items_ingested
        assert resumed.report.counters.to_dict() \
            == session.report.counters.to_dict()
        assert resumed.report.embedded == session.report.embedded
        assert resumed.report.altered_items == session.report.altered_items
        assert resumed.watermark_bits == session.watermark_bits

    def test_resumed_report_counters_stay_live(self, small_stream, params):
        """After restore, the report and the scanner share one counters
        object, so further feeding updates both."""
        session = ProtectionSession("1", KEY, params=params)
        session.feed(small_stream[:1500])
        resumed = ProtectionSession.from_state(
            json_roundtrip(session.to_state()), KEY)
        before = resumed.report.counters.items
        resumed.feed(small_stream[1500:])
        assert resumed.report.counters.items == before + 1500
        assert resumed.items_ingested == resumed.report.counters.items

    def test_state_excludes_the_key(self, small_stream, params):
        session = ProtectionSession("1", KEY, params=params)
        session.feed(small_stream[:500])
        assert KEY.decode() not in json.dumps(session.to_state())

    def test_monitor_sessions_refuse_checkpoint(self, params):
        session = ProtectionSession("1", KEY, params=params,
                                    monitor=QualityMonitor())
        with pytest.raises(SessionStateError, match="QualityMonitor"):
            session.to_state()

    def test_strategy_object_sessions_refuse_checkpoint(self, params):
        strategy = build_encoding(
            "initial", params,
            Quantizer(params.value_bits, params.avg_extra_bits),
            KeyedHasher(KEY))
        session = ProtectionSession("1", KEY, params=params,
                                    encoding=strategy)
        with pytest.raises(SessionStateError, match="strategy"):
            session.to_state()

    def test_wrong_kind_rejected(self, params):
        session = DetectionSession(1, KEY, params=params)
        with pytest.raises(SessionStateError, match="kind"):
            ProtectionSession.from_state(session.to_state(), KEY)

    def test_newer_version_rejected(self, params):
        session = ProtectionSession("1", KEY, params=params)
        state = session.to_state()
        state["format_version"] = 999
        with pytest.raises(SessionStateError, match="newer"):
            ProtectionSession.from_state(state, KEY)

    def test_feed_after_finish_rejected(self, params):
        session = ProtectionSession("1", KEY, params=params)
        session.finish()
        with pytest.raises(ParameterError, match="finished"):
            session.feed([0.1, 0.2])

    def test_finished_flag_survives_checkpoint(self, params):
        """A checkpoint of a finished session resumes as finished."""
        session = ProtectionSession("1", KEY, params=params)
        session.feed([0.1, 0.2, 0.1])
        session.finish()
        resumed = ProtectionSession.from_state(
            json_roundtrip(session.to_state()), KEY)
        with pytest.raises(ParameterError, match="finished"):
            resumed.feed([0.3])

    def test_missing_format_version_rejected(self, params):
        session = ProtectionSession("1", KEY, params=params)
        state = session.to_state()
        del state["format_version"]
        with pytest.raises(SessionStateError, match="format_version"):
            ProtectionSession.from_state(state, KEY)


class TestDetectionSessionState:
    def test_roundtrip_preserves_voting_buckets(self, marked_reference,
                                                params):
        marked, _ = marked_reference
        session = DetectionSession(1, KEY, params=params)
        session.feed(marked[:5000])
        mid = session.result()
        resumed = DetectionSession.from_state(
            json_roundtrip(session.to_state()), KEY)
        restored = resumed.result()
        assert restored.buckets_true == mid.buckets_true
        assert restored.buckets_false == mid.buckets_false
        assert restored.abstentions == mid.abstentions
        assert restored.counters.to_dict() == mid.counters.to_dict()

    def test_roundtrip_preserves_transform_degree(self, params):
        session = DetectionSession(1, KEY, params=params,
                                   transform_degree=3.0)
        resumed = DetectionSession.from_state(
            json_roundtrip(session.to_state()), KEY)
        assert resumed._transform_degree == 3.0

    def test_window_capacity_mismatch_rejected(self, params):
        session = DetectionSession(1, KEY, params=params)
        state = session.to_state()
        state["config"]["params"]["window_size"] = params.window_size * 2
        with pytest.raises(ParameterError, match="window"):
            DetectionSession.from_state(state, KEY)

    def test_bucket_length_mismatch_rejected(self, params):
        session = DetectionSession(1, KEY, params=params)
        state = session.to_state()
        state["votes"]["buckets_true"] = [0, 0]
        with pytest.raises(ParameterError, match="buckets"):
            DetectionSession.from_state(state, KEY)


class TestScannerLevelRestore:
    def test_embedder_restore_reties_report_counters(self, small_stream,
                                                     params):
        """Restoring scan state directly on a StreamWatermarker must keep
        report.counters aliased to the live scanner counters."""
        from repro import StreamWatermarker

        source = StreamWatermarker("1", KEY, params=params)
        source.process(small_stream[:1500])
        target = StreamWatermarker("1", KEY, params=params)
        target.restore_scan_state(json_roundtrip(source.scan_state()))
        assert target.report.counters is target.counters
        target.process(small_stream[1500:])
        assert target.report.counters.items == len(small_stream)


class TestStateBuildingBlocks:
    def test_sliding_window_roundtrip(self):
        window = SlidingWindow(4)
        for value in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            window.push(value)
        clone = SlidingWindow.from_state(
            json_roundtrip(window.to_state()))
        assert clone.capacity == window.capacity
        assert clone.start_index == window.start_index
        assert np.array_equal(clone.values(), window.values())

    def test_sliding_window_overfull_state_rejected(self):
        state = {"capacity": 2, "start_index": 0, "items": [0.1, 0.2, 0.3]}
        from repro.errors import StreamError

        with pytest.raises(StreamError, match="capacity"):
            SlidingWindow.from_state(state)

    def test_zigzag_state_roundtrip_with_infinities(self):
        from repro.core.extremes import ZigzagState

        fresh = ZigzagState.fresh()
        clone = ZigzagState.from_state(json_roundtrip(fresh.to_state()))
        assert clone == fresh
        assert clone.max_value == float("-inf")
        assert clone.min_value == float("inf")

    def test_params_dict_roundtrip(self, params):
        assert params_from_dict(json_roundtrip(params_to_dict(params))) \
            == params

    def test_params_unknown_field_rejected(self, params):
        data = params_to_dict(params)
        data["from_the_future"] = 1
        with pytest.raises(ParameterError, match="from_the_future"):
            params_from_dict(data)


# ----------------------------------------------------------------------
# negative / fuzz coverage of checkpoint deserialization
# ----------------------------------------------------------------------
from repro import ReproError, session_from_state  # noqa: E402
from repro.stores import (  # noqa: E402
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
)

JUNK_VALUES = (None, [], {}, "junk", -1, 3.5, True)


def make_states(params) -> "dict[str, dict]":
    """One fed checkpoint of each session kind (fresh dicts per call)."""
    protection = ProtectionSession("10", KEY,
                                   params=params.with_updates(phi=5))
    protection.feed(np.linspace(-0.4, 0.4, 600))
    detection = DetectionSession(2, KEY, params=params.with_updates(phi=5))
    detection.feed(np.linspace(-0.4, 0.4, 600))
    return {"protection": json_roundtrip(protection.to_state()),
            "detection": json_roundtrip(detection.to_state())}


def restore(kind: str, state, key=KEY):
    if kind == "protection":
        return ProtectionSession.from_state(state, key)
    return DetectionSession.from_state(state, key)


@pytest.fixture(scope="module")
def fed_states() -> "dict[str, dict]":
    from repro import WatermarkParams

    return make_states(WatermarkParams())


@pytest.mark.parametrize("kind", ["protection", "detection"])
class TestMalformedCheckpoints:
    """Every corruption raises SessionStateError (or a sibling
    ReproError), with no exceptions leaking from the plumbing."""

    def test_non_dict_states_rejected(self, fed_states, kind):
        for bad in (None, [], "text", 7, 3.5):
            with pytest.raises(SessionStateError, match="dict|kind"):
                restore(kind, bad)

    def test_each_required_key_missing_is_truncation(self, fed_states,
                                                     kind):
        state = fed_states[kind]
        for key_name in state:
            if key_name in ("finished", "kind", "format_version"):
                continue  # covered by their own tests below
            truncated = copy.deepcopy(state)
            del truncated[key_name]
            with pytest.raises(SessionStateError, match="truncated"):
                restore(kind, truncated)

    def test_missing_finished_is_tolerated(self, fed_states, kind):
        state = copy.deepcopy(fed_states[kind])
        del state["finished"]
        assert restore(kind, state).items_ingested == 600

    def test_unknown_top_level_field_rejected(self, fed_states, kind):
        state = copy.deepcopy(fed_states[kind])
        state["smuggled_field"] = 1
        with pytest.raises(SessionStateError, match="smuggled_field"):
            restore(kind, state)

    def test_unknown_config_field_rejected(self, fed_states, kind):
        state = copy.deepcopy(fed_states[kind])
        state["config"]["not_a_real_option"] = True
        with pytest.raises(SessionStateError, match="not_a_real_option"):
            restore(kind, state)

    def test_wrong_kind_rejected(self, fed_states, kind):
        state = copy.deepcopy(fed_states[kind])
        state["kind"] = "some-other-session"
        with pytest.raises(SessionStateError, match="kind"):
            restore(kind, state)

    def test_non_integer_format_version_rejected(self, fed_states, kind):
        state = copy.deepcopy(fed_states[kind])
        state["format_version"] = "one"
        with pytest.raises(SessionStateError, match="format_version"):
            restore(kind, state)

    def test_config_not_a_dict_rejected(self, fed_states, kind):
        state = copy.deepcopy(fed_states[kind])
        state["config"] = ["not", "a", "dict"]
        with pytest.raises(SessionStateError, match="config"):
            restore(kind, state)

    def test_scan_junk_raises_cleanly(self, fed_states, kind):
        for junk in JUNK_VALUES:
            state = copy.deepcopy(fed_states[kind])
            state["scan"] = junk
            with pytest.raises(ReproError):
                restore(kind, state)

    def test_scan_subfield_junk_raises_cleanly(self, fed_states, kind):
        for field in ("window", "zigzag", "pending", "label_history"):
            state = copy.deepcopy(fed_states[kind])
            state["scan"][field] = "garbage"
            with pytest.raises(ReproError):
                restore(kind, state)

    def test_window_items_junk_raises_cleanly(self, fed_states, kind):
        state = copy.deepcopy(fed_states[kind])
        state["scan"]["window"]["items"] = ["a", "b"]
        with pytest.raises(SessionStateError, match="malformed"):
            restore(kind, state)

    def test_session_from_state_unknown_kind(self, fed_states, kind):
        state = copy.deepcopy(fed_states[kind])
        state["kind"] = "mystery-session"
        with pytest.raises(SessionStateError, match="mystery-session"):
            session_from_state(state, KEY)


class TestKindSpecificCorruption:
    def test_protection_watermark_bits_junk(self, fed_states):
        state = copy.deepcopy(fed_states["protection"])
        state["config"]["watermark_bits"] = "zero"
        with pytest.raises(SessionStateError, match="malformed"):
            restore("protection", state)

    def test_protection_report_junk(self, fed_states):
        state = copy.deepcopy(fed_states["protection"])
        state["report"] = {"kind": "embed-report"}
        with pytest.raises(ReproError):
            restore("protection", state)

    def test_protection_rng_state_must_be_pcg64(self):
        session = ProtectionSession(
            "10", KEY, params=WatermarkParams(phi=5),
            encoding_options={"method": "random", "rng": 3})
        state = json_roundtrip(session.to_state())
        assert state["config"]["encoding_options"]["rng"]["bit_generator"] \
            == "PCG64"
        for junk in ({"bit_generator": "MT19937", "state": {"pos": 0}},
                     {"bit_generator": "PCG64"}, -1):
            state["config"]["encoding_options"]["rng"] = junk
            with pytest.raises(ParameterError, match="random generator"):
                restore("protection", state)

    def test_detection_votes_junk(self, fed_states):
        for junk in JUNK_VALUES:
            state = copy.deepcopy(fed_states["detection"])
            state["votes"] = junk
            with pytest.raises(ReproError):
                restore("detection", state)

    def test_detection_wm_length_junk(self, fed_states):
        state = copy.deepcopy(fed_states["detection"])
        state["config"]["wm_length"] = "two"
        with pytest.raises(SessionStateError, match="malformed"):
            restore("detection", state)


class TestCheckpointStoreFuzzIntegration:
    """The stores reject corrupt envelopes; a state that survives the
    store but is internally corrupt still fails cleanly in from_state —
    the two validation layers compose into never-silently-corrupt."""

    @pytest.fixture(params=["memory", "directory"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return MemoryCheckpointStore()
        return DirectoryCheckpointStore(tmp_path / "store")

    def test_roundtrip_through_store_restores(self, fed_states, store):
        store.save("s", fed_states["protection"])
        resumed = ProtectionSession.from_state(store.load("s"), KEY)
        assert resumed.items_ingested == 600

    def test_corrupt_state_through_store_fails_in_from_state(
            self, fed_states, store):
        state = copy.deepcopy(fed_states["detection"])
        del state["scan"]
        store.save("s", state)
        with pytest.raises(SessionStateError, match="truncated"):
            DetectionSession.from_state(store.load("s"), KEY)


MUTATION_PATHS = st.sampled_from([
    ("kind",), ("format_version",), ("finished",), ("config",), ("scan",),
    ("config", "encoding"), ("config", "params"),
    ("config", "encoding_options"), ("config", "require_labels"),
    ("scan", "window"), ("scan", "zigzag"), ("scan", "pending"),
    ("scan", "label_history"), ("scan", "next_index"),
    ("scan", "counters"), ("scan", "window", "items"),
    ("scan", "window", "capacity"), ("scan", "window", "start_index"),
])


class TestCheckpointMutationFuzz:
    """Hypothesis sweep: replacing any state node with junk (or deleting
    it) either restores fine or raises a ReproError — nothing else."""

    @given(path=MUTATION_PATHS,
           junk=st.sampled_from(JUNK_VALUES + ("delete",)),
           kind=st.sampled_from(["protection", "detection"]))
    def test_mutated_checkpoints_never_leak_raw_errors(
            self, fed_states, path, junk, kind):
        state = copy.deepcopy(fed_states[kind])
        node = state
        for step in path[:-1]:
            node = node[step]
        if junk == "delete":
            node.pop(path[-1], None)
        else:
            node[path[-1]] = junk
        try:
            session = restore(kind, state)
            # mutations that happen to be valid must yield a live
            # session (feeding a "finished" one raises cleanly too)
            session.feed(np.linspace(-0.2, 0.2, 64))
        except ReproError:
            pass  # a clean library error is the contract
