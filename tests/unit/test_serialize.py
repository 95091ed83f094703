"""Tests for evidence serialization."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.detector import DetectionResult
from repro.core.embedder import EmbedReport
from repro.core.params import WatermarkParams
from repro.core.scanner import ScanCounters
from repro.core.serialize import (
    detection_from_dict,
    detection_to_dict,
    load_json,
    params_to_dict,
    report_from_dict,
    report_to_dict,
    save_json,
)
from repro.errors import ParameterError


def make_detection() -> DetectionResult:
    return DetectionResult(
        buckets_true=[12, 3], buckets_false=[2, 9],
        counters=ScanCounters(items=5000, extremes_confirmed=60, majors=55,
                              warmup_skips=7, selected=30,
                              missed_evictions=1, subset_size_sum=600),
        abstentions=4, vote_threshold=1)


def make_report() -> EmbedReport:
    return EmbedReport(
        counters=ScanCounters(items=5000, extremes_confirmed=60, majors=55,
                              selected=30, subset_size_sum=600),
        embedded=28, search_failures=2, quality_rollbacks=1,
        total_search_iterations=900, altered_items=150,
        sum_abs_alteration=1.5e-6, max_abs_alteration=3e-8)


class TestDetectionRoundtrip:
    def test_dict_roundtrip_preserves_everything(self):
        original = make_detection()
        restored = detection_from_dict(detection_to_dict(original))
        assert restored.buckets_true == original.buckets_true
        assert restored.buckets_false == original.buckets_false
        assert restored.abstentions == original.abstentions
        assert restored.vote_threshold == original.vote_threshold
        assert restored.counters.items == original.counters.items

    def test_derived_values_survive(self):
        restored = detection_from_dict(detection_to_dict(make_detection()))
        original = make_detection()
        assert restored.bias(0) == original.bias(0)
        assert restored.wm_estimate() == original.wm_estimate()
        assert restored.exact_false_positive(0) == \
            original.exact_false_positive(0)

    def test_dict_is_json_compatible(self):
        text = json.dumps(detection_to_dict(make_detection()))
        assert detection_from_dict(json.loads(text)).bias(0) == 10


class TestCheckpointDicts:
    """The checkpoint path's shallow field copies."""

    @pytest.mark.parametrize("obj, to_dict", [
        (WatermarkParams(phi=6, delta=0.03, omega=2), params_to_dict),
        (make_detection().counters, ScanCounters.to_dict),
    ])
    def test_equal_to_asdict_and_fresh(self, obj, to_dict):
        first = to_dict(obj)
        assert list(first.items()) == list(dataclasses.asdict(obj).items())
        first.clear()  # a caller mutating one snapshot...
        assert to_dict(obj) == dataclasses.asdict(obj)  # ...not the next


class TestReportRoundtrip:
    def test_dict_roundtrip(self):
        original = make_report()
        restored = report_from_dict(report_to_dict(original))
        assert restored.embedded == original.embedded
        assert restored.average_subset_size == original.average_subset_size
        assert restored.max_abs_alteration == original.max_abs_alteration
        assert restored.summary() == original.summary()


class TestFiles:
    def test_save_load_detection(self, tmp_path):
        path = tmp_path / "evidence.json"
        save_json(make_detection(), path)
        loaded = load_json(path)
        assert isinstance(loaded, DetectionResult)
        assert loaded.bias(0) == 10

    def test_save_load_report(self, tmp_path):
        path = tmp_path / "report.json"
        save_json(make_report(), path)
        loaded = load_json(path)
        assert isinstance(loaded, EmbedReport)
        assert loaded.embedded == 28

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            save_json({"not": "serializable"}, tmp_path / "x.json")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            detection_from_dict(report_to_dict(make_report()))

    def test_future_version_rejected(self, tmp_path):
        data = detection_to_dict(make_detection())
        data["format_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParameterError):
            load_json(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(ParameterError):
            load_json(path)
