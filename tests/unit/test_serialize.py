"""Tests for evidence serialization."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.embedder import EmbedReport
from repro.core.params import WatermarkParams
from repro.core.scanner import ScanCounters
from repro.core.serialize import params_to_dict, report_from_dict, report_to_dict
from repro.errors import ParameterError


def make_report() -> EmbedReport:
    return EmbedReport(
        counters=ScanCounters(items=5000, extremes_confirmed=60, majors=55,
                              selected=30, subset_size_sum=600),
        embedded=28, search_failures=2, quality_rollbacks=1,
        total_search_iterations=900, altered_items=150,
        sum_abs_alteration=1.5e-6, max_abs_alteration=3e-8)


class TestCheckpointDicts:
    """The checkpoint path's shallow field copies."""

    @pytest.mark.parametrize("obj, to_dict", [
        (WatermarkParams(phi=6, delta=0.03, omega=2), params_to_dict),
        (ScanCounters(items=5000, extremes_confirmed=60, majors=55,
                      warmup_skips=7, selected=30, missed_evictions=1,
                      subset_size_sum=600), ScanCounters.to_dict),
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
    """An archived report of another kind or a newer format is refused."""

    def test_kind_mismatch_rejected(self):
        data = report_to_dict(make_report())
        data["kind"] = "detection-result"
        with pytest.raises(ParameterError):
            report_from_dict(data)

    def test_future_version_rejected(self):
        data = report_to_dict(make_report())
        data["format_version"] = 99
        with pytest.raises(ParameterError):
            report_from_dict(data)
