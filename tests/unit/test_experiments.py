"""Smoke tests for the experiment harness (figures run at tiny scale).

``TestReferenceBits`` pins embed and detect outputs bit for bit.  After
a deliberate output change, re-record the reference from the repository
root with::

    PYTHONPATH=src:tests/unit python -c "import json, test_experiments as t; print(json.dumps(t.reference_outputs(), indent=1))" > benchmarks/results/reference_bits.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.detector import detect_watermark
from repro.core.embedder import watermark_stream
from repro.errors import ParameterError
from repro.experiments.analysis_tables import run_analysis_table
from repro.experiments.config import DEFAULT_KEY, irtf_params, scaled, synthetic_params
from repro.experiments.datasets import reference_synthetic
from repro.experiments.fig06_labels_epsilon import run_fig6a
from repro.experiments.fig11_overhead_quality import run_fig11b
from repro.experiments.runner import ExperimentResult, format_table

#: Recorded embed/detect outputs (marked-stream digest, detection bias
#: and estimate) that every change to the scan or the encodings must
#: reproduce bit for bit.
REFERENCE_BITS = (Path(__file__).resolve().parents[2] / "benchmarks"
                  / "results" / "reference_bits.json")


def reference_outputs() -> dict:
    """Embed and detect the fixed 3k-item reference stream under each
    pinned encoding (watermark ``101``, φ=5); digest the outputs."""
    stream = np.array(reference_synthetic(3000))
    params = synthetic_params().with_updates(phi=5)
    outputs = {}
    for encoding in ("multihash", "initial", "quadres"):
        marked, report = watermark_stream(stream, "101", DEFAULT_KEY,
                                          params=params, encoding=encoding)
        detection = detect_watermark(marked, 3, DEFAULT_KEY, params=params,
                                     encoding=encoding)
        outputs[encoding] = {
            "n_items": len(stream),
            "watermark": "101",
            "marked_sha256": hashlib.sha256(marked.tobytes()).hexdigest(),
            "embedded": report.embedded,
            "bias": [detection.bias(i) for i in range(detection.wm_length)],
            "wm_estimate": [None if b is None else bool(b)
                            for b in detection.wm_estimate()],
        }
    return outputs


class TestConfig:
    def test_synthetic_params_are_defaults(self):
        from repro.core.params import WatermarkParams

        assert synthetic_params() == WatermarkParams()

    def test_irtf_params_tuned_finer(self):
        assert irtf_params().prominence < synthetic_params().prominence
        assert irtf_params().lambda_bits < synthetic_params().lambda_bits

    def test_scaled(self):
        assert scaled(100, 0.5) == 50
        assert scaled(2, 0.1, minimum=3) == 3


class TestExperimentResult:
    def test_add_validates_columns(self):
        result = ExperimentResult("x", "t", columns=["a", "b"])
        result.add(a=1, b=2)
        with pytest.raises(ParameterError):
            result.add(a=1)

    def test_column_extraction(self):
        result = ExperimentResult("x", "t", columns=["a"])
        result.add(a=1)
        result.add(a=2)
        assert result.column("a") == [1, 2]
        with pytest.raises(ParameterError):
            result.column("missing")

    def test_format_table_renders_all_rows(self):
        result = ExperimentResult("x", "demo experiment", columns=["a", "b"],
                                  paper_expectation="demo expectation")
        result.add(a=1, b=0.123456)
        result.add(a=20, b=1e-9)
        text = format_table(result)
        assert "demo experiment" in text
        assert "demo expectation" in text
        assert "1.000e-09" in text
        assert text.count("\n") >= 5


class TestFigureSmoke:
    """Each figure function runs end-to-end at reduced scale."""

    def test_fig6a_small(self):
        result = run_fig6a(scale=0.3)
        assert result.rows
        assert set(result.columns) == {"label_size", "epsilon",
                                       "labels_altered_pct"}
        assert all(0 <= row["labels_altered_pct"] <= 100
                   for row in result.rows)

    def test_fig11b_small(self):
        result = run_fig11b(scale=0.3)
        assert len(result.rows) == 7
        assert all(row["mean_drift_pct"] < 0.21 for row in result.rows)

    def test_analysis_table(self):
        result = run_analysis_table()
        assert len(result.rows) == 8
        for row in result.rows:
            assert row["computed"] == pytest.approx(row["paper_value"],
                                                    rel=0.16)


class TestReferenceBits:
    def test_outputs_match_recorded_reference(self):
        assert reference_outputs() == json.loads(REFERENCE_BITS.read_text())
