"""Checkpoint serialization of watermarking parameters and embed reports.

A session checkpoint carries its parameter set and its embed report,
which holds the reference statistics detection needs later (Sec 4.2's
average subset size).  Both serialize to plain JSON-compatible dicts —
no pickle, so checkpoints remain readable and tamper-evident alongside
any notarization scheme.
"""

from __future__ import annotations

import dataclasses

from repro.core.embedder import EmbedReport
from repro.core.params import WatermarkParams
from repro.core.scanner import ScanCounters
from repro.errors import ParameterError

_FORMAT_VERSION = 1


def _counters_to_dict(counters: ScanCounters) -> dict:
    return counters.to_dict()


def _counters_from_dict(data: dict) -> ScanCounters:
    return ScanCounters.from_dict(data)


def params_to_dict(params: WatermarkParams) -> dict:
    """Serialize watermarking parameters field-by-field.

    Every :class:`WatermarkParams` field is a plain scalar, so a
    shallow copy is JSON-compatible as-is (``dataclasses.asdict`` would
    deep-copy each scalar, on every checkpoint); :func:`params_from_dict`
    re-runs the constructor and therefore re-validates every invariant.
    """
    return {f.name: getattr(params, f.name)
            for f in dataclasses.fields(params)}


def params_from_dict(data: dict) -> WatermarkParams:
    """Reconstruct :class:`WatermarkParams` from :func:`params_to_dict`.

    Unknown keys are rejected (a newer library's parameter would
    otherwise be silently dropped, changing detection semantics).
    """
    known = {f.name for f in dataclasses.fields(WatermarkParams)}
    unknown = set(data) - known
    if unknown:
        raise ParameterError(
            f"unknown WatermarkParams fields in archive: {sorted(unknown)}"
        )
    return WatermarkParams(**data)


def report_to_dict(report: EmbedReport) -> dict:
    """Serialize an embed report (everything detection may need later)."""
    return {
        "format_version": _FORMAT_VERSION,
        "kind": "embed-report",
        "counters": _counters_to_dict(report.counters),
        "embedded": report.embedded,
        "search_failures": report.search_failures,
        "quality_rollbacks": report.quality_rollbacks,
        "total_search_iterations": report.total_search_iterations,
        "altered_items": report.altered_items,
        "sum_abs_alteration": report.sum_abs_alteration,
        "max_abs_alteration": report.max_abs_alteration,
    }


def report_from_dict(data: dict) -> EmbedReport:
    """Reconstruct an embed report serialized by :func:`report_to_dict`."""
    _check(data, "embed-report")
    return EmbedReport(
        counters=_counters_from_dict(data["counters"]),
        embedded=int(data["embedded"]),
        search_failures=int(data["search_failures"]),
        quality_rollbacks=int(data["quality_rollbacks"]),
        total_search_iterations=int(data["total_search_iterations"]),
        altered_items=int(data["altered_items"]),
        sum_abs_alteration=float(data["sum_abs_alteration"]),
        max_abs_alteration=float(data["max_abs_alteration"]))


def _check(data: dict, expected_kind: str) -> None:
    if data.get("kind") != expected_kind:
        raise ParameterError(
            f"expected kind {expected_kind!r}, got {data.get('kind')!r}"
        )
    if int(data.get("format_version", -1)) > _FORMAT_VERSION:
        raise ParameterError(
            "archive written by a newer library version "
            f"({data['format_version']} > {_FORMAT_VERSION})"
        )
