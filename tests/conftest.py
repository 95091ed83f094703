"""Shared fixtures and hypothesis profiles.

Embedding is the expensive operation, so watermarked reference streams
are produced once per session and shared read-only; tests that need to
mutate data copy first.

Two hypothesis profiles are registered here:

* ``default`` — the library's normal interactive profile;
* ``ci`` — the pinned CI profile: **derandomized** (every CI run
  explores the same examples, so failures reproduce) with a higher
  example count for tests that do not set their own.

Select with ``HYPOTHESIS_PROFILE=ci pytest ...`` (the GitHub Actions
workflow does).
"""

from __future__ import annotations

import gc
import logging
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro import WatermarkParams, watermark_stream
from repro.streams import GaussianStream, TemperatureSensorGenerator

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session", autouse=True)
def no_process_outlives_the_suite():
    """Fail the run when a ``multiprocessing`` child is still alive at
    the end.

    Detection pools are started per call and joined before the call
    returns: ``RUSAGE_CHILDREN`` counts only reaped children, so a pool
    left running would hide its CPU time from every measurement of it.
    """
    yield
    alive = multiprocessing.active_children()
    assert not alive, f"processes outlived the test session: {alive}"


#: What asyncio logs when a task or future is lost: collected while
#: still pending, or failed with nobody reading its exception.
LOST_TASK_MESSAGES = ("Task was destroyed but it is pending!",
                      "Task exception was never retrieved",
                      "Future exception was never retrieved")


class _LostTaskHandler(logging.Handler):
    """Collects asyncio's lost-task and lost-future records."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.lost: "list[str]" = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if message.startswith(LOST_TASK_MESSAGES):
            self.lost.append(message)


@pytest.fixture(scope="session", autouse=True)
def no_asyncio_task_is_lost():
    """Fail the run when asyncio reports a lost task or future.

    The server and client manage their own read interrupts and timers;
    a task left pending or a failure nobody awaited shows up only as
    this log line, at garbage collection.
    """
    handler = _LostTaskHandler()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        gc.collect()
    finally:
        logger.removeHandler(handler)
    assert not handler.lost, \
        f"asyncio lost {len(handler.lost)} task(s)/future(s): {handler.lost}"


#: Secret key shared by the reference fixtures.
KEY = b"test-key-k1"


@pytest.fixture(scope="session")
def params() -> WatermarkParams:
    """Library-default parameters (the calibrated reference setup)."""
    return WatermarkParams()


@pytest.fixture(scope="session")
def small_stream() -> np.ndarray:
    """A short synthetic stream for cheap unit-level checks."""
    return TemperatureSensorGenerator(eta=60, seed=101).generate(3000)


@pytest.fixture(scope="session")
def reference_stream() -> np.ndarray:
    """The Sec-6-style reference stream: eta ~= 100, ~8000 items."""
    return TemperatureSensorGenerator(eta=100, seed=7).generate(8000)


@pytest.fixture(scope="session")
def marked_reference(reference_stream, params):
    """One-bit watermarked reference stream plus its embed report."""
    marked, report = watermark_stream(reference_stream, watermark="1",
                                      key=KEY, params=params)
    marked.setflags(write=False)
    return marked, report


@pytest.fixture(scope="session")
def random_stream() -> np.ndarray:
    """Unwatermarked i.i.d. data for false-positive checks."""
    return GaussianStream(seed=33).generate(8000)
