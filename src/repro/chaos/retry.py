"""Retry policy: exponential backoff, full jitter, deadlines, timeouts.

One :class:`RetryPolicy` value describes how a client rides out a flaky
or restarting server: how many dial attempts, how the delay between
them grows (exponential with **full jitter** — each sleep is uniform in
``[0, min(max_delay, base * multiplier**attempt)]``, the AWS-style
variant that avoids thundering herds of synchronized retries), how long
any single operation may take (``op_timeout``), and the overall wall
clock budget (``deadline``) after which the client stops trying and
surfaces the failure.

The second half of the policy is **classification**: which errors are
worth retrying at all (:data:`RETRYABLE_ERRORS`).  Connection-level
failures (resets, refused dials, EOF, timeouts) are transient — the
server may be mid-restart — so they retry.  Semantic failures are not:
a wrong key, a server-side :class:`~repro.errors.RemoteError`, or a
protocol violation on a healthy link means retrying would only repeat
the same rejection, so they fail fast.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

from repro.errors import ParameterError

#: Transient transport-level failures: the connection is gone, and a
#: redial may succeed.  Anything else (a RemoteError the server sent, a
#: ProtocolError on a healthy link) fails fast.  ``asyncio.TimeoutError``
#: is its own class before Python 3.11.
RETRYABLE_ERRORS = (ConnectionError, OSError, EOFError, TimeoutError,
                    asyncio.TimeoutError, asyncio.IncompleteReadError)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How hard to try: attempts, backoff shape, timeouts, deadline.

    Parameters
    ----------
    attempts:
        Maximum dial attempts per reconnect cycle (at least 1).
    base_delay, multiplier, max_delay:
        Backoff shape: the cap before jitter for attempt *n* (0-based)
        is ``min(max_delay, base_delay * multiplier**n)``; the actual
        sleep is uniform in ``[0, cap]`` (full jitter).
    deadline:
        Overall wall-clock budget in seconds for one reconnect cycle,
        including sleeps; ``None`` means attempts alone bound it.
    op_timeout:
        Budget in seconds for any single framed read; a server silent
        for longer is treated as a lost connection.  ``None`` disables.

    The defaults are the client SDK's policy: 40 attempts, sleeps
    capped at 0.25 s, a 30 s deadline per reconnect cycle and a 30 s
    per-read timeout — enough to ride out a ``--recover`` restart.
    """

    attempts: int = 40
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 0.25
    deadline: "float | None" = 30.0
    op_timeout: "float | None" = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "attempts", max(1, int(self.attempts)))
        object.__setattr__(self, "base_delay",
                           max(0.0, float(self.base_delay)))
        object.__setattr__(self, "multiplier",
                           max(1.0, float(self.multiplier)))
        object.__setattr__(self, "max_delay",
                           max(self.base_delay, float(self.max_delay)))
        for name in ("deadline", "op_timeout"):
            value = getattr(self, name)
            if value is not None:
                value = float(value)
                if value <= 0:
                    raise ParameterError(
                        f"retry {name} must be positive, got {value}")
                object.__setattr__(self, name, value)

    def backoff_delay(self, attempt: int,
                      rng: "random.Random | None" = None) -> float:
        """The sleep before retry ``attempt`` (0-based): full jitter."""
        cap = min(self.max_delay,
                  self.base_delay * self.multiplier ** max(0, attempt))
        return (rng or random).uniform(0.0, cap)
