"""On-the-fly quality assessment with an undo log (paper Sec 4.4).

Watermarking alters its input; the embedder therefore accepts *semantic
constraints* — limits on the allowable change — and re-evaluates them for
every proposed alteration.  An undo log (the paper's "rollback" log from
[19], adapted to the window model) reverses the current watermarking
step when a constraint trips, and the step is counted as a rollback in
the embed report.

Consistent with the paper's storage argument, constraints are evaluated
against *running aggregates* (a handful of scalars: counts, sums, sums
of squares, max change), never against stored history: including history
would cost window slots better spent on incoming data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from repro.errors import ParameterError


@dataclass(frozen=True)
class Alteration:
    """One proposed item rewrite (stream index, before, after)."""

    index: int
    old: float
    new: float

    @property
    def change(self) -> float:
        """Signed value change introduced by this rewrite."""
        return self.new - self.old


@dataclass
class QualityStats:
    """Running aggregates maintained by the monitor.

    ``n_seen`` counts every item that passed through the embedder;
    ``n_altered`` only the rewritten ones.  Original and watermarked
    moments are tracked in parallel so drifts can be computed exactly.
    """

    n_seen: int = 0
    n_altered: int = 0
    sum_original: float = 0.0
    sumsq_original: float = 0.0
    sum_marked: float = 0.0
    sumsq_marked: float = 0.0
    max_abs_change: float = 0.0

    # -- derived -------------------------------------------------------
    def mean_original(self) -> float:
        """Mean of the stream before watermarking."""
        return self.sum_original / self.n_seen if self.n_seen else 0.0

    def mean_marked(self) -> float:
        """Mean of the stream after watermarking."""
        return self.sum_marked / self.n_seen if self.n_seen else 0.0

    def std_original(self) -> float:
        """Population standard deviation before watermarking."""
        if self.n_seen == 0:
            return 0.0
        mean = self.mean_original()
        variance = max(0.0, self.sumsq_original / self.n_seen - mean * mean)
        return math.sqrt(variance)

    def std_marked(self) -> float:
        """Population standard deviation after watermarking."""
        if self.n_seen == 0:
            return 0.0
        mean = self.mean_marked()
        variance = max(0.0, self.sumsq_marked / self.n_seen - mean * mean)
        return math.sqrt(variance)

    def mean_drift(self) -> float:
        """Absolute change of the mean introduced so far."""
        return abs(self.mean_marked() - self.mean_original())

    def std_drift(self) -> float:
        """Absolute change of the standard deviation introduced so far."""
        return abs(self.std_marked() - self.std_original())

    def altered_fraction(self) -> float:
        """Fraction of seen items that were rewritten."""
        return self.n_altered / self.n_seen if self.n_seen else 0.0


class QualityConstraint(Protocol):
    """A named predicate over the running quality statistics."""

    name: str

    def check(self, stats: QualityStats) -> bool:
        """Return True when the constraint is satisfied."""
        ...


@dataclass(frozen=True)
class MaxPerItemChange:
    """No single item may move more than ``limit`` (normalized units).

    The paper's example of a domain metric: "the total alteration
    introduced per data item should not exceed a certain threshold".
    """

    limit: float
    name: str = "max-per-item-change"

    def __post_init__(self) -> None:
        if self.limit <= 0:
            raise ParameterError(f"limit must be positive, got {self.limit}")

    def check(self, stats: QualityStats) -> bool:
        """Satisfied while the largest single-item change is in budget."""
        return stats.max_abs_change <= self.limit


@dataclass(frozen=True)
class MaxMeanDrift:
    """The stream mean may not drift more than ``limit`` (absolute)."""

    limit: float
    name: str = "max-mean-drift"

    def __post_init__(self) -> None:
        if self.limit <= 0:
            raise ParameterError(f"limit must be positive, got {self.limit}")

    def check(self, stats: QualityStats) -> bool:
        """Satisfied while the accumulated mean drift is in budget."""
        return stats.mean_drift() <= self.limit


@dataclass(frozen=True)
class MaxStdDrift:
    """The stream standard deviation may not drift more than ``limit``."""

    limit: float
    name: str = "max-std-drift"

    def __post_init__(self) -> None:
        if self.limit <= 0:
            raise ParameterError(f"limit must be positive, got {self.limit}")

    def check(self, stats: QualityStats) -> bool:
        """Satisfied while the accumulated std drift is in budget."""
        return stats.std_drift() <= self.limit


@dataclass(frozen=True)
class MaxAlteredFraction:
    """At most ``limit`` of all items may be rewritten."""

    limit: float
    name: str = "max-altered-fraction"

    def __post_init__(self) -> None:
        if not 0.0 < self.limit <= 1.0:
            raise ParameterError(f"limit must be in (0, 1], got {self.limit}")

    def check(self, stats: QualityStats) -> bool:
        """Satisfied while the rewritten-item fraction is in budget."""
        return stats.altered_fraction() <= self.limit


@dataclass
class UndoRecord:
    """Undo-log entry: the alterations of one rolled-back step."""

    alterations: list[Alteration]
    violated: str


class QualityMonitor:
    """Constraint evaluation with rollback, driven by the embedder.

    Usage protocol (mirrors Fig 5's architecture):

    1. :meth:`admit` every item entering the window (updates the
       original-stream aggregates);
    2. :meth:`propose` each watermarking step's alterations — the monitor
       tentatively applies them to the aggregates, evaluates every
       constraint, and either commits (returns True) or rolls back
       (returns False and appends to the undo log).
    """

    def __init__(self, constraints: "list[QualityConstraint] | None" = None
                 ) -> None:
        self._constraints = list(constraints or [])
        self.stats = QualityStats()
        self.undo_log: list[UndoRecord] = []

    @property
    def constraints(self) -> list:
        """The active constraints (read-only view)."""
        return list(self._constraints)

    def admit(self, value: float) -> None:
        """Record one item passing through the embedder, unaltered so far."""
        v = float(value)
        self.stats.n_seen += 1
        self.stats.sum_original += v
        self.stats.sumsq_original += v * v
        self.stats.sum_marked += v
        self.stats.sumsq_marked += v * v

    def admit_many(self, values) -> None:
        """Batch form of :meth:`admit`."""
        for value in values:
            self.admit(value)

    def propose(self, alterations: list[Alteration]) -> bool:
        """Tentatively apply a watermarking step; commit or roll back."""
        if not alterations:
            return True
        saved_max = self.stats.max_abs_change
        for alt in alterations:
            self.stats.sum_marked += alt.new - alt.old
            self.stats.sumsq_marked += alt.new ** 2 - alt.old ** 2
            self.stats.max_abs_change = max(self.stats.max_abs_change,
                                            abs(alt.change))
        self.stats.n_altered += len(alterations)
        violated = next((c.name for c in self._constraints
                         if not c.check(self.stats)), None)
        if violated is None:
            return True
        # Roll back: reverse the aggregate updates, log the undo.
        for alt in alterations:
            self.stats.sum_marked -= alt.new - alt.old
            self.stats.sumsq_marked -= alt.new ** 2 - alt.old ** 2
        self.stats.max_abs_change = saved_max
        self.stats.n_altered -= len(alterations)
        self.undo_log.append(UndoRecord(alterations=list(alterations),
                                        violated=violated))
        return False

    @property
    def rollbacks(self) -> int:
        """Number of watermarking steps rejected so far."""
        return len(self.undo_log)
