"""Attack gauntlet: run a named battery of attacks/transforms at once.

Used by the ``attack_gauntlet`` example; the benches write their
per-attack results to ``benchmarks/results/``.  One watermarked stream
goes in, a dict of attacked variants comes out, and the caller detects
against each.

The battery itself carries no attack code: every entry names a builder
in :data:`repro.attacks.ATTACKS` or :data:`repro.transforms.TRANSFORMS`
plus its options.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ParameterError
from repro.registry import entry
from repro.util.rng import make_rng, split_rng

#: The default battery: (name, kind, component, options, description)
#: covering A1, A2, A3, A5, A6 and the Sec-5 targeted model.
DEFAULT_BATTERY = (
    ("sampling-4", "transform", "sample", {"degree": 4},
     "uniform random sampling, degree 4 (keep 25%)"),
    ("sampling-12", "transform", "sample", {"degree": 12},
     "uniform random sampling, degree 12 (keep ~8%)"),
    ("summarization-5", "transform", "summarize", {"degree": 5},
     "summarization, degree 5 (keep 20%)"),
    ("segmentation-40", "transform", "segment", {"fraction": 0.4},
     "random contiguous segment, 40% of the stream"),
    ("epsilon-50-10", "attack", "epsilon", {"tau": 0.5, "epsilon": 0.1},
     "epsilon-attack: tau=50%, epsilon=10%"),
    ("epsilon-10-30", "attack", "epsilon", {"tau": 0.1, "epsilon": 0.3},
     "epsilon-attack: tau=10%, epsilon=30%"),
    ("additive-10", "attack", "additive", {"fraction": 0.10},
     "insert 10% plausible values (A5)"),
    ("targeted-extremes", "attack", "extreme-targeted", {"a1": 5, "a2": 0.5},
     "Sec-5 model: every 5th extreme, half its subset"),
)


@dataclass(frozen=True)
class AttackOutcome:
    """One gauntlet entry: the attacked stream plus a description."""

    name: str
    values: np.ndarray
    description: str


class AttackSuite:
    """A reproducible battery covering A1, A2, A3, A5, A6 and Sec 5.

    >>> suite = AttackSuite(seed=11)
    >>> names = [o.name for o in suite.run([0.1, -0.2, 0.3] * 400)]
    >>> "sampling-4" in names and "epsilon-50-10" in names
    True
    """

    def __init__(self, seed: "int | None" = 2004,
                 include: "list[str] | None" = None) -> None:
        self._seed = seed
        self._entries: dict[str, tuple[str, Callable]] = {}
        for name, kind, component, options, description in DEFAULT_BATTERY:
            self.add(name, kind, component, options, description)
        if include is not None:
            unknown = set(include) - set(self._entries)
            if unknown:
                raise ParameterError(f"unknown attacks: {sorted(unknown)}")
            self._entries = {k: v for k, v in self._entries.items()
                             if k in include}

    def add(self, name: str, kind: str, component: str,
            options: "dict | None" = None, description: str = "") -> None:
        """Append one entry to this gauntlet.

        ``component`` names a builder of ``kind`` (``"attack"`` or
        ``"transform"``); ``options`` are passed to it, and builders
        with an ``rng`` parameter additionally receive the per-run
        child RNG that makes the gauntlet reproducible.
        """
        # Imported here: the attacks package imports this module first.
        from repro.attacks import ATTACKS
        from repro.transforms import TRANSFORMS

        tables = {"attack": ATTACKS, "transform": TRANSFORMS}
        builder = entry(kind, tables[kind], component)
        opts = dict(options or {})
        accepts_rng = "rng" in inspect.signature(builder).parameters

        def run(values: np.ndarray, rng) -> np.ndarray:
            resolved = dict(opts)
            if accepts_rng:
                resolved["rng"] = rng
            return np.asarray(builder(**resolved)(values))

        self._entries[name] = (description, run)

    @property
    def names(self) -> list[str]:
        """Attack identifiers, in execution order."""
        return list(self._entries)

    def run(self, values) -> list[AttackOutcome]:
        """Apply every attack of the battery to an independent copy."""
        array = np.asarray(values, dtype=np.float64)
        master = make_rng(self._seed)
        children = split_rng(master, len(self._entries))
        outcomes: list[AttackOutcome] = []
        for (name, (description, attack)), child in zip(
                self._entries.items(), children):
            outcomes.append(AttackOutcome(
                name=name, values=np.asarray(attack(array.copy(), child)),
                description=description))
        return outcomes
