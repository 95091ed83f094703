"""Seeded random-number helpers.

Every stochastic component in the library (generators, sampling
transforms, attacks, the multi-hash search) takes either a seed or a
:class:`numpy.random.Generator`.  Centralizing the coercion here keeps
experiments exactly replayable, which the benchmark harness relies on to
compare paper-vs-measured series across runs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

RngLike = "int | np.random.Generator | None"


def make_rng(seed: "int | np.random.Generator | dict | None" = None
             ) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh OS-seeded generator; an existing generator is
    passed through untouched (so callers can share one stream of
    randomness across components when they want correlated draws).  A
    dict is a PCG64 ``bit_generator.state``, the form a checkpoint
    carries: the generator resumes at that position.  Seeds can come
    from outside the program (an OPEN frame, a checkpoint), so a state
    of another bit generator, a malformed state or an invalid seed
    raises :class:`ParameterError`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        if isinstance(seed, dict):
            bit_generator = np.random.PCG64()
            bit_generator.state = seed
            return np.random.Generator(bit_generator)
        return np.random.default_rng(seed)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(
            f"cannot build a random generator from {seed!r}: {exc}"
        ) from None


def split_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Uses numpy's ``spawn`` when available (numpy >= 1.25) and falls back
    to seeding children from the parent's bit stream otherwise.
    """
    if n <= 0:
        return []
    if hasattr(rng, "spawn"):
        return list(rng.spawn(n))
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
