"""Synthetic stream sources (paper Sec 6, "temperature sensor generator").

The paper's experimental setup used *"a temperature sensor synthetic data
stream generator with controllable parameters, including the ability to
adjust the data stream distribution, fluctuating behavior (e.g. η(σ, δ))
and rate (ς)"*.  :class:`TemperatureSensorGenerator` reproduces those
knobs:

* ``eta`` — target average number of items per major extreme, the paper's
  ``η(σ, δ)`` (default 100, matching Sec 6's reference setup);
* ``extreme_scale`` / ``distribution`` — controls the magnitude
  distribution of the extremes (the reference setup is a normalized
  stream with mean 0 and standard deviation 0.5);
* ``rate_hz`` — the stream rate ``ς`` (default 100 Hz, as in Sec 6).

The generator synthesizes the stream as a chain of half-cosine arcs
between alternating maxima and minima.  Cosine arcs have zero slope at
their endpoints, so every generated extreme has a naturally "fat"
characteristic subset — exactly the temporal shape the paper's Fig 2
illustrates as favourable for surviving sampling.  Small additive noise
(kept well below the characteristic-subset radius δ) models sensor
jitter without creating spurious major extremes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.streams.model import StreamMeta
from repro.util.rng import make_rng


@dataclass
class TemperatureSensorGenerator:
    """Controllable synthetic sensor stream (normalized domain).

    Parameters
    ----------
    eta:
        Target ``η(σ, δ)``: average items between consecutive major
        extremes.  Segment lengths are jittered ±``eta_jitter``·eta so the
        extreme spacing is irregular, like real sensor data.
    extreme_scale:
        Scale of the extreme-value distribution.  Maxima are drawn from
        the positive side, minima from the negative side, giving the
        stream an overall near-zero mean and a spread comparable to the
        paper's "mean 0, standard deviation 0.5" reference stream once
        clipped into the normalized range.
    noise_std:
        Standard deviation of additive gaussian jitter.  Must stay small
        relative to the watermarking radius δ; the Sec-6 experiment
        configuration checks this invariant.
    eta_jitter:
        Relative jitter on segment lengths, in ``[0, 0.9]``.
    min_swing:
        Minimum vertical distance between consecutive extremes, so arcs
        never degenerate into flat lines (which would merge extremes).
    shape:
        Arc shape between extremes: ``"cosine"`` (default) yields
        flat-topped extremes with fat characteristic subsets — the
        favourable temporal shape of paper Fig 2; ``"triangle"`` yields
        sharp peaks with thin subsets, the adversarial shape used by the
        label-fragility experiments (Fig 8(a)).
    rate_hz:
        Stream rate ``ς`` recorded in the generated :class:`StreamMeta`.
    seed:
        Seed for replayability.
    """

    eta: int = 100
    extreme_scale: float = 0.22
    noise_std: float = 0.0
    eta_jitter: float = 0.3
    min_swing: float = 0.08
    shape: str = "cosine"
    rate_hz: float = 100.0
    seed: "int | None" = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.eta < 4:
            raise ParameterError(f"eta must be >= 4, got {self.eta}")
        if not 0.0 < self.extreme_scale < 0.5:
            raise ParameterError(
                f"extreme_scale must be in (0, 0.5), got {self.extreme_scale}"
            )
        if self.noise_std < 0.0:
            raise ParameterError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.eta_jitter <= 0.9:
            raise ParameterError(
                f"eta_jitter must be in [0, 0.9], got {self.eta_jitter}"
            )
        if not 0.0 < self.min_swing < 2 * self.extreme_scale:
            raise ParameterError(
                "min_swing must be positive and below the extreme swing range"
            )
        if self.shape not in ("cosine", "triangle"):
            raise ParameterError(
                f"shape must be 'cosine' or 'triangle', got {self.shape!r}"
            )
        self._rng = make_rng(self.seed)

    # ------------------------------------------------------------------
    def meta(self) -> StreamMeta:
        """Metadata describing this source."""
        return StreamMeta(rate_hz=self.rate_hz, name="synthetic-temperature",
                          units="normalized")

    def _draw_extreme(self, is_maximum: bool, previous: float) -> float:
        """Draw the next extreme value on the required side of ``previous``.

        Magnitudes are drawn uniformly over a wide band (scaled by
        ``extreme_scale``): well-separated extreme magnitudes keep the
        labeling scheme's order comparisons stable under value noise,
        mirroring the broad spread of the paper's reference distribution
        (normal with standard deviation 0.5 over a unit range).
        """
        half = 0.47  # hard bound keeping values strictly inside (-0.5, 0.5)
        low = min(0.3 * self.extreme_scale, half - self.min_swing)
        high = min(2.0 * self.extreme_scale, half)
        for _ in range(64):
            magnitude = self._rng.uniform(low, high)
            value = magnitude if is_maximum else -magnitude
            if is_maximum and value >= previous + self.min_swing:
                return value
            if not is_maximum and value <= previous - self.min_swing:
                return value
        # Fallback: force a valid swing if rejection sampling stalled.
        if is_maximum:
            return min(previous + self.min_swing, half)
        return max(previous - self.min_swing, -half)

    def _segment_length(self) -> int:
        """Items between consecutive extremes: η/2 on average.

        A full min→max→min oscillation spans two segments, so segments of
        mean η/2 yield one extreme per η/2 items and one *major* extreme
        per ≈η items once the majorness filter prunes the shallower ones;
        in practice (see the calibration test-suite) the measured η(σ, δ)
        tracks the requested value.
        """
        mean = self.eta / 2.0
        jitter = self.eta_jitter * mean
        length = int(round(self._rng.uniform(mean - jitter, mean + jitter)))
        return max(3, length)

    def generate(self, n_items: int) -> np.ndarray:
        """Produce ``n_items`` normalized stream values."""
        if n_items <= 0:
            raise ParameterError(f"n_items must be positive, got {n_items}")
        out = np.empty(n_items, dtype=np.float64)
        produced = 0
        is_maximum = bool(self._rng.integers(0, 2))
        current = self._draw_extreme(not is_maximum, 0.0)
        while produced < n_items:
            target = self._draw_extreme(is_maximum, current)
            length = self._segment_length()
            s = np.arange(1, length + 1, dtype=np.float64) / length
            if self.shape == "cosine":
                # Half-cosine arc: flat (zero derivative) at both ends.
                arc = current + (target - current) * 0.5 \
                    * (1.0 - np.cos(np.pi * s))
            else:
                # Linear ramp: sharp extremes, thin subsets.
                arc = current + (target - current) * s
            take = min(length, n_items - produced)
            out[produced:produced + take] = arc[:take]
            produced += take
            current = target
            is_maximum = not is_maximum
        if self.noise_std > 0.0:
            out += self._rng.normal(0.0, self.noise_std, size=n_items)
        return np.clip(out, -0.495, 0.495)


@dataclass
class GaussianStream:
    """I.i.d. gaussian stream — the paper's *random, un-watermarked data*.

    Used by detector false-positive tests: on data like this the
    true/false voting buckets must stay statistically balanced
    (paper Sec 3.3).  Defaults follow the Sec 6 reference distribution
    (mean 0, standard deviation 0.5), truncated to the normalized open
    interval by *resampling* out-of-range draws.  Hard clipping would
    pile identical saturated values at the boundaries — artificial
    plateaus that no normalized real stream exhibits and that would
    correlate detector votes.
    """

    mean: float = 0.0
    std: float = 0.5
    rate_hz: float = 100.0
    seed: "int | None" = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.std <= 0:
            raise ParameterError(f"std must be positive, got {self.std}")
        self._rng = make_rng(self.seed)

    def meta(self) -> StreamMeta:
        """Metadata describing this source."""
        return StreamMeta(rate_hz=self.rate_hz, name="gaussian", units="normalized")

    def generate(self, n_items: int) -> np.ndarray:
        """Produce ``n_items`` truncated-gaussian stream values."""
        if n_items <= 0:
            raise ParameterError(f"n_items must be positive, got {n_items}")
        values = self._rng.normal(self.mean, self.std, size=n_items)
        for _ in range(64):
            outside = (values <= -0.495) | (values >= 0.495)
            n_outside = int(np.sum(outside))
            if n_outside == 0:
                return values
            values[outside] = self._rng.normal(self.mean, self.std,
                                               size=n_outside)
        # Pathological parameters (e.g. |mean| near the boundary): give
        # up on resampling and clip the stragglers.
        return np.clip(values, -0.4949, 0.4949)


@dataclass
class RandomWalkStream:
    """Mean-reverting smoothed random walk (Ornstein–Uhlenbeck flavour).

    A rougher source than :class:`TemperatureSensorGenerator`: extremes
    appear at irregular scales, which stresses the majorness filter and
    the degree-estimation module the way noisy field data would.
    """

    step_std: float = 0.01
    reversion: float = 0.005
    smoothing: int = 5
    rate_hz: float = 100.0
    seed: "int | None" = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.step_std <= 0:
            raise ParameterError(f"step_std must be positive, got {self.step_std}")
        if not 0.0 <= self.reversion < 1.0:
            raise ParameterError(
                f"reversion must be in [0, 1), got {self.reversion}"
            )
        if self.smoothing < 1:
            raise ParameterError(f"smoothing must be >= 1, got {self.smoothing}")
        self._rng = make_rng(self.seed)

    def meta(self) -> StreamMeta:
        """Metadata describing this source."""
        return StreamMeta(rate_hz=self.rate_hz, name="random-walk",
                          units="normalized")

    def generate(self, n_items: int) -> np.ndarray:
        """Produce ``n_items`` smoothed random-walk stream values."""
        if n_items <= 0:
            raise ParameterError(f"n_items must be positive, got {n_items}")
        steps = self._rng.normal(0.0, self.step_std, size=n_items)
        values = np.empty(n_items, dtype=np.float64)
        level = 0.0
        for i in range(n_items):
            level = level * (1.0 - self.reversion) + steps[i]
            values[i] = level
        if self.smoothing > 1:
            kernel = np.ones(self.smoothing) / self.smoothing
            values = np.convolve(values, kernel, mode="same")
        return np.clip(values, -0.495, 0.495)


#: ``name -> (generator class, description)``, in ``repro list`` order.
GENERATORS = {
    "temperature": (TemperatureSensorGenerator,
                    "Sec-6 controllable temperature-sensor stream "
                    "(eta, shape, noise)"),
    "gaussian": (GaussianStream,
                 "i.i.d. truncated-gaussian stream "
                 "(unwatermarked false-positive baseline)"),
    "random-walk": (RandomWalkStream,
                    "mean-reverting smoothed random walk "
                    "(irregular-extreme stress source)"),
}
