"""Watermarking parameters and their invariants.

The paper scatters its (mostly secret) parameters across Secs 2.2, 3.2,
4.1 and 4.3.  :class:`WatermarkParams` gathers them with the paper's
symbols documented next to each field, and enforces every stated
invariant at construction time:

========================  ======  ==============================================
field                     symbol  role
========================  ======  ==============================================
``value_bits``            b(x)    fixed-point width of a stream value
``msb_bits``              β       most-significant bits used for selection and
                                  label comparisons
``lsb_bits``              α       least-significant bits the encodings may alter
``sigma``                 σ       sampling degree a *major* extreme must survive
``delta``                 δ       characteristic-subset radius (normalized units)
``phi``                   φ       selection modulus; a fraction b(wm)/φ of major
                                  extremes carry bits
``lambda_bits``           λ       label bit-length (including the leading 1)
``skip``                  %       extreme-pair distance in the labeling scheme
``omega``                 ω       multi-hash convention width (bits of the hash
                                  that must match)
``window_size``           $       finite processing window, in items
``vote_threshold``        κ       |wm[i]^T - wm[i]^F| needed before a bit is
                                  declared (Sec 3.3's "distinguish this exact
                                  case" threshold)
========================  ======  ==============================================

Fields without a paper symbol are implementation knobs that the paper
leaves implicit (average-key precision, subset caps, the guaranteed-
resilience run length of the multi-hash active set, and the zigzag
prominence that stabilizes extreme detection on noisy data).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ParameterError


@dataclass(frozen=True)
class WatermarkParams:
    """Complete parameterization of the embedding/detection pipeline.

    Instances are immutable; use :meth:`with_updates` to derive variants
    (the benchmark harness does this for parameter sweeps).
    """

    # -- value representation ------------------------------------------------
    value_bits: int = 32
    msb_bits: int = 5
    lsb_bits: int = 16
    avg_extra_bits: int = 8

    # -- extremes and majorness ----------------------------------------------
    sigma: int = 3
    delta: float = 0.02
    prominence: float = 0.05
    majority_relaxation: float = 0.66

    # -- selection -------------------------------------------------------------
    phi: int = 2

    # -- labeling (Sec 4.1) ----------------------------------------------------
    lambda_bits: int = 16
    skip: int = 2
    label_msb_bits: int = 16

    # -- multi-hash encoding (Sec 4.3) ------------------------------------------
    omega: int = 1
    active_run_length: int = 6
    max_subset_embed: int = 12
    max_subset_detect: int = 16
    max_search_iterations: int = 200_000

    # -- stream processing ------------------------------------------------------
    window_size: int = 2048

    # -- robustness (the paper's Sec-4 "hysteresis" improvement) ---------------
    robust_extreme_value: bool = True
    recenter_extremes: bool = True

    # -- detection ----------------------------------------------------------------
    vote_threshold: int = 0

    def __post_init__(self) -> None:
        if not 8 <= self.value_bits <= 48:
            raise ParameterError(
                f"value_bits must be in [8, 48], got {self.value_bits}"
            )
        if self.msb_bits < 1:
            raise ParameterError(f"msb_bits must be >= 1, got {self.msb_bits}")
        if self.lsb_bits < 4:
            raise ParameterError(
                f"lsb_bits must be >= 4 (guard bits + payload + search room), "
                f"got {self.lsb_bits}"
            )
        if self.msb_bits + self.lsb_bits > self.value_bits:
            # Paper Sec 3.2: alpha + beta <= b(x); alterations in the low
            # alpha bits must never reach the beta selection bits.
            raise ParameterError(
                f"msb_bits + lsb_bits must not exceed value_bits "
                f"({self.msb_bits} + {self.lsb_bits} > {self.value_bits})"
            )
        if self.avg_extra_bits < 1 or self.value_bits + self.avg_extra_bits > 52:
            # Average keys are computed through IEEE doubles; the grid must
            # stay comfortably inside the 53-bit mantissa.
            raise ParameterError(
                "avg_extra_bits must be >= 1 and value_bits + avg_extra_bits "
                f"<= 52, got {self.avg_extra_bits}"
            )
        if self.sigma < 1:
            raise ParameterError(f"sigma must be >= 1, got {self.sigma}")
        if not 0.0 < self.delta < 0.5:
            raise ParameterError(f"delta must be in (0, 0.5), got {self.delta}")
        if self.delta >= 2.0 ** (-self.msb_bits) * 2.0:
            # Paper Sec 3.2: delta < 2^(b - beta) in quantized units, i.e.
            # all items of a characteristic subset share the same beta most
            # significant bits.  In normalized units (full range = 1.0) the
            # bound is 2^-beta; we allow a factor-2 slack because subset
            # members sit within +-delta of the extreme, spanning at most
            # two adjacent msb cells, which the voting detector tolerates.
            raise ParameterError(
                f"delta={self.delta} too large for msb_bits={self.msb_bits}; "
                f"require delta < 2 * 2^-msb_bits = {2.0 ** (-self.msb_bits) * 2:g} "
                "so characteristic subsets share their selection bits"
            )
        if not 0.0 < self.prominence < 1.0:
            raise ParameterError(
                f"prominence must be in (0, 1), got {self.prominence}"
            )
        if self.prominence <= self.delta:
            raise ParameterError(
                f"prominence ({self.prominence}) must exceed delta "
                f"({self.delta}); otherwise adjacent extremes' subsets merge"
            )
        if not 0.0 < self.majority_relaxation <= 1.0:
            raise ParameterError(
                "majority_relaxation must be in (0, 1], got "
                f"{self.majority_relaxation}"
            )
        if self.phi < 2:
            raise ParameterError(
                f"phi must be >= 2 (paper: phi > b(wm) >= 1), got {self.phi}"
            )
        if not 2 <= self.lambda_bits <= 48:
            raise ParameterError(
                f"lambda_bits must be in [2, 48], got {self.lambda_bits}"
            )
        if self.skip < 1:
            raise ParameterError(f"skip (%) must be >= 1, got {self.skip}")
        if not 1 <= self.label_msb_bits <= self.value_bits:
            # The paper uses a single beta for selection and labels; we
            # split them because the two uses want opposite granularity:
            # selection needs *coarse* cells (the recovered extreme must
            # land in the same cell after transforms) while label
            # comparisons need *fine* cells (an order comparison between
            # magnitudes, stable unless the order truly reverses).  The
            # paper's own parameter listing (beta = 16) corresponds to
            # the fine/label side.
            raise ParameterError(
                f"label_msb_bits must be in [1, value_bits], got "
                f"{self.label_msb_bits}"
            )
        if not 1 <= self.omega <= 16:
            raise ParameterError(f"omega must be in [1, 16], got {self.omega}")
        if self.active_run_length < 1:
            raise ParameterError(
                f"active_run_length must be >= 1, got {self.active_run_length}"
            )
        if self.max_subset_embed < 1:
            raise ParameterError(
                f"max_subset_embed must be >= 1, got {self.max_subset_embed}"
            )
        if self.max_subset_detect < self.max_subset_embed:
            raise ParameterError(
                "max_subset_detect must be >= max_subset_embed "
                f"({self.max_subset_detect} < {self.max_subset_embed})"
            )
        if self.max_search_iterations < 1:
            raise ParameterError(
                "max_search_iterations must be >= 1, got "
                f"{self.max_search_iterations}"
            )
        if self.window_size < 16:
            raise ParameterError(
                f"window_size must be >= 16, got {self.window_size}"
            )
        if not isinstance(self.robust_extreme_value, bool):
            raise ParameterError(
                "robust_extreme_value must be a bool, got "
                f"{self.robust_extreme_value!r}"
            )
        if not isinstance(self.recenter_extremes, bool):
            raise ParameterError(
                "recenter_extremes must be a bool, got "
                f"{self.recenter_extremes!r}"
            )
        if self.vote_threshold < 0:
            raise ParameterError(
                f"vote_threshold must be >= 0, got {self.vote_threshold}"
            )

    # ------------------------------------------------------------------
    @property
    def label_history(self) -> int:
        """Extremes that must be buffered before labels become defined.

        The label of extreme ``c`` compares values at ``c - k*skip`` for
        ``k = 0..lambda_bits-1`` (Sec 4.1), so ``skip * (lambda_bits - 1)``
        predecessors are needed.
        """
        return self.skip * (self.lambda_bits - 1)

    @property
    def payload_positions(self) -> int:
        """Bit positions available to the initial guarded encoding."""
        return self.lsb_bits - 2

    @property
    def max_alteration(self) -> float:
        """Largest normalized-value change any encoding can introduce.

        All encodings rewrite at most the ``lsb_bits`` low-order bits of a
        ``value_bits`` fixed-point word, so the change is bounded by
        ``2^(lsb_bits - value_bits)`` in normalized units.
        """
        return 2.0 ** (self.lsb_bits - self.value_bits)

    @property
    def scan_batch(self) -> int:
        """Items one scanner sub-batch ingests: a quarter of the window.

        :meth:`repro.core.scanner.StreamScanner.process` cuts every
        chunk into sub-batches of this size, so pivot processing keeps
        up with eviction; the network server cuts large pushes at the
        same boundaries, which therefore cannot change output bits.
        """
        return max(16, self.window_size // 4)

    def validate_for_watermark(self, wm_length: int) -> None:
        """Check the Sec-3.2 requirement ``phi > b(wm)``."""
        if wm_length < 1:
            raise ParameterError(f"watermark must have >= 1 bit, got {wm_length}")
        if self.phi <= wm_length:
            raise ParameterError(
                f"phi ({self.phi}) must exceed the watermark length "
                f"({wm_length}); paper Sec 3.2 requires "
                "phi in (b(wm), b(wm) + k2)"
            )

    def with_updates(self, **changes) -> "WatermarkParams":
        """Return a copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
