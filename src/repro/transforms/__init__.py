"""Domain-specific stream transforms (paper Sec 2.1/2.2, A1-A4).

These are the *natural* operations a licensed consumer applies to a
sensor stream — and therefore the transforms a watermark must survive:

* :mod:`repro.transforms.sampling` — (A2) uniform / fixed random sampling;
* :mod:`repro.transforms.summarization` — (A1) chunk-averaging, plus the
  paper's future-work aggregates (min / max / median);
* :mod:`repro.transforms.segmentation` — (A3) finite segment extraction;
* :mod:`repro.transforms.linear` — (A4) scaling and offset changes.

:data:`TRANSFORMS` names a *builder* per transform:
``TRANSFORMS["sample"][0](degree=4, rng=0)`` returns a
``values -> values`` callable, which is how
:class:`repro.attacks.AttackSuite` and the ``repro attack`` CLI resolve
them by name.
"""

from __future__ import annotations

from repro.transforms.linear import linear_transform
from repro.transforms.sampling import fixed_random_sampling, uniform_random_sampling
from repro.transforms.segmentation import random_segment, segment
from repro.transforms.summarization import summarize

__all__ = [
    "linear_transform",
    "fixed_random_sampling",
    "uniform_random_sampling",
    "random_segment",
    "segment",
    "summarize",
]


# ----------------------------------------------------------------------
# builders: options in, `values -> values` callable out
# ----------------------------------------------------------------------
def _build_sample(degree: int = 2, rng=None):
    """Builder for uniform random sampling."""
    def apply(values):
        return uniform_random_sampling(values, degree, rng=rng)
    return apply


def _build_sample_fixed(degree: int = 2):
    """Builder for fixed (strided) sampling."""
    def apply(values):
        return fixed_random_sampling(values, degree)
    return apply


def _build_summarize(degree: int = 2, aggregate: str = "mean"):
    """Builder for chunk summarization."""
    def apply(values):
        return summarize(values, degree, aggregate=aggregate)
    return apply


def _build_segment(length: "int | None" = None,
                   fraction: "float | None" = None, rng=None):
    """Builder for random segment extraction.

    An absolute ``length`` wins over a relative ``fraction``; with
    neither, half the stream is kept.
    """
    def apply(values):
        if length is not None:
            n = length
        elif fraction is not None:
            n = max(2, int(fraction * len(values)))
        else:
            n = max(2, len(values) // 2)
        return random_segment(values, n, rng=rng)
    return apply


def _build_linear(scale: float = 1.0, offset: float = 0.0):
    """Builder for linear (affine) value transforms."""
    def apply(values):
        return linear_transform(values, scale=scale, offset=offset)
    return apply


#: ``name -> (builder, description)``, in ``repro list`` order.
TRANSFORMS = {
    "sample": (_build_sample,
               "(A2) uniform random sampling of degree `degree` "
               "(keep one item in `degree`)"),
    "sample-fixed": (_build_sample_fixed,
                     "(A2) fixed random sampling: keep every "
                     "`degree`-th item"),
    "summarize": (_build_summarize,
                  "(A1) summarization of degree `degree` "
                  "(chunk `aggregate`, default mean)"),
    "segment": (_build_segment,
                "(A3) random contiguous segment: `length` items or a "
                "`fraction` of the stream (default: half)"),
    "linear": (_build_linear,
               "(A4) affine value change: `scale` * x + `offset`"),
}
