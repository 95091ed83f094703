"""Small argument validators shared by public entry points."""

from __future__ import annotations

import numpy as np

from repro.errors import StreamError


def as_float_array(values, name: str = "values") -> np.ndarray:
    """Coerce ``values`` into a 1-D float64 array, validating shape."""
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise StreamError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise StreamError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise StreamError(f"{name} contains non-finite entries")
    return array
