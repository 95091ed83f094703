"""The finite processing window (paper Sec 2.2).

Any stream processing is space-bound: at any point in time no more than
``$`` stream values (or equivalent amounts of arbitrary data) can be
stored at the processing point.  As new data arrives, the default window
behaviour is to *push* the oldest items out (they are transmitted
further, out of the processing facility) and *shift* the window to free
space for new entries.

:class:`SlidingWindow` models exactly this: ``push`` admits new items and
returns whatever got evicted (the downstream/output side), ``advance``
implements the algorithms' "advance the window past ε" step, and
``flush`` drains the remainder at end-of-stream.  The watermarking
embedder mutates items *inside* the window before they are evicted, so
the single-pass constraint holds: once a value leaves the window it is
never touched again.

Performance architecture
------------------------
The window is backed by a preallocated float64 buffer of twice the
capacity.  Live items always occupy one contiguous run ``[head, head +
count)``; when the run's tail reaches the end of the buffer, the run is
compacted back to the front (amortized O(1) per item, and never more
than one copy of at most ``capacity`` items per ``capacity`` pushes).
Contiguity is what lets :meth:`values` hand out a **zero-copy view**:
the scanner's drain loop reads the window once per pending pivot, and
rebuilding an O(window) array each time used to dominate the hot path.
Bulk ingestion (:meth:`push_chunk`) and bulk eviction
(:meth:`advance_array`) move whole chunks with array copies instead of
per-item Python calls.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import StreamError

_EMPTY = np.empty(0, dtype=np.float64)


class SlidingWindow:
    """A bounded FIFO window over stream values with eviction on push.

    Parameters
    ----------
    capacity:
        The paper's ``$`` — maximum number of items held at once.

    Notes
    -----
    Items are stored in a preallocated float64 ring buffer; the window is
    the only place where the embedder may rewrite values, via
    :meth:`replace`.  ``start_index`` tracks the absolute stream position
    of the window's first element so extremes can be reported in stream
    coordinates.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 1:
            raise StreamError(
                f"window capacity must be at least 2, got {capacity}"
            )
        self._capacity = int(capacity)
        self._buffer = np.empty(2 * self._capacity, dtype=np.float64)
        self._head = 0
        self._count = 0
        self._start_index = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of items the window holds (``$``)."""
        return self._capacity

    @property
    def start_index(self) -> int:
        """Absolute stream index of the first item currently in-window."""
        return self._start_index

    @property
    def end_index(self) -> int:
        """Absolute stream index one past the last in-window item."""
        return self._start_index + self._count

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[float]:
        return iter(self.values().tolist())

    def values(self) -> np.ndarray:
        """The current window contents as a contiguous float64 array.

        This is a **zero-copy view** into the window's backing buffer: it
        stays valid (and tracks :meth:`replace` mutations) until the next
        push or compaction.  Callers that need an immutable snapshot
        across pushes must copy.
        """
        return self._buffer[self._head:self._head + self._count]

    def __getitem__(self, offset: int) -> float:
        """Read the item ``offset`` positions from the window start."""
        if not -self._count <= offset < self._count:
            raise IndexError(
                f"window offset {offset} outside window of {self._count}"
            )
        if offset < 0:
            offset += self._count
        return float(self._buffer[self._head + offset])

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-compatible snapshot: capacity, start index and contents.

        Floats survive the JSON round-trip exactly (Python serializes
        the shortest repr that reparses to the same double), which is
        what makes checkpoint-resumed detection bit-identical.
        """
        return {
            "capacity": self._capacity,
            "start_index": self._start_index,
            "items": self.values().tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SlidingWindow":
        """Rebuild a window from :meth:`to_state` output."""
        window = cls(int(state["capacity"]))
        items = np.asarray(state["items"], dtype=np.float64).ravel()
        if items.size > window.capacity:
            raise StreamError(
                f"window state holds {items.size} items, capacity is "
                f"{window.capacity}"
            )
        start_index = int(state["start_index"])
        if start_index < 0:
            raise StreamError(
                f"window state has negative start_index {start_index}; "
                "absolute extreme indices would silently corrupt on resume"
            )
        window._buffer[:items.size] = items
        window._count = items.size
        window._start_index = start_index
        return window

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def replace(self, offset: int, value: float) -> None:
        """Overwrite the in-window item at ``offset`` (embedder use only)."""
        if not 0 <= offset < self._count:
            raise StreamError(
                f"replace offset {offset} outside window of {self._count}"
            )
        self._buffer[self._head + offset] = float(value)

    def _make_room(self, incoming: int) -> None:
        """Compact the live run to the buffer front if the tail would
        overrun.  Disjointness holds because ``count <= capacity`` and the
        tail only reaches ``2 * capacity`` once ``head >= capacity``."""
        if self._head + self._count + incoming > self._buffer.size:
            self._buffer[:self._count] = \
                self._buffer[self._head:self._head + self._count]
            self._head = 0

    def push(self, value: float) -> "float | None":
        """Admit one new item; return the evicted oldest item if full.

        Eviction models the window "shift": the evicted value is the one
        leaving the processing facility and must be forwarded downstream
        by the caller.
        """
        evicted: "float | None" = None
        if self._count >= self._capacity:
            evicted = float(self._buffer[self._head])
            self._head += 1
            self._count -= 1
            self._start_index += 1
        self._make_room(1)
        self._buffer[self._head + self._count] = float(value)
        self._count += 1
        return evicted

    def push_chunk(self, values: np.ndarray) -> np.ndarray:
        """Admit a whole chunk; return the evicted items as an array.

        Equivalent to pushing every item in order (evictions interleave
        with admissions item-by-item, but the evicted sequence and final
        window contents are identical), executed with bulk copies.
        """
        chunk = np.asarray(values, dtype=np.float64).ravel()
        k = chunk.size
        if k == 0:
            return _EMPTY
        evict_n = max(0, self._count + k - self._capacity)
        if evict_n == 0:
            evicted = _EMPTY
        else:
            from_window = min(evict_n, self._count)
            head = self._head
            evicted = np.empty(evict_n, dtype=np.float64)
            evicted[:from_window] = self._buffer[head:head + from_window]
            # When the chunk exceeds the free space plus the whole window,
            # the leading chunk items pass straight through.
            evicted[from_window:] = chunk[:evict_n - from_window]
            self._head = head + from_window
            self._count -= from_window
            self._start_index += evict_n
            chunk = chunk[evict_n - from_window:]
            k = chunk.size
        self._make_room(k)
        tail = self._head + self._count
        self._buffer[tail:tail + k] = chunk
        self._count += k
        return evicted

    def advance_array(self, n: int) -> np.ndarray:
        """Evict (and return, as a fresh array) the ``n`` oldest items.

        Implements the algorithms' ``advance win[] past ε`` step: after an
        extreme has been processed, everything up to and including it is
        released downstream.
        """
        if n < 0:
            raise StreamError(f"advance count must be >= 0, got {n}")
        n = min(n, self._count)
        out = self._buffer[self._head:self._head + n].copy()
        self._head += n
        self._count -= n
        self._start_index += n
        return out

    def advance(self, n: int) -> list[float]:
        """List-returning form of :meth:`advance_array`."""
        return self.advance_array(n).tolist()

    def flush_array(self) -> np.ndarray:
        """Evict everything (end-of-stream drain) as a fresh array."""
        return self.advance_array(self._count)

    def flush(self) -> list[float]:
        """List-returning form of :meth:`flush_array`."""
        return self.flush_array().tolist()
