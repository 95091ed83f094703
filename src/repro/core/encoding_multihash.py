"""The multi-hash bit encoding (paper Sec 4.3).

For a characteristic subset ``ξ(ε, δ) = {x1 .. xa}`` consider all
contiguous sub-range averages ``m_ij = mean(x_i .. x_j)``.  The *bit
encoding convention* declares

* **true**  embedded iff ``lsb(H(lsb(m_ij), label(ε)), ω) == 2^ω - 1``
* **false** embedded iff ``lsb(H(lsb(m_ij), label(ε)), ω) == 0``

for every *active* ``m_ij``.  Embedding searches the low ``alpha`` bits
of the subset members until the convention holds; because the search
target is a hash pattern, the resulting alterations are computationally
indistinguishable from random noise — defeating the bias-detection
attack — while any summarized chunk that lands inside the subset *is*
one of the ``m_ij`` and therefore still testifies at detection time.

Two search procedures are provided:

* ``method="random"`` — the paper's baseline: draw the subset's low bits
  at random until all active constraints hold.  Expected iterations are
  ``2^(ω·|active|)`` — exponential, exactly the cost curve of Fig 11(a).
* ``method="pruned"`` — the "efficient pruned-space algorithm" the paper
  calls for as future work: fix items left-to-right, backtracking; item
  ``k`` only has to satisfy the constraints of runs *ending* at ``k``, so
  the expected cost drops to roughly ``a · 2^(ω·g)`` for run length
  ``g`` — linear in the subset size.  Candidates are enumerated in order
  of increasing distance from the original value, implementing the
  paper's "minimize Euclidean distance from the starting point" aim.

The *active* set implements the computation-reducing technique of
Sec 4.3: instead of all ``a(a+1)/2`` averages, only runs of length up to
``active_run_length`` (the *guaranteed resilience*: the summarization /
sampling degree that is survived by construction) are constrained.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.encoding_initial import EmbedOutcome, Vote
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import EncodingSearchExhausted, ParameterError
from repro.util.hashing import KeyedHasher, PatternProber, hash_constructor
from repro.util.rng import make_rng


def convention_pattern(key: bytes, avg_key: int, label: int, omega: int,
                       algorithm: str = "md5") -> int:
    """Low ``omega`` hash bits deciding an average's testimony.

    This is the hot path of both embedding search and detection, so it
    hashes a fixed-width packed payload directly instead of going through
    the generic :func:`repro.util.hashing.H` serializer.  The construction
    is the same keyed sandwich ``hash(k ; avg_key ; label ; k)``; the
    label participates as the paper's second hash argument, the secret
    ``k1`` via ``key``.
    """
    payload = (key + avg_key.to_bytes(8, "big")
               + label.to_bytes(8, "big") + key)
    digest = hashlib.new(algorithm, payload).digest()
    return int.from_bytes(digest[-3:], "big") & ((1 << omega) - 1)


def active_pairs(size: int, run_length: int) -> list[tuple[int, int]]:
    """Active sub-ranges: all runs of length 1..run_length (inclusive).

    ``run_length >= size`` yields the paper's full ``a(a+1)/2`` set.
    """
    if size < 1:
        raise ParameterError(f"subset size must be >= 1, got {size}")
    if run_length < 1:
        raise ParameterError(f"run_length must be >= 1, got {run_length}")
    pairs: list[tuple[int, int]] = []
    for length in range(1, min(run_length, size) + 1):
        for start in range(0, size - length + 1):
            pairs.append((start, start + length - 1))
    return pairs


def expected_search_iterations(size: int, run_length: int, omega: int) -> float:
    """Analytic expected iterations of the random search: ``2^(ω·c)``.

    ``c`` is the number of active constraints.  This is the curve the
    paper derives in Sec 4.3 ("the expected number of configurations ...
    is 2^(ω·a(a+1)/2)" for the full set) and plots in Fig 11(a).
    """
    c = len(active_pairs(size, run_length))
    return float(2.0 ** (omega * c))


@dataclass(frozen=True)
class MultihashStats:
    """Bookkeeping from one embedding search (Fig 11(a)'s metric)."""

    iterations: int
    hash_evaluations: int
    constraints: int


def _ladder_block(low: int, d0: int, d1: int, limit: int) -> "list[int]":
    """Candidate lows for distances ``d0 <= d < d1``, in ladder order.

    Produces the exact subsequence of ``_candidates_by_distance`` — for
    every distance ``d`` the lower neighbour (if ``>= 0``) before the
    upper (if ``< limit``), with distance 0 emitting the original low
    once — but materialized at C speed: the interleaved region where
    both neighbours are in range is two slice assignments from ``range``
    objects, and the one-sided tail past the nearer boundary is a single
    ``range`` extend.  No per-candidate Python bytecode runs.
    """
    head = [low] if d0 == 0 else []
    a = d0 or 1
    if a >= d1:
        return head
    # Distances where both neighbours are in range.
    both = min(d1 - 1, low, limit - 1 - low)
    out = head
    if both >= a:
        n = both - a + 1
        seg = [0] * (2 * n)
        seg[0::2] = range(low - a, low - both - 1, -1)
        seg[1::2] = range(low + a, low + both + 1)
        out += seg
    # Past the nearer boundary at most one side survives.
    t = both + 1 if both >= a else a
    if t < d1:
        if low >= t:
            out += range(low - t, max(low - d1, -1), -1)
        elif limit - 1 - low >= t:
            out += range(low + t, low + min(d1 - 1, limit - 1 - low) + 1)
    return out


class MultihashEncoding:
    """Strategy object for the Sec-4.3 multi-hash scheme."""

    name = "multihash"

    def __init__(self, params: WatermarkParams, quantizer: Quantizer,
                 hasher: KeyedHasher, method: str = "pruned",
                 rng: "int | np.random.Generator | None" = None,
                 batched: bool = True) -> None:
        if method not in ("pruned", "random"):
            raise ParameterError(
                f"method must be 'pruned' or 'random', got {method!r}"
            )
        self._params = params
        self._quantizer = quantizer
        self._key = hasher.key
        self._algorithm = hasher.algorithm
        self._method = method
        self._rng = make_rng(rng)
        self._batched = bool(batched)
        self.last_stats: "MultihashStats | None" = None
        # Lifetime observability totals (updated once per embed, read
        # by stats_snapshot() at STATUS-snapshot time — never pushed
        # from the search loop itself).
        self.embeds = 0
        self.total_search_iterations = 0
        # The random search and the scalar oracles probe through a
        # PatternProber: a digest context pre-fed with the leading key
        # plus a bounded (avg_key, label) memo, because they re-test the
        # same averages across candidates.  Batched detection does not:
        # its keyed pass (vote) hashes each distinct average of an
        # extreme once through the constructor resolved here.
        self._prober = PatternProber(self._key, params.omega,
                                     self._algorithm,
                                     self._PATTERN_MEMO_LIMIT)
        self._new = hash_constructor(self._algorithm)

    # ------------------------------------------------------------------
    _PATTERN_MEMO_LIMIT = 1 << 16

    def _pattern(self, avg_key: int, label: int) -> int:
        return self._prober.pattern(avg_key, label)

    def _target(self, bit: bool) -> int:
        return (1 << self._params.omega) - 1 if bit else 0

    def _trim(self, length: int, extreme_offset: int,
              cap: int) -> tuple[int, int]:
        """Window of at most ``cap`` items centred on the extreme."""
        if length <= cap:
            return 0, length
        start = max(0, min(extreme_offset - cap // 2, length - cap))
        return start, start + cap

    # ------------------------------------------------------------------
    def embed(self, q_subset: list[int], extreme_offset: int, label: int,
              bit: bool) -> EmbedOutcome:
        """Search the subset's low bits until the convention encodes ``bit``.

        Raises :class:`EncodingSearchExhausted` when the iteration cap is
        reached; the embedder treats that as a skipped extreme.
        """
        if not 0 <= extreme_offset < len(q_subset):
            raise ParameterError(
                f"extreme_offset {extreme_offset} outside subset of "
                f"{len(q_subset)}"
            )
        # Reset before searching: a search that raises must not leave the
        # previous embed's stats visible to the embedder's bookkeeping.
        self.last_stats = None
        start, end = self._trim(len(q_subset), extreme_offset,
                                self._params.max_subset_embed)
        working = list(q_subset)
        segment = working[start:end]
        target = self._target(bit)
        if self._method == "pruned":
            search = (self._search_pruned if self._batched
                      else self._search_pruned_scalar)
        else:
            search = (self._search_random if self._batched
                      else self._search_random_scalar)
        new_segment, stats = search(segment, label, target)
        working[start:end] = new_segment
        self.last_stats = stats
        self.embeds += 1
        self.total_search_iterations += stats.iterations
        return EmbedOutcome(q_values=working, iterations=stats.iterations)

    def stats_snapshot(self) -> dict:
        """Lifetime search/memo telemetry (JSON-safe, pull-based)."""
        prober = self._prober
        return {
            "encoding": self.name,
            "embeds": self.embeds,
            "search_iterations": self.total_search_iterations,
            "pattern_probes": prober.probes,
            "pattern_memo_hits": prober.probes - prober.misses,
            "pattern_memo_size": len(prober),
        }

    # ------------------------------------------------------------------
    def _search_random(self, q_segment: list[int], label: int,
                       target: int) -> tuple[list[int], MultihashStats]:
        """Batched form of the randomized search (matrix blocks).

        Draws geometrically growing blocks of candidate rows through the
        same numpy ``Generator`` stream the scalar search consumes,
        dequantizes them as one matrix, and evaluates the active
        constraints as per-pair survivor filtering (a row leaves the
        block at its first failing constraint, exactly where the scalar
        loop breaks).  On success the bit generator is rewound to the
        block start and re-advanced by exactly the rows the scalar
        search would have drawn, so the chosen configuration, the
        iteration/hash-evaluation stats, the raise point *and* the
        post-embed RNG stream position are all bit-identical to
        :meth:`_search_random_scalar` (property-tested).
        """
        params = self._params
        quantizer = self._quantizer
        size = len(q_segment)
        pairs = active_pairs(size, params.active_run_length)
        mask = (1 << params.lsb_bits) - 1
        highs = np.asarray([q & ~mask for q in q_segment], dtype=np.int64)
        probe_many = self._prober.patterns
        avg_scale = quantizer.average_scale
        key_upper = (1 << quantizer.avg_key_bits) - 1
        max_iter = params.max_search_iterations
        rng = self._rng
        hash_evals = 0
        done = 0
        block = 64
        while done < max_iter:
            draw = min(block, max_iter - done)
            block = min(block * 2, 4096)
            state = rng.bit_generator.state
            lows = rng.integers(0, mask + 1, size=(draw, size))
            cand_q = highs | lows
            floats = quantizer.dequantize_array(cand_q)
            alive = np.arange(draw)
            probed: "list[np.ndarray]" = []
            for (i, j) in pairs:
                if alive.size == 0:
                    break
                n = j - i + 1
                if n < 8:
                    # Left-to-right accumulation: the scalar reference
                    # sums short sub-ranges sequentially, and elementwise
                    # column adds replicate that order per row.
                    acc = floats[alive, i].copy()
                    for t in range(i + 1, j + 1):
                        acc += floats[alive, t]
                    means = acc if n == 1 else acc / n
                    keys = np.floor((means + 0.5) * avg_scale)
                    keys = np.clip(keys, 0, key_upper).astype(np.int64)
                else:
                    keys = np.fromiter(
                        (quantizer.average_key(floats[r, i:j + 1])
                         for r in alive),
                        dtype=np.int64, count=alive.size)
                pats = probe_many(keys, label)
                probed.append(alive)
                survivors = alive[np.asarray(pats, dtype=np.int64) == target]
                if survivors.size < alive.size:
                    alive = survivors
            if alive.size:
                winner = int(alive[0])
                iterations = done + winner + 1
                hash_evals += sum(int(np.count_nonzero(rows <= winner))
                                  for rows in probed)
                # Rewind and consume exactly the scalar search's draws so
                # downstream embeds see the same stream position.
                rng.bit_generator.state = state
                rng.integers(0, mask + 1, size=(winner + 1, size))
                candidate = [int(q) for q in cand_q[winner]]
                stats = MultihashStats(iterations=iterations,
                                       hash_evaluations=hash_evals,
                                       constraints=len(pairs))
                return candidate, stats
            done += draw
            hash_evals += sum(int(rows.size) for rows in probed)
        raise EncodingSearchExhausted(
            f"random search exhausted {params.max_search_iterations} "
            f"iterations for {len(pairs)} constraints"
        )

    def _search_random_scalar(self, q_segment: list[int], label: int,
                              target: int) -> tuple[list[int],
                                                    MultihashStats]:
        """Paper-baseline exhaustive/randomized search (exponential)."""
        params = self._params
        size = len(q_segment)
        pairs = active_pairs(size, params.active_run_length)
        mask = (1 << params.lsb_bits) - 1
        highs = [q & ~mask for q in q_segment]
        floats = np.asarray(self._quantizer.dequantize_array(q_segment),
                            dtype=np.float64)
        hash_evals = 0
        for iteration in range(1, params.max_search_iterations + 1):
            lows = self._rng.integers(0, mask + 1, size=size)
            candidate = [highs[i] | int(lows[i]) for i in range(size)]
            floats = self._quantizer.dequantize_array(candidate)
            ok = True
            for (i, j) in pairs:
                avg_key = self._quantizer.average_key(floats[i:j + 1])
                hash_evals += 1
                if self._pattern(avg_key, label) != target:
                    ok = False
                    break
            if ok:
                stats = MultihashStats(iterations=iteration,
                                       hash_evaluations=hash_evals,
                                       constraints=len(pairs))
                return candidate, stats
        raise EncodingSearchExhausted(
            f"random search exhausted {params.max_search_iterations} "
            f"iterations for {len(pairs)} constraints"
        )

    # ------------------------------------------------------------------
    def _candidates_by_distance(self, original_low: int,
                                limit: int) -> Iterator[int]:
        """Enumerate low-bit candidates by increasing |candidate - original|.

        Implements the minimize-distance aim: the first satisfying
        configuration found is also (per item) the closest one.
        """
        yield original_low
        distance = 1
        while True:
            emitted = False
            lower = original_low - distance
            upper = original_low + distance
            if lower >= 0:
                yield lower
                emitted = True
            if upper < limit:
                yield upper
                emitted = True
            if not emitted:
                return
            distance += 1

    def _search_pruned(self, q_segment: list[int], label: int,
                       target: int) -> tuple[list[int], MultihashStats]:
        """Batched backtracking search over precomputed candidate ladders.

        Same left-to-right/backtrack structure as the scalar reference,
        restructured around three batched primitives: candidate lows
        come from :func:`_ladder_block` in materialized distance blocks
        (built from range arithmetic, consumed in strict ladder order);
        the per-run means reuse a left-to-right *prefix sum*
        over the already-fixed items ``i..k-1`` (valid for as long as
        item ``k``'s ladder is live, because backtracking from ``k+1``
        never touches them), reducing each probe to one add, one divide
        and one keying; and each convention probe is inlined, with no
        memo (one copy of a key-fed digest context, one update, one
        mask).  Candidates are still *decided* sequentially, so the
        accepted configuration, the iteration and hash-evaluation counts
        and both raise points are bit-identical to
        :meth:`_search_pruned_scalar` (property-tested).
        """
        params = self._params
        quantizer = self._quantizer
        size = len(q_segment)
        pairs = active_pairs(size, params.active_run_length)
        ends_at: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        for (i, j) in pairs:
            ends_at[j].append((i, j))
        mask = (1 << params.lsb_bits) - 1
        limit = mask + 1
        highs = [q & ~mask for q in q_segment]
        original_lows = [q & mask for q in q_segment]
        candidate = list(q_segment)
        floats = [float(v)
                  for v in quantizer.dequantize_array(q_segment)]

        # The search probes fresh (avg_key, label) pairs almost
        # exclusively, so a memo would nearly always miss, and a miss
        # costs more than the hash.  The convention probe is therefore
        # inlined: one context copy off the key-fed base, one update,
        # and (for the usual ω <= 8) a single trailing-byte mask, the
        # lsb() of the digest.
        base = hashlib.new(self._algorithm)
        base.update(self._key)
        context_copy = base.copy
        tail = label.to_bytes(8, "big") + self._key
        to_bytes = int.to_bytes
        omega = params.omega
        omega_mask = (1 << omega) - 1
        narrow = omega <= 8

        scale = quantizer.scale
        avg_scale = quantizer.average_scale
        key_upper = (1 << quantizer.avg_key_bits) - 1
        max_iter = params.max_search_iterations

        # Static per-level metadata.  The length-1 run ``(k, k)`` always
        # ends at ``k`` and is always probed first (active_pairs emits
        # shortest runs first), so the hot loop specializes it; the rest
        # carry their (start, length) for the prefix sums.
        rest_meta: "list[list[tuple[int, int]]]" = []
        first_blocks: "list[int]" = []
        max_ds: "list[int]" = []
        for k in range(size):
            rest_meta.append([(i, j - i + 1) for (i, j) in ends_at[k][1:]])
            # Expected winner position is 2^(ω·runs) candidates; a first
            # block of that many *distances* (~2x the candidates) makes a
            # single pull cover the level ~7 times in 8 — block
            # materialization is range-arithmetic cheap, pulls are not.
            expected = 1 << min(omega * len(ends_at[k]), 10)
            first_blocks.append(max(4, expected))
            max_ds.append(max(original_lows[k], limit - 1 - original_lows[k]))

        # Per-level resumable state: the next un-generated distance, the
        # distance-block size, the current block of candidate lows, the
        # cursor into it, and the prefix sums of the longer runs ending
        # at the level.
        next_ds = [0] * size
        bsizes = [0] * size
        blocks: "list[list[int] | None]" = [None] * size
        cursors = [0] * size
        runinfo: "list[list[tuple[int, int, float | None]] | None]" = \
            [None] * size

        iterations = 0
        hash_evals = 0
        k = 0
        high = highs[0]
        # high + low + 0.5 computed as (high + 0.5) + low: both orders
        # are exact in binary64 for these magnitudes, so the float is
        # bit-identical to float(high | low) + 0.5 while keeping the
        # int-or and int->float conversion out of the hot loop.
        fhigh = high + 0.5
        next_ds[0] = 0
        bsizes[0] = first_blocks[0]
        runinfo[0] = []
        while 0 <= k < size:
            block = blocks[k]
            cursor = cursors[k]
            if block is None or cursor >= len(block):
                d0 = next_ds[k]
                if d0 > max_ds[k]:
                    # Exhausted this item's space: restore and backtrack.
                    candidate[k] = q_segment[k]
                    floats[k] = quantizer.dequantize(candidate[k])
                    blocks[k] = runinfo[k] = None
                    k -= 1
                    high = highs[k] if k >= 0 else 0
                    fhigh = high + 0.5
                    continue
                bsize = bsizes[k]
                d1 = d0 + bsize
                if d1 > max_ds[k] + 1:
                    d1 = max_ds[k] + 1
                next_ds[k] = d1
                if bsize < 4096:
                    bsizes[k] = bsize * 2
                # Never empty: every distance d <= max_d has an in-range
                # neighbour by construction of max_d.
                block = _ladder_block(original_lows[k], d0, d1, limit)
                blocks[k] = block
                cursors[k] = cursor = 0
            info = runinfo[k]
            winner_q = -1
            winner_f = 0.0
            tried = 0
            extra_probes = 0
            for low in (block[cursor:] if cursor else block):
                tried += 1
                # Inline dequantize (same ops as Quantizer.dequantize,
                # bounds guaranteed by construction).
                value = (fhigh + low) / scale - 0.5
                # Probe the length-1 run (always first, always present).
                # int() truncation == floor here: value > -0.5 by
                # construction (q >= 0), so the operand is non-negative.
                key = int((value + 0.5) * avg_scale)
                if key < 0:
                    key = 0
                elif key > key_upper:
                    key = key_upper
                context = context_copy()
                context.update(to_bytes(key, 8, "big"))
                context.update(tail)
                digest = context.digest()
                pattern = (digest[-1] & omega_mask if narrow else
                           int.from_bytes(digest[-3:], "big") & omega_mask)
                if pattern != target:
                    continue
                ok = True
                for (i, n, prefix) in info:
                    if prefix is None:
                        floats[k] = value
                        key = quantizer.average_key(floats[i:k + 1])
                    else:
                        mean = (prefix + value) / n
                        key = int((mean + 0.5) * avg_scale)
                        if key < 0:
                            key = 0
                        elif key > key_upper:
                            key = key_upper
                    extra_probes += 1
                    context = context_copy()
                    context.update(to_bytes(key, 8, "big"))
                    context.update(tail)
                    digest = context.digest()
                    pattern = (digest[-1] & omega_mask if narrow else
                               int.from_bytes(digest[-3:], "big")
                               & omega_mask)
                    if pattern != target:
                        ok = False
                        break
                if ok:
                    winner_q = high | low
                    winner_f = value
                    break
            # The iteration cap is enforced per attempt by the scalar
            # reference; counting the attempts after the block keeps the
            # raise point (and message) identical without a per-candidate
            # branch — evaluations past the cap have no observable
            # effect, the raise discards them.
            iterations += tried
            hash_evals += tried + extra_probes
            if iterations > max_iter:
                raise EncodingSearchExhausted(
                    f"pruned search exhausted "
                    f"{max_iter} iterations"
                )
            cursors[k] = cursor + tried
            if winner_q >= 0:
                candidate[k] = winner_q
                floats[k] = winner_f
                k += 1
                if k < size:
                    # (Re)initialize level k: fresh ladder position and
                    # the left-to-right partial sums of the fixed items
                    # i..k-1 of every longer run ending here — the
                    # candidate contributes the final addend, preserving
                    # the scalar reference's summation order.  Long runs
                    # (n >= 8) fall back to the pairwise-summing mean.
                    high = highs[k]
                    fhigh = high + 0.5
                    next_ds[k] = 0
                    bsizes[k] = first_blocks[k]
                    blocks[k] = None
                    info = []
                    for (i, n) in rest_meta[k]:
                        if n < 8:
                            acc = floats[i]
                            for t in range(i + 1, k):
                                acc += floats[t]
                            info.append((i, n, acc))
                        else:
                            info.append((i, n, None))
                    runinfo[k] = info
        if k < 0:
            raise EncodingSearchExhausted(
                "pruned search backtracked out of the subset "
                f"({len(pairs)} constraints unsatisfiable in "
                f"{params.lsb_bits}-bit space)"
            )
        stats = MultihashStats(iterations=iterations,
                               hash_evaluations=hash_evals,
                               constraints=len(pairs))
        return candidate, stats

    def _search_pruned_scalar(self, q_segment: list[int], label: int,
                              target: int) -> tuple[list[int],
                                                    MultihashStats]:
        """Backtracking left-to-right search (linear in subset size)."""
        params = self._params
        size = len(q_segment)
        pairs = active_pairs(size, params.active_run_length)
        ends_at: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        for (i, j) in pairs:
            ends_at[j].append((i, j))
        mask = (1 << params.lsb_bits) - 1
        limit = mask + 1
        highs = [q & ~mask for q in q_segment]
        original_lows = [q & mask for q in q_segment]
        candidate = list(q_segment)
        floats = np.asarray(self._quantizer.dequantize_array(q_segment),
                            dtype=np.float64)

        iterators: list[Iterator[int]] = [iter(()) for _ in range(size)]
        iterations = 0
        hash_evals = 0
        k = 0
        iterators[0] = self._candidates_by_distance(original_lows[0], limit)
        while 0 <= k < size:
            advanced = False
            for low in iterators[k]:
                iterations += 1
                if iterations > params.max_search_iterations:
                    raise EncodingSearchExhausted(
                        f"pruned search exhausted "
                        f"{params.max_search_iterations} iterations"
                    )
                candidate[k] = highs[k] | low
                floats[k] = self._quantizer.dequantize(candidate[k])
                ok = True
                for (i, j) in ends_at[k]:
                    avg_key = self._quantizer.average_key(floats[i:j + 1])
                    hash_evals += 1
                    if self._pattern(avg_key, label) != target:
                        ok = False
                        break
                if ok:
                    advanced = True
                    break
            if advanced:
                k += 1
                if k < size:
                    iterators[k] = self._candidates_by_distance(
                        original_lows[k], limit)
            else:
                # Exhausted this item's space: restore and backtrack.
                candidate[k] = q_segment[k]
                floats[k] = self._quantizer.dequantize(candidate[k])
                k -= 1
        if k < 0:
            raise EncodingSearchExhausted(
                "pruned search backtracked out of the subset "
                f"({len(pairs)} constraints unsatisfiable in "
                f"{params.lsb_bits}-bit space)"
            )
        stats = MultihashStats(iterations=iterations,
                               hash_evaluations=hash_evals,
                               constraints=len(pairs))
        return candidate, stats

    # ------------------------------------------------------------------
    def detect(self, float_subset: np.ndarray, extreme_offset: int,
               label: int) -> Vote:
        """Count true/false convention hits over the recovered averages.

        Every active sub-range average of the *received* subset is keyed
        and hashed; matches of the all-ones pattern testify "true",
        matches of the all-zeroes pattern "false".  On unwatermarked data
        the two counts are statistically balanced (with ω = 1 every
        average falls in one of the two classes at random).

        Detection is two passes: the key-free :meth:`evidence` and the
        keyed :meth:`vote`.  A detector screening several keys runs the
        first once per extreme and the second once per key; this is the
        one-key case.  The vote equals :meth:`detect_scalar`'s
        (property-tested).
        """
        if not self._batched:
            return self.detect_scalar(float_subset, extreme_offset, label)
        return self.vote(self.evidence(float_subset, extreme_offset, label))

    def evidence(self, float_subset: np.ndarray, extreme_offset: int,
                 label: int) -> "list[tuple[bytes, int]]":
        """Key-free pass: each distinct hash payload with its count.

        Keys every active sub-range average of the (trimmed) subset and
        returns the distinct 16-byte ``avg_key‖label`` payloads of the
        convention, each with the number of averages that produced it.
        Subsets hold at most ``max_subset_detect`` items, too few for
        numpy dispatch to pay off, so short runs (n < 8) are Python
        sums: the sum of a run of length n extends the run of length
        n - 1 by one item, left to right, :meth:`Quantizer.average_key`'s
        summation order, and :meth:`Quantizer.run_keys` keys them.
        Longer runs go through ``average_key`` itself.

        An average that is NaN (a run holding both ``+inf`` and
        ``-inf``, or whose sum overflows both ways) has no key: the
        subset then gives no evidence and its vote abstains, in
        :meth:`detect_scalar` too.
        """
        if len(float_subset) == 0:
            raise ParameterError("cannot detect in an empty subset")
        start, end = self._trim(len(float_subset), extreme_offset,
                                self._params.max_subset_detect)
        segment = np.asarray(float_subset[start:end], dtype=np.float64)
        items = segment.tolist()
        size = len(items)
        run_cap = min(self._params.active_run_length, size)
        quantizer = self._quantizer
        counts: "dict[int, int]" = {}
        get = counts.get
        sums = items
        try:
            for length in range(1, min(run_cap, 7) + 1):
                if length > 1:
                    sums = [a + b for a, b in zip(sums, items[length - 1:])]
                for key in quantizer.run_keys(sums, length):
                    counts[key] = get(key, 0) + 1
            for length in range(8, run_cap + 1):
                for first in range(size - length + 1):
                    key = quantizer.average_key(segment[first:first + length])
                    counts[key] = get(key, 0) + 1
        except ValueError:  # a NaN average
            return []
        tail = label.to_bytes(8, "big")
        return [(key.to_bytes(8, "big") + tail, count)
                for key, count in counts.items()]

    def vote(self, evidence: "list[tuple[bytes, int]]") -> Vote:
        """Keyed pass: hash each distinct payload once under this key.

        ``evidence`` is :meth:`evidence`'s output, from any encoding
        with the same parameters.  A payload's pattern is the low ω bits
        of ``H(k ; payload ; k)`` (:func:`convention_pattern`); its
        count goes to ``n_true`` on all ones and to ``n_false`` on all
        zeroes.
        """
        new = self._new
        key = self._key
        from_bytes = int.from_bytes
        mask = (1 << self._params.omega) - 1
        n_true = 0
        n_false = 0
        for payload, count in evidence:
            digest = new(key + payload + key).digest()
            pattern = from_bytes(digest[-3:], "big") & mask
            if pattern == mask:
                n_true += count
            elif pattern == 0:
                n_false += count
        return Vote(n_true=n_true, n_false=n_false)

    def detect_scalar(self, float_subset: np.ndarray, extreme_offset: int,
                      label: int) -> Vote:
        """Per-pair scalar reference of :meth:`detect` (the oracle)."""
        if len(float_subset) == 0:
            raise ParameterError("cannot detect in an empty subset")
        start, end = self._trim(len(float_subset), extreme_offset,
                                self._params.max_subset_detect)
        segment = np.asarray(float_subset[start:end], dtype=np.float64)
        pairs = active_pairs(len(segment), self._params.active_run_length)
        true_target = self._target(True)
        false_target = self._target(False)
        try:
            avg_keys = [self._quantizer.average_key(segment[i:j + 1])
                        for (i, j) in pairs]
        except ValueError:  # a NaN average: abstain, as evidence() does
            return Vote(n_true=0, n_false=0)
        n_true = 0
        n_false = 0
        for avg_key in avg_keys:
            pattern = self._pattern(avg_key, label)
            if pattern == true_target:
                n_true += 1
            elif pattern == false_target:
                n_false += 1
        return Vote(n_true=n_true, n_false=n_false)
