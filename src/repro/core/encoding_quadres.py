"""Quadratic-residue bit encoding (the Sec-4.3 "faster" alternative).

The paper cites Atallah & Wagstaff's quadratic-residue watermarking [1]
as an arguably faster alternative to the multi-hash convention: alter
the low bits of a value until *each of the longest k prefixes* of the
whole value (most significant bits included), treated as an integer, is
a quadratic residue modulo a secret large prime — for embedding "true" —
or a non-residue — for "false".

We embed per subset member (every member independently satisfies the
prefix criterion), so sampling survivors still testify.  Like the
initial encoding — and unlike the multi-hash — nothing here survives
summarization: the prefix of an average is unrelated to the members'
prefixes.  The encoding exists for the speed/resilience trade-off study
of Sec 6.4.

The secret prime is derived deterministically from the watermarking key
via Miller–Rabin (deterministic witness set, valid for all 64-bit
candidates), so embedder and detector agree without sharing extra state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.encoding_initial import EmbedOutcome, Vote
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import EncodingSearchExhausted, ParameterError
from repro.util.hashing import KeyedHasher

#: Deterministic Miller-Rabin witnesses, sufficient for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for 64-bit-scale integers."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def derive_prime(hasher: KeyedHasher, bits: int = 61) -> int:
    """Secret prime derived from the watermarking key.

    Starts from the low ``bits`` of ``H("quadres-prime", k1)`` (forced
    odd, top bit set) and walks upward to the next prime.
    """
    if not 40 <= bits <= 62:
        raise ParameterError(f"prime size must be in [40, 62] bits, got {bits}")
    seed = hasher.hash_int("quadres-prime")
    candidate = (seed & ((1 << bits) - 1)) | (1 << (bits - 1)) | 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


def is_quadratic_residue(x: int, prime: int) -> bool:
    """Euler's criterion; 0 is conventionally a non-residue here."""
    x %= prime
    if x == 0:
        return False
    return pow(x, (prime - 1) // 2, prime) == 1


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0`` (binary algorithm).

    For an odd prime ``n`` this is the Legendre symbol, so
    ``jacobi_symbol(x, p) == 1`` decides quadratic residuosity with
    O(log^2) word operations instead of Euler's modular exponentiation —
    roughly an order of magnitude cheaper for the 61-bit primes
    :func:`derive_prime` produces (property-tested against
    :func:`is_quadratic_residue`).
    """
    if n <= 0 or n & 1 == 0:
        raise ParameterError(f"Jacobi symbol needs odd n > 0, got {n}")
    a %= n
    negative = 0
    while a:
        # Strip every factor of 2 at once; each one flips the sign
        # iff n ≡ ±3 (mod 8), so the parity of the 2-count matters
        # only when that residue condition holds.
        twos = (a & -a).bit_length() - 1
        if twos:
            a >>= twos
            if twos & 1 and n & 7 in (3, 5):
                negative ^= 1
        # Quadratic reciprocity flip, then reduce.
        if a & 3 == 3 and n & 3 == 3:
            negative ^= 1
        a, n = n % a, a
    if n != 1:
        return 0
    return -1 if negative else 1


class _ResidueTable:
    """Bounded memo of quadratic residuosity modulo the secret prime.

    The prime is fixed per key, so residuosity of a prefix integer is a
    pure one-bit fact — the table turns the per-probe modular
    exponentiation of the original code path into a dict hit.  Prefix
    values repeat heavily: the distance-ordered low-bit scan re-tests
    the same coarse prefixes for runs of ``2^j`` consecutive candidates,
    and detection re-keys prefixes shared across subset members.  One
    table serves every prefix width (residuosity depends only on the
    integer, not on where it was cut).  When full, the oldest half is
    evicted — same recency-preserving policy as the multihash pattern
    memo.
    """

    __slots__ = ("_prime", "_memo", "_limit")

    def __init__(self, prime: int, limit: int = 1 << 16) -> None:
        if limit < 2:
            raise ParameterError(f"table limit must be >= 2, got {limit}")
        self._prime = prime
        self._memo: "dict[int, bool]" = {}
        self._limit = limit

    def residue(self, value: int) -> bool:
        """``is_quadratic_residue(value, prime)``, memoized via Jacobi."""
        memo = self._memo
        found = memo.get(value)
        if found is None:
            prime = self._prime
            found = value % prime != 0 and jacobi_symbol(value, prime) == 1
            if len(memo) >= self._limit:
                self._evict()
            memo[value] = found
        return found

    def _evict(self) -> None:
        """Drop the oldest half of the memo, keeping recent entries."""
        memo = self._memo
        survivors = list(memo.items())[len(memo) // 2:]
        memo.clear()
        memo.update(survivors)

    def __len__(self) -> int:
        return len(self._memo)


@dataclass(frozen=True)
class QuadResStats:
    """Per-subset search bookkeeping (iterations summed over members)."""

    iterations: int


class QuadResEncoding:
    """Strategy object for the quadratic-residue alternative encoding.

    Parameters
    ----------
    n_prefixes:
        The ``k`` of the construction — how many of the longest prefixes
        must agree.  Expected search cost is ``2^k`` per subset member.
    """

    name = "quadres"

    def __init__(self, params: WatermarkParams, quantizer: Quantizer,
                 hasher: KeyedHasher, n_prefixes: int = 3) -> None:
        if not 1 <= n_prefixes <= params.lsb_bits - 1:
            raise ParameterError(
                f"n_prefixes must be in [1, lsb_bits - 1], got {n_prefixes}"
            )
        self._params = params
        self._quantizer = quantizer
        self._prime = derive_prime(hasher)
        self._k = n_prefixes
        self._table = _ResidueTable(self._prime)
        self.last_stats: "QuadResStats | None" = None
        # Lifetime observability totals (updated once per embed, read
        # by stats_snapshot() at STATUS-snapshot time).
        self.embeds = 0
        self.total_search_iterations = 0

    # ------------------------------------------------------------------
    @property
    def prime(self) -> int:
        """The derived secret prime (exposed for tests)."""
        return self._prime

    def _encode_value(self, q: int, bit: bool) -> tuple[int, int]:
        """Return ``(new_q, iterations)`` for a single subset member.

        Scans the low-bit space in order of distance from the original
        value (minimal alteration).  A candidate carries ``bit`` when
        each of its ``k`` longest prefixes ``q >> j`` is a quadratic
        residue for "true", a non-residue for "false".  The residue
        table's probe is inlined into the loop, saving two call layers
        per probe on the hot path.  The candidate *order*, including
        the two-element set literal whose iteration order breaks the
        ±distance tie, and the iteration count are bit-identical to the
        per-prefix Euler-criterion reference in ``tests/oracles.py``
        (property-tested).
        """
        mask = (1 << self._params.lsb_bits) - 1
        high = q & ~mask
        original_low = q & mask
        limit = mask + 1
        iterations = 0
        max_iterations = self._params.max_search_iterations
        want = bool(bit)
        table = self._table
        memo = table._memo
        memo_get = memo.get
        memo_limit = table._limit
        prime = table._prime
        jacobi = jacobi_symbol
        k_top = self._k - 1
        for distance in range(0, limit):
            for low in ({original_low} if distance == 0 else
                        {original_low - distance, original_low + distance}):
                if not 0 <= low < limit:
                    continue
                iterations += 1
                if iterations > max_iterations:
                    raise EncodingSearchExhausted(
                        "quadratic-residue search exhausted "
                        f"{max_iterations} iterations"
                    )
                candidate = high | low
                # Coarsest prefix first: it is shared by 2^(k-1)
                # consecutive lows, so its memo entry rejects most
                # failing candidates on one dict hit.
                for j in range(k_top, -1, -1):
                    prefix = candidate >> j
                    found = memo_get(prefix)
                    if found is None:
                        found = (prefix % prime != 0
                                 and jacobi(prefix, prime) == 1)
                        if len(memo) >= memo_limit:
                            table._evict()
                        memo[prefix] = found
                    if found is not want:
                        break
                else:
                    return candidate, iterations
        raise EncodingSearchExhausted(
            f"no low-bit configuration satisfies {self._k} prefixes"
        )

    # ------------------------------------------------------------------
    def embed(self, q_subset: list[int], extreme_offset: int, label: int,
              bit: bool) -> EmbedOutcome:
        """Encode ``bit`` independently into every subset member.

        ``label`` is unused by this encoding (the prefix criterion is
        self-contained) but kept for strategy-interface uniformity.
        """
        if not 0 <= extreme_offset < len(q_subset):
            raise ParameterError(
                f"extreme_offset {extreme_offset} outside subset of "
                f"{len(q_subset)}"
            )
        # Reset before searching: a member search that raises must not
        # leave the previous embed's stats visible to the embedder's
        # bookkeeping.
        self.last_stats = None
        total_iterations = 0
        new_values: list[int] = []
        for q in q_subset:
            new_q, iterations = self._encode_value(q, bit)
            new_values.append(new_q)
            total_iterations += iterations
        self.last_stats = QuadResStats(iterations=total_iterations)
        self.embeds += 1
        self.total_search_iterations += total_iterations
        return EmbedOutcome(q_values=new_values, iterations=total_iterations)

    def stats_snapshot(self) -> dict:
        """Lifetime search/memo telemetry (JSON-safe, pull-based)."""
        return {
            "encoding": self.name,
            "embeds": self.embeds,
            "search_iterations": self.total_search_iterations,
            "residue_memo_size": len(self._table),
        }

    def detect(self, float_subset: np.ndarray, extreme_offset: int,
               label: int) -> Vote:
        """Vote per member: all-residue => true, all-non-residue => false.

        Quantizes the whole subset as one array op (identical
        floor/clamp to the scalar :meth:`Quantizer.quantize`) and
        classifies each member with at most ``k`` memoized residue
        lookups: the coarsest prefix decides which class the member
        *could* join, the finer prefixes either confirm it or abstain
        the member — one pass instead of one per class.  Counting is
        commutative, so the vote equals the per-member Euler-criterion
        reference in ``tests/oracles.py`` (property-tested).
        """
        if len(float_subset) == 0:
            raise ParameterError("cannot detect in an empty subset")
        q_values = self._quantizer.quantize_array(
            np.asarray(float_subset, dtype=np.float64)).tolist()
        residue = self._table.residue
        k = self._k
        n_true = 0
        n_false = 0
        for q in q_values:
            want = residue(q >> (k - 1))
            for j in range(k - 2, -1, -1):
                if residue(q >> j) != want:
                    break
            else:
                if want:
                    n_true += 1
                else:
                    n_false += 1
        return Vote(n_true=n_true, n_false=n_false)
