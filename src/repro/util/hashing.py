"""The keyed one-way hash ``H(V, k)`` used throughout the scheme.

The paper (Sec 2.2) relies on a cryptographic one-way hash and defines::

    H(V, k) = crypto_hash(k ; V ; k)        (";" is concatenation)

Only two properties are used: one-wayness (Mallory cannot invert the
selection criterion) and diffusion (flipping one input bit flips about
half the output bits, which is what makes the multi-hash encoding's
output look random).  The proof-of-concept in the paper uses MD5; we
default to MD5 for fidelity and allow SHA-256 via ``algorithm=``.

The hash output is interpreted as a big-endian unsigned integer so it can
feed the paper's ``H(...) mod phi`` selection and ``H(...) mod alpha``
bit-position computations directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import KeyError_, ParameterError

_SUPPORTED_ALGORITHMS = ("md5", "sha1", "sha256", "sha512")


def _coerce_key(key: "bytes | str | int") -> bytes:
    """Normalize a user-supplied secret key into non-empty bytes."""
    if isinstance(key, bytes):
        raw = key
    elif isinstance(key, str):
        raw = key.encode("utf-8")
    elif isinstance(key, int):
        if key < 0:
            raise KeyError_("integer keys must be non-negative")
        raw = key.to_bytes((key.bit_length() + 7) // 8 or 1, "big")
    else:
        raise KeyError_(f"unsupported key type: {type(key).__name__}")
    if not raw:
        raise KeyError_("secret key must not be empty")
    return raw


def frame_value(value: "int | bytes | str") -> bytes:
    """Serialize a hash input deterministically: a 4-byte length prefix,
    then the body (big-endian for ints, UTF-8 for strings).

    The prefix keeps distinct (value, width) pairs from colliding by
    sharing a byte representation.  ``H`` hashes ``k ; frame ; k``.
    """
    if isinstance(value, bool):
        raise ParameterError("pass ints, not bools, to the hash")
    if isinstance(value, int):
        if value < 0:
            raise ParameterError("hash inputs must be non-negative ints")
        body = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        return len(body).to_bytes(4, "big") + body
    if isinstance(value, str):
        body = value.encode("utf-8")
        return len(body).to_bytes(4, "big") + body
    if isinstance(value, bytes):
        return len(value).to_bytes(4, "big") + value
    raise ParameterError(f"unsupported hash input type: {type(value).__name__}")


def hash_constructor(algorithm: str):
    """The constructor every digest of ``algorithm`` goes through.

    MD5 is CPython's builtin ``_md5.md5`` when the interpreter has one:
    the digests of ``hashlib.md5`` (OpenSSL, the fallback) at about half
    the cost on the short keyed payloads the scheme hashes, where
    OpenSSL's per-call setup costs more than the hash.  sha1, sha256
    and sha512 stay on ``hashlib``, where OpenSSL is the faster one.
    Hot loops resolve the constructor once and hash each payload in one
    call.
    """
    if algorithm not in _SUPPORTED_ALGORITHMS:
        raise ParameterError(
            f"unsupported hash algorithm {algorithm!r}; "
            f"choose one of {_SUPPORTED_ALGORITHMS}"
        )
    if algorithm == "md5":
        try:
            from _md5 import md5
            return md5
        except ImportError:  # a CPython built without builtin MD5
            pass
    return getattr(hashlib, algorithm)


def hash_to_int(data: bytes, algorithm: str = "md5") -> int:
    """Hash raw bytes and return the digest as a big-endian integer."""
    digest = hash_constructor(algorithm)(data).digest()
    return int.from_bytes(digest, "big")


def H(value: "int | bytes | str", key: "bytes | str | int",
      algorithm: str = "md5") -> int:
    """The paper's ``H(V, k) = crypto_hash(k; V; k)`` as an integer.

    >>> H(42, b"k1") == H(42, b"k1")
    True
    >>> H(42, b"k1") != H(43, b"k1")
    True
    """
    key_bytes = _coerce_key(key)
    payload = key_bytes + frame_value(value) + key_bytes
    return hash_to_int(payload, algorithm)


@dataclass(frozen=True)
class KeyedHasher:
    """A reusable ``H(., k1)`` bound to one secret key.

    The embedder, detector and selection criterion all share a single
    :class:`KeyedHasher` so the key is threaded through the system once.

    Every ``H`` digest goes through :meth:`hash_framed`, which hashes
    ``key + frame + key`` in one call of the :func:`hash_constructor`
    constructor, resolved at construction (and again when a pool worker
    unpickles the hasher).  The selection criterion is the hot caller:
    it hashes once per major extreme and key, and detection frames the
    message once for all keys.

    Parameters
    ----------
    key:
        The secret ``k1`` from the paper.  Accepts bytes, str or int.
    algorithm:
        Hash algorithm name (default ``"md5"``, as in the paper's
        proof-of-concept implementation).
    """

    key: bytes = field(repr=False)
    algorithm: str = "md5"

    def __init__(self, key: "bytes | str | int", algorithm: str = "md5"):
        object.__setattr__(self, "key", _coerce_key(key))
        object.__setattr__(self, "_new", hash_constructor(algorithm))
        object.__setattr__(self, "algorithm", algorithm)

    def __reduce__(self):
        """Pickle as ``(key, algorithm)``: the resolved constructor is
        derived state the constructor rebuilds.  Needed so detection
        tasks can cross a process-pool boundary.
        """
        return (KeyedHasher, (self.key, self.algorithm))

    def hash_int(self, value: "int | bytes | str") -> int:
        """Return ``H(value, key)`` as an unbounded integer."""
        return self.hash_framed(frame_value(value))

    def hash_framed(self, framed: bytes) -> int:
        """``H`` of an input already serialized by :func:`frame_value`.

        This is the one digest of the keyed sandwich ``k ; framed ; k``.
        The selection hash calls it directly with a message framed once
        per major extreme (:func:`repro.core.selection.selection_message`).
        """
        key = self.key
        return int.from_bytes(self._new(key + framed + key).digest(), "big")

    def mod(self, value: "int | bytes | str", modulus: int) -> int:
        """Return ``H(value, key) mod modulus`` (paper's selection form)."""
        if modulus <= 0:
            raise ParameterError(f"modulus must be positive, got {modulus}")
        return self.hash_int(value) % modulus


class PatternProber:
    """Batched ``lsb(H(avg_key, label), ω)`` probes with a bounded memo.

    This is the multi-hash convention probe (paper Sec 4.3) of the
    random embed search, which re-tests the same averages across
    candidate rows.  Detection does not use it: it hashes each distinct
    average of an extreme once per key, and almost never meets the same
    average again.  A miss hashes the whole fixed-width keyed sandwich
    ``hash(k ; avg_key_8B ; label_8B ; k)`` in one constructor call —
    identical bytes to
    :func:`repro.core.encoding_multihash.convention_pattern`.

    The memo is bounded; when full, the *oldest half* is evicted
    (dict insertion order) instead of wiping the table.  A full wipe
    throws away the hot ``(avg_key, label)`` pairs the search is
    actively re-testing, forcing a re-hash storm exactly when the search
    is struggling; keeping the young half preserves the working set at
    the same O(1) amortized bookkeeping cost.

    ``probes``/``misses`` count lifetime lookups and memo misses for
    the observability layer (hit rate = 1 - misses/probes).  They are
    plain ints maintained amortized — one add per bulk call, one add
    per miss (the branch that already pays for an md5 digest) — and are
    *read* only at snapshot time, never pushed into a registry from the
    hot loop.
    """

    __slots__ = ("_key", "_mask", "_new", "_memo", "_limit",
                 "probes", "misses")

    def __init__(self, key: bytes, omega: int, algorithm: str = "md5",
                 memo_limit: int = 1 << 16) -> None:
        self._new = hash_constructor(algorithm)
        if omega < 1:
            raise ParameterError(f"omega must be >= 1, got {omega}")
        if memo_limit < 2:
            raise ParameterError(
                f"memo_limit must be >= 2, got {memo_limit}")
        self._key = _coerce_key(key)
        self._mask = (1 << omega) - 1
        self._memo: "dict[tuple[int, int], int]" = {}
        self._limit = memo_limit
        self.probes = 0
        self.misses = 0

    def patterns(self, avg_keys, label: int) -> "list[int]":
        """Probe many averages against one label in a tight loop.

        Accepts any iterable of ints (numpy arrays included); returns a
        plain list aligned with the input.  Locals are bound outside the
        loop — this is the per-candidate hot path of the batched search.
        """
        memo = self._memo
        new = self._new
        head = self._key
        mask = self._mask
        tail = label.to_bytes(8, "big") + head
        out: "list[int]" = []
        append = out.append
        misses = 0
        for avg_key in (avg_keys.tolist()
                        if hasattr(avg_keys, "tolist") else avg_keys):
            probe = (avg_key, label)
            found = memo.get(probe)
            if found is None:
                misses += 1
                digest = new(head + avg_key.to_bytes(8, "big") + tail).digest()
                found = int.from_bytes(digest[-3:], "big") & mask
                if len(memo) >= self._limit:
                    self._evict()
                memo[probe] = found
            append(found)
        self.probes += len(out)
        self.misses += misses
        return out

    def _evict(self) -> None:
        """Drop the oldest half of the memo, keeping the recent entries."""
        memo = self._memo
        survivors = list(memo.items())[len(memo) // 2:]
        memo.clear()
        memo.update(survivors)

    def __len__(self) -> int:
        return len(self._memo)
