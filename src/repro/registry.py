"""Central component registry: plug in workloads by name, not by edit.

Every extensible axis of the library — bit-encoding strategies, stream
transforms, attacks and synthetic stream generators — used to live in a
hard-coded name table duplicated across the encoding factory, the attack
suite and the CLI.  :class:`ComponentRegistry` replaces those tables
with one registration point::

    from repro.registry import REGISTRY

    @REGISTRY.register("encoding", "multihash",
                       description="Sec-4.3 multi-hash convention")
    class MultihashEncoding: ...

Consumers resolve by ``(kind, name)``::

    cls = REGISTRY.get("encoding", "multihash")
    REGISTRY.names("transform")      # for CLI choices, docs, `repro list`

Registered kinds and their calling conventions:

``encoding``
    A strategy class (or factory) called as
    ``obj(params, quantizer, hasher, **options)`` returning an object
    with ``embed`` / ``detect`` methods.
``transform`` / ``attack``
    A *builder*: ``obj(**options) -> callable(values) -> values``.
    Builders with an ``rng`` keyword accept a seed or generator.
``generator``
    A stream-source class constructed with keyword parameters and
    exposing ``generate(n_items)``.
``transport``
    A :class:`repro.server.transports.Transport` subclass, constructed
    as ``obj()`` (see :func:`repro.server.transports.build_transport`);
    selects how the serving stack moves frame bodies between peers.

Built-in components self-register when their home module is imported;
the registry lazily imports those provider modules on first lookup, so
``REGISTRY.names("attack")`` is complete even before ``repro.attacks``
has been imported explicitly (the scanner/registry pattern).
"""

from __future__ import annotations

import difflib
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import RegistryError

#: Modules whose import registers the built-in components of each kind.
_PROVIDER_MODULES = (
    "repro.core.encoding_factory",
    "repro.transforms",
    "repro.attacks",
    "repro.streams.generators",
    "repro.server.transports",
)


@dataclass(frozen=True)
class Registration:
    """One registered component: its kind, name, object and description."""

    kind: str
    name: str
    obj: Any
    description: str = ""


@dataclass
class ComponentRegistry:
    """Name-indexed tables of pluggable components, one table per kind.

    The registry is deliberately dumb storage plus good error messages:
    construction semantics (how an encoding or transform is invoked) are
    the concern of the registering module, documented per kind in the
    module docstring above.
    """

    #: The component kinds the library defines.
    KINDS = ("encoding", "transform", "attack", "generator", "transport")

    provider_modules: tuple = _PROVIDER_MODULES
    _tables: "dict[str, dict[str, Registration]]" = field(init=False)
    _populated: bool = field(init=False, default=False)
    _populating: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        self._tables = {kind: {} for kind in self.KINDS}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, kind: str, name: str, *,
                 description: str = "") -> Callable:
        """Decorator form of :meth:`add`: register and return the object."""
        def decorate(obj):
            self.add(kind, name, obj, description=description)
            return obj
        return decorate

    def add(self, kind: str, name: str, obj: Any, *,
            description: str = "") -> Registration:
        """Register one component; duplicate ``(kind, name)`` pairs fail.

        Duplicate rejection is deliberate — silently replacing a
        component would let a plugin shadow a built-in and change
        detection semantics without any visible signal.
        """
        table = self._table(kind)
        if not name or not isinstance(name, str):
            raise RegistryError(f"component name must be a non-empty string, "
                                f"got {name!r}")
        if name in table:
            raise RegistryError(
                f"{kind} {name!r} is already registered "
                f"(by {table[name].obj!r}); pick a different name"
            )
        registration = Registration(kind=kind, name=name, obj=obj,
                                    description=description)
        table[name] = registration
        return registration

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, kind: str, name: str) -> Any:
        """Resolve a name to its registered object.

        Unknown names raise :class:`RegistryError` whose message lists
        every valid name of the kind (plus a did-you-mean suggestion),
        so the caller never has to hunt for the spelling.
        """
        return self.lookup(kind, name).obj

    def lookup(self, kind: str, name: str) -> Registration:
        """Like :meth:`get` but returns the full :class:`Registration`.

        A direct hit skips provider population: components registered by
        an already-imported module (the common case — e.g. encodings
        looked up from the embedder) resolve without importing the other
        provider modules.
        """
        table = self._table(kind)
        if name not in table:
            table = self._table(kind, populate=True)
        try:
            return table[name]
        except KeyError:
            raise RegistryError(
                self._unknown_message(name, {kind: table})) from None

    def find(self, name: str,
             kinds: "Iterable[str] | None" = None) -> Registration:
        """Resolve a name across several kinds (first match wins).

        Used by ``repro attack``, where a name may be either a
        registered attack or a plain transform.
        """
        search = tuple(kinds) if kinds is not None else self.KINDS
        tables = {kind: self._table(kind, populate=True) for kind in search}
        for kind in search:
            if name in tables[kind]:
                return tables[kind][name]
        raise RegistryError(self._unknown_message(name, tables))

    def names(self, kind: str) -> "tuple[str, ...]":
        """Registered names of one kind, in registration order."""
        return tuple(self._table(kind, populate=True))

    def describe(self, kind: str) -> "dict[str, str]":
        """``{name: description}`` for one kind (for docs and ``repro list``)."""
        return {name: reg.description
                for name, reg in self._table(kind, populate=True).items()}

    def snapshot(self) -> "dict[str, dict[str, str]]":
        """Full ``{kind: {name: description}}`` view of the registry."""
        return {kind: self.describe(kind) for kind in self.KINDS}

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _table(self, kind: str,
               populate: bool = False) -> "dict[str, Registration]":
        if kind not in self._tables:
            raise RegistryError(
                f"unknown component kind {kind!r}; kinds are {self.KINDS}"
            )
        if populate:
            self._ensure_populated()
        return self._tables[kind]

    def _ensure_populated(self) -> None:
        # Reentrancy guard: provider modules call back into the registry
        # while they are being imported (self-registration), and some of
        # them read `names()` at module scope.
        if self._populated or self._populating:
            return
        self._populating = True
        try:
            for module in self.provider_modules:
                importlib.import_module(module)
            self._populated = True
        finally:
            self._populating = False

    @staticmethod
    def _unknown_message(name: str,
                         tables: "dict[str, dict[str, Registration]]") -> str:
        valid: list[str] = []
        parts: list[str] = []
        for kind, table in tables.items():
            known = sorted(table)
            valid.extend(known)
            parts.append(f"{kind}s: {', '.join(known) if known else '(none)'}")
        kinds_text = " / ".join(tables)
        message = f"unknown {kinds_text} {name!r}; valid " + "; ".join(parts)
        close = difflib.get_close_matches(name, valid, n=1)
        if close:
            message += f". Did you mean {close[0]!r}?"
        return message


#: The process-wide registry instance used by the library and the CLI.
REGISTRY = ComponentRegistry()
