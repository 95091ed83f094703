"""Component names: a read-only index over the per-kind tables.

The paper fixes the component set, so each kind is a plain
``name -> (object, description)`` table in the module that owns it:

=============  ==============================================
kind           table
=============  ==============================================
``encoding``   :data:`repro.core.encoding_factory.ENCODINGS`
``transform``  :data:`repro.transforms.TRANSFORMS`
``attack``     :data:`repro.attacks.ATTACKS`
``generator``  :data:`repro.streams.generators.GENERATORS`
``transport``  :data:`repro.server.transports.TRANSPORTS`
=============  ==============================================

Encodings are strategy classes called as
``cls(params, quantizer, hasher, **options)``; transforms and attacks
are builders, ``builder(**options) -> callable(values) -> values``;
generators are stream-source classes; transports are
:class:`~repro.server.transports.Transport` classes built with no
arguments.

:data:`REGISTRY` reads the tables for ``repro list``, the CLI's
``--encoding`` choices and ``repro attack --kind``.  It imports a
table's module on first use, so ``import repro`` loads neither the
attacks nor the server.  :func:`entry` is the one name lookup the
owning modules use: an unknown name raises
:class:`~repro.errors.ParameterError` that lists the valid names, with
a did-you-mean suggestion.
"""

from __future__ import annotations

import difflib
import importlib

from repro.errors import ParameterError

#: Where each kind's table lives: ``kind -> (module, attribute)``.
_TABLES = {
    "encoding": ("repro.core.encoding_factory", "ENCODINGS"),
    "transform": ("repro.transforms", "TRANSFORMS"),
    "attack": ("repro.attacks", "ATTACKS"),
    "generator": ("repro.streams.generators", "GENERATORS"),
    "transport": ("repro.server.transports", "TRANSPORTS"),
}


def entry(kind: str, table: dict, name: str):
    """The object ``table`` lists under ``name``."""
    try:
        return table[name][0]
    except KeyError:
        raise ParameterError(_unknown(name, {kind: table})) from None


def _unknown(name: str, tables: "dict[str, dict]") -> str:
    valid: list[str] = []
    parts: list[str] = []
    for kind, table in tables.items():
        known = sorted(table)
        valid.extend(known)
        parts.append(f"{kind}s: {', '.join(known) if known else '(none)'}")
    message = (f"unknown {' / '.join(tables)} {name!r}; valid "
               + "; ".join(parts))
    close = difflib.get_close_matches(name, valid, n=1)
    if close:
        message += f". Did you mean {close[0]!r}?"
    return message


class ComponentIndex:
    """Lookups across the kinds' tables; holds no state of its own."""

    __slots__ = ()

    #: The component kinds, in ``repro list`` order.
    KINDS = tuple(_TABLES)

    def table(self, kind: str) -> dict:
        """One kind's ``name -> (object, description)`` table."""
        try:
            module, attribute = _TABLES[kind]
        except KeyError:
            raise ParameterError(f"unknown component kind {kind!r}; "
                                 f"kinds are {self.KINDS}") from None
        return getattr(importlib.import_module(module), attribute)

    def names(self, kind: str) -> "tuple[str, ...]":
        """One kind's names, in table order."""
        return tuple(self.table(kind))

    def get(self, kind: str, name: str):
        """The object one kind's table lists under ``name``."""
        return entry(kind, self.table(kind), name)

    def find(self, name: str,
             kinds: "tuple[str, ...]") -> "tuple[str, object]":
        """``(kind, object)`` from the first of ``kinds`` naming ``name``.

        ``repro attack`` uses it: its ``--kind`` names a transform or
        an attack.
        """
        tables = {kind: self.table(kind) for kind in kinds}
        for kind, table in tables.items():
            if name in table:
                return kind, table[name][0]
        raise ParameterError(_unknown(name, tables))

    def snapshot(self) -> "dict[str, dict[str, str]]":
        """``{kind: {name: description}}`` over every kind."""
        return {kind: {name: description
                       for name, (_, description) in self.table(kind).items()}
                for kind in self.KINDS}


#: The index the CLI and the benchmark tracer read.
REGISTRY = ComponentIndex()
