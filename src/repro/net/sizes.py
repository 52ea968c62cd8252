"""Deterministic wire-size model for simulated messages.

"Minimizing the total amount of intersite data transmission" is the
paper's principal optimization criterion (Sect. IV-C); to compare
strategies we therefore need an exact, reproducible byte count for every
payload that crosses a link. This module assigns each payload a size equal
to what a compact N-Triples/JSON-ish encoding would occupy, so relative
comparisons between strategies are meaningful and stable across runs.

Sizing is a wall-clock hot spot: every simulated message charges
``size_of`` over its whole payload. Dispatch is a ``type() -> handler``
table (falling back to the original ``isinstance`` cascade for
subclasses), and the per-term / per-mapping results are cached on the
instances themselves — sound because RDF terms are interned and solution
mappings are immutable. The computed sizes are byte-identical to the
original structural recursion. Shipped solution sets travel by
reference: a plain set is a frozenset of rows, charged exactly as the
list it stands for, and a dictionary-encoded
:class:`~repro.net.wire.SolutionBatch` carries the exact encoded size it
computed in one pass over its rows.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any

from ..rdf.terms import IRI, BlankNode, Literal, Variable
from ..rdf.triple import Triple, TriplePattern
from ..sparql.solutions import SolutionMapping

__all__ = ["size_of", "HEADER_BYTES"]

#: Fixed per-message envelope (addresses, message type, request id).
HEADER_BYTES = 48

_CONTAINER_OVERHEAD = 8
_PER_ITEM_OVERHEAD = 2

_set = object.__setattr__


def _size_iri(payload: IRI) -> int:
    n = payload._size
    if n is None:
        n = len(payload.value) + 2
        _set(payload, "_size", n)
    return n


def _size_literal(payload: Literal) -> int:
    n = payload._size
    if n is None:
        n = len(payload.lexical) + 2
        if payload.language:
            n += len(payload.language) + 1
        if payload.datatype:
            n += len(payload.datatype.value) + 4
        _set(payload, "_size", n)
    return n


def _size_blank(payload: BlankNode) -> int:
    n = payload._size
    if n is None:
        n = len(payload.label) + 2
        _set(payload, "_size", n)
    return n


def _size_variable(payload: Variable) -> int:
    n = payload._size
    if n is None:
        n = len(payload.name) + 1
        _set(payload, "_size", n)
    return n


def _size_triple(payload) -> int:
    return size_of(payload.s) + size_of(payload.p) + size_of(payload.o) + 3


def _size_mapping(payload: SolutionMapping) -> int:
    n = payload._size
    if n is None:
        n = _CONTAINER_OVERHEAD
        for v, t in payload.items():
            n += size_of(v) + size_of(t) + _PER_ITEM_OVERHEAD
        payload._size = n
    return n


def _size_dict(payload: dict) -> int:
    return _CONTAINER_OVERHEAD + sum(
        size_of(k) + size_of(v) + _PER_ITEM_OVERHEAD for k, v in payload.items()
    )


def _size_sequence(payload) -> int:
    return _CONTAINER_OVERHEAD + sum(
        size_of(item) + _PER_ITEM_OVERHEAD for item in payload
    )


def _size_str(payload: str) -> int:
    return len(payload.encode("utf-8"))


_DISPATCH = {
    type(None): lambda payload: 1,
    bool: lambda payload: 1,
    int: lambda payload: 8,
    float: lambda payload: 8,
    str: _size_str,
    bytes: len,
    IRI: _size_iri,
    Literal: _size_literal,
    BlankNode: _size_blank,
    Variable: _size_variable,
    Triple: _size_triple,
    TriplePattern: _size_triple,
    SolutionMapping: _size_mapping,
    dict: _size_dict,
    list: _size_sequence,
    tuple: _size_sequence,
    set: _size_sequence,
    frozenset: _size_sequence,
}


def size_of(payload: Any) -> int:
    """Estimated serialized size of *payload* in bytes.

    Deterministic, structural, and additive over containers. Unknown
    objects may implement ``wire_size() -> int``.
    """
    handler = _DISPATCH.get(type(payload))
    if handler is not None:
        return handler(payload)
    return _size_of_slow(payload)


def _size_of_slow(payload: Any) -> int:
    """The original isinstance cascade, for subclasses of the table types
    and the open-ended cases (enums, ``wire_size`` objects, dataclasses)."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, str):
        return _size_str(payload)
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, IRI):
        return _size_iri(payload)
    if isinstance(payload, Literal):
        return _size_literal(payload)
    if isinstance(payload, BlankNode):
        return _size_blank(payload)
    if isinstance(payload, Variable):
        return _size_variable(payload)
    if isinstance(payload, (Triple, TriplePattern)):
        return _size_triple(payload)
    if isinstance(payload, SolutionMapping):
        return _size_mapping(payload)
    if isinstance(payload, dict):
        return _size_dict(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return _size_sequence(payload)
    if isinstance(payload, enum.Enum):
        return len(payload.name) + 1
    wire_size = getattr(payload, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        # Generic rule for structured payloads (algebra nodes, plan steps):
        # the sum of the fields plus container overhead.
        return _CONTAINER_OVERHEAD + sum(
            size_of(getattr(payload, f.name)) + _PER_ITEM_OVERHEAD
            for f in dataclasses.fields(payload)
        )
    raise TypeError(f"no wire-size rule for {type(payload).__name__}")
