"""Shared plumbing for the baseline clients.

Every baseline implements :class:`FullSerializer` — serialize the
whole message on every send — over the same transport interface as the
bSOAP client, so the performance study swaps implementations without
touching the harness.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, runtime_checkable

import numpy as np

from repro.dut.tracked import format_column
from repro.errors import SchemaError
from repro.lexical.floats import FloatFormat
from repro.schema.composite import ArrayType, StructType
from repro.schema.types import STRING, XSDType
from repro.soap.encoding import array_open_attrs, xsi_type_attr
from repro.soap.message import Parameter, SOAPMessage
from repro.xmlkit.escape import escape_attr

__all__ = ["FullSerializer", "serialize_message_parts", "param_texts", "attrs_bytes"]


@runtime_checkable
class FullSerializer(Protocol):
    """A client that fully serializes and sends a message."""

    def serialize(self, message: SOAPMessage) -> List[bytes]:
        """Produce the message as an ordered list of byte segments."""
        ...  # pragma: no cover - protocol

    def send(self, message: SOAPMessage) -> int:
        """Serialize and transmit; return payload bytes."""
        ...  # pragma: no cover - protocol


def attrs_bytes(attrs: dict) -> bytes:
    """Render an attribute mapping as raw tag-attribute bytes.

    Written apart from the runtime's ``core.serializer._attrs_bytes`` on
    purpose: the baselines are what the wire oracles compare the runtime
    against, so they share none of its rendering code.
    """
    parts = []
    for key, value in attrs.items():
        parts.append(
            b" " + key.encode("ascii") + b'="'
            + escape_attr(value.encode("utf-8")) + b'"'
        )
    return b"".join(parts)


def param_texts(param: Parameter, fmt: FloatFormat) -> List[bytes]:
    """Lexical forms of a parameter's leaves in document order."""
    ptype, value = param.ptype, param.value
    if isinstance(ptype, ArrayType):
        element = ptype.element
        if isinstance(element, StructType):
            if isinstance(value, dict):
                cols = {k: np.asarray(v) for k, v in value.items()}
            else:
                cols = {
                    f.name: [
                        rec[i] if isinstance(rec, tuple) else getattr(rec, f.name)
                        for rec in value  # type: ignore[union-attr]
                    ]
                    for i, f in enumerate(element.fields)
                }
            arity = element.arity
            n = len(next(iter(cols.values())))
            out: List[bytes] = [b""] * (n * arity)
            for fpos, f in enumerate(element.fields):
                out[fpos::arity] = format_column(f.xsd_type, cols[f.name], fmt)
            return out
        if element is STRING:
            return [STRING.format(s) for s in value]  # type: ignore[union-attr]
        return format_column(element, np.asarray(value), fmt)
    if isinstance(ptype, StructType):
        texts = []
        for f in ptype.fields:
            v = value[f.name] if isinstance(value, dict) else getattr(value, f.name)
            texts.append(format_column(f.xsd_type, [v], fmt)[0])
        return texts
    if isinstance(ptype, XSDType):
        return format_column(ptype, [value], fmt)
    raise SchemaError(f"unsupported parameter type {ptype!r}")


def serialize_message_parts(
    message: SOAPMessage,
    fmt: FloatFormat,
    emit_param,
) -> List[bytes]:
    """Envelope skeleton + per-parameter payload via *emit_param*."""
    from repro.soap.envelope import envelope_layout

    layout = envelope_layout(message.namespace, message.operation)
    parts: List[bytes] = [layout.prefix]
    for param in message.params:
        emit_param(parts, param, fmt)
    parts.append(layout.suffix)
    return parts
