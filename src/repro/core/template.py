"""Saved message templates.

A :class:`MessageTemplate` is the paper's "saved message in the stub":
the fully serialized form held in a chunked buffer, its DUT table, and
the binding between application-visible tracked values and DUT entry
ranges.  The template is the unit the client stores per structure
signature and reuses across sends.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.buffers.chunked import ChunkedBuffer
from repro.core.differential import render_stale
from repro.dut.table import DUTTable
from repro.dut.tracked import (
    TrackedArray,
    TrackedScalar,
    TrackedStringArray,
    TrackedStructArray,
)
from repro.errors import DUTError, StructureMismatchError, TemplateError
from repro.schema.composite import ArrayType, StructType
from repro.schema.types import DOUBLE, XSDType
from repro.soap.message import Parameter, SOAPMessage, Signature, structure_signature

__all__ = ["BoundParam", "MessageTemplate", "Tracked", "absorb_param"]

Tracked = Union[TrackedArray, TrackedStructArray, TrackedScalar, TrackedStringArray]

_DOUBLE_BITS = struct.Struct("<d")


def absorb_param(tracked: Tracked, p: Parameter) -> None:
    """Diff a parameter's plain value into its tracked counterpart.

    Marks dirty exactly the leaves whose values changed; when the
    caller mutated the tracked object itself, this is a no-op.
    """
    value = p.value
    if value is tracked:
        return  # caller mutated the tracked object directly
    if isinstance(tracked, TrackedArray):
        tracked.fill_from(value)  # type: ignore[arg-type]
    elif isinstance(tracked, TrackedStructArray):
        if isinstance(value, dict):
            for name, col in value.items():
                tracked.set_column(name, col)
        else:
            struct = tracked.struct
            for fpos, f in enumerate(struct.fields):
                col = [
                    rec[fpos] if isinstance(rec, tuple) else getattr(rec, f.name)
                    for rec in value  # type: ignore[union-attr]
                ]
                tracked.set_column(f.name, col)
    elif isinstance(tracked, TrackedStringArray):
        if len(value) != len(tracked):  # type: ignore[arg-type]
            raise StructureMismatchError("string array length changed")
        for i, s in enumerate(value):  # type: ignore[arg-type]
            if tracked[i] != s:
                tracked[i] = s
    elif isinstance(tracked, TrackedScalar):
        old = tracked.value
        try:
            # A double by bit pattern, as changed_leaves compares arrays.
            changed = (
                _DOUBLE_BITS.pack(old) != _DOUBLE_BITS.pack(value)
                if tracked.xsd_type is DOUBLE
                else old != value
            )
        except struct.error:  # not a number: formatting will say so
            changed = old != value
        if changed:
            tracked.value = value
    else:  # pragma: no cover - exhaustive
        raise TemplateError(f"unknown tracked type {type(tracked)!r}")


@dataclass(slots=True)
class BoundParam:
    """One parameter's binding into the template.

    Attributes
    ----------
    entry_base / leaf_count:
        This parameter's contiguous DUT entry range
        ``[entry_base, entry_base + leaf_count)``.
    arity:
        Leaves per item (1 for primitive arrays and scalars, the
        struct arity for struct arrays).
    close_tags / leaf_types:
        Per leaf position *within an item*: the closing-tag bytes that
        follow the value, and the leaf's primitive type.
    """

    name: str
    ptype: Union[XSDType, StructType, ArrayType]
    tracked: Tracked
    entry_base: int
    leaf_count: int
    arity: int
    close_tags: Tuple[bytes, ...]
    leaf_types: Tuple[XSDType, ...]

    @property
    def entry_end(self) -> int:
        return self.entry_base + self.leaf_count

    def close_tag_for(self, entry_index: int) -> bytes:
        """Closing tag of the leaf at absolute DUT index *entry_index*."""
        leaf_pos = (entry_index - self.entry_base) % self.arity
        return self.close_tags[leaf_pos]


#: Process-wide template identities: spans and metrics refer to
#: templates by this id, which survives in-place rebuilds (unlike the
#: buffer/DUT objects) and is unique across stores.
_template_ids = itertools.count(1)


def next_template_id() -> int:
    return next(_template_ids)


class MessageTemplate:
    """A reusable serialized message (buffer + DUT + bindings)."""

    __slots__ = (
        "signature",
        "buffer",
        "dut",
        "params",
        "_by_name",
        "_bases",
        "sends",
        "suspect",
        "template_id",
        "stale",
    )

    def __init__(
        self,
        signature: Signature,
        buffer: ChunkedBuffer,
        dut: DUTTable,
        params: Sequence[BoundParam],
    ) -> None:
        self.signature = signature
        self.buffer = buffer
        self.dut = dut
        self.params: List[BoundParam] = list(params)
        self._by_name: Dict[str, BoundParam] = {p.name: p for p in self.params}
        if len(self._by_name) != len(self.params):
            raise TemplateError("duplicate parameter names in template")
        self._bases = np.asarray([p.entry_base for p in self.params], dtype=np.int64)
        self.sends = 0
        self.template_id = next_template_id()
        #: Set when a send failed after the template was mutated: the
        #: serialized form may no longer match what the server holds,
        #: so the next send must be a full resynchronization.
        self.suspect = False
        #: DUT entries whose text in the buffer is older than their
        #: tracked value: dirty doubles a typed frame carried without
        #: the rewrite writing them (a bool mask, or ``None``).  Every
        #: reader of the bytes renders them first (:meth:`render_stale`).
        self.stale: Optional[np.ndarray] = None
        # Consistency: entry ranges must tile the DUT exactly.
        total = sum(p.leaf_count for p in self.params)
        if total != len(dut):
            raise TemplateError(
                f"bound params cover {total} entries but DUT has {len(dut)}"
            )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def param(self, name: str) -> BoundParam:
        try:
            return self._by_name[name]
        except KeyError:
            raise TemplateError(f"template has no parameter {name!r}") from None

    def tracked(self, name: str) -> Tracked:
        """The tracked value object applications mutate between sends."""
        return self.param(name).tracked

    def param_for_entry(self, entry_index: int) -> BoundParam:
        """The parameter owning DUT entry *entry_index* (binary search)."""
        if not (0 <= entry_index < len(self.dut)):
            raise DUTError(f"entry index {entry_index} out of range")
        pos = int(np.searchsorted(self._bases, entry_index, side="right")) - 1
        return self.params[pos]

    def close_tag_bytes(self, entry_index: int) -> bytes:
        return self.param_for_entry(entry_index).close_tag_for(entry_index)

    # ------------------------------------------------------------------
    # value absorption (auto-diff path)
    # ------------------------------------------------------------------
    def absorb(
        self, message: SOAPMessage, signature: Optional[Signature] = None
    ) -> None:
        """Diff a new message's values into the tracked state.

        Marks dirty exactly the leaves whose values changed, so a
        subsequent send is a content match when nothing changed.  The
        message must match this template's structure; *signature* is
        its :func:`structure_signature` when the caller has it.
        """
        if signature is None:
            signature = structure_signature(message)
        if signature != self.signature:
            raise StructureMismatchError(
                "message structure does not match template signature"
            )
        for p in message.params:
            absorb_param(self.param(p.name).tracked, p)
    # ------------------------------------------------------------------
    # transactional send (commit / rollback)
    # ------------------------------------------------------------------
    def begin_send(self) -> np.ndarray:
        """Open a send epoch: snapshot the dirty bits as the undo record.

        The differential rewrite clears dirty bits as it patches
        template bytes, before the transport has the message — so a
        failed send would otherwise leave the template claiming those
        values were delivered.  The snapshot lets
        :meth:`rollback_send` restore them (and tells the delta
        encoder which entries changed).
        """
        return self.dut.dirty.copy()

    def rollback_send(self, snapshot: Optional[np.ndarray] = None) -> None:
        """Undo a failed send epoch.

        Re-marks every entry that was dirty at :meth:`begin_send`
        (values written into the buffer this epoch will be rewritten —
        idempotent, since the tracked objects hold the current values)
        and flags the template *suspect*: the peer may hold a partial
        message, so the next send must be a forced full serialization
        that resynchronizes it.
        """
        if snapshot is not None:
            self.dut.dirty |= snapshot
        self.suspect = True

    def rebuild_in_place(self, policy=None, obs=None) -> None:
        """Re-serialize this template from its tracked values, in place.

        The recovery path after :meth:`rollback_send`: produces exactly
        the bytes a from-scratch first-time send would, while keeping
        this object's identity (so :class:`~repro.core.client.PreparedCall`
        handles and store entries stay valid, and the ``template_id``
        trace attribute is stable across the resync).  Tracked value
        objects are reused and rebound to the fresh DUT.
        """
        from repro.core.serializer import build_template
        from repro.soap.message import SOAPMessage

        namespace, operation, _ = self.signature
        message = SOAPMessage(
            operation,
            namespace,
            [Parameter(p.name, p.ptype, p.tracked) for p in self.params],
        )
        fresh = build_template(message, policy, obs=obs)
        if fresh.signature != self.signature:  # pragma: no cover - invariant
            raise TemplateError("rebuild produced a different signature")
        self.buffer = fresh.buffer
        self.dut = fresh.dut
        self.params = fresh.params
        self._by_name = {p.name: p for p in self.params}
        self._bases = np.asarray([p.entry_base for p in self.params], dtype=np.int64)
        self.suspect = False
        self.stale = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.buffer.total_length

    def memory_footprint(self) -> Dict[str, int]:
        """Approximate resident bytes by component.

        The paper's §3.3 motivation for overlaying: a template costs
        "memory to store message data, the entire serialized form of
        the message, and the DUT table".  Keys: ``serialized`` (chunk
        capacities), ``dut`` (column bytes), ``total``.
        """
        serialized = sum(c.capacity for c in self.buffer.iter_chunks())
        dut = self.dut
        dut_bytes = sum(
            col.nbytes
            for col in (
                dut.chunk_id,
                dut.value_off,
                dut.ser_len,
                dut.field_width,
                dut.type_id,
                dut.close_len,
                dut.dirty,
            )
        )
        return {
            "serialized": serialized,
            "dut": dut_bytes,
            "total": serialized + dut_bytes,
        }

    def render_stale(self) -> None:
        """Write every stale entry's current value as the text the
        rewrite deferred (MINIMAL, closing tag, pad); a no-op when
        nothing is stale."""
        stale, self.stale = self.stale, None
        if stale is not None:
            render_stale(self, stale)

    def views(self) -> List[memoryview]:
        self.render_stale()
        return self.buffer.views()

    def tobytes(self) -> bytes:
        self.render_stale()
        return self.buffer.tobytes()

    def validate(self) -> None:
        """Structural invariants: DUT consistency plus layout checks.

        For every entry: the close tag sits immediately after the
        value, and the pad region is pure whitespace.
        """
        self.render_stale()
        self.dut.validate()
        dut = self.dut
        for bp in self.params:
            for i in range(bp.entry_base, bp.entry_end):
                cid = int(dut.chunk_id[i])
                off = int(dut.value_off[i])
                ser = int(dut.ser_len[i])
                width = int(dut.field_width[i])
                close = bp.close_tag_for(i)
                got = self.buffer.read_at(cid, off + ser, len(close))
                if got != close:
                    raise TemplateError(
                        f"entry {i}: expected close tag {close!r} after value, "
                        f"found {got!r}"
                    )
                pad = self.buffer.read_at(
                    cid, off + ser + len(close), width - ser
                )
                if pad.strip(b" \t\r\n"):
                    raise TemplateError(f"entry {i}: pad contains non-whitespace")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageTemplate(sig={self.signature[1]!r}, entries={len(self.dut)}, "
            f"bytes={self.total_bytes}, chunks={self.buffer.num_chunks})"
        )
