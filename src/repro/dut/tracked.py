"""Tracked values: the application-facing write path.

The paper requires "all serializable data to be located in objects
that contain get and set methods, whose implementation will update the
DUT table transparently" (§3.1).  These wrappers are those objects:
after a template is built, each parameter's wrapper is *bound* to a
NumPy view of its slice of the DUT ``dirty`` column, so a ``set``
flips dirty bits directly in the table with no indirection.

Before binding (i.e. before the first send) mutations are unobserved
— everything is serialized on the first send anyway.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import DUTError, SchemaError
# Both batch formatters are module names here because the ledger's
# tracing (``benchmarks/ledger/tracing.py``) wraps them by name for
# ``lexical.format``; the rewrite formats through ``format_double_array``.
from repro.lexical.cache import format_double_fixed_blob  # noqa: F401
from repro.lexical.floats import FloatFormat, format_double, format_double_array
from repro.lexical.integers import format_int_array
from repro.schema.composite import StructType
from repro.schema.types import BOOLEAN, DOUBLE, INT, LONG, STRING, XSDType

__all__ = [
    "TrackedArray",
    "TrackedStructArray",
    "TrackedScalar",
    "TrackedStringArray",
    "format_column",
]


def format_column(
    xsd_type: XSDType, values: np.ndarray | Sequence, fmt: FloatFormat
) -> List[bytes]:
    """Batch-format a homogeneous column of values."""
    if xsd_type is DOUBLE:
        return format_double_array(values, fmt)
    if xsd_type is INT:
        return format_int_array(values, bits=32)
    if xsd_type is LONG:
        return format_int_array(values)
    return [xsd_type.format(v) for v in values]


def changed_leaves(incoming: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Mask of the slots where *incoming* differs from *current*.

    Floats compare by bit pattern: ``0.0 → -0.0`` is a change (the two
    serialize differently), and a NaN that keeps its bits is not.
    """
    if current.dtype.kind == "f":
        bits = np.dtype(f"u{current.dtype.itemsize}")
        return incoming.view(bits) != current.view(bits)
    return incoming != current


class _Bindable:
    """Shared bind/dirty plumbing."""

    _dirty: Optional[np.ndarray] = None

    def bind_dirty(self, view: np.ndarray) -> None:
        """Attach the DUT dirty-column view covering this value's leaves."""
        if view.shape != self._expected_shape():
            raise DUTError(
                f"dirty view shape {view.shape} != expected {self._expected_shape()}"
            )
        self._dirty = view

    def unbind(self) -> None:
        self._dirty = None

    @property
    def bound(self) -> bool:
        return self._dirty is not None

    def _expected_shape(self) -> tuple:  # pragma: no cover - abstract
        raise NotImplementedError


class TrackedArray(_Bindable):
    """A primitive-typed array with transparent update tracking.

    Parameters
    ----------
    values:
        Initial contents (copied into a NumPy array of the type's
        dtype so later in-place mutation is well-defined).
    xsd_type:
        One of the numeric/boolean primitives.
    """

    __slots__ = ("xsd_type", "_data", "_dirty")

    def __init__(self, values: Sequence | np.ndarray, xsd_type: XSDType) -> None:
        if xsd_type.np_dtype is None:
            raise SchemaError(
                f"TrackedArray does not support {xsd_type.name}; "
                "use TrackedStringArray"
            )
        self.xsd_type = xsd_type
        self._data = np.array(values, dtype=xsd_type.np_dtype, copy=True)
        if self._data.ndim != 1:
            raise SchemaError("TrackedArray requires a 1-D value sequence")
        self._dirty = None

    # -- reads ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, idx):
        return self._data[idx]

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the current values."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    # -- writes (mark dirty) ---------------------------------------------
    def __setitem__(self, idx, value) -> None:
        self._data[idx] = value
        if self._dirty is not None:
            self._dirty[idx] = True

    def update(self, indices, values) -> None:
        """Scatter *values* into *indices*, marking them dirty."""
        self._data[indices] = values
        if self._dirty is not None:
            self._dirty[indices] = True

    def fill_from(self, values: Sequence | np.ndarray) -> None:
        """Replace all contents (equal length), marking changed slots dirty.

        Uses a vectorized comparison so unchanged elements stay clean —
        this is the auto-diff path for applications that hand the stub
        plain arrays each call.
        """
        incoming = np.asarray(values, dtype=self._data.dtype)
        if incoming.shape != self._data.shape:
            raise DUTError(
                f"fill_from shape {incoming.shape} != {self._data.shape}; "
                "array length changes are a structure mismatch"
            )
        if self._dirty is not None:
            self._dirty |= changed_leaves(incoming, self._data)
        self._data[:] = incoming

    # -- serialization support -------------------------------------------
    def lexical_all(self, fmt: FloatFormat) -> List[bytes]:
        """Lexical forms of every element, in order."""
        return format_column(self.xsd_type, self._data, fmt)

    def lexical_for(self, leaf_indices: np.ndarray, fmt: FloatFormat) -> List[bytes]:
        """Lexical forms for specific leaf indices, in the given order."""
        return format_column(self.xsd_type, self._data[leaf_indices], fmt)

    def doubles_for(self, leaf_indices: np.ndarray) -> np.ndarray:
        """Values of specific (``xsd:double``) leaves, in the given order."""
        return self._data[leaf_indices]

    def _expected_shape(self) -> tuple:
        return (len(self._data),)


class TrackedStructArray(_Bindable):
    """An array of flat structs stored struct-of-arrays.

    Columns are keyed by field name (``x``/``y``/``v`` for MIOs).  The
    leaf (DUT entry) order is item-major: leaf ``i*arity + f`` is item
    ``i``'s field ``f`` — the document order of the serialized form.
    """

    __slots__ = ("struct", "_cols", "_n", "_dirty")

    def __init__(
        self, columns: Dict[str, Sequence | np.ndarray], struct: StructType
    ) -> None:
        self.struct = struct
        expected = {f.name for f in struct.fields}
        if set(columns) != expected:
            raise SchemaError(
                f"columns {sorted(columns)} != struct fields {sorted(expected)}"
            )
        self._cols: Dict[str, np.ndarray] = {}
        lengths = set()
        for f in struct.fields:
            if f.xsd_type.np_dtype is None:
                col = np.array(list(columns[f.name]), dtype=object)
            else:
                col = np.array(columns[f.name], dtype=f.xsd_type.np_dtype, copy=True)
            if col.ndim != 1:
                raise SchemaError(f"column {f.name!r} must be 1-D")
            self._cols[f.name] = col
            lengths.add(len(col))
        if len(lengths) != 1:
            raise SchemaError(f"columns have differing lengths {sorted(lengths)}")
        self._n = lengths.pop()
        self._dirty = None

    @classmethod
    def from_records(
        cls, records: Sequence, struct: StructType
    ) -> "TrackedStructArray":
        """Build from an iterable of objects with field-named attributes
        (or tuples in field order)."""
        cols: Dict[str, list] = {f.name: [] for f in struct.fields}
        for rec in records:
            if isinstance(rec, tuple):
                for f, v in zip(struct.fields, rec):
                    cols[f.name].append(v)
            else:
                for f in struct.fields:
                    cols[f.name].append(getattr(rec, f.name))
        return cls(cols, struct)

    # -- reads ----------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def arity(self) -> int:
        return self.struct.arity

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one field column."""
        view = self._cols[name].view()
        if view.dtype != object:
            view.flags.writeable = False
        return view

    def get(self, i: int, field: str):
        return self._cols[field][i]

    # -- writes ----------------------------------------------------------
    def _field_pos(self, field: str) -> int:
        for pos, f in enumerate(self.struct.fields):
            if f.name == field:
                return pos
        raise SchemaError(f"struct {self.struct.name!r} has no field {field!r}")

    def set(self, i: int, field: str, value) -> None:
        """Set one field of one item, marking its leaf dirty."""
        pos = self._field_pos(field)
        self._cols[field][i] = value
        if self._dirty is not None:
            self._dirty[i, pos] = True

    def set_items(self, indices, field: str, values) -> None:
        """Scatter into one column, marking those leaves dirty."""
        pos = self._field_pos(field)
        self._cols[field][indices] = values
        if self._dirty is not None:
            self._dirty[indices, pos] = True

    def set_column(self, field: str, values: Sequence | np.ndarray) -> None:
        """Replace an entire column, diffing to mark only real changes."""
        col = self._cols[field]
        incoming = np.asarray(values, dtype=col.dtype)
        if incoming.shape != col.shape:
            raise DUTError("set_column length mismatch is a structure mismatch")
        if self._dirty is not None:
            self._dirty[:, self._field_pos(field)] |= changed_leaves(incoming, col)
        col[:] = incoming

    # -- serialization support -------------------------------------------
    def lexical_all(self, fmt: FloatFormat) -> List[bytes]:
        """All leaves in document (item-major) order."""
        arity = self.arity
        per_field = [
            format_column(f.xsd_type, self._cols[f.name], fmt) for f in self.struct.fields
        ]
        out: List[bytes] = [b""] * (self._n * arity)
        for fpos, texts in enumerate(per_field):
            out[fpos::arity] = texts
        return out

    def lexical_for(self, leaf_indices: np.ndarray, fmt: FloatFormat) -> List[bytes]:
        """Lexical forms for specific leaf indices, preserving order."""
        arity = self.arity
        out: List[Optional[bytes]] = [None] * len(leaf_indices)
        fields = leaf_indices % arity
        items = leaf_indices // arity
        for fpos, f in enumerate(self.struct.fields):
            sel = np.flatnonzero(fields == fpos)
            if len(sel) == 0:
                continue
            texts = format_column(f.xsd_type, self._cols[f.name][items[sel]], fmt)
            for k, text in zip(sel, texts):
                out[k] = text
        return out  # type: ignore[return-value]

    def doubles_for(self, leaf_indices: np.ndarray) -> np.ndarray:
        """Values of specific ``xsd:double`` leaves, preserving order."""
        arity = self.arity
        out = np.empty(len(leaf_indices), dtype=np.float64)
        fields = leaf_indices % arity
        items = leaf_indices // arity
        for fpos, f in enumerate(self.struct.fields):
            if f.xsd_type is DOUBLE:
                sel = fields == fpos
                out[sel] = self._cols[f.name][items[sel]]
        return out

    def _expected_shape(self) -> tuple:
        return (self._n, self.arity)


class TrackedScalar(_Bindable):
    """A single tracked value (one DUT entry)."""

    __slots__ = ("xsd_type", "_value", "_dirty")

    def __init__(self, value, xsd_type: XSDType) -> None:
        self.xsd_type = xsd_type
        self._value = value
        self._dirty = None

    @property
    def value(self):
        return self._value

    @value.setter
    def value(self, new) -> None:
        self._value = new
        if self._dirty is not None:
            self._dirty[0] = True

    def lexical_all(self, fmt: FloatFormat) -> List[bytes]:
        if self.xsd_type is DOUBLE:
            return [format_double(self._value, fmt)]
        return [self.xsd_type.format(self._value)]

    def lexical_for(self, leaf_indices: np.ndarray, fmt: FloatFormat) -> List[bytes]:
        return self.lexical_all(fmt) * len(leaf_indices)

    def doubles_for(self, leaf_indices: np.ndarray) -> np.ndarray:
        return np.full(len(leaf_indices), self._value, dtype=np.float64)

    def __len__(self) -> int:
        return 1

    def _expected_shape(self) -> tuple:
        return (1,)


class TrackedStringArray(_Bindable):
    """An array of strings (unstuffable — widths grow on demand)."""

    __slots__ = ("_items", "_dirty")

    def __init__(self, values: Sequence[str]) -> None:
        self._items: List[str] = [str(v) for v in values]
        self._dirty = None

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> str:
        return self._items[i]

    def __setitem__(self, i: int, value: str) -> None:
        self._items[i] = str(value)
        if self._dirty is not None:
            self._dirty[i] = True

    @property
    def xsd_type(self) -> XSDType:
        return STRING

    def lexical_all(self, fmt: FloatFormat) -> List[bytes]:
        return [STRING.format(s) for s in self._items]

    def lexical_for(self, leaf_indices: np.ndarray, fmt: FloatFormat) -> List[bytes]:
        return [STRING.format(self._items[int(i)]) for i in leaf_indices]

    def _expected_shape(self) -> tuple:
        return (len(self._items),)
