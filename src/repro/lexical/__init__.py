"""Lexical (ASCII) representations of typed values.

This layer is the paper's measured bottleneck: converting in-memory
binary values — above all IEEE-754 doubles — to and from their XML
schema lexical forms.  Everything the serializers need lives here:

* scalar converters (``bytes`` in/out),
* NumPy-vectorized batch converters for array hot paths,
* per-type **maximum serialized widths**, the numbers stuffing relies
  on (a double is at most 24 characters, an ``xsd:int`` at most 11,
  an MIO — ``[int,int,double]`` — at most 46).
"""

from repro.lexical.cache import (
    DOUBLE_FIXED_WIDTH,
    format_double_fixed_blob,
    small_int_bytes,
)
from repro.lexical.integers import (
    INT_MAX_WIDTH,
    LONG_MAX_WIDTH,
    format_int,
    format_int_array,
    parse_int,
)
from repro.lexical.floats import (
    DOUBLE_MAX_WIDTH,
    FloatFormat,
    format_double,
    format_double_array,
    parse_double,
)
from repro.lexical.booleans import format_bool, parse_bool
from repro.lexical.strings import format_string, parse_string
from repro.lexical.widths import WidthSpec, width_spec_for

__all__ = [
    "INT_MAX_WIDTH",
    "LONG_MAX_WIDTH",
    "DOUBLE_MAX_WIDTH",
    "DOUBLE_FIXED_WIDTH",
    "small_int_bytes",
    "format_double_fixed_blob",
    "FloatFormat",
    "format_int",
    "parse_int",
    "format_int_array",
    "format_double",
    "parse_double",
    "format_double_array",
    "format_bool",
    "parse_bool",
    "format_string",
    "parse_string",
    "WidthSpec",
    "width_spec_for",
]
