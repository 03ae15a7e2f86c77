"""Unit tests for the differential rewrite (dirty-only serialization)."""

import numpy as np
import pytest

from repro.buffers.config import ChunkPolicy
from repro.core.differential import rewrite_dirty
from repro.core.policy import DiffPolicy
from repro.core.serializer import build_template
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, INT, STRING
from repro.soap.message import Parameter, SOAPMessage
from repro.xmlkit.canonical import diff_documents, documents_equivalent


def msg(*params):
    return SOAPMessage("op", "urn:test", list(params))


def oracle(template, message):
    """Assert the rewritten template equals a fresh full serialization."""
    fresh = build_template(message).tobytes()
    got = template.tobytes()
    assert documents_equivalent(got, fresh), diff_documents(got, fresh)


class TestSameWidthRewrites:
    def test_single_value(self):
        m = msg(Parameter("a", ArrayType(DOUBLE), [1.5, 2.5, 3.5]))
        t = build_template(m)
        tracked = t.tracked("a")
        tracked[1] = 9.5
        stats = rewrite_dirty(t, DiffPolicy())
        assert stats.values_rewritten == 1
        assert stats.expansions == 0
        assert stats.tag_shifts == 0  # same width: 3 chars → 3 chars
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), [1.5, 9.5, 3.5])))

    def test_dirty_cleared(self):
        m = msg(Parameter("a", ArrayType(DOUBLE), [1.0, 2.0]))
        t = build_template(m)
        t.tracked("a")[0] = 3.0
        rewrite_dirty(t, DiffPolicy())
        assert not t.dut.any_dirty

    def test_no_dirty_is_noop(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.0])))
        before = t.tobytes()
        stats = rewrite_dirty(t, DiffPolicy())
        assert stats.values_rewritten == 0
        assert t.tobytes() == before

    def test_shrink_pads_with_whitespace(self):
        m = msg(Parameter("a", ArrayType(DOUBLE), [123.456, 2.0]))
        t = build_template(m)
        t.tracked("a")[0] = 1.0  # "123.456" (7) → "1" (1)
        stats = rewrite_dirty(t, DiffPolicy())
        assert stats.tag_shifts == 1
        assert stats.pad_bytes == 6
        body = t.tobytes()
        assert b"<item>1</item>      <item>2</item>" in body
        t.validate()
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), [1.0, 2.0])))

    def test_grow_within_slack(self):
        m = msg(Parameter("a", ArrayType(DOUBLE), [123.456, 2.0]))
        t = build_template(m)
        t.tracked("a")[0] = 1.0
        rewrite_dirty(t, DiffPolicy())
        # Now grow back into the freed slack: no shifting needed.
        t.tracked("a")[0] = 765.432
        stats = rewrite_dirty(t, DiffPolicy())
        assert stats.expansions == 0
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), [765.432, 2.0])))

    def test_struct_field_rewrite(self):
        cols = {"x": [1, 2], "y": [3, 4], "v": [0.5, 1.5]}
        m = msg(Parameter("m", make_mio_array_type(), dict(cols)))
        t = build_template(m)
        t.tracked("m").set(1, "y", 9)
        rewrite_dirty(t, DiffPolicy())
        cols["y"] = [3, 9]
        oracle(t, msg(Parameter("m", make_mio_array_type(), cols)))

    def test_scalar_rewrite(self):
        m = msg(Parameter("n", INT, 5))
        t = build_template(m)
        t.tracked("n").value = 7
        rewrite_dirty(t, DiffPolicy())
        assert b">7</n>" in t.tobytes()

    def test_string_rewrite_same_length(self):
        m = msg(Parameter("s", ArrayType(STRING), ["abc", "def"]))
        t = build_template(m)
        t.tracked("s")[0] = "xyz"
        rewrite_dirty(t, DiffPolicy())
        oracle(t, msg(Parameter("s", ArrayType(STRING), ["xyz", "def"])))

    def test_string_shrink_pads_gap_of_64_or_more(self):
        # Regression: the fast path padded shrink gaps from a 64-byte
        # preallocated blank; a shrink of >= 64 bytes indexed past it.
        for shrink in (63, 64, 65, 200):
            wide = "w" * (shrink + 3)
            m = msg(Parameter("s", ArrayType(STRING), [wide, "def"]))
            t = build_template(m)
            t.tracked("s")[0] = "abc"
            rewrite_dirty(t, DiffPolicy())
            t.validate()
            oracle(t, msg(Parameter("s", ArrayType(STRING), ["abc", "def"])))


class TestExpansion:
    def _grow_template(self, policy=None):
        m = msg(Parameter("a", ArrayType(DOUBLE), [1.0, 2.0, 3.0, 4.0]))
        t = build_template(m, policy or DiffPolicy())
        return t

    def test_shift_inplace(self):
        t = self._grow_template()
        t.tracked("a")[1] = 0.123456789
        stats = rewrite_dirty(t, DiffPolicy())
        assert stats.shifts_inplace == 1
        t.validate()
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), [1.0, 0.123456789, 3.0, 4.0])))

    def test_shift_updates_later_offsets(self):
        t = self._grow_template()
        t.tracked("a")[0] = 0.111222333444555
        rewrite_dirty(t, DiffPolicy())
        t.tracked("a")[3] = 9.0  # later entry must still land correctly
        rewrite_dirty(t, DiffPolicy())
        oracle(
            t,
            msg(Parameter("a", ArrayType(DOUBLE), [0.111222333444555, 2.0, 3.0, 9.0])),
        )

    def test_expansion_grows_field_width_permanently(self):
        t = self._grow_template()
        entry_width_before = int(t.dut.field_width[1])
        t.tracked("a")[1] = 0.123456789
        rewrite_dirty(t, DiffPolicy())
        assert int(t.dut.field_width[1]) > entry_width_before
        # Writing the old short value back shrinks into pad, no shift.
        t.tracked("a")[1] = 2.0
        stats = rewrite_dirty(t, DiffPolicy())
        assert stats.expansions == 0

    def test_split_on_tiny_chunks(self):
        policy = DiffPolicy(
            chunk=ChunkPolicy(chunk_size=96, reserve=4, split_threshold=32)
        )
        m = msg(Parameter("a", ArrayType(DOUBLE), [1.0] * 12))
        t = build_template(m, policy)
        tracked = t.tracked("a")
        new = [0.12345678901234 + i for i in range(12)]
        tracked.update(np.arange(12), new)
        stats = rewrite_dirty(t, policy)
        assert stats.expansions == 12
        assert stats.splits + stats.reallocs > 0
        t.validate()
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), new)))

    def test_worst_case_all_expand(self):
        m = msg(Parameter("a", ArrayType(DOUBLE), [1.0] * 50))
        t = build_template(m)
        big = np.array([-2.2250738585072014e-308] * 50)
        t.tracked("a").update(np.arange(50), big)
        stats = rewrite_dirty(t, DiffPolicy())
        assert stats.expansions == 50
        t.validate()
        oracle(t, msg(Parameter("a", ArrayType(DOUBLE), big)))


