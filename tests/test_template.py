"""Unit tests for MessageTemplate bindings and absorption."""

import numpy as np
import pytest

from repro.core.serializer import build_template
from repro.core.template import absorb_param
from repro.dut.tracked import TrackedArray
from repro.errors import DUTError, StructureMismatchError, TemplateError
from repro.schema.composite import ArrayType
from repro.schema.mio import MIO, make_mio_array_type
from repro.schema.types import DOUBLE, INT, STRING
from repro.soap.message import Parameter, SOAPMessage


def msg(*params, op="op"):
    return SOAPMessage(op, "urn:test", list(params))


class TestLookups:
    def _template(self):
        return build_template(
            msg(
                Parameter("a", ArrayType(DOUBLE), [1.0, 2.0]),
                Parameter("m", make_mio_array_type(), {"x": [1], "y": [2], "v": [3.0]}),
                Parameter("n", INT, 5),
            )
        )

    def test_param_by_name(self):
        t = self._template()
        assert t.param("a").leaf_count == 2
        assert t.param("m").arity == 3
        with pytest.raises(TemplateError):
            t.param("zzz")

    def test_param_for_entry(self):
        t = self._template()
        assert t.param_for_entry(0).name == "a"
        assert t.param_for_entry(1).name == "a"
        assert t.param_for_entry(2).name == "m"
        assert t.param_for_entry(4).name == "m"
        assert t.param_for_entry(5).name == "n"
        with pytest.raises(DUTError):
            t.param_for_entry(6)

    def test_close_tags_per_leaf(self):
        t = self._template()
        assert t.close_tag_bytes(0) == b"</item>"
        assert t.close_tag_bytes(2) == b"</x>"
        assert t.close_tag_bytes(3) == b"</y>"
        assert t.close_tag_bytes(4) == b"</v>"
        assert t.close_tag_bytes(5) == b"</n>"

    def test_tracked_accessor(self):
        t = self._template()
        assert isinstance(t.tracked("a"), TrackedArray)


class TestAbsorb:
    def test_absorb_marks_changed_only(self):
        m = msg(Parameter("a", ArrayType(DOUBLE), np.array([1.0, 2.0, 3.0])))
        t = build_template(m)
        t.absorb(msg(Parameter("a", ArrayType(DOUBLE), np.array([1.0, 9.0, 3.0]))))
        assert t.dut.dirty.tolist() == [False, True, False]

    def test_absorb_struct_records(self):
        m = msg(Parameter("m", make_mio_array_type(), [MIO(1, 2, 3.0)]))
        t = build_template(m)
        t.absorb(msg(Parameter("m", make_mio_array_type(), [MIO(1, 5, 3.0)])))
        assert t.dut.dirty.tolist() == [False, True, False]

    def test_absorb_struct_columns(self):
        m = msg(
            Parameter("m", make_mio_array_type(), {"x": [1], "y": [2], "v": [3.0]})
        )
        t = build_template(m)
        t.absorb(
            msg(Parameter("m", make_mio_array_type(), {"x": [1], "y": [2], "v": [4.5]}))
        )
        assert t.dut.dirty.tolist() == [False, False, True]

    def test_absorb_strings(self):
        m = msg(Parameter("s", ArrayType(STRING), ["a", "b"]))
        t = build_template(m)
        t.absorb(msg(Parameter("s", ArrayType(STRING), ["a", "c"])))
        assert t.dut.dirty.tolist() == [False, True]

    def test_absorb_scalar(self):
        m = msg(Parameter("n", INT, 5))
        t = build_template(m)
        t.absorb(msg(Parameter("n", INT, 5)))
        assert not t.dut.any_dirty
        t.absorb(msg(Parameter("n", INT, 6)))
        assert t.dut.any_dirty

    def test_absorb_signature_mismatch(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.0])))
        with pytest.raises(StructureMismatchError):
            t.absorb(msg(Parameter("a", ArrayType(DOUBLE), [1.0, 2.0])))

    def test_absorb_same_tracked_noop(self):
        m = msg(Parameter("a", ArrayType(DOUBLE), [1.0]))
        t = build_template(m)
        absorb_param(t.tracked("a"), Parameter("a", ArrayType(DOUBLE), t.tracked("a")))
        assert not t.dut.any_dirty

    def test_string_length_change_mismatch(self):
        m = msg(Parameter("s", ArrayType(STRING), ["a"]))
        t = build_template(m)
        with pytest.raises(StructureMismatchError):
            absorb_param(
                t.tracked("s"), Parameter("s", ArrayType(STRING), ["a", "b"])
            )


class TestValidate:
    def test_validate_detects_corruption(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.0, 2.0])))
        e = t.dut.entry(0)
        # Stomp the close tag.
        at = e.value_off + e.ser_len
        t.buffer.chunk(e.chunk_id).data[at : at + 7] = b"XXXXXXX"
        with pytest.raises(TemplateError, match="close tag"):
            t.validate()

    def test_validate_detects_bad_pad(self):
        from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode

        t = build_template(
            msg(Parameter("a", ArrayType(DOUBLE), [1.0])),
            DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)),
        )
        e = t.dut.entry(0)
        at = e.value_off + e.ser_len + e.close_len + 2
        t.buffer.chunk(e.chunk_id).data[at : at + 1] = b"!"
        with pytest.raises(TemplateError, match="pad"):
            t.validate()

    def test_total_bytes(self):
        t = build_template(msg(Parameter("a", ArrayType(DOUBLE), [1.0])))
        assert t.total_bytes == len(t.tobytes())
