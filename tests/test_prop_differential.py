"""THE central property: differential sends ≡ full serialization.

After an arbitrary sequence of tracked mutations, the bytes a bSOAP
template sends must parse to exactly the same document as a
from-scratch serialization of the current values — for every policy
combination (stuffing modes, chunk sizes, shift vs steal).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.config import ChunkPolicy
from repro.core.differential import rewrite_dirty
from repro.core.policy import DiffPolicy, StuffingPolicy, StuffMode
from repro.core.serializer import build_template
from repro.schema.composite import ArrayType
from repro.schema.mio import make_mio_array_type
from repro.schema.types import DOUBLE, INT, STRING
from repro.soap.message import Parameter, SOAPMessage
from repro.xmlkit.canonical import diff_documents, documents_equivalent

# Value pools spanning the width spectrum (1..24 chars for doubles).
DOUBLE_POOL = [
    0.0, 1.0, -1.0, 5.0, 0.5, -0.25, 123.456, 1e300, -1e-300,
    0.1234567890123456, -2.2250738585072014e-308, 3.0, 42.0, 7e-05,
]
INT_POOL = [0, 1, -1, 9, 13902, -2147483648, 2147483647, 77]
STRING_POOL = ["", "a", "hello", "x" * 30, "a<b&c", "π λ", "  spaced  "]

policies = st.sampled_from(
    [
        DiffPolicy(),
        DiffPolicy(stuffing=StuffingPolicy(StuffMode.MAX)),
        DiffPolicy(stuffing=StuffingPolicy(StuffMode.FIXED, {"double": 10, "int": 4})),
        DiffPolicy(stuffing=StuffingPolicy(StuffMode.FIXED, {"double": 8})),
        DiffPolicy(chunk=ChunkPolicy(chunk_size=128, reserve=16, split_threshold=48)),
        DiffPolicy(chunk=ChunkPolicy(chunk_size=96, reserve=4, split_threshold=32)),
    ]
)


def assert_equiv(template, message, policy):
    fresh = build_template(message, policy).tobytes()
    got = template.tobytes()
    assert documents_equivalent(got, fresh), diff_documents(got, fresh)


class TestDoubleArrays:
    @given(
        st.lists(st.sampled_from(DOUBLE_POOL), min_size=1, max_size=24),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=23),
                      st.sampled_from(DOUBLE_POOL)),
            max_size=30,
        ),
        policies,
    )
    @settings(max_examples=80, deadline=None)
    def test_mutation_sequences(self, initial, mutations, policy):
        message = SOAPMessage(
            "op", "urn:p", [Parameter("a", ArrayType(DOUBLE), list(initial))]
        )
        template = build_template(message, policy)
        tracked = template.tracked("a")
        current = list(initial)
        for idx, value in mutations:
            idx %= len(initial)
            tracked[idx] = value
            current[idx] = value
        rewrite_dirty(template, policy)
        template.validate()
        assert_equiv(
            template,
            SOAPMessage("op", "urn:p", [Parameter("a", ArrayType(DOUBLE), current)]),
            policy,
        )

    @given(
        st.lists(st.sampled_from(DOUBLE_POOL), min_size=1, max_size=16),
        st.integers(min_value=1, max_value=5),
        policies,
    )
    @settings(max_examples=40, deadline=None)
    def test_multiple_send_cycles(self, initial, cycles, policy):
        """Rewrite → rewrite → ... keeps converging to the truth."""
        rng = np.random.default_rng(0)
        message = SOAPMessage(
            "op", "urn:p", [Parameter("a", ArrayType(DOUBLE), list(initial))]
        )
        template = build_template(message, policy)
        tracked = template.tracked("a")
        current = list(initial)
        for _ in range(cycles):
            for _ in range(3):
                idx = int(rng.integers(0, len(initial)))
                value = DOUBLE_POOL[int(rng.integers(0, len(DOUBLE_POOL)))]
                tracked[idx] = value
                current[idx] = value
            rewrite_dirty(template, policy)
            assert_equiv(
                template,
                SOAPMessage(
                    "op", "urn:p", [Parameter("a", ArrayType(DOUBLE), current)]
                ),
                policy,
            )


class TestIntArrays:
    @given(
        st.lists(st.sampled_from(INT_POOL), min_size=1, max_size=20),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=19),
                      st.sampled_from(INT_POOL)),
            max_size=20,
        ),
        policies,
    )
    @settings(max_examples=50, deadline=None)
    def test_mutation_sequences(self, initial, mutations, policy):
        message = SOAPMessage(
            "op", "urn:p", [Parameter("a", ArrayType(INT), list(initial))]
        )
        template = build_template(message, policy)
        tracked = template.tracked("a")
        current = list(initial)
        for idx, value in mutations:
            idx %= len(initial)
            tracked[idx] = value
            current[idx] = value
        rewrite_dirty(template, policy)
        template.validate()
        assert_equiv(
            template,
            SOAPMessage("op", "urn:p", [Parameter("a", ArrayType(INT), current)]),
            policy,
        )


class TestMioArrays:
    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.sampled_from(["x", "y", "v"]),
                st.integers(min_value=-(2**31), max_value=2**31 - 1),
            ),
            max_size=20,
        ),
        policies,
    )
    @settings(max_examples=50, deadline=None)
    def test_field_mutations(self, n, mutations, policy):
        cols = {
            "x": list(range(n)),
            "y": list(range(n)),
            "v": [float(i) / 2 for i in range(n)],
        }
        mio = make_mio_array_type()
        message = SOAPMessage("op", "urn:p", [Parameter("m", mio, dict(cols))])
        template = build_template(message, policy)
        tracked = template.tracked("m")
        for idx, field, raw in mutations:
            idx %= n
            value = float(raw) / 7 if field == "v" else raw
            tracked.set(idx, field, value)
            cols[field][idx] = value
        rewrite_dirty(template, policy)
        template.validate()
        assert_equiv(
            template,
            SOAPMessage("op", "urn:p", [Parameter("m", mio, cols)]),
            policy,
        )


class TestStringArrays:
    @given(
        st.lists(st.sampled_from(STRING_POOL), min_size=1, max_size=10),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=9),
                      st.sampled_from(STRING_POOL)),
            max_size=15,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_mutation_sequences(self, initial, mutations):
        policy = DiffPolicy()
        message = SOAPMessage(
            "op", "urn:p", [Parameter("s", ArrayType(STRING), list(initial))]
        )
        template = build_template(message, policy)
        tracked = template.tracked("s")
        current = list(initial)
        for idx, value in mutations:
            idx %= len(initial)
            tracked[idx] = value
            current[idx] = value
        rewrite_dirty(template, policy)
        template.validate()
        assert_equiv(
            template,
            SOAPMessage("op", "urn:p", [Parameter("s", ArrayType(STRING), current)]),
            policy,
        )
