"""Property tests: chunked-buffer operations never lose bytes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.chunked import ChunkedBuffer
from repro.buffers.config import ChunkPolicy
from repro.dut.table import DUTTableBuilder

payloads = st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=30)


def make_buffer(data_list, chunk_size=64, reserve=8, split_threshold=16):
    buf = ChunkedBuffer(
        ChunkPolicy(
            chunk_size=chunk_size, reserve=reserve, split_threshold=split_threshold
        )
    )
    locs = [buf.append(p) for p in data_list]
    return buf, locs


class TestAppendProperties:
    @given(payloads)
    def test_append_preserves_concatenation(self, data_list):
        buf, _ = make_buffer(data_list)
        assert buf.tobytes() == b"".join(data_list)

    @given(payloads)
    def test_appends_are_atomic(self, data_list):
        buf, locs = make_buffer(data_list)
        for payload, loc in zip(data_list, locs):
            assert buf.read_at(loc.cid, loc.offset, len(payload)) == payload

    @given(payloads)
    def test_views_cover_everything(self, data_list):
        buf, _ = make_buffer(data_list)
        assert b"".join(bytes(v) for v in buf.views()) == buf.tobytes()
        assert buf.total_length == sum(len(p) for p in data_list)


def _chunk_prefix(buf, cid):
    """Document offset of chunk *cid*'s first byte."""
    prefix = 0
    for other in buf.chunk_ids:
        if other == cid:
            return prefix
        prefix += buf.chunk(other).used
    raise AssertionError(f"no chunk {cid}")


@st.composite
def edits(draw, buf):
    """A rebuild edit per drawn chunk: a start inside the used region, a
    new tail, and ascending cuts at or after the start."""
    cids = draw(
        st.lists(st.sampled_from(buf.chunk_ids), unique=True, min_size=1, max_size=3)
    )
    out = []
    for cid in cids:
        start = draw(st.integers(0, buf.chunk(cid).used))
        # An explicit length: small binaries alone would never outgrow
        # a chunk, and the realloc and split paths would go unexercised.
        n = draw(st.integers(0, 300))
        tail = draw(st.binary(min_size=n, max_size=n))
        offsets = st.integers(start, start + len(tail))
        cuts = sorted(set(draw(st.lists(offsets, max_size=8))))
        out.append((cid, start, tail, cuts))
    return out


class TestRebuildProperties:
    """``ChunkedBuffer.rebuild``, the one structural write."""

    @given(payloads, st.data())
    @settings(max_examples=80)
    def test_rebuild_keeps_head_and_writes_tail(self, data_list, data):
        buf, _ = make_buffer(data_list)
        edit_list = data.draw(edits(buf))
        # The document each chunk should hold after its edit.
        expected = {cid: buf.chunk(cid).tobytes() for cid in buf.chunk_ids}
        for cid, start, tail, _cuts in edit_list:
            expected[cid] = expected[cid][:start] + tail
        order = buf.chunk_ids
        results = buf.rebuild(edit_list)
        assert buf.tobytes() == b"".join(expected[cid] for cid in order)
        for (cid, start, tail, _cuts), result in zip(edit_list, results):
            assert result.cid == cid
            assert buf.chunk(cid).tobytes()[:start] == expected[cid][:start]

    @given(payloads, st.data())
    @settings(max_examples=80)
    def test_split_pieces_start_at_cuts(self, data_list, data):
        buf, _ = make_buffer(data_list)
        edit_list = data.draw(edits(buf))
        results = buf.rebuild(edit_list)
        for (cid, start, tail, cuts), result in zip(edit_list, results):
            assert result.mode in ("inplace", "realloc", "split")
            assert bool(result.pieces) == (result.mode == "split")
            bases = [base for _new, base in result.pieces]
            assert set(bases) <= set(cuts) and 0 not in bases
            assert bases == sorted(bases)
            # Pieces follow their chunk in order and hold the tail's
            # bytes from their base to the next base.
            at = buf.chunk_ids.index(cid)
            assert buf.chunk_ids[at + 1 : at + 1 + len(bases)] == [
                new for new, _base in result.pieces
            ]
            ends = bases[1:] + [start + len(tail)]
            for (new, base), end in zip(result.pieces, ends):
                assert buf.chunk(new).tobytes() == tail[base - start : end - start]

    @given(payloads, st.lists(st.booleans(), min_size=1, max_size=5), st.data())
    @settings(max_examples=60)
    def test_epoch_moves_once_per_call_with_edits(self, data_list, calls, data):
        buf, _ = make_buffer(data_list)
        for with_edits in calls:
            before = buf.layout_epoch
            buf.rebuild(data.draw(edits(buf)) if with_edits else [])
            assert buf.layout_epoch == before + int(with_edits)

    @given(payloads, st.data())
    @settings(max_examples=80)
    def test_bytes_moved_is_the_documented_amount(self, data_list, data):
        buf, _ = make_buffer(data_list)
        edit_list = data.draw(edits(buf))
        capacity = {cid: buf.chunk(cid).capacity for cid, *_ in edit_list}
        before = buf.bytes_moved
        results = buf.rebuild(edit_list)
        for (cid, start, tail, _cuts), result in zip(edit_list, results):
            if result.mode == "inplace":
                assert result.moved == len(tail)
            elif result.mode == "realloc":
                # A reallocation copies the kept head too.
                assert result.moved == start + len(tail)
            else:
                head = result.pieces[0][1]
                grown = head > capacity[cid]
                assert result.moved == len(tail) + (start if grown else 0)
        assert buf.bytes_moved - before == sum(r.moved for r in results)

    @given(st.integers(1, 60), st.integers(0, 300), st.data())
    @settings(max_examples=80)
    def test_apply_split_puts_entries_with_their_bytes(self, used, n, data):
        """Entries at field starts of a rebuilt chunk end up in the
        piece holding their bytes, at the same document offset."""
        buf = ChunkedBuffer(ChunkPolicy(chunk_size=64, reserve=8, split_threshold=16))
        head = data.draw(st.binary(min_size=used, max_size=used))
        buf.append(head)
        start = data.draw(st.integers(0, used))
        tail = data.draw(st.binary(min_size=n, max_size=n))
        total = start + n
        field_starts = st.lists(st.integers(0, max(0, total - 1)), min_size=1, max_size=40)
        offsets = sorted(set(data.draw(field_starts)))
        builder = DUTTableBuilder()
        for off in offsets:
            builder.add(0, off, 0, 0, type_id=0, close_len=0)
        dut = builder.freeze()
        cuts = [off for off in offsets if off >= start]
        (result,) = buf.rebuild([(0, start, tail, cuts)])
        dut.apply_split(result)
        dut.validate()
        document = buf.tobytes()
        assert document == head[:start] + tail
        for entry, off in enumerate(offsets):
            cid = int(dut.chunk_id[entry])
            local = int(dut.value_off[entry])
            assert 0 <= local < max(1, buf.chunk(cid).used)
            assert _chunk_prefix(buf, cid) + local == off
            lo, hi = dut.chunk_range(cid)
            assert lo <= entry < hi
