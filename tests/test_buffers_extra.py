"""Additional buffer-layer coverage: chunk order, accessors."""

from repro.buffers.chunked import ChunkedBuffer
from repro.buffers.config import ChunkPolicy
from repro.errors import BufferError_


def small_buffer():
    return ChunkedBuffer(ChunkPolicy(chunk_size=64, reserve=8, split_threshold=16))


class TestChunkIdAt:
    def test_split_inserts_after_current(self):
        """A split's new chunk takes the next place in message order,
        right after the chunk it split off from."""
        buf = small_buffer()
        buf.append(b"A" * 56)
        buf.append(b"Z" * 56)
        before = buf.chunk_ids
        (result,) = buf.rebuild([(0, 20, b"a" * 136, [20])])
        assert result.mode == "split"
        after = buf.chunk_ids
        assert after == [before[0], result.pieces[0][0], before[1]]


class TestBytesMovedAccounting:
    def test_inplace_counts_tail(self):
        buf = small_buffer()
        buf.append(b"0123456789")
        buf.rebuild([(0, 4, b"456789", [])])
        assert buf.bytes_moved == 6  # the tail written from 4 on

    def test_split_counts_tail(self):
        buf = small_buffer()
        buf.append(b"A" * 56)
        before = buf.bytes_moved
        buf.rebuild([(0, 20, b"a" * 136, [20])])
        assert buf.bytes_moved - before == 136  # the tail, moved to its piece


class TestViewsSemantics:
    def test_empty_chunks_skipped(self):
        buf = small_buffer()
        buf.append(b"abc")
        chunk = buf.chunk(0)
        chunk.replace_tail(0, b"")  # now empty
        assert buf.views() == []

    def test_views_are_live(self):
        buf = small_buffer()
        loc = buf.append(b"abc")
        views = buf.views()
        buf.chunk(loc.cid).data[0:1] = b"X"
        assert bytes(views[0]) == b"Xbc"

    def test_repr_smoke(self):
        assert "ChunkedBuffer" in repr(small_buffer())
