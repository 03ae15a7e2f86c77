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
        before = buf.chunk_ids
        result = buf.insert_gap(0, 30, 100, 20)
        assert result.mode == "split"
        after = buf.chunk_ids
        assert after[0] == before[0]
        assert after[1] == result.new_cid


class TestBytesMovedAccounting:
    def test_inplace_counts_tail(self):
        buf = small_buffer()
        buf.append(b"0123456789")
        buf.insert_gap(0, 4, 2, 2)
        assert buf.bytes_moved == 6  # bytes [4:10) moved

    def test_steal_move_counts(self):
        buf = small_buffer()
        buf.append(b"0123456789")
        buf.steal_move(0, 2, 3, 4)
        assert buf.bytes_moved == 4

    def test_split_counts_tail(self):
        buf = small_buffer()
        buf.append(b"A" * 56)
        before = buf.bytes_moved
        buf.insert_gap(0, 30, 100, 20)
        assert buf.bytes_moved - before == 36  # take_tail(20) moved 36 bytes


class TestViewsSemantics:
    def test_empty_chunks_skipped(self):
        buf = small_buffer()
        buf.append(b"abc")
        chunk = buf.chunk(0)
        chunk.take_tail(0)  # now empty
        assert buf.views() == []

    def test_views_are_live(self):
        buf = small_buffer()
        loc = buf.append(b"abc")
        views = buf.views()
        buf.write_at(loc.cid, 0, b"X")
        assert bytes(views[0]) == b"Xbc"

    def test_repr_smoke(self):
        assert "ChunkedBuffer" in repr(small_buffer())
