"""Unit tests for chunks and chunked buffers (shifting machinery)."""

import pytest

from repro.buffers.chunk import Chunk
from repro.buffers.chunked import ChunkedBuffer, Location
from repro.buffers.config import ChunkPolicy
from repro.buffers.iovec import IOV_MAX, batch_iovecs, coalesce_views, gather_bytes, total_size
from repro.errors import BufferError_, ChunkOverflowError


def small_policy(**kw):
    defaults = dict(chunk_size=64, reserve=8, split_threshold=16)
    defaults.update(kw)
    return ChunkPolicy(**defaults)


class TestChunkPolicy:
    def test_soft_limit(self):
        assert ChunkPolicy(chunk_size=100, reserve=10).soft_limit == 90

    def test_validation(self):
        with pytest.raises(BufferError_):
            ChunkPolicy(chunk_size=0)
        with pytest.raises(BufferError_):
            ChunkPolicy(chunk_size=10, reserve=10)
        with pytest.raises(BufferError_):
            ChunkPolicy(split_threshold=0)
        with pytest.raises(BufferError_):
            ChunkPolicy(growth_factor=1.0)

    def test_with_chunk_size(self):
        p = ChunkPolicy(chunk_size=1024, reserve=512).with_chunk_size(256)
        assert p.chunk_size == 256 and p.reserve < 256


class TestChunk:
    def test_append_and_read(self):
        c = Chunk(0, 32)
        off = c.append(b"hello")
        assert off == 0 and c.tobytes() == b"hello"
        assert c.append(b"!") == 5

    def test_append_overflow(self):
        c = Chunk(0, 4)
        with pytest.raises(ChunkOverflowError):
            c.append(b"12345")

    def test_view_zero_copy(self):
        c = Chunk(0, 8)
        c.append(b"abc")
        view = c.view()
        c.data[0:1] = b"X"
        assert bytes(view) == b"Xbc"  # view reflects mutation

    def test_replace_tail(self):
        c = Chunk(0, 8)
        c.append(b"abcdef")
        c.replace_tail(2, b"XY")
        assert c.tobytes() == b"abXY" and c.capacity == 8
        c.replace_tail(1, b"0123456789", capacity=16)
        assert c.tobytes() == b"a0123456789" and c.capacity == 16

    def test_write_outside_used_rejected(self):
        c = Chunk(0, 16)
        c.append(b"abc")
        with pytest.raises(BufferError_):
            c.replace_tail(4, b"ZZ")  # starts past the used boundary
        assert c.tobytes() == b"abc"

    def test_open_gap_overflow(self):
        c = Chunk(0, 8)
        c.append(b"abcdef")
        with pytest.raises(ChunkOverflowError):
            c.replace_tail(0, b"z" * 10)
        assert c.tobytes() == b"abcdef" and c.capacity == 8

    def test_grow_preserves(self):
        c = Chunk(0, 4)
        c.append(b"abcd")
        c.replace_tail(4, b"", capacity=16)  # reallocate, keep every byte
        assert c.capacity == 16 and c.tobytes() == b"abcd"
        with pytest.raises(ChunkOverflowError):
            c.replace_tail(4, b"", capacity=2)
        assert c.capacity == 16 and c.tobytes() == b"abcd"


class TestChunkedBufferAppend:
    def test_single_chunk(self):
        buf = ChunkedBuffer(small_policy())
        loc = buf.append(b"hello")
        assert loc == Location(0, 0)
        assert buf.tobytes() == b"hello"

    def test_reserve_respected(self):
        buf = ChunkedBuffer(small_policy())
        # soft limit = 56; three 20-byte appends → third goes to chunk 1
        locs = [buf.append(b"x" * 20) for _ in range(3)]
        assert [l.cid for l in locs] == [0, 0, 1]
        assert buf.chunk(0).free >= 8

    def test_oversized_payload_gets_dedicated_chunk(self):
        buf = ChunkedBuffer(small_policy())
        loc = buf.append(b"y" * 200)
        assert buf.chunk(loc.cid).capacity >= 200

    def test_total_length_and_views(self):
        buf = ChunkedBuffer(small_policy())
        buf.append(b"a" * 30)
        buf.append(b"b" * 30)
        assert buf.total_length == 60
        assert gather_bytes(buf.views()) == buf.tobytes()

    def test_read_write_fill(self):
        buf = ChunkedBuffer(small_policy())
        loc = buf.append(b"abcdef")
        buf.chunk(loc.cid).data[1:5] = b"ZZ  "
        assert buf.read_at(loc.cid, 0, 6) == b"aZZ  f"
        with pytest.raises(BufferError_):
            buf.read_at(loc.cid, 4, 10)
        with pytest.raises(BufferError_):
            buf.chunk(99)


class TestRebuild:
    def test_inplace(self):
        buf = ChunkedBuffer(small_policy())
        buf.append(b"0123456789")
        (result,) = buf.rebuild([(0, 4, b"XYZ456789", [4])])
        assert (result.mode, result.cid, result.pieces) == ("inplace", 0, ())
        assert buf.tobytes() == b"0123XYZ456789"
        assert result.moved == buf.bytes_moved == 9
        assert buf.layout_epoch == 1

    def test_realloc_when_small_chunk(self):
        buf = ChunkedBuffer(small_policy(split_threshold=1000))
        buf.append(b"x" * 60)  # nearly full, below split threshold
        (result,) = buf.rebuild([(0, 30, b"y" * 130, [30])])
        assert result.mode == "realloc"
        assert buf.total_length == 160
        assert buf.chunk(0).capacity >= 160
        assert result.moved == 160  # a realloc copies the kept head too

    def test_split_when_large_chunk(self):
        buf = ChunkedBuffer(small_policy(split_threshold=16))
        buf.append(b"A" * 56)
        tail = b"B" * 40 + b"C" * 40 + b"D" * 56
        (result,) = buf.rebuild([(0, 20, tail, [20, 60, 100])])
        assert result.mode == "split"
        # The chunk keeps [0, 20); each piece starts at a cut.
        assert buf.chunk(0).used == 20
        assert [base for _cid, base in result.pieces] == [20, 60, 100]
        new = [cid for cid, _base in result.pieces]
        assert buf.chunk_ids == [0, *new]
        assert [buf.chunk(cid).tobytes() for cid in new] == [
            b"B" * 40, b"C" * 40, b"D" * 56
        ]
        assert buf.tobytes() == b"A" * 20 + tail

    def test_split_without_cuts_reallocates(self):
        buf = ChunkedBuffer(small_policy(split_threshold=16))
        buf.append(b"B" * 56)
        (result,) = buf.rebuild([(0, 10, b"b" * 100, [])])
        assert result.mode == "realloc"

    def test_empty_call_is_noop(self):
        buf = ChunkedBuffer(small_policy())
        buf.append(b"abc")
        assert buf.rebuild([]) == []
        assert buf.layout_epoch == 0 and buf.bytes_moved == 0

    def test_cut_before_start_rejected(self):
        buf = ChunkedBuffer(small_policy())
        buf.append(b"abc")
        with pytest.raises(BufferError_):
            buf.rebuild([(0, 2, b"z", [1])])


class TestIovec:
    def test_total_and_gather(self):
        views = [b"ab", memoryview(b"cde")]
        assert total_size(views) == 5
        assert gather_bytes(views) == b"abcde"

    def test_coalesce_small_runs(self):
        big = b"X" * 10000
        views = [b"a", b"b", big, b"c"]
        out = coalesce_views(views, max_copy=100)
        assert out[0] == b"ab"
        assert out[1] is big or bytes(out[1]) == big
        assert out[2] == b"c"

    def test_coalesce_drops_empty(self):
        assert coalesce_views([b"", b"a"], max_copy=10) == [b"a"]

    def test_batching(self):
        views = [b"x"] * (IOV_MAX + 5)
        batches = batch_iovecs(views)
        assert len(batches) == 2
        assert len(batches[0]) == IOV_MAX

    def test_batching_small_passthrough(self):
        views = [b"x", b"y"]
        assert batch_iovecs(views) == [views]
