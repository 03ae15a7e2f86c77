"""Chunked message buffers.

The paper stores serialized messages in variable-sized, potentially
noncontiguous chunks so that on-the-fly expansion (*shifting*) moves at
most one chunk's tail instead of the whole message, and so transports
can stream/scatter-gather the pieces.

:class:`~repro.buffers.chunk.Chunk` is one contiguous ``bytearray``
region; :class:`~repro.buffers.chunked.ChunkedBuffer` is the ordered
collection with append/rebuild/split/realloc operations;
:class:`~repro.buffers.config.ChunkPolicy` carries the configurable
parameters the paper lists (default chunk size, split threshold,
reserved tail space).
"""

from repro.buffers.chunk import Chunk
from repro.buffers.chunked import ChunkedBuffer, Location
from repro.buffers.config import ChunkPolicy
from repro.buffers.iovec import coalesce_views, gather_bytes, total_size

__all__ = [
    "Chunk",
    "ChunkedBuffer",
    "ChunkPolicy",
    "Location",
    "gather_bytes",
    "coalesce_views",
    "total_size",
]
