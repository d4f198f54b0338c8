"""Chunk lists: the RPC/RDMA encoding of bulk-data placement (§3.1).

A *segment* names a registered buffer window by steering tag, address
and length (:class:`repro.ib.verbs.Segment`).  Chunks aggregate
segments:

* **Read chunks** — data the peer may RDMA-Read from the sender.  Each
  carries an XDR ``position`` locating it in the RPC message stream
  (position 0 = the long-call header itself).
* **Write chunks** — client-advertised windows the server RDMA-Writes
  NFS READ data into (Read-Write design only).
* **Reply chunk** — one write chunk reserved for an entire long reply
  (READDIR/READLINK).

Wire format follows RFC 5666's shape: three optional lists, each a
counted sequence; segments are (handle u32, length u32, offset u64).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ib.verbs import Segment
from repro.rpc.xdr import U32, U64, array, optional, record

__all__ = ["CHUNK_LIST", "ChunkList", "ReadChunk", "WriteChunk"]


@dataclass(frozen=True)
class ReadChunk:
    """One remotely-readable segment plus its XDR stream position."""

    position: int
    segment: Segment

    @property
    def length(self) -> int:
        return self.segment.length


@dataclass(frozen=True)
class WriteChunk:
    """A counted array of remotely-writable segments (one target window)."""

    segments: tuple[Segment, ...]

    def __init__(self, segments):
        object.__setattr__(self, "segments", tuple(segments))
        if not self.segments:
            raise ValueError("write chunk needs at least one segment")

    @property
    def capacity(self) -> int:
        return sum(s.length for s in self.segments)


@dataclass
class ChunkList:
    """The three chunk lists carried by one RPC/RDMA header."""

    read_chunks: list[ReadChunk] = field(default_factory=list)
    write_chunks: list[WriteChunk] = field(default_factory=list)
    reply_chunk: Optional[WriteChunk] = None

    @property
    def empty(self) -> bool:
        return not (self.read_chunks or self.write_chunks or self.reply_chunk)

    def read_chunks_at(self, position: int) -> list[ReadChunk]:
        return [c for c in self.read_chunks if c.position == position]

    def read_length(self) -> int:
        return sum(c.length for c in self.read_chunks)


#: (handle u32, length u32, offset u64) — RFC 5666's segment.
SEGMENT = record(Segment, ("stag", U32), ("length", U32), ("addr", U64))

#: Segment counts per chunk are capped; so are write chunks per list.
_SEGMENTS = array(SEGMENT, max_items=4096)
_WRITE_CHUNK = record(WriteChunk, ("segments", _SEGMENTS))

CHUNK_LIST = record(
    ChunkList,
    ("read_chunks", array(record(ReadChunk, ("position", U32), ("segment", SEGMENT)),
                          max_items=4096)),
    ("write_chunks", array(_WRITE_CHUNK, max_items=256)),
    ("reply_chunk", optional(_WRITE_CHUNK)),
)
