"""The RPC/RDMA header of Fig 2.

Transaction XID, RPC/RDMA version, credit (flow-control) field, message
type, then the three chunk lists, then — for ``RDMA_MSG`` — the RPC
message proper.  ``RDMA_NOMSG`` means the RPC message body travels as
read chunks (the long call / long reply); ``RDMA_DONE`` is the
Read-Read design's completion signal that lets the server release its
exposed buffers.

Version 2 is the QP-multiplexing extension (DESIGN.md §15): when many
mounts share one connection, each call carries its virtual *lane* id
(the mount's identity on the shared QP), a per-lane sequence number for
FIFO auditing, and — on replies — a per-lane credit grant carved out of
the connection's window.  Version 2 words are written only when
``lane`` is set, so non-muxed traffic stays byte-for-byte version 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from repro.core.chunks import CHUNK_LIST, ChunkList
from repro.rpc.xdr import OPAQUE, U32, enum, key, record, union

__all__ = ["HEADER", "MessageType", "RpcRdmaHeader", "RPC_RDMA_VERSION",
           "RPC_RDMA_VERSION_MUX"]

RPC_RDMA_VERSION = 1
#: version advertised by connections carrying multiplexed lanes.
RPC_RDMA_VERSION_MUX = 2


class MessageType(IntEnum):
    RDMA_MSG = 0    # RPC call/reply follows inline
    RDMA_NOMSG = 1  # RPC body entirely in chunks
    RDMA_MSGP = 2   # padded variant (alignment optimisation)
    RDMA_DONE = 3   # client signals chunk consumption (Read-Read only)


@dataclass
class RpcRdmaHeader:
    """One transport header, always sent inline via RDMA Send."""

    xid: int
    credits: int
    mtype: MessageType
    chunks: ChunkList = field(default_factory=ChunkList)
    rpc_message: bytes = b""
    #: virtual lane (mount id) on a shared QP; ``None`` on dedicated
    #: connections, which keeps the wire encoding at version 1.
    lane: Optional[int] = None
    #: per-lane send sequence number (FIFO audit, version 2 only).
    lane_seq: int = 0
    #: per-lane credit grant on replies (version 2 only); 0 on calls.
    lane_credits: int = 0
    #: the encoded header, built once: the inline-threshold check and
    #: every (re)send of this header share the same bytes.
    _wire: Optional[bytes] = field(default=None, init=False, repr=False,
                                   compare=False)

    @property
    def version(self) -> int:
        return RPC_RDMA_VERSION if self.lane is None else RPC_RDMA_VERSION_MUX

    def encode(self) -> bytes:
        if self._wire is None:
            self._wire = HEADER.encode(self)
        return self._wire

    @classmethod
    def decode(cls, data: bytes) -> "RpcRdmaHeader":
        return HEADER.decode(data)

    @property
    def wire_size(self) -> int:
        return len(self.encode())


_INLINE_BODY = [("rpc_message", OPAQUE)]

#: Fig 2's header.  The version word steers the lane group (version 2
#: only) and the message type steers the inline RPC message (RDMA_MSG
#: and RDMA_MSGP only).
HEADER = record(
    RpcRdmaHeader,
    ("xid", U32),
    key("version", enum((RPC_RDMA_VERSION, RPC_RDMA_VERSION_MUX))),
    ("credits", U32),
    ("mtype", enum(MessageType)),
    union("version", {
        RPC_RDMA_VERSION: [],
        RPC_RDMA_VERSION_MUX: [("lane", U32), ("lane_seq", U32),
                               ("lane_credits", U32)],
    }),
    ("chunks", CHUNK_LIST),
    union("mtype", {MessageType.RDMA_MSG: _INLINE_BODY,
                    MessageType.RDMA_MSGP: _INLINE_BODY}, default=[]),
)
