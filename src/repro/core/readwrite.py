"""The proposed Read-Write design (§4): server-issued RDMA Writes.

The client advertises, *in the RPC call*, where reply bulk data should
land: a write chunk list for NFS READ data, a reply chunk for long
replies.  When the file system returns, the server RDMA-Writes the data
directly into client memory and immediately sends the RPC reply —
InfiniBand's guaranteed Write→Send completion ordering means the send's
completion proves the writes landed, so the server neither blocks nor
takes extra interrupts, and its buffers deregister as soon as the send
completes.  Consequences (§4.2):

* **Security** — the server exposes no steering tags, ever; a client
  cannot issue any RDMA operation against server memory.
* **No RDMA_DONE** — buffer lifetime is server-controlled; a malicious
  client cannot pin server resources by withholding completion signals.
* **Parallel writes** — RDMA Writes don't consume IRD/ORD slots and the
  HCA issues many concurrently; the §4.1 read-serialisation bottleneck
  disappears from the READ path.
* **Zero-copy client** — with direct I/O the client wraps the
  application buffer itself in the write chunk (registration instead of
  a copy; the copy-CPU collapse of Fig 6).

The exposure trade runs the other way: *client* buffers are exposed to
the server — acceptable because NFS deployments trust the server.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.base import (
    RpcRdmaClientBase,
    RpcRdmaServerBase,
    TransportError,
    slice_segments,
)
from repro.core.chunks import ChunkList, WriteChunk
from repro.core.header import RpcRdmaHeader
from repro.ib.memory import AccessFlags
from repro.rpc.msg import RpcCall, RpcReply
from repro.sim import Counter

__all__ = ["ReadWriteClient", "ReadWriteServer"]

#: Conservative bound on reply-header framing overhead when deciding
#: whether an expected reply still fits inline.
_REPLY_OVERHEAD = 192


class _ChunkTooSmall(Exception):
    """The reply does not fit the chunk the client advertised for it."""


class ReadWriteClient(RpcRdmaClientBase):
    """Client half of the Read-Write design."""

    design = "read-write"

    def __init__(self, node, qp, config, strategy, name=""):
        super().__init__(node, qp, config, strategy, name)
        self.zero_copy_reads = Counter(f"{self.name}.zero_copy_reads")
        self.buffered_reads = Counter(f"{self.name}.buffered_reads")

    def _prepare_reply_resources(self, call: RpcCall, chunks: ChunkList, ctx: dict) -> Generator:
        # NFS READ (and friends): advertise a write chunk sized to the
        # expected data so the server can RDMA-Write straight back.
        if call.read_len_hint > 0 and (
            call.read_len_hint + _REPLY_OVERHEAD > self.config.inline_threshold
        ):
            # Direct I/O registers the app buffer in place (zero copy).
            region = yield from self._io_region(call.read_buffer, call.read_len_hint,
                                                AccessFlags.REMOTE_WRITE)
            zero_copy = ctx["read_zero_copy"] = call.read_buffer is not None
            (self.zero_copy_reads if zero_copy else self.buffered_reads).add()
            ctx["regions"].append(region)
            ctx["read_region"] = region
            chunks.write_chunks.append(
                WriteChunk(slice_segments(region.segments, 0, call.read_len_hint))
            )
        # Long reply (READDIR/READLINK): advertise a reply chunk.
        if call.reply_len_hint + _REPLY_OVERHEAD > self.config.inline_threshold:
            region = yield from self.strategy.acquire(
                max(call.reply_len_hint, 4096), AccessFlags.REMOTE_WRITE
            )
            ctx["regions"].append(region)
            ctx["reply_region"] = region
            chunks.reply_chunk = WriteChunk(region.segments)

    def _reply_body(self, header: RpcRdmaHeader, ctx: dict) -> Generator:
        # Long reply: the entire RPC message was RDMA-written into our
        # reply chunk; its echoed length says how much.
        region = ctx.get("reply_region")
        if region is None or header.chunks.reply_chunk is None:
            raise TransportError(f"{self.name}: long reply without reply chunk")
        actual = header.chunks.reply_chunk.capacity
        yield from self._crypt(actual)
        return region.peek(actual)

    def _handle_reply(self, header: RpcRdmaHeader, ctx: dict) -> Generator:
        reply = yield from super()._handle_reply(header, ctx)
        # READ data: already in client memory courtesy of the server's
        # RDMA Writes; the echoed write chunk tells us how much arrived.
        if header.chunks.write_chunks:
            actual = sum(w.capacity for w in header.chunks.write_chunks)
            region = ctx.get("read_region")
            if region is None:
                raise TransportError(f"{self.name}: write chunk echo without window")
            yield from self._crypt(actual)
            if not ctx.get("read_zero_copy", False):
                # Buffered path: one copy from the transport buffer to
                # the application (direct I/O skips this entirely).
                yield from self.node.cpu.copy(actual)
            reply.read_payload = region.peek(actual)
        return reply


class ReadWriteServer(RpcRdmaServerBase):
    """Server half of the Read-Write design."""

    design = "read-write"

    def __init__(self, node, qp, config, strategy, name="", credit_policy=None,
                 srq=None, policy=None):
        super().__init__(node, qp, config, strategy, name,
                         credit_policy=credit_policy, srq=srq, policy=policy)
        self.rdma_writes_issued = Counter(f"{self.name}.writes")
        self.long_replies = Counter(f"{self.name}.long_replies")
        #: replies too large for the client's write or reply chunk,
        #: answered with an inline error reply instead.
        self.replies_too_large = Counter(f"{self.name}.replies_too_large")

    def _respond(self, ctx: dict, reply: RpcReply) -> Generator:
        try:
            header = yield from self._frame(ctx, reply.xid, reply.encode(),
                                            reply.read_payload, ChunkList())
        except _ChunkTooSmall:
            # READDIR is single-shot, so a listing can outgrow the reply
            # chunk: answer with the dispatcher's error reply (the client
            # raises an I/O error) and keep the connection.
            self.replies_too_large.add()
            error = RpcReply(xid=reply.xid, stat=1, header=b"")
            header = yield from self._frame(ctx, reply.xid, error.encode(), None,
                                            ChunkList())
        send_wr = yield from self.send_header(header)
        # The send's completion guarantees all prior RDMA Writes landed
        # (§4.2); only then may the bulk buffers be released — which the
        # base class does right after this returns.
        yield send_wr.completion
        if not send_wr.cqe.ok:
            raise TransportError(f"{self.name}: reply send failed: {send_wr.cqe.error}")

    def _payload_inline(self, ctx: dict, rpc_bytes: bytes, payload) -> bool:
        # An advertised write chunk takes the data even when it would fit.
        return (not ctx["header"].chunks.write_chunks
                and super()._payload_inline(ctx, rpc_bytes, payload))

    def _place_payload(self, ctx: dict, payload, chunks: ChunkList) -> Generator:
        # RDMA-Write the data into the client's advertised write chunk.
        advertised = ctx["header"].chunks.write_chunks
        echo = yield from self._write_back(ctx, payload,
                                           advertised[0] if advertised else None)
        self.rdma_writes_issued.add()
        chunks.write_chunks.append(echo)

    def _place_body(self, ctx: dict, message, chunks: ChunkList) -> Generator:
        # RPC long reply: write the whole message into the client's
        # reply chunk; the header goes out as a bodyless NOMSG.
        chunks.reply_chunk = yield from self._write_back(
            ctx, message, ctx["header"].chunks.reply_chunk)
        self.long_replies.add()

    def _write_back(self, ctx: dict, data, target: Optional[WriteChunk]) -> Generator:
        """Process: RDMA-Write ``data`` into the client chunk ``target``;
        returns the chunk trimmed to the bytes written, for the echo."""
        if target is None or len(data) > target.capacity:
            raise _ChunkTooSmall(f"{self.name}: {len(data)} bytes overflow the client's chunk")
        region = yield from self.strategy.acquire(len(data), AccessFlags.LOCAL_WRITE)
        ctx["regions"].append(region)
        yield from self._crypt(len(data))
        region.fill(data)
        yield from self.push_chunks(region, list(target.segments), len(data))
        return WriteChunk(slice_segments(list(target.segments), 0, len(data)))
