"""Callaghan's original Read-Read design (§3, critiqued in §4.1).

All bulk data moves by RDMA Read.  For NFS READ and long replies the
*server* registers its buffers with remote-read rights and returns their
steering tags as read chunks in the RPC reply; the client issues the
RDMA Reads, then sends ``RDMA_DONE`` so the server can deregister and
release.  Faithfully modeled liabilities:

* **Exposed server stags** — every bulk reply leaves windows in the
  server TPT that any guessed 32-bit stag could hit
  (:meth:`ReadReadServer.exposed_regions` is the audit hook).
* **Client-controlled lifetime** — buffers stay pinned until the DONE
  arrives; a malicious or crashed client pins them forever
  (:attr:`ReadReadServer.pending_done`).
* **Client data copy** — the client reads into pre-registered bounce
  buffers and memcpy's to the application (no per-op client
  registration, but burning client CPU — the 24 % line in Fig 6).
* **Read serialisation** — the client's RDMA Reads are served one at a
  time by the server HCA's per-QP read engine and capped by IRD/ORD.
* **Extra messages/interrupts** — the DONE send costs wire, server CPU
  and a server interrupt per bulk operation.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.core.base import (
    DATA_CHUNK_POSITION,
    RpcRdmaClientBase,
    RpcRdmaServerBase,
    TransportError,
    _InlinePool,
)
from repro.core.chunks import ChunkList, ReadChunk
from repro.core.header import MessageType, RpcRdmaHeader
from repro.core.strategies import RegisteredRegion
from repro.rpc.msg import RpcCall, RpcReply
from repro.rpc.transport import RpcTimeout
from repro.sim import Counter

__all__ = ["ReadReadClient", "ReadReadServer"]


class ReadReadClient(RpcRdmaClientBase):
    """Client half of the Read-Read design (bounce buffers + copies)."""

    design = "read-read"

    def __init__(self, node, qp, config, strategy, name=""):
        super().__init__(node, qp, config, strategy, name)
        self.dones_sent = Counter(f"{self.name}.dones")
        self.bounce_copies_bytes = Counter(f"{self.name}.bounce_copy_bytes")

    def _make_pools(self) -> None:
        super()._make_pools()
        # Pre-registered bounce buffers: the Read-Read client never
        # registers per-operation — it pays in copies instead.
        self.bounce_pool = _InlinePool(self.node, self.config.bounce_pool_entries,
                                       self.config.bounce_buffer_bytes,
                                       f"{self.name}.bounce")
        self.pools.append(self.bounce_pool)

    def _prepare_reply_resources(self, call: RpcCall, chunks: ChunkList, ctx: dict) -> Generator:
        # Nothing to advertise: the server will expose *its* buffers in
        # the reply — the defining (and insecure) move of this design.
        return
        yield  # pragma: no cover

    def _reply_body(self, header: RpcRdmaHeader, ctx: dict) -> Generator:
        # Long reply: the entire RPC message is a position-0 read chunk
        # in the server's memory; fetch it.
        body = header.chunks.read_chunks_at(0)
        if not body:
            raise TransportError(f"{self.name}: NOMSG reply without chunks")
        return (yield from self._fetch_via_bounce(body))

    def _handle_reply(self, header: RpcRdmaHeader, ctx: dict) -> Generator:
        long_reply = header.mtype is MessageType.RDMA_NOMSG
        try:
            reply = yield from super()._handle_reply(header, ctx)
        except RpcTimeout:
            if long_reply:
                # Still release the server's exposed buffers.
                yield from self._send_done(header.xid)
            raise
        # READ data chunks: server-exposed; client issues the RDMA Reads.
        data = header.chunks.read_chunks_at(DATA_CHUNK_POSITION)
        if data:
            reply.read_payload = yield from self._fetch_via_bounce(data)
        if long_reply or data:
            # Tell the server it may free its exposed buffers.
            yield from self._send_done(header.xid)
        return reply

    def _fetch_via_bounce(self, chunks: list[ReadChunk]) -> Generator:
        """RDMA-Read server chunks into a bounce buffer, copy out."""
        length = sum(c.length for c in chunks)
        if length > self.config.bounce_buffer_bytes:
            raise TransportError(
                f"{self.name}: {length} bytes exceed bounce buffer size"
            )
        pool = self.bounce_pool
        bounce: RegisteredRegion = yield pool.free.get()
        try:
            yield from self.fetch_chunks([c.segment for c in chunks], bounce, length)
            yield from self._crypt(length)
            # The copy the Read-Write design eliminates (Fig 6's CPU gap):
            # bounce buffer -> application memory.
            yield from self.node.cpu.copy(length)
            self.bounce_copies_bytes.add(length)
            return bounce.peek(length)
        finally:
            pool.free.put(bounce)

    def _send_done(self, xid: int) -> Generator:
        done = RpcRdmaHeader(
            xid=xid,
            credits=self.config.credits,
            mtype=MessageType.RDMA_DONE,
        )
        yield from self.send_header(done)
        self.dones_sent.add()


class ReadReadServer(RpcRdmaServerBase):
    """Server half of the Read-Read design (exposes buffers, awaits DONE)."""

    design = "read-read"

    def __init__(self, node, qp, config, strategy, name="", credit_policy=None,
                 srq=None, policy=None):
        super().__init__(node, qp, config, strategy, name,
                         credit_policy=credit_policy, srq=srq, policy=policy)
        # DONE messages consume receives beyond the credit grant; post
        # double the receives so bulk-heavy workloads never go RNR.
        # (In shared-pool mode the wiring layer sizes the pool instead.)
        if self.recv_pool is not None:
            self.recv_pool.count = config.credits * 2
        #: xid -> regions awaiting the client's RDMA_DONE.
        self.pending_done: dict[int, list[RegisteredRegion]] = {}
        self.dones_received = Counter(f"{self.name}.dones")
        self.exposed_bytes_peak = 0
        self.lease_reclaims = Counter(f"{self.name}.lease_reclaims")
        self.quota_evictions = Counter(f"{self.name}.quota_evictions")

    def _respond(self, ctx: dict, reply: RpcReply) -> Generator:
        exposed = ctx["exposed"] = []
        header = yield from self._frame(ctx, reply.xid, reply.encode(),
                                        reply.read_payload, ChunkList())
        if exposed:
            # Lifetime now rests with the client: nothing is released
            # until (unless!) its RDMA_DONE arrives.  Merge, don't
            # overwrite — a DRC replay re-exposes under the same xid and
            # the single DONE must release both generations.
            self.pending_done.setdefault(reply.xid, []).extend(exposed)
            self.exposed_bytes_peak = max(
                self.exposed_bytes_peak,
                sum(r.length for rs in self.pending_done.values() for r in rs),
            )
            san = self.sim.sanitizer
            if san is not None:
                san.advertise(self.node.hca.tpt.name, reply.xid,
                              header.chunks)
            if self.config.exposure_quota_bytes is not None:
                yield from self._enforce_quota(reply.xid)
            if self.config.lease_timeout_us is not None:
                self.sim.process(self._lease_timer(reply.xid),
                                 name=f"{self.name}.lease")
        yield from self.send_header(header)

    def _place_payload(self, ctx: dict, payload, chunks: ChunkList) -> Generator:
        # Expose a server buffer for the client to RDMA Read — the
        # security hole §4.1 identifies.
        chunks.read_chunks += yield from self._expose(payload, DATA_CHUNK_POSITION,
                                                      ctx["exposed"])

    def _place_body(self, ctx: dict, message, chunks: ChunkList) -> Generator:
        # RPC long reply, Read-Read style: expose the message itself.
        chunks.read_chunks[:0] = yield from self._expose(message, 0, ctx["exposed"])

    # -- exposure lifecycle --------------------------------------------------
    def _retire(self, xid: int,
                charge: Optional[Callable[[int], None]] = None) -> Generator:
        """Process: withdraw and release the windows exposed under
        ``xid`` — the one exit for DONE, lease expiry, quota eviction
        and disconnect.  ``charge`` books a reclaim the client forced
        before anything is released.  Returns the bytes freed (0 when
        nothing was pending)."""
        regions = self.pending_done.pop(xid, None)
        if regions is None:
            return 0
        nbytes = sum(r.length for r in regions)
        if charge is not None:
            charge(nbytes)
        san = self.sim.sanitizer
        if san is not None:
            san.retire(self.node.hca.tpt.name, xid)
        for region in regions:
            yield from self.strategy.release(region)
        return nbytes

    def _enforce_quota(self, current_xid: int) -> Generator:
        """Admission control: this connection's exposed bytes must fit
        ``exposure_quota_bytes``.  While over, the *oldest* pending
        exposure (never the one just admitted) is reclaimed — the
        misbehaving client loses its own stalest window, well-behaved
        clients are untouched because their DONEs keep them under quota.
        """
        quota = self.config.exposure_quota_bytes
        while len(self.pending_done) > 1:
            total = sum(r.length for rs in self.pending_done.values()
                        for r in rs)
            if total <= quota:
                return
            oldest = next(x for x in self.pending_done if x != current_xid)
            yield from self._retire(oldest, self._charge_quota_eviction)

    def _charge_quota_eviction(self, nbytes: int) -> None:
        self.quota_evictions.add(nbytes)
        if self.policy is not None:
            self.policy.record_quota_eviction(self.client_id, nbytes)

    def _lease_timer(self, xid: int) -> Generator:
        """Deadline-based reclamation: if the DONE has not arrived when
        the lease expires, deregister the windows (a sanitizer-visible
        epoch bump) and score the client.  A DONE (or a quota or
        disconnect reclaim) that beat the deadline leaves nothing."""
        yield self.sim.timeout(self.config.lease_timeout_us)
        yield from self._retire(xid, self._charge_lease_reclaim)

    def _charge_lease_reclaim(self, nbytes: int) -> None:
        self.lease_reclaims.add(nbytes)
        if self.policy is not None:
            self.policy.record_lease_reclaim(self.client_id, nbytes)

    def _handle_done(self, header: RpcRdmaHeader) -> Generator:
        yield from self.node.cpu.consume(self.config.done_handler_cpu_us)
        self.dones_received.add()
        # A duplicate or stray DONE frees nothing, as a robust server must.
        yield from self._retire(header.xid)

    def _reclaim_on_disconnect(self) -> Generator:
        """Release every window awaiting a DONE that will never come,
        newest first."""
        while self.pending_done:
            yield from self._retire(next(reversed(self.pending_done)))

    # -- audit hooks ---------------------------------------------------------
    def exposed_regions(self) -> list[RegisteredRegion]:
        """Server windows currently readable by the client (attack surface)."""
        return [r for regions in self.pending_done.values() for r in regions]

    @property
    def pending_done_count(self) -> int:
        return len(self.pending_done)
