"""ONC RPC over TCP: the baseline transport the paper compares against.

Record framing: each RPC message on the wire is
``[u32 header_len][header][bulk payload]`` — byte-count-equivalent to
classic XDR-inline encoding (NFS WRITE data lives inside the args
opaque) while keeping the header/bulk split explicit, so the same NFS
layer runs over every transport.

All of TCP's per-byte copy and checksum CPU is charged inside
:class:`repro.tcpip.tcp.TcpConnection`; this module only adds XID
demultiplexing and the connection-per-client server loop.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.rpc.msg import RpcCall, RpcReply, frame_message, unframe_message
from repro.rpc.svc import RpcServer
from repro.rpc.transport import RpcClientTransport, RpcServerTransport, RpcTimeout
from repro.rpc.xdr import XdrError
from repro.sim import AnyOf, Counter, Event
from repro.tcpip.tcp import TcpConnection, TcpEndpoint

__all__ = ["TcpRpcClient", "TcpRpcServerTransport"]

class TcpRpcClient(RpcClientTransport):
    """Client endpoint of RPC-over-TCP with XID demultiplexing."""

    def __init__(self, endpoint: TcpEndpoint, conn: TcpConnection,
                 retrans_timeout_us: Optional[float] = None,
                 max_retries: int = 5,
                 max_retrans_timeout_us: float = 60_000_000.0,
                 name: str = "rpc-tcp"):
        if max_retrans_timeout_us <= 0:
            raise ValueError("max retransmit timeout must be positive")
        self.sim = endpoint.sim
        self.endpoint = endpoint
        self.conn = conn
        self.retrans_timeout_us = retrans_timeout_us
        self.max_retries = max_retries
        #: backoff ceiling (RPC's classic 60 s major timeout): doubling
        #: stops here instead of growing without bound.
        self.max_retrans_timeout_us = max_retrans_timeout_us
        self.name = name
        # Telemetry process label: "client0.tcp" endpoint → "client0".
        self.node_name = endpoint.name.split(".")[0]
        self._pending: dict[int, Event] = {}
        self.calls_sent = Counter(f"{name}.calls")
        self.retransmissions = Counter(f"{name}.retrans")
        #: undecodable reply records, dropped by the receive loop.
        self.malformed_received = Counter(f"{name}.malformed")
        self.sim.process(self._receiver(), name=f"{name}.rx")

    def call(self, call: RpcCall) -> Generator:
        """Send the call; optionally retransmit with exponential backoff.

        Retransmissions reuse the XID, so the server's duplicate request
        cache (if configured) suppresses re-execution and the demux here
        drops whichever reply arrives second.
        """
        telemetry = self.sim.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is None:
            return (yield from self._call_inner(call, None))
        span = tracer.begin("rpc.call", "rpc", self.node_name, "rpctcp",
                            parent=tracer.task_span(), xid=call.xid)
        call.trace_id = span.trace_id
        prev = tracer.push_task(span)
        tracer.bind_xid(call.xid, span)
        try:
            return (yield from self._call_inner(call, tracer))
        finally:
            tracer.unbind_xid(call.xid, span)
            tracer.pop_task(prev)
            span.end()

    def _call_inner(self, call: RpcCall, tracer) -> Generator:
        waiter = Event(self.sim)
        self._pending[call.xid] = waiter
        message = frame_message(call.encode(), call.write_payload)
        yield from self.conn.send(self.endpoint, message)
        self.calls_sent.add()
        if self.retrans_timeout_us is None:
            reply = yield waiter
            return reply
        timeout_us = self.retrans_timeout_us
        for attempt in range(self.max_retries + 1):
            yield AnyOf(self.sim, [waiter, self.sim.timeout(timeout_us)])
            if waiter.triggered:
                return waiter.value
            if attempt < self.max_retries:
                self.retransmissions.add()
                rspan = None
                if tracer is not None:
                    rspan = tracer.begin("rpc.retransmit", "rpc",
                                         self.node_name, "rpctcp",
                                         parent=tracer.task_span(),
                                         xid=call.xid, attempt=attempt + 1)
                yield from self.conn.send(self.endpoint, message)
                if rspan is not None:
                    rspan.end()
                # Classic RPC exponential backoff, capped at the ceiling.
                timeout_us = min(timeout_us * 2, self.max_retrans_timeout_us)
        self._pending.pop(call.xid, None)
        raise RpcTimeout(
            f"{self.name}: xid {call.xid:#x} unanswered after "
            f"{self.max_retries} retransmissions"
        )

    def _receiver(self) -> Generator:
        while True:
            message = yield self.conn.recv(self.endpoint)
            try:
                header, payload = unframe_message(message)
                reply = RpcReply.decode(header)
            except XdrError:
                # Garbage from a buggy or hostile server: drop it; the
                # call it might have answered waits like a lost reply.
                self.malformed_received.add()
                continue
            reply.read_payload = payload
            waiter = self._pending.pop(reply.xid, None)
            if waiter is None:
                # Late/duplicate reply: drop, as a real client would.
                continue
            waiter.succeed(reply)


class TcpRpcServerTransport(RpcServerTransport):
    """Server side: one instance per accepted client connection."""

    def __init__(self, endpoint: TcpEndpoint, conn: TcpConnection, name: str = "rpc-tcpd"):
        self.sim = endpoint.sim
        self.endpoint = endpoint
        self.conn = conn
        self.name = name
        self.server: Optional[RpcServer] = None
        self.calls_received = Counter(f"{name}.calls")
        #: undecodable call records, dropped by the receive loop.
        self.malformed_received = Counter(f"{name}.malformed")
        #: failure injection: silently discard this many replies.
        self.drop_next_replies = 0
        self.replies_dropped = Counter(f"{name}.dropped")

    def attach(self, server: RpcServer) -> None:
        if self.server is not None:
            raise RuntimeError("transport already attached")
        self.server = server
        self.sim.process(self._receiver(), name=f"{self.name}.rx")

    def _receiver(self) -> Generator:
        assert self.server is not None
        while True:
            message = yield self.conn.recv(self.endpoint)
            try:
                header, payload = unframe_message(message)
                call = RpcCall.decode(header)
            except XdrError:
                # Undecodable record from a hostile client: count it,
                # send nothing, keep serving the connection.
                self.malformed_received.add()
                continue
            call.write_payload = payload
            self.calls_received.add()
            # Blocking submit: a full bounded run queue stalls the
            # receive loop, so backpressure propagates through the TCP
            # window exactly as a real kernel RPC service would.
            yield from self.server.submit_process(call, self._responder(call))

    def _responder(self, call: RpcCall):
        def respond(reply: RpcReply) -> Generator:
            if self.drop_next_replies > 0:
                # Failure injection: the reply vanishes on the wire.
                self.drop_next_replies -= 1
                self.replies_dropped.add()
                telemetry = self.sim.telemetry
                if telemetry is not None and telemetry.tracer is not None:
                    telemetry.tracer.instant(
                        "fault.reply_dropped", "fault",
                        self.endpoint.name.split(".")[0], "rpctcp",
                        xid=reply.xid)
                return
            message = frame_message(reply.encode(), reply.read_payload)
            yield from self.conn.send(self.endpoint, message)

        return respond
