"""ONC RPC: XDR codec, call/reply messages, dispatch and transports.

NFS speaks Sun RPC; the paper's contribution is an RPC *transport*
(RPC/RDMA), so the RPC layer here is transport-agnostic: the NFS client
issues :class:`RpcCall` objects through any :class:`RpcClientTransport`
(TCP in :mod:`repro.rpc.tcp_transport`, the two RDMA designs in
:mod:`repro.core`), and the server dispatches them to registered
program handlers through the Fig 1 task-queue state machine.

Bulk data travels in explicit side-channels on the call/reply objects
(``write_payload`` / ``read_payload``) plus *hints* about expected reply
sizes — exactly the information the Read-Write design needs from the
upper layer to advertise write/reply chunks in the RPC call.
"""

from repro.rpc.xdr import XdrError
from repro.rpc.msg import (
    MSG_ACCEPTED,
    MSG_DENIED,
    RpcCall,
    RpcError,
    RpcReply,
)
from repro.rpc.svc import RpcProgramHandler, RpcServer
from repro.rpc.transport import RpcClientTransport, RpcServerTransport
from repro.rpc.tcp_transport import TcpRpcClient, TcpRpcServerTransport

__all__ = [
    "MSG_ACCEPTED",
    "MSG_DENIED",
    "RpcCall",
    "RpcClientTransport",
    "RpcError",
    "RpcProgramHandler",
    "RpcReply",
    "RpcServer",
    "RpcServerTransport",
    "TcpRpcClient",
    "TcpRpcServerTransport",
    "XdrError",
]
