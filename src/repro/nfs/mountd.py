"""The MOUNT v3 protocol and a portmapper: how a client gets its root.

NFS itself never hands out the first file handle — a separate MOUNT RPC
program does (after the portmapper says where to find it), with an
export table deciding who may mount what.  Including them makes the
simulated deployment bootstrap the way a real one does, and gives the
security story its first gate: an export list rejection happens before
a single NFS operation.

Programs:

* ``portmapper`` (prog 100000): GETPORT — program number → port.
* ``mountd`` (prog 100005): MNT (path → file handle), UMNT, EXPORT
  (list exports), DUMP (list active mounts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.fs.api import FileSystem, FsError
from repro.nfs.fh import FH, FileHandle
from repro.rpc.msg import MSG_DENIED, RpcCall, RpcReply
from repro.rpc.svc import RpcServer
from repro.rpc.transport import RpcClientTransport
from repro.rpc.xdr import STRING, U32, VOID, Procedure, XdrError, array, result, seq
from repro.sim import Counter

__all__ = [
    "Export",
    "GETPORT",
    "MOUNT_PROCS",
    "MountClient",
    "MountServer",
    "Portmapper",
    "MOUNT_PROG",
    "PMAP_PROG",
]

PMAP_PROG = 100000
PMAP_VERS = 2
PMAP_GETPORT = 3

MOUNT_PROG = 100005
MOUNT_VERS = 3
MNT = 1
DUMP = 2
UMNT = 3
EXPORT = 5

MNT3_OK = 0
MNT3ERR_NOENT = 2
MNT3ERR_ACCES = 13
MNT3ERR_NOTDIR = 20

#: GETPORT: (prog, vers) -> port (0 = not registered).
GETPORT = Procedure(seq(U32, U32), U32)

_CLIENT_PATH = seq(STRING, STRING)   # (client name, export path)

MOUNT_PROCS: dict[int, Procedure] = {
    # -> (status, root handle when status is MNT3_OK)
    MNT: Procedure(_CLIENT_PATH, result(U32, MNT3_OK, FH)),
    UMNT: Procedure(_CLIENT_PATH, U32),
    # -> export paths
    EXPORT: Procedure(VOID, array(STRING)),
    # -> active (client name, export path) mounts
    DUMP: Procedure(VOID, array(_CLIENT_PATH)),
}


@dataclass(frozen=True)
class Export:
    """One exported subtree with a client allow-list."""

    path: str
    allowed_clients: frozenset[str] = frozenset()   # empty = everyone
    read_only: bool = False

    def admits(self, client_name: str) -> bool:
        return not self.allowed_clients or client_name in self.allowed_clients


class Portmapper:
    """prog 100000: program-number → port directory."""

    def __init__(self, rpc_server: RpcServer):
        self._registry: dict[tuple[int, int], int] = {}
        self.lookups = Counter("pmap.lookups")
        rpc_server.register_program(PMAP_PROG, PMAP_VERS, self.handle)

    def set(self, prog: int, vers: int, port: int) -> None:
        self._registry[(prog, vers)] = port

    def handle(self, call: RpcCall) -> Generator:
        if False:
            yield
        port = 0
        if call.proc == PMAP_GETPORT:
            try:
                prog, vers = GETPORT.args.decode(call.header)
            except XdrError:
                return RpcReply(xid=call.xid, stat=MSG_DENIED, header=b"")
            self.lookups.add()
            port = self._registry.get((prog, vers), 0)
        return RpcReply(xid=call.xid, header=GETPORT.res.encode(port))


class MountServer:
    """prog 100005: export-gated distribution of root file handles."""

    def __init__(self, rpc_server: RpcServer, fs: FileSystem,
                 exports: list[Export], fsid: int = 1, name: str = "mountd"):
        self.fs = fs
        self.exports = {e.path: e for e in exports}
        self.fsid = fsid
        self.name = name
        self.mounts: dict[tuple[str, str], FileHandle] = {}
        self.grants = Counter(f"{name}.grants")
        self.rejections = Counter(f"{name}.rejections")
        rpc_server.register_program(MOUNT_PROG, MOUNT_VERS, self.handle)

    def handle(self, call: RpcCall) -> Generator:
        proc = MOUNT_PROCS.get(call.proc)
        if proc is not None:
            try:
                args = proc.args.decode(call.header)
                if call.proc == MNT:
                    res = yield from self._mnt(*args)
                elif call.proc == UMNT:
                    self.mounts.pop(args, None)
                    res = 0
                elif call.proc == EXPORT:
                    res = sorted(self.exports)
                else:
                    res = sorted(self.mounts)
                return RpcReply(xid=call.xid, header=proc.res.encode(res))
            except XdrError:
                pass
        return RpcReply(xid=call.xid, stat=MSG_DENIED, header=b"")

    def _mnt(self, client: str, path: str) -> Generator:
        export = self.exports.get(path)
        if export is None:
            self.rejections.add()
            return MNT3ERR_NOENT, None
        if not export.admits(client):
            self.rejections.add()
            return MNT3ERR_ACCES, None
        # Resolve the export path inside the backend file system.
        fileid = self.fs.root_id
        for part in [p for p in path.split("/") if p]:
            try:
                fileid = yield from self.fs.lookup(fileid, part)
            except FsError:
                self.rejections.add()
                return MNT3ERR_NOENT, None
        fh = FileHandle(fsid=self.fsid, fileid=fileid)
        self.mounts[(client, path)] = fh
        self.grants.add()
        return MNT3_OK, fh


class MountError(Exception):
    """MNT denied (unknown export or client not admitted)."""

    def __init__(self, status: int):
        super().__init__(f"mount denied: status {status}")
        self.status = status


class MountClient:
    """Client-side bootstrap: portmapper lookup, then MNT."""

    def __init__(self, transport: RpcClientTransport, client_name: str):
        self.transport = transport
        self.client_name = client_name

    def _call(self, prog: int, vers: int, proc: int, codec: Procedure,
              args) -> Generator:
        call = RpcCall(prog=prog, vers=vers, proc=proc,
                       header=codec.args.encode(args))
        reply = yield from self.transport.call(call)
        return reply

    def getport(self, prog: int, vers: int) -> Generator:
        reply = yield from self._call(PMAP_PROG, PMAP_VERS, PMAP_GETPORT,
                                      GETPORT, (prog, vers))
        return GETPORT.res.decode(reply.header)

    def mount(self, path: str) -> Generator:
        """→ the export's root FileHandle, or raises MountError."""
        proc = MOUNT_PROCS[MNT]
        reply = yield from self._call(MOUNT_PROG, MOUNT_VERS, MNT, proc,
                                      (self.client_name, path))
        status, fh = proc.res.decode(reply.header)
        if status != MNT3_OK:
            raise MountError(status)
        return fh

    def unmount(self, path: str) -> Generator:
        yield from self._call(MOUNT_PROG, MOUNT_VERS, UMNT, MOUNT_PROCS[UMNT],
                              (self.client_name, path))

    def list_exports(self) -> Generator:
        proc = MOUNT_PROCS[EXPORT]
        reply = yield from self._call(MOUNT_PROG, MOUNT_VERS, EXPORT, proc, None)
        return proc.res.decode(reply.header)
