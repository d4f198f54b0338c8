"""The NFSv3 server: RPC program handler over a FileSystem backend.

One instance serves any number of transports (each transport instance
``attach``es the same :class:`repro.rpc.RpcServer`, whose thread pool is
the paper's Fig 1 "server task queue").  The dispatcher decodes args
with the procedure table shared with the client, handlers descend into
the backend file system (which charges its own CPU/disk costs) and the
dispatcher encodes what they return; READ data is returned through the reply's bulk
side-channel so the transport decides how it moves (inline, server
RDMA Write, or exposed read chunks).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Generator

from repro.fs.api import FileSystem, FsError
from repro.nfs.fh import FileHandle
from repro.nfs.protocol import (
    FS_STATUS_MAP,
    NFS3_PROCS,
    NFS3_PROG,
    NFS3_VERS,
    STATUS_REPLY,
    FsInfo,
    Nfs3Proc,
    Nfs3Status,
    PathConf,
)
from repro.rpc.msg import RpcCall, RpcReply
from repro.rpc.svc import RpcServer
from repro.rpc.xdr import XdrError
from repro.sim import Counter

__all__ = ["NfsServer"]


class NfsServer:
    """Dispatches NFSv3 procedures to a backend file system.

    The dispatcher decodes each call's arguments with the procedure's
    codec from :data:`NFS3_PROCS`, runs ``_do_<proc>(call, args)`` and
    encodes whatever it returns as the OK result.  READ returns
    ``(resok, data)``: the data rides the reply's bulk channel.
    """

    def __init__(self, rpc_server: RpcServer, fs: FileSystem, fsid: int = 1,
                 max_transfer_bytes: int = 1 << 20, name: str = "nfsd"):
        self.rpc = rpc_server
        self.fs = fs
        self.fsid = fsid
        self.max_transfer_bytes = max_transfer_bytes
        self.name = name
        self.ops = Counter(f"{name}.ops")
        self.errors = Counter(f"{name}.errors")
        rpc_server.register_program(NFS3_PROG, NFS3_VERS, self.handle)

    # -- helpers -----------------------------------------------------------
    def root_handle(self) -> FileHandle:
        return FileHandle(fsid=self.fsid, fileid=self.fs.root_id)

    def _fileid(self, fh: FileHandle) -> int:
        if fh.fsid != self.fsid:
            raise FsError("STALE", f"foreign fsid {fh.fsid}")
        return fh.fileid


    def _error_reply(self, call: RpcCall, status: Nfs3Status) -> RpcReply:
        self.errors.add()
        return RpcReply(xid=call.xid, header=STATUS_REPLY.encode((status, None)))

    # -- dispatcher -----------------------------------------------------------
    def handle(self, call: RpcCall) -> Generator:
        """RPC program handler (runs on an RpcServer worker thread)."""
        self.ops.add()
        try:
            proc = Nfs3Proc(call.proc)
        except ValueError:
            return self._error_reply(call, Nfs3Status.SERVERFAULT)
        method = getattr(self, f"_do_{proc.name.lower()}", None)
        if method is None:
            return self._error_reply(call, Nfs3Status.SERVERFAULT)
        telemetry = self.rpc.sim.telemetry
        if telemetry is None:
            return (yield from self._run_proc(call, proc, method))
        telemetry.record_server_op(proc.name)
        tracer = telemetry.tracer
        if tracer is None:
            return (yield from self._run_proc(call, proc, method))
        span = tracer.begin(f"nfsd.{proc.name}", "server", "server", "nfsd",
                            parent=tracer.task_span(), xid=call.xid)
        prev = tracer.push_task(span)
        try:
            return (yield from self._run_proc(call, proc, method))
        finally:
            tracer.pop_task(prev)
            span.end()

    def _run_proc(self, call: RpcCall, proc: Nfs3Proc, method) -> Generator:
        codec = NFS3_PROCS[proc]
        payload = None
        try:
            res = yield from method(call, codec.args.decode(call.header))
            if proc is Nfs3Proc.READ:
                res, payload = res
            header = codec.res.encode((Nfs3Status.OK, res))
        except FsError as exc:
            return self._error_reply(
                call, FS_STATUS_MAP.get(exc.status, Nfs3Status.IO)
            )
        except XdrError:
            return self._error_reply(call, Nfs3Status.INVAL)
        return RpcReply(xid=call.xid, header=header, read_payload=payload)

    # -- procedures -----------------------------------------------------------
    def _do_null(self, call: RpcCall, args) -> Generator:
        if False:  # NULL does nothing, costs nothing
            yield

    def _do_getattr(self, call: RpcCall, fh: FileHandle) -> Generator:
        return (yield from self.fs.getattr(self._fileid(fh)))

    def _do_setattr(self, call: RpcCall, args) -> Generator:
        fh, size, mode = args
        return (yield from self.fs.setattr(self._fileid(fh), size=size, mode=mode))

    def _do_lookup(self, call: RpcCall, args) -> Generator:
        dir_fh, name = args
        fileid = yield from self.fs.lookup(self._fileid(dir_fh), name)
        attrs = yield from self.fs.getattr(fileid)
        return FileHandle(fsid=self.fsid, fileid=fileid), attrs

    def _do_access(self, call: RpcCall, args) -> Generator:
        fh, wanted = args
        yield from self.fs.getattr(self._fileid(fh))  # existence check
        return wanted  # everything allowed in this model

    def _do_readlink(self, call: RpcCall, fh: FileHandle) -> Generator:
        return (yield from self.fs.readlink(self._fileid(fh)))

    def _do_read(self, call: RpcCall, args) -> Generator:
        fh, offset, count = args
        fileid = self._fileid(fh)
        data, eof = yield from self.fs.read(fileid, offset, count)
        attrs = yield from self.fs.getattr(fileid)
        # Data returns via the transport's bulk side-channel.
        return (attrs, len(data), eof), data

    def _do_write(self, call: RpcCall, args) -> Generator:
        fh, offset, count, stable = args
        fileid = self._fileid(fh)
        data = call.write_payload or b""
        if len(data) != count:
            raise FsError("INVAL", f"count {count} != payload {len(data)}")
        written = yield from self.fs.write(fileid, offset, data)
        if stable:
            yield from self.fs.commit(fileid)
        attrs = yield from self.fs.getattr(fileid)
        return attrs, written, stable

    def _do_create(self, call: RpcCall, args) -> Generator:
        dir_fh, name, mode = args
        fileid = yield from self.fs.create(self._fileid(dir_fh), name, mode)
        attrs = yield from self.fs.getattr(fileid)
        return FileHandle(fsid=self.fsid, fileid=fileid), attrs

    def _do_mkdir(self, call: RpcCall, args) -> Generator:
        dir_fh, name, mode = args
        fileid = yield from self.fs.mkdir(self._fileid(dir_fh), name, mode)
        attrs = yield from self.fs.getattr(fileid)
        return FileHandle(fsid=self.fsid, fileid=fileid), attrs

    def _do_symlink(self, call: RpcCall, args) -> Generator:
        dir_fh, name, target = args
        fileid = yield from self.fs.symlink(self._fileid(dir_fh), name, target)
        attrs = yield from self.fs.getattr(fileid)
        return FileHandle(fsid=self.fsid, fileid=fileid), attrs

    def _do_mknod(self, call: RpcCall, args) -> Generator:
        dir_fh, name, mode = args
        fileid = yield from self.fs.mknod(self._fileid(dir_fh), name, mode)
        attrs = yield from self.fs.getattr(fileid)
        return FileHandle(fsid=self.fsid, fileid=fileid), attrs

    def _do_link(self, call: RpcCall, args) -> Generator:
        target_fh, dir_fh, name = args
        target = self._fileid(target_fh)
        yield from self.fs.link(self._fileid(dir_fh), name, target)
        return (yield from self.fs.getattr(target))

    def _do_remove(self, call: RpcCall, args) -> Generator:
        dir_fh, name = args
        yield from self.fs.remove(self._fileid(dir_fh), name)

    def _do_rmdir(self, call: RpcCall, args) -> Generator:
        dir_fh, name = args
        yield from self.fs.rmdir(self._fileid(dir_fh), name)

    def _do_rename(self, call: RpcCall, args) -> Generator:
        from_fh, from_name, to_fh, to_name = args
        from_dir = self._fileid(from_fh)
        yield from self.fs.rename(from_dir, from_name, self._fileid(to_fh), to_name)

    def _do_readdir(self, call: RpcCall, args) -> Generator:
        dir_fh, _cookie, _count = args  # single-shot model
        entries = yield from self.fs.readdir(self._fileid(dir_fh))
        # Large listings make this a long reply on RDMA transports.
        return entries, True

    def _do_readdirplus(self, call: RpcCall, args) -> Generator:
        dir_fh, _cookie, _dircount, _maxcount = args
        entries = yield from self.fs.readdir(self._fileid(dir_fh))
        listing = []
        for entry in entries:
            attrs = yield from self.fs.getattr(entry.fileid)
            # Snapshot: later getattrs yield, and the backend's live
            # attributes may change before the listing is encoded.
            listing.append((entry.fileid, entry.name,
                            FileHandle(fsid=self.fsid, fileid=entry.fileid),
                            replace(attrs)))
        # Fattrs per entry make this the biggest reply NFS produces —
        # guaranteed long-reply territory on the RDMA transports.
        return listing, True

    def _do_fsinfo(self, call: RpcCall, fh: FileHandle) -> Generator:
        self._fileid(fh)
        yield from self.fs.getattr(self.fs.root_id)
        return FsInfo(
            rtmax=self.max_transfer_bytes,
            rtpref=self.max_transfer_bytes,
            wtmax=self.max_transfer_bytes,
            wtpref=self.max_transfer_bytes,
        )

    def _do_pathconf(self, call: RpcCall, fh: FileHandle) -> Generator:
        self._fileid(fh)
        yield from self.fs.getattr(self.fs.root_id)
        return PathConf()

    def _do_fsstat(self, call: RpcCall, fh: FileHandle) -> Generator:
        self._fileid(fh)
        return (yield from self.fs.fsstat())

    def _do_commit(self, call: RpcCall, args) -> Generator:
        fh, _offset, _count = args
        yield from self.fs.commit(self._fileid(fh))
