"""The NFSv3 client: procedure wrappers over any RPC transport.

Every method is a simulation process returning decoded results (raising
:class:`NfsError` on non-OK status).  The client supplies the transport
hints the Read-Write design consumes: ``read_len_hint`` (READ count →
write chunk size), ``reply_len_hint`` (READDIR/READLINK → reply chunk),
and the optional direct-I/O buffers for zero-copy transfers.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.nfs.fh import FileHandle
from repro.nfs.protocol import NFS3_PROCS, NFS3_PROG, NFS3_VERS, Nfs3Proc, Nfs3Status, NfsError
from repro.payload import join_parts
from repro.rpc.msg import RpcCall
from repro.rpc.transport import RpcClientTransport
from repro.rpc.xdr import XdrError
from repro.sim import Counter

__all__ = ["NfsClient"]

#: Generous ceiling for READDIR reply headers (drives the reply chunk).
_READDIR_REPLY_HINT = 64 * 1024


class NfsClient:
    """Procedure-level NFSv3 client."""

    def __init__(self, transport: RpcClientTransport, root: FileHandle,
                 name: str = "nfs-client"):
        self.transport = transport
        self.root = root
        self.name = name
        self.ops = Counter(f"{name}.ops")
        self._sim = getattr(transport, "sim", None)
        node = getattr(transport, "node", None)
        endpoint = getattr(transport, "endpoint", None)
        self._pid = (node.name if node is not None
                     else endpoint.name.split(".")[0] if endpoint is not None
                     else "client")

    # -- plumbing -----------------------------------------------------------
    def _call(self, proc: Nfs3Proc, args, span_args=None, **kwargs) -> Generator:
        """One procedure: ``(resok, reply)``, or NfsError on a non-OK status."""
        codec = NFS3_PROCS[proc]
        call = RpcCall(prog=NFS3_PROG, vers=NFS3_VERS, proc=int(proc),
                       header=codec.args.encode(args), **kwargs)
        telemetry = self._sim.telemetry if self._sim is not None else None
        if telemetry is None:
            reply = yield from self.transport.call(call)
        else:
            reply = yield from self._call_traced(call, proc.name, telemetry,
                                                 span_args)
        self.ops.add()
        if proc is Nfs3Proc.NULL:
            return None, reply  # the NULL reply carries no status
        try:
            status, res = codec.res.decode(reply.header)
        except XdrError:
            # An undecodable result reaches the caller as an I/O error,
            # as a real client reports it.
            raise NfsError(Nfs3Status.IO, proc) from None
        if status is not Nfs3Status.OK:
            raise NfsError(status, proc)
        return res, reply

    def _call_traced(self, call: RpcCall, verb: str, telemetry,
                     span_args=None) -> Generator:
        """Traced transport call: a client op span + per-verb latency.

        ``span_args`` (READ/WRITE offset and count) ride on the span so
        a recorded trace preserves the op-mix *and* size/offset
        distributions for :mod:`repro.workloads.replay`.
        """
        tracer = telemetry.tracer
        span = prev = None
        if tracer is not None:
            span = tracer.begin(f"nfs.{verb}", "client", self._pid, "nfs",
                                parent=tracer.task_span(), xid=call.xid,
                                **(span_args or {}))
            prev = tracer.push_task(span)
        start = self._sim.now
        try:
            reply = yield from self.transport.call(call)
        finally:
            telemetry.record_op(self.name, verb, self._sim.now - start)
            if tracer is not None:
                tracer.pop_task(prev)
                span.end()
        return reply

    # -- procedures -----------------------------------------------------------
    def null(self) -> Generator:
        yield from self._call(Nfs3Proc.NULL, None)

    def getattr(self, fh: FileHandle) -> Generator:
        attrs, _ = yield from self._call(Nfs3Proc.GETATTR, fh)
        return attrs

    def setattr(self, fh: FileHandle, size: Optional[int] = None,
                mode: Optional[int] = None) -> Generator:
        attrs, _ = yield from self._call(Nfs3Proc.SETATTR, (fh, size, mode))
        return attrs

    def lookup(self, dir_fh: FileHandle, name: str) -> Generator:
        """LOOKUP: returns (fh, attrs)."""
        res, _ = yield from self._call(Nfs3Proc.LOOKUP, (dir_fh, name))
        return res

    def access(self, fh: FileHandle, wanted: int = 0x3F) -> Generator:
        granted, _ = yield from self._call(Nfs3Proc.ACCESS, (fh, wanted))
        return granted

    def readlink(self, fh: FileHandle) -> Generator:
        target, _ = yield from self._call(Nfs3Proc.READLINK, fh,
                                          reply_len_hint=4096)
        return target

    def read(self, fh: FileHandle, offset: int, count: int,
             read_buffer=None) -> Generator:
        """READ: returns (data, eof, attrs).

        ``read_buffer`` is the direct-I/O destination: on the Read-Write
        transport the server RDMA-Writes straight into it (zero copy).
        """
        (attrs, returned, eof), reply = yield from self._call(
            Nfs3Proc.READ, (fh, offset, count),
            span_args={"offset": offset, "count": count},
            read_len_hint=count, read_buffer=read_buffer,
        )
        data = (reply.read_payload or b"")[:returned]
        if len(data) != returned:
            raise NfsError(Nfs3Status.IO, Nfs3Proc.READ)
        return data, eof, attrs

    def write(self, fh: FileHandle, offset: int, data: bytes,
              stable: bool = False, write_buffer=None) -> Generator:
        """WRITE: returns (count, attrs).

        ``write_buffer`` is the registered source for zero-copy sends on
        RDMA transports (must already hold ``data``).
        """
        (attrs, written, _), _ = yield from self._call(
            Nfs3Proc.WRITE, (fh, offset, len(data), 1 if stable else 0),
            span_args={"offset": offset, "count": len(data)},
            write_payload=data, write_buffer=write_buffer,
        )
        return written, attrs

    def create(self, dir_fh: FileHandle, name: str, mode: int = 0o644) -> Generator:
        res, _ = yield from self._call(Nfs3Proc.CREATE, (dir_fh, name, mode))
        return res

    def mkdir(self, dir_fh: FileHandle, name: str, mode: int = 0o755) -> Generator:
        res, _ = yield from self._call(Nfs3Proc.MKDIR, (dir_fh, name, mode))
        return res

    def symlink(self, dir_fh: FileHandle, name: str, target: str) -> Generator:
        res, _ = yield from self._call(Nfs3Proc.SYMLINK, (dir_fh, name, target))
        return res

    def mknod(self, dir_fh: FileHandle, name: str, mode: int = 0o644) -> Generator:
        res, _ = yield from self._call(Nfs3Proc.MKNOD, (dir_fh, name, mode))
        return res

    def link(self, target: FileHandle, dir_fh: FileHandle, name: str) -> Generator:
        attrs, _ = yield from self._call(Nfs3Proc.LINK, (target, dir_fh, name))
        return attrs

    def remove(self, dir_fh: FileHandle, name: str) -> Generator:
        yield from self._call(Nfs3Proc.REMOVE, (dir_fh, name))

    def rmdir(self, dir_fh: FileHandle, name: str) -> Generator:
        yield from self._call(Nfs3Proc.RMDIR, (dir_fh, name))

    def rename(self, from_dir: FileHandle, from_name: str,
               to_dir: FileHandle, to_name: str) -> Generator:
        yield from self._call(Nfs3Proc.RENAME, (from_dir, from_name, to_dir, to_name))

    def readdir(self, dir_fh: FileHandle, count: int = _READDIR_REPLY_HINT) -> Generator:
        (entries, _eof), _ = yield from self._call(
            Nfs3Proc.READDIR, (dir_fh, 0, count), reply_len_hint=count
        )
        return entries

    def readdirplus(self, dir_fh: FileHandle,
                    count: int = 4 * _READDIR_REPLY_HINT) -> Generator:
        """READDIRPLUS: entries with attributes and handles.

        Per-entry fattrs make this reply several times larger than
        READDIR's — the heaviest long-reply producer in the protocol.
        """
        (entries, _eof), _ = yield from self._call(
            Nfs3Proc.READDIRPLUS, (dir_fh, 0, count, count), reply_len_hint=count
        )
        return [(name, fh, attrs) for _fileid, name, fh, attrs in entries]

    def fsinfo(self, fh: Optional[FileHandle] = None) -> Generator:
        info, _ = yield from self._call(Nfs3Proc.FSINFO, fh or self.root)
        return info

    def pathconf(self, fh: Optional[FileHandle] = None) -> Generator:
        conf, _ = yield from self._call(Nfs3Proc.PATHCONF, fh or self.root)
        return conf

    def fsstat(self, fh: Optional[FileHandle] = None) -> Generator:
        stat, _ = yield from self._call(Nfs3Proc.FSSTAT, fh or self.root)
        return stat

    def commit(self, fh: FileHandle, offset: int = 0, count: int = 0) -> Generator:
        yield from self._call(Nfs3Proc.COMMIT, (fh, offset, count))

    # -- conveniences -----------------------------------------------------------
    def read_large(self, fh: FileHandle, offset: int, count: int,
                   limit: int = 1 << 20, read_buffer=None) -> Generator:
        """READ of arbitrary size, split at the server's rtmax.

        Real clients size each wire READ by FSINFO's ``rtmax``; pass the
        negotiated limit (``(yield from fsinfo()).rtmax``).
        Returns (data, eof).
        """
        if limit < 1:
            raise ValueError("transfer limit must be positive")
        parts = []
        pos = offset
        remaining = count
        eof = False
        while remaining > 0 and not eof:
            take = min(limit, remaining)
            data, eof, _ = yield from self.read(fh, pos, take,
                                                read_buffer=read_buffer)
            parts.append(data)
            pos += len(data)
            remaining -= len(data)
            if not data:
                break
        return join_parts(parts), eof

    def write_large(self, fh: FileHandle, offset: int, data: bytes,
                    limit: int = 1 << 20, stable: bool = False,
                    write_buffer=None) -> Generator:
        """WRITE of arbitrary size, split at the server's wtmax."""
        if limit < 1:
            raise ValueError("transfer limit must be positive")
        pos = 0
        while pos < len(data):
            chunk = data[pos : pos + limit]
            written, _ = yield from self.write(fh, offset + pos, chunk,
                                               stable=stable,
                                               write_buffer=write_buffer)
            pos += written
        if stable:
            yield from self.commit(fh)
        return len(data)

    def walk(self, path: str) -> Generator:
        """Resolve an absolute slash path to (fh, attrs)."""
        fh = self.root
        attrs = None
        for part in [p for p in path.split("/") if p]:
            fh, attrs = yield from self.lookup(fh, part)
        if attrs is None:
            attrs = yield from self.getattr(fh)
        return fh, attrs
