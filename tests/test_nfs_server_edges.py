"""NFS server edge cases: stale handles, bad procs, malformed args."""

import pytest

from repro.experiments import Cluster, ClusterConfig
from repro.nfs import FileHandle, NfsError
from repro.nfs.fh import FH
from repro.nfs.protocol import NFS3_PROCS, STATUS_REPLY, Nfs3Proc, Nfs3Status
from repro.rpc.msg import RpcCall


def make():
    c = Cluster(ClusterConfig(transport="rdma-rw"))
    return c, c.mounts[0].nfs


def test_foreign_fsid_is_stale():
    c, nfs = make()
    alien = FileHandle(fsid=999, fileid=1)

    def proc():
        try:
            yield from nfs.getattr(alien)
        except NfsError as exc:
            return exc.status
        return None

    assert c.run(proc()) is Nfs3Status.STALE


def test_unknown_procedure_serverfault():
    c, nfs = make()

    def proc():
        call = RpcCall(prog=100003, vers=3, proc=99, header=FH.encode(nfs.root))
        reply = yield from nfs.transport.call(call)
        return reply

    reply = c.run(proc())
    assert STATUS_REPLY.decode(reply.header) == (Nfs3Status.SERVERFAULT, None)


def test_malformed_args_inval():
    c, nfs = make()

    def proc():
        call = RpcCall(prog=100003, vers=3, proc=int(Nfs3Proc.GETATTR),
                       header=b"\x00\x00")  # truncated file handle
        reply = yield from nfs.transport.call(call)
        return reply

    reply = c.run(proc())
    assert STATUS_REPLY.decode(reply.header) == (Nfs3Status.INVAL, None)


def test_write_count_payload_mismatch_rejected():
    c, nfs = make()

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "f")
        # The count claims 500 bytes.
        args = NFS3_PROCS[Nfs3Proc.WRITE].args.encode((fh, 0, 500, 0))
        call = RpcCall(prog=100003, vers=3, proc=int(Nfs3Proc.WRITE),
                       header=args, write_payload=b"only-14-bytes!")
        reply = yield from nfs.transport.call(call)
        return reply

    reply = c.run(proc())
    assert STATUS_REPLY.decode(reply.header) == (Nfs3Status.INVAL, None)


def test_read_of_empty_file_is_eof():
    c, nfs = make()

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "empty")
        data, eof, attrs = yield from nfs.read(fh, 0, 4096)
        return data, eof, attrs.size

    data, eof, size = c.run(proc())
    assert data == b"" and eof and size == 0


def test_read_past_eof_returns_short():
    c, nfs = make()

    def proc():
        fh, _ = yield from nfs.create(nfs.root, "short")
        yield from nfs.write(fh, 0, b"0123456789")
        data, eof, _ = yield from nfs.read(fh, 8, 4096)
        return data, eof

    data, eof = c.run(proc())
    assert data == b"89" and eof


def test_readdir_empty_directory():
    c, nfs = make()

    def proc():
        d, _ = yield from nfs.mkdir(nfs.root, "void")
        return (yield from nfs.readdir(d))

    assert c.run(proc()) == []


def test_error_counter_increments():
    c, nfs = make()

    def proc():
        for _ in range(3):
            try:
                yield from nfs.lookup(nfs.root, "ghost")
            except NfsError:
                pass

    c.run(proc())
    assert c.nfs_server.errors.events == 3
