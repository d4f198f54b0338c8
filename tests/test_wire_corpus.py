"""The wire corpus: schema codecs against bytes pinned from the
hand-written codecs they replaced.

``tests/golden/wire_corpus.json`` pairs objects with the exact frames
the previous encoders produced (RPC/RDMA headers, RPC call and reply,
fattr, and every NFSv3, MOUNT and portmapper procedure's arguments and
results).  Each entry must encode to the same bytes and decode back to
the same object — or to ``decoded`` where the wire drops precision.
"""

import json
from pathlib import Path

import pytest

from repro.core.chunks import ChunkList, ReadChunk, WriteChunk
from repro.core.header import MessageType, RpcRdmaHeader
from repro.fs.api import DirEntry, FileKind, FsAttributes, FsStat
from repro.ib.verbs import Segment
from repro.nfs.fh import FileHandle
from repro.nfs.mountd import GETPORT, MOUNT_PROCS
from repro.nfs.protocol import (
    FATTR, NFS3_PROCS, FsInfo, Nfs3Proc, Nfs3Status, PathConf,
)
from repro.rpc.msg import CALL_MSG, REPLY_MSG, RpcCall, RpcReply

CORPUS = Path(__file__).parent / "golden" / "wire_corpus.json"
ENTRIES = json.loads(CORPUS.read_text())["entries"]

_TYPES = {cls.__name__: cls for cls in (
    ChunkList, DirEntry, FileHandle, FsAttributes, FsInfo, FsStat, PathConf,
    ReadChunk, RpcCall, RpcRdmaHeader, RpcReply, Segment, WriteChunk)}
_ENUMS = {cls.__name__: cls for cls in (FileKind, MessageType, Nfs3Proc, Nfs3Status)}

_MOUNT = {"MNT": 1, "DUMP": 2, "UMNT": 3, "EXPORT": 5}


def from_json(obj):
    if isinstance(obj, list):
        return [from_json(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    if "$bytes" in obj:
        return bytes.fromhex(obj["$bytes"])
    if "$tuple" in obj:
        return tuple(from_json(v) for v in obj["$tuple"])
    if "$enum" in obj:
        cls, name = obj["$enum"].split(".")
        return _ENUMS[cls][name]
    fields = {k: from_json(v) for k, v in obj["fields"].items()}
    return _TYPES[obj["$type"]](**fields)


def codec_for(name):
    family, _, rest = name.partition(".")
    if name == "rpcrdma.header":
        from repro.core.header import HEADER
        return HEADER
    if name == "rpc.call":
        return CALL_MSG
    if name == "rpc.reply":
        return REPLY_MSG
    if name == "nfs.fattr":
        return FATTR
    proc, _, side = rest.partition(".")
    if family == "nfs":
        return getattr(NFS3_PROCS[Nfs3Proc[proc]], side)
    if family == "mount":
        return getattr(MOUNT_PROCS[_MOUNT[proc]], side)
    assert family == "pmap" and proc == "GETPORT"
    return getattr(GETPORT, side)


def _id(entry):
    return entry["codec"]


def test_corpus_covers_every_layout():
    names = {e["codec"] for e in ENTRIES}
    for proc in Nfs3Proc:
        assert f"nfs.{proc.name}.args" in names and f"nfs.{proc.name}.res" in names
    for proc in ("MNT", "UMNT", "EXPORT", "DUMP"):
        assert f"mount.{proc}.args" in names and f"mount.{proc}.res" in names
    headers = [from_json(e["value"]) for e in ENTRIES if e["codec"] == "rpcrdma.header"]
    assert {(h.lane is not None, h.mtype) for h in headers} == {
        (lane, m) for lane in (False, True) for m in MessageType}


@pytest.mark.parametrize("entry", ENTRIES, ids=_id)
def test_encode_is_bit_identical(entry):
    codec = codec_for(entry["codec"])
    assert codec.encode(from_json(entry["value"])).hex() == entry["hex"]


@pytest.mark.parametrize("entry", ENTRIES, ids=_id)
def test_decode_returns_the_object(entry):
    codec = codec_for(entry["codec"])
    expected = from_json(entry.get("decoded", entry["value"]))
    assert codec.decode(bytes.fromhex(entry["hex"])) == expected


def test_header_methods_use_the_schema():
    for entry in ENTRIES:
        if entry["codec"] == "rpcrdma.header":
            header = from_json(entry["value"])
            assert header.encode().hex() == entry["hex"]
            assert header.wire_size == len(entry["hex"]) // 2
            assert RpcRdmaHeader.decode(bytes.fromhex(entry["hex"])) == header


class _Spy:
    """Wraps a codec and records which side used it."""

    def __init__(self, codec, log, tag):
        self.codec, self.log, self.tag = codec, log, tag

    def encode(self, value):
        self.log.append(f"{self.tag}.encode")
        return self.codec.encode(value)

    def decode(self, data):
        self.log.append(f"{self.tag}.decode")
        return self.codec.decode(data)


def _spy(proc, log):
    return type(proc)(_Spy(proc.args, log, "args"), _Spy(proc.res, log, "res"))


def test_client_and_server_share_procedure_codecs(monkeypatch):
    """One Procedure object serves both ends of each program."""
    import repro.nfs.mountd as mountd
    from repro.experiments import Cluster, ClusterConfig

    c = Cluster(ClusterConfig(transport="rdma-rw"))
    mountd.Portmapper(c.rpc_server).set(mountd.MOUNT_PROG, mountd.MOUNT_VERS, 1)
    mountd.MountServer(c.rpc_server, c.fs, [mountd.Export("/")])
    client = mountd.MountClient(c.mounts[0].transport, "client0")
    nfs = c.mounts[0].nfs
    log: list = []
    monkeypatch.setitem(NFS3_PROCS, Nfs3Proc.GETATTR,
                        _spy(NFS3_PROCS[Nfs3Proc.GETATTR], log))
    monkeypatch.setitem(MOUNT_PROCS, _MOUNT["MNT"], _spy(MOUNT_PROCS[_MOUNT["MNT"]], log))
    monkeypatch.setattr(mountd, "GETPORT", _spy(GETPORT, log))
    expected = ["args.encode", "args.decode", "res.encode", "res.decode"]

    c.run(nfs.getattr(nfs.root))
    assert log == expected
    log.clear()
    c.run(client.mount("/"))
    assert log == expected
    log.clear()
    c.run(client.getport(mountd.MOUNT_PROG, mountd.MOUNT_VERS))
    assert log == expected
