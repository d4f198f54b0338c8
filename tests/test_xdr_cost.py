"""Deterministic cost of the compiled XDR codecs, in Python-level calls.

Each case encodes one message and decodes it again under
``sys.setprofile``, counting Python frames entered (C calls are not
counted).  Wall time would be flaky in CI; the frame count is exact and
is what a codec pays per element when it dispatches field by field, so
a budget well below that level catches a return to per-element frames.
"""

import sys

import pytest

from repro.core.chunks import ChunkList, WriteChunk
from repro.core.header import HEADER, MessageType, RpcRdmaHeader
from repro.fs.api import FileKind, FsAttributes
from repro.ib.verbs import Segment
from repro.nfs.fh import FileHandle
from repro.nfs.protocol import NFS3_PROCS, Nfs3Proc, Nfs3Status
from repro.rpc.msg import CALL_MSG, REPLY_MSG, RpcCall, RpcReply

FH = FileHandle(fsid=1, fileid=77, generation=3)
ATTRS = FsAttributes(fileid=77, kind=FileKind.REGULAR, size=1 << 20,
                     atime=1.5, mtime=2.25, ctime=3.125)


def _header(chunks):
    return RpcRdmaHeader(xid=0x1234, credits=32, mtype=MessageType.RDMA_MSG,
                         chunks=chunks, rpc_message=b"r" * 120)


#: case -> (codec, message, budget in calls for one ``encode`` plus one
#: ``decode_from``).  Each budget is at most half of what the op-list
#: interpreter the generated codecs replaced took for the same message
#: (23, 35, 13, 14, 13, 27, 26 and 22 calls, in this order).
CASES = {
    "header-empty": (HEADER, _header(ChunkList()), 11),
    "header-write-chunk": (HEADER, _header(ChunkList(write_chunks=[
        WriteChunk([Segment(0x55, 0x1000_0000, 1 << 20)])])), 17),
    "rpc-call": (CALL_MSG, RpcCall(100003, 3, 7, b"h" * 40, xid=9), 6),
    "rpc-reply": (REPLY_MSG, RpcReply(9, header=b"h" * 40), 7),
    "nfs-write-args": (NFS3_PROCS[Nfs3Proc.WRITE].args, (FH, 1 << 20, 65536, 0), 6),
    "nfs-read-ok": (NFS3_PROCS[Nfs3Proc.READ].res,
                    (Nfs3Status.OK, (ATTRS, 65536, False)), 13),
    "nfs-write-ok": (NFS3_PROCS[Nfs3Proc.WRITE].res,
                     (Nfs3Status.OK, (ATTRS, 65536, 0)), 13),
    "nfs-getattr-ok": (NFS3_PROCS[Nfs3Proc.GETATTR].res, (Nfs3Status.OK, ATTRS), 11),
}


def python_calls(fn) -> int:
    """Python frames entered while ``fn`` runs (``fn`` itself excluded)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count - 1


def roundtrip_calls(codec, value) -> int:
    raw = codec.encode(value)
    assert codec.decode_from(raw) == (value, len(raw))
    return (python_calls(lambda: codec.encode(value))
            + python_calls(lambda: codec.decode_from(raw)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_codec_call_budget(case):
    codec, value, budget = CASES[case]
    assert roundtrip_calls(codec, value) <= budget
