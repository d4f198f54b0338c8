"""NFSv3 procedure numbers, status codes and wire schemas (RFC 1813 subset).

:data:`NFS3_PROCS` holds one :class:`~repro.rpc.xdr.Procedure` per
procedure: the argument codec the client encodes and the server
decodes, and the reply codec the server encodes and the client
decodes — one declaration for both ends.

Bulk data (READ results, WRITE args) travels out-of-band on the
transport (`read_payload` / `write_payload`); the XDR ``count`` fields
remain authoritative and are checked against the payload length on
decode.  This mirrors RPC/RDMA chunked encoding, where data never sits
inside the XDR stream either.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from repro.errors import NfsStatusError
from repro.fs.api import DirEntry, FileKind, FsAttributes, FsStat
from repro.nfs.fh import FH
from repro.rpc.xdr import (
    BOOL, STRING, U32, U64, VOID, Procedure, array, enum, fixed,
    ignore, optional, record, result, seq,
)

__all__ = [
    "FATTR",
    "FsInfo",
    "NFS3_PROCS",
    "NFS3_PROG",
    "NFS3_VERS",
    "PathConf",
    "Nfs3Proc",
    "Nfs3Status",
    "NfsError",
    "STATUS_REPLY",
]

NFS3_PROG = 100003
NFS3_VERS = 3


class Nfs3Proc(IntEnum):
    NULL = 0
    GETATTR = 1
    SETATTR = 2
    LOOKUP = 3
    ACCESS = 4
    READLINK = 5
    READ = 6
    WRITE = 7
    CREATE = 8
    MKDIR = 9
    SYMLINK = 10
    MKNOD = 11
    REMOVE = 12
    RMDIR = 13
    RENAME = 14
    LINK = 15
    READDIR = 16
    READDIRPLUS = 17
    FSSTAT = 18
    FSINFO = 19
    PATHCONF = 20
    COMMIT = 21


class Nfs3Status(IntEnum):
    OK = 0
    PERM = 1
    NOENT = 2
    IO = 5
    ACCES = 13
    EXIST = 17
    NOTDIR = 20
    ISDIR = 21
    INVAL = 22
    NOSPC = 28
    STALE = 70
    NOTEMPTY = 66
    SERVERFAULT = 10006


#: FsError.status string -> NFS status code.
FS_STATUS_MAP = {
    "NOENT": Nfs3Status.NOENT,
    "EXIST": Nfs3Status.EXIST,
    "NOTDIR": Nfs3Status.NOTDIR,
    "ISDIR": Nfs3Status.ISDIR,
    "INVAL": Nfs3Status.INVAL,
    "NOSPC": Nfs3Status.NOSPC,
    "STALE": Nfs3Status.STALE,
    "NOTEMPTY": Nfs3Status.NOTEMPTY,
}


class NfsError(NfsStatusError):
    """Client-side exception carrying the NFS status."""

    def __init__(self, status: Nfs3Status, proc: Optional[Nfs3Proc] = None):
        super().__init__(f"{proc.name if proc else 'NFS'}: {status.name}",
                         status=status)
        self.proc = proc


#: File kinds on the wire (ftype3).
KIND = enum({
    FileKind.REGULAR: 1,
    FileKind.DIRECTORY: 2,
    FileKind.SYMLINK: 5,
    FileKind.SPECIAL: 6,  # FIFO stand-in for all special nodes
})

#: nfstime3: whole seconds (mod 2^32) and truncated nanoseconds.
NFSTIME = fixed(
    "II",
    lambda stamp: (int(stamp) & 0xFFFFFFFF, int((stamp % 1.0) * 1e9)),
    lambda raw: raw[0] + raw[1] / 1e9,
)

#: fattr3.  ``used`` echoes the size; ``rdev`` and ``fsid`` are
#: constant; none of the three is kept on decode.
FATTR = record(
    FsAttributes,
    ("kind", KIND), ("mode", U32), ("nlink", U32), ("uid", U32), ("gid", U32),
    ("size", U64),
    ignore(U64, attr="size"),   # used
    ignore(U64, 0),             # rdev
    ignore(U64, 1),             # fsid
    ("fileid", U64),
    ("atime", NFSTIME), ("mtime", NFSTIME), ("ctime", NFSTIME),
)


@dataclass(frozen=True)
class FsInfo:
    """FSINFO results: the server's transfer-size contract.

    ``rtmax``/``wtmax`` advertise the maximum READ/WRITE transfer the
    transport supports — on RPC/RDMA that is the chunk ceiling
    (``RpcRdmaConfig.max_transfer_bytes``), which is how a real client
    learns to size its write chunks."""

    rtmax: int
    rtpref: int
    wtmax: int
    wtpref: int
    dtpref: int = 64 * 1024
    maxfilesize: int = 1 << 50
    time_delta_ns: int = 1


@dataclass(frozen=True)
class PathConf:
    """PATHCONF results (static limits)."""

    linkmax: int = 32000
    name_max: int = 255
    no_trunc: bool = True
    case_insensitive: bool = False


FSINFO = record(
    FsInfo,
    ("rtmax", U32), ("rtpref", U32), ("wtmax", U32), ("wtpref", U32),
    ("dtpref", U32), ("maxfilesize", U64),
    ignore(U32, 0),             # time_delta seconds
    ("time_delta_ns", U32),
)

PATHCONF = record(
    PathConf,
    ("linkmax", U32), ("name_max", U32), ("no_trunc", BOOL),
    ignore(BOOL, False),        # chown_restricted
    ("case_insensitive", BOOL),
    ignore(BOOL, True),         # case_preserving
)

#: avail == free (no reservations); the avail words are not kept.
FSSTAT = record(
    FsStat,
    ("total_bytes", U64), ("free_bytes", U64), ignore(U64, attr="free_bytes"),
    ("total_files", U64), ("free_files", U64), ignore(U64, attr="free_files"),
)

#: READDIR and READDIRPLUS listings are capped at 2^16 entries.
_MAX_ENTRIES = 1 << 16

DIRENTRY = record(DirEntry, ("fileid", U64), ("name", STRING), ("kind", KIND))

#: (fileid, name, handle, attributes) per READDIRPLUS entry.
DIRENTRYPLUS = seq(U64, STRING, FH, FATTR)

_STATUS = enum(Nfs3Status)

#: A reply that is the status word alone: every error result, and the
#: OK result of procedures without result data.
STATUS_REPLY = result(_STATUS, Nfs3Status.OK)


def _proc(args, resok=None) -> Procedure:
    if resok is None:
        return Procedure(args, STATUS_REPLY)
    return Procedure(args, result(_STATUS, Nfs3Status.OK, resok))


_DIROP = seq(FH, STRING)                       # (dir, name)
_NEW_NAME = seq(FH, STRING, U32)               # (dir, name, mode)
_NEW_OBJECT = seq(FH, FATTR)                   # (handle, attributes)
_OFFSET_COUNT = seq(FH, U64, U32)              # (fh, offset|cookie, count)

#: Per procedure: arguments and the reply (status, then resok on OK).
#: NULL has no arguments and its reply carries no status word.
NFS3_PROCS: dict[Nfs3Proc, Procedure] = {
    Nfs3Proc.NULL: Procedure(VOID, VOID),
    Nfs3Proc.GETATTR: _proc(FH, FATTR),
    # (fh, new size or None, new mode or None)
    Nfs3Proc.SETATTR: _proc(seq(FH, optional(U64), optional(U32)), FATTR),
    Nfs3Proc.LOOKUP: _proc(_DIROP, _NEW_OBJECT),
    # (fh, access bits) -> granted bits
    Nfs3Proc.ACCESS: _proc(seq(FH, U32), U32),
    Nfs3Proc.READLINK: _proc(FH, STRING),
    # -> (attributes, count, eof); the data rides the bulk channel
    Nfs3Proc.READ: _proc(_OFFSET_COUNT, seq(FATTR, U32, BOOL)),
    # (fh, offset, count, stable) -> (attributes, count, stable)
    Nfs3Proc.WRITE: _proc(seq(FH, U64, U32, U32), seq(FATTR, U32, U32)),
    Nfs3Proc.CREATE: _proc(_NEW_NAME, _NEW_OBJECT),
    Nfs3Proc.MKDIR: _proc(_NEW_NAME, _NEW_OBJECT),
    # (dir, name, target)
    Nfs3Proc.SYMLINK: _proc(seq(FH, STRING, STRING), _NEW_OBJECT),
    Nfs3Proc.MKNOD: _proc(_NEW_NAME, _NEW_OBJECT),
    Nfs3Proc.REMOVE: _proc(_DIROP),
    Nfs3Proc.RMDIR: _proc(_DIROP),
    # (from dir, from name, to dir, to name)
    Nfs3Proc.RENAME: _proc(seq(FH, STRING, FH, STRING)),
    # (target, dir, name)
    Nfs3Proc.LINK: _proc(seq(FH, FH, STRING), FATTR),
    # (dir, cookie, count) -> (entries, eof)
    Nfs3Proc.READDIR: _proc(_OFFSET_COUNT,
                            seq(array(DIRENTRY, _MAX_ENTRIES), BOOL)),
    # (dir, cookie, dircount, maxcount) -> (entries, eof)
    Nfs3Proc.READDIRPLUS: _proc(seq(FH, U64, U32, U32),
                                seq(array(DIRENTRYPLUS, _MAX_ENTRIES), BOOL)),
    Nfs3Proc.FSSTAT: _proc(FH, FSSTAT),
    Nfs3Proc.FSINFO: _proc(FH, FSINFO),
    Nfs3Proc.PATHCONF: _proc(FH, PATHCONF),
    # (fh, offset, count)
    Nfs3Proc.COMMIT: _proc(_OFFSET_COUNT),
}
