"""NFSv3 file handles: opaque server-minted capabilities for inodes."""

from __future__ import annotations

from dataclasses import dataclass

from repro.rpc.xdr import U32, U64, const, record

__all__ = ["FH", "FileHandle"]

_FH_BYTES = 16


@dataclass(frozen=True)
class FileHandle:
    """(fsid, fileid, generation) packed into a 16-byte opaque handle."""

    fsid: int
    fileid: int
    generation: int = 0


#: The handle travels as an XDR opaque whose length is always 16: a
#: fixed-width layout, so it packs with its neighbours in one struct.
FH = record(FileHandle, const(U32, _FH_BYTES),
            ("fsid", U32), ("fileid", U64), ("generation", U32))
