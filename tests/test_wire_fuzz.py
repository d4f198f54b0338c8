"""Fuzz harness over every peer-bytes decoder.

Each decoder is fed arbitrary bytes and structure-aware mutations of
the wire corpus frames (truncation, flipped words, bumped counts,
discriminants and enum values, appended words).  The contract: a
decoder returns a value or raises :class:`XdrError` (or a subclass) —
nothing else may escape, because any other exception on a receive
path ends the simulation.

The deterministic sweep covers every corpus frame in tier-1; the
hypothesis tests explore combinations, with a larger budget under
``--hypothesis-profile=ci``.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chunks import CHUNK_LIST
from repro.core.header import RpcRdmaHeader
from repro.nfs.fh import FH
from repro.nfs.mountd import GETPORT, MOUNT_PROCS
from repro.nfs.protocol import (
    DIRENTRY, FATTR, FSINFO, FSSTAT, NFS3_PROCS, PATHCONF,
)
from repro.rpc.msg import RpcCall, RpcReply, unframe_message
from repro.rpc.xdr import XdrError
from tests.test_wire_corpus import ENTRIES, codec_for

#: every decoder that sees peer bytes, by name.
DECODERS = {
    "rpcrdma.header": RpcRdmaHeader.decode,
    "rpc.call": RpcCall.decode,
    "rpc.reply": RpcReply.decode,
    "rpc.record": unframe_message,
    "chunk_list": CHUNK_LIST.decode,
    "fh": FH.decode,
    "fattr": FATTR.decode,
    "fsinfo": FSINFO.decode,
    "pathconf": PATHCONF.decode,
    "fsstat": FSSTAT.decode,
    "direntry": DIRENTRY.decode,
    "pmap.GETPORT.args": GETPORT.args.decode,
    "pmap.GETPORT.res": GETPORT.res.decode,
}
for _proc, _codec in NFS3_PROCS.items():
    DECODERS[f"nfs.{_proc.name}.args"] = _codec.args.decode
    DECODERS[f"nfs.{_proc.name}.res"] = _codec.res.decode
for _num, _codec in MOUNT_PROCS.items():
    DECODERS[f"mount.{_num}.args"] = _codec.args.decode
    DECODERS[f"mount.{_num}.res"] = _codec.res.decode

#: word values that probe counts, caps, discriminants and enums.
INTERESTING = (0, 1, 2, 3, 4, 5, 6, 7, 16, 255, 256, 257, 4096, 4097,
               65536, 65537, 10006, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def fails_closed(decode, data):
    try:
        decode(data)
    except XdrError:
        pass


def corpus_frames():
    return [(e["codec"], bytes.fromhex(e["hex"])) for e in ENTRIES]


def mutations(frame):
    """Every single-step structure-aware mutation of one frame."""
    yield frame[:0]
    for cut in range(1, len(frame)):
        yield frame[:cut]
    for off in range(0, len(frame) - 3, 4):
        (word,) = struct.unpack_from(">I", frame, off)
        for value in {*INTERESTING, (word + 1) & 0xFFFFFFFF, (word - 1) & 0xFFFFFFFF,
                      word ^ 0xFFFFFFFF}:
            yield frame[:off] + struct.pack(">I", value) + frame[off + 4:]
    yield frame + bytes(4)
    yield frame + b"\xff" * 8


@pytest.mark.parametrize("name", sorted({e["codec"] for e in ENTRIES}))
def test_every_single_mutation_of_corpus_frames_fails_closed(name):
    decode = codec_for(name).decode
    for codec, frame in corpus_frames():
        if codec == name:
            for mutated in mutations(frame):
                fails_closed(decode, mutated)


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_short_and_junk_inputs_fail_closed(name):
    decode = DECODERS[name]
    for data in (b"", b"\0", b"\0\0", b"\0\0\0", b"\xff" * 3, bytes(4),
                 b"\xff" * 4, bytes(64), b"\xff" * 64, b"\x80" * 33):
        fails_closed(decode, data)


@settings(deadline=None)
@given(st.sampled_from(sorted(DECODERS)), st.binary(max_size=512))
def test_arbitrary_bytes_fail_closed(name, data):
    fails_closed(DECODERS[name], data)


@st.composite
def mutated_frames(draw):
    """A corpus frame with a few stacked mutations, fed to its own
    decoder or to a random one."""
    codec, frame = draw(st.sampled_from(corpus_frames()))
    data = bytearray(frame)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["truncate", "flip", "bump", "set", "append"]))
        words = len(data) // 4
        if op == "truncate" and data:
            del data[draw(st.integers(0, len(data) - 1)):]
        elif op == "append":
            data += draw(st.binary(min_size=4, max_size=16))
        elif words:
            off = 4 * draw(st.integers(0, words - 1))
            (word,) = struct.unpack_from(">I", data, off)
            if op == "flip":
                word ^= 1 << draw(st.integers(0, 31))
            elif op == "bump":
                word = (word + draw(st.integers(-3, 3))) & 0xFFFFFFFF
            else:
                word = draw(st.sampled_from(INTERESTING))
            struct.pack_into(">I", data, off, word)
    name = codec if draw(st.booleans()) else draw(st.sampled_from(sorted(DECODERS)))
    return name, bytes(data)


@settings(deadline=None)
@given(mutated_frames())
def test_mutated_corpus_frames_fail_closed(case):
    name, data = case
    decode = DECODERS[name] if name in DECODERS else codec_for(name).decode
    fails_closed(decode, data)
