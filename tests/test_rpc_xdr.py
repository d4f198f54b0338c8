"""Unit + property tests for the XDR schema vocabulary and compiler."""

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from repro.rpc.xdr import (
    BOOL, I32, I64, OPAQUE, STRING, TAIL, U32, U64, VOID, XdrError, array,
    const, enum, fixed, fixed_opaque, ignore, key, optional, record, result,
    seq, union,
)


def roundtrip(codec, value):
    raw = codec.encode(value)
    out, end = codec.decode_from(raw)
    assert end == len(raw)
    return out


def test_u32_roundtrip_and_bounds():
    assert roundtrip(U32, 0xDEADBEEF) == 0xDEADBEEF
    with pytest.raises(XdrError):
        U32.encode(-1)
    with pytest.raises(XdrError):
        U32.encode(2**32)


def test_i32_roundtrip_and_bounds():
    assert roundtrip(I32, -42) == -42
    with pytest.raises(XdrError):
        I32.encode(2**31)


def test_u64_i64_roundtrip():
    assert roundtrip(U64, 2**63 + 5) == 2**63 + 5
    assert roundtrip(I64, -(2**62)) == -(2**62)
    with pytest.raises(XdrError):
        U64.encode(2**64)


def test_boolean_roundtrip_and_strictness():
    assert roundtrip(BOOL, True) is True
    assert roundtrip(BOOL, False) is False
    with pytest.raises(XdrError):
        BOOL.decode(U32.encode(7))


def test_opaque_padding_to_four_bytes():
    raw = OPAQUE.encode(b"abcde")  # 5 bytes -> 4 len + 5 data + 3 pad
    assert len(raw) == 12
    assert raw[-3:] == b"\x00\x00\x00"
    assert roundtrip(OPAQUE, b"abcde") == b"abcde"


def test_fixed_opaque():
    codec = fixed_opaque(3)
    assert roundtrip(codec, b"abc") == b"abc"
    assert len(codec.encode(b"abc")) == 4
    with pytest.raises(XdrError):
        codec.encode(b"ab")


def test_string_unicode_roundtrip():
    assert roundtrip(STRING, "fichier-éü") == "fichier-éü"
    with pytest.raises(XdrError):
        STRING.decode(OPAQUE.encode(b"\xff\xfe"))


def test_array_roundtrip():
    items = [3, 1, 4, 1, 5]
    assert roundtrip(array(U32), items) == items
    pairs = [(1, "a"), (2, "bc")]
    assert roundtrip(array(seq(U32, STRING)), pairs) == pairs


def test_array_cap_enforced():
    raw = U32.encode(10**9)
    with pytest.raises(XdrError):
        array(U32, max_items=100).decode(raw)


def test_optional_roundtrip():
    assert roundtrip(optional(U32), 7) == 7
    assert roundtrip(optional(U32), None) is None
    with pytest.raises(XdrError):
        optional(U32).decode(U32.encode(2) + U32.encode(7))


def test_truncated_decode_raises():
    with pytest.raises(XdrError):
        U32.decode(b"\x00\x00")
    with pytest.raises(XdrError):
        OPAQUE.decode(U32.encode(8) + b"abcd")


def test_trailing_bytes_detected():
    # Decoders do not reject trailing bytes; decode_from reports where
    # the value ends so a caller can.
    raw = seq(U32, U32).encode((1, 2))
    value, end = U32.decode_from(raw)
    assert value == 1 and end == 4 < len(raw)


def test_raw_splice_alignment():
    # A tail splice is zero-padded to XDR alignment; decode returns the
    # rest of the message, padding included.
    assert TAIL.encode(b"abc") == b"abc\x00"
    assert TAIL.encode(b"abcd") == b"abcd"
    assert seq(U32, TAIL).decode(b"\x00\x00\x00\x01xyz\x00") == (1, b"xyz\x00")


# ---------------------------------------------------------------- the compiler
class Color(IntEnum):
    RED = 1
    BLUE = 4


@dataclass
class Point:
    x: int
    y: int
    color: Color = Color.RED
    label: Optional[str] = None


POINT = record(Point, ("x", U32), ("y", I32), ("color", enum(Color)),
               ("label", optional(STRING)))


def test_record_roundtrip_and_enum_failure():
    p = Point(1, -2, Color.BLUE, "here")
    assert roundtrip(POINT, p) == p
    raw = bytearray(POINT.encode(p))
    raw[8:12] = U32.encode(3)
    with pytest.raises(XdrError):
        POINT.decode(bytes(raw))


def test_adjacent_fixed_fields_pack_in_one_struct(monkeypatch):
    calls = []
    real = struct.Struct.pack

    class Spy(struct.Struct):
        def pack(self, *values):
            calls.append(self.format)
            return real(self, *values)

    monkeypatch.setattr(struct, "Struct", Spy)
    codec = record(Point, ("x", U32), ("y", I32), ("color", enum(Color)),
                   const(U64, 9), ("label", optional(STRING)))
    codec.encode(Point(1, 2, Color.RED, None))
    assert calls[0] == ">IiIQ"


def test_const_ignore_and_key():
    codec = record(Point, const(U32, 7), ("x", U32), ignore(U32, attr="x"),
                   ignore(BOOL, True), ("y", I32))
    raw = codec.encode(Point(5, 6))
    assert struct.unpack(">IIIIi", raw) == (7, 5, 5, 1, 6)
    assert codec.decode(raw) == Point(5, 6)
    with pytest.raises(XdrError):
        codec.decode(U32.encode(8) + raw[4:])
    with pytest.raises(XdrError):  # an ignored bool is still a bool
        codec.decode(raw[:12] + U32.encode(2) + raw[16:])


@dataclass
class Versioned:
    a: int
    b: int = 0

    @property
    def version(self):
        return 2 if self.b else 1


VERSIONED = record(Versioned, key("version", enum((1, 2))), ("a", U32),
                   union("version", {1: [], 2: [("b", U32)]}))


def test_union_selects_fields_by_earlier_discriminant():
    assert VERSIONED.encode(Versioned(3)) == struct.pack(">II", 1, 3)
    assert VERSIONED.encode(Versioned(3, 4)) == struct.pack(">III", 2, 3, 4)
    assert roundtrip(VERSIONED, Versioned(3, 4)) == Versioned(3, 4)
    with pytest.raises(XdrError):
        VERSIONED.decode(struct.pack(">II", 5, 3))


def test_union_without_default_rejects_unknown_arm():
    codec = record(tuple, (0, U32), union(0, {1: [(1, U32)]}))
    assert codec.decode(struct.pack(">II", 1, 9)) == (1, 9)
    with pytest.raises(XdrError):
        codec.decode(struct.pack(">II", 2, 9))
    with pytest.raises(XdrError):
        codec.encode((2, 9))


def test_result_carries_resok_only_on_ok():
    codec = result(U32, 0, seq(U32, BOOL))
    assert codec.encode((0, (5, True))) == struct.pack(">III", 0, 5, 1)
    assert codec.encode((13, None)) == U32.encode(13)
    assert codec.decode(U32.encode(13)) == (13, None)
    assert result(U32, 0).encode((0, None)) == U32.encode(0)


def test_fixed_conversion_and_void():
    half = fixed("II", lambda v: (int(v), int(v % 1 * 10)), lambda r: r[0] + r[1] / 10)
    assert roundtrip(half, 2.5) == 2.5
    assert roundtrip(seq(U32, half, U32), (1, 3.5, 2)) == (1, 3.5, 2)
    assert VOID.encode(None) == b""
    assert VOID.decode(b"") is None


def test_constructor_rejection_is_typed():
    @dataclass
    class Positive:
        n: int

        def __post_init__(self):
            if self.n == 0:
                raise ValueError("zero")

    with pytest.raises(XdrError):
        record(Positive, ("n", U32)).decode(U32.encode(0))


# ---------------------------------------------------------------- properties
@given(st.binary(max_size=4096))
def test_opaque_roundtrip_property(data):
    raw = OPAQUE.encode(data)
    assert len(raw) % 4 == 0
    assert OPAQUE.decode(raw) == data


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=64))
def test_u32_array_roundtrip_property(values):
    codec = array(U32)
    assert codec.decode(codec.encode(values)) == values


@given(
    st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), st.binary(max_size=64)),
        max_size=16,
    )
)
def test_mixed_sequence_roundtrip_property(records):
    codec = array(seq(U32, U64, OPAQUE))
    raw = codec.encode(records)
    out, end = codec.decode_from(raw)
    assert out == records
    assert end == len(raw)
