"""XDR (RFC 4506) schemas compiled to codecs — the wire language of ONC
RPC and NFS.

Every wire layout is declared once, as a schema next to the type it
describes; the compiler turns it into a :class:`Codec` whose
``encode``/``decode`` are the only implementations of that layout, so
the two directions cannot drift apart.  Everything the stack puts on
the simulated wire goes through these real bytes, so header sizes — and
the RPC/RDMA inline-threshold decisions that follow — are genuine.

Vocabulary: scalars (:data:`U32`, :data:`I32`, :data:`U64`,
:data:`I64`, :data:`BOOL`, :func:`enum`, :func:`fixed`), :data:`OPAQUE`,
:func:`fixed_opaque`, :data:`STRING`, :data:`TAIL` (a pre-encoded body
spliced after an RPC header), :data:`VOID`, :func:`array`,
:func:`optional`, and :func:`record`/:func:`seq` for nested schemas,
whose entries may also be :func:`const`, :func:`ignore`, :func:`key`
and :func:`union` (DESIGN.md §17).

Compiler rules: adjacent fixed-width fields, nested fixed-width records
included, pack and unpack with one precompiled ``struct.Struct``; a
record is a list of ops over those structs run by two small
interpreters (no generated source).  Decoders fail closed: truncation,
bad UTF-8, unknown enum or union values, broken caps and constructors
rejecting peer data all raise :class:`XdrError`, as do out-of-range
values on encode.  No trailing-bytes check is made.
"""

from __future__ import annotations

import enum as _enum
import struct
from functools import partial
from operator import attrgetter, itemgetter
from typing import Any, Callable, NamedTuple, Optional

__all__ = [
    "BOOL", "I32", "I64", "OPAQUE", "STRING", "TAIL", "U32", "U64", "VOID",
    "Codec", "Procedure", "XdrError", "array", "const", "enum", "fixed",
    "fixed_opaque", "ignore", "key", "optional", "record", "result", "seq",
    "union",
]


class XdrError(ValueError):
    """Malformed XDR data or out-of-range value."""


_U32 = struct.Struct(">I")

#: XDR alignment needs at most 3 zero bytes: index by ``length & 3``.
_PADDING = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")


class Codec:
    """A compiled schema element.

    ``_enc(value, out)`` appends the encoding to ``out``; ``_dec(buf,
    pos)`` returns ``(value, end offset)``.  Fixed-width elements also
    carry their struct format ``fmt`` and the ``to_wire``/``from_wire``
    conversions between a value and its slot(s) (``None``: the value is
    the slot), which is how records pack them into one struct.
    """

    fmt = ""
    to_wire: Optional[Callable] = None
    from_wire: Optional[Callable] = None
    #: slot -> value for closed sets (enums, booleans), and value ->
    #: slot for value maps: table lookups instead of conversion calls.
    wire_values: Optional[dict] = None
    value_slots: Optional[dict] = None
    _enc: Callable[[Any, list], None]
    _dec: Callable[[bytes, int], tuple]

    def encode(self, value) -> bytes:
        out: list = []
        try:
            self._enc(value, out)
        except XdrError:
            raise
        except (struct.error, ValueError, KeyError) as exc:
            raise XdrError(f"cannot encode {value!r}: {exc}") from None
        return out[0] if len(out) == 1 else b"".join(out)

    def decode_from(self, data, pos: int = 0) -> tuple:
        """Decode one value at ``pos``; returns ``(value, end offset)``."""
        buf = data if type(data) is bytes else bytes(data)
        try:
            return self._dec(buf, pos)
        except XdrError:
            raise
        except (struct.error, ValueError) as exc:
            # Truncation, bad UTF-8 and constructors rejecting peer
            # values: all malformed input, all one typed error.
            raise XdrError(f"malformed XDR: {exc}") from None

    def decode(self, data):
        return self.decode_from(data)[0]


class _Fixed(Codec):
    """Fixed-width element over struct format ``fmt`` (one code per slot)."""

    def __init__(self, fmt, to_wire=None, from_wire=None, wire_values=None,
                 value_slots=None):
        self.fmt, self.to_wire, self.from_wire = fmt, to_wire, from_wire
        self.wire_values, self.value_slots = wire_values, value_slots
        self._struct = struct.Struct(">" + fmt)

    def _enc(self, value, out: list) -> None:
        raw = value if self.to_wire is None else self.to_wire(value)
        out.append(self._struct.pack(*raw) if len(self.fmt) > 1 else self._struct.pack(raw))

    def _dec(self, buf: bytes, pos: int) -> tuple:
        raw = self._struct.unpack_from(buf, pos)
        raw = raw if len(self.fmt) > 1 else raw[0]
        return (raw if self.from_wire is None else self.from_wire(raw)), pos + self._struct.size


U32 = _Fixed("I")
I32 = _Fixed("i")
U64 = _Fixed("Q")
I64 = _Fixed("q")


def _lookup(table: dict, what: str) -> Callable:
    def convert(value):
        try:
            return table[value]
        except KeyError:
            raise XdrError(f"{what} {value!r}") from None
    return convert


_BOOLS = {0: False, 1: True}
BOOL = _Fixed("I", lambda v: 1 if v else 0, _lookup(_BOOLS, "boolean encoded as"), _BOOLS)


def fixed(fmt: str, to_wire: Callable, from_wire: Callable) -> Codec:
    """A fixed-width layout with a value conversion: ``to_wire(value)``
    returns the slots, ``from_wire(slots)`` rebuilds the value."""
    return _Fixed(fmt, to_wire, from_wire)


def enum(values) -> Codec:
    """A u32 drawn from a closed set; any other value is an XdrError.

    ``values`` is an ``IntEnum`` class (decodes to members), a mapping
    from values to wire numbers, or an iterable of accepted numbers.
    """
    to_wire = slots = None
    if isinstance(values, type) and issubclass(values, _enum.IntEnum):
        wire = {int(m): m for m in values}
    elif isinstance(values, dict):
        slots = dict(values)
        wire = {v: k for k, v in slots.items()}
        to_wire = _lookup(slots, "no wire value for")
    else:
        wire = {int(v): int(v) for v in values}
    return _Fixed("I", to_wire, _lookup(wire, "unknown enum value"), wire, slots)


class _Opaque(Codec):
    """Variable-length opaque (or UTF-8 string): length, data, pad."""

    def __init__(self, text: bool = False):
        self._text = text

    def _enc(self, value, out: list) -> None:
        data = value.encode("utf-8") if self._text else (
            value if type(value) is bytes else bytes(value))
        n = len(data)
        out.append(_U32.pack(n))
        out.append(data)
        if n & 3:
            out.append(_PADDING[n & 3])

    def _dec(self, buf: bytes, pos: int) -> tuple:
        (n,) = _U32.unpack_from(buf, pos)
        end = pos + 4 + n
        if end + (-n & 3) > len(buf):
            raise XdrError(f"truncated XDR: opaque of {n} bytes at offset {pos}")
        data = buf[pos + 4:end]
        return (data.decode("utf-8") if self._text else data), end + (-n & 3)


OPAQUE = _Opaque()
STRING = _Opaque(text=True)


class _FixedOpaque(Codec):
    def __init__(self, size: int):
        self._size = size

    def _enc(self, value, out: list) -> None:
        if len(value) != self._size:
            raise XdrError(f"fixed opaque of {len(value)} bytes, expected {self._size}")
        out.append(bytes(value) + _PADDING[self._size & 3])

    def _dec(self, buf: bytes, pos: int) -> tuple:
        end = pos + self._size + (-self._size & 3)
        if end > len(buf):
            raise XdrError(f"truncated XDR: fixed opaque at offset {pos}")
        return buf[pos:pos + self._size], end


def fixed_opaque(size: int) -> Codec:
    return _FixedOpaque(size)


class _Tail(Codec):
    """Pre-encoded XDR spliced at the end of a message: zero-padded to
    alignment on encode, the rest of the buffer on decode."""

    def _enc(self, value, out: list) -> None:
        out.append(value + _PADDING[len(value) & 3] if len(value) & 3 else value)

    def _dec(self, buf: bytes, pos: int) -> tuple:
        return buf[pos:], len(buf)


class _Void(Codec):
    def _enc(self, value, out: list) -> None:
        pass

    def _dec(self, buf: bytes, pos: int) -> tuple:
        return None, pos


TAIL = _Tail()
VOID = _Void()


class _Array(Codec):
    """Counted array: u32 count then each item; counts above the cap fail."""

    def __init__(self, item: Codec, max_items: int):
        self._item, self._max = item, max_items
        self._rows = struct.Struct(">" + item.fmt) if item.fmt else None

    def _enc(self, value, out: list) -> None:
        out.append(_U32.pack(len(value)))
        enc = self._item._enc
        for item in value:
            enc(item, out)

    def _dec(self, buf: bytes, pos: int) -> tuple:
        (n,) = _U32.unpack_from(buf, pos)
        if n > self._max:
            raise XdrError(f"array of {n} items exceeds cap {self._max}")
        pos += 4
        if self._rows is not None:
            # Fixed-width items: one bounds check, one C-level unpack loop.
            end = pos + n * self._rows.size
            if end > len(buf):
                raise XdrError(f"truncated XDR: {n} array items at offset {pos}")
            rows = self._rows.iter_unpack(buf[pos:end])
            conv = self._item.from_wire
            if len(self._item.fmt) == 1:
                rows = (r[0] for r in rows)
            return (list(rows) if conv is None else list(map(conv, rows))), end
        out = []
        dec = self._item._dec
        for _ in range(n):
            value, pos = dec(buf, pos)
            out.append(value)
        return out, pos


def array(item: Codec, max_items: int = 1 << 20) -> Codec:
    return _Array(item, max_items)


class _Optional(Codec):
    """XDR optional-data (``*``): a boolean, then the value if present."""

    def __init__(self, item: Codec):
        self._item = item

    def _enc(self, value, out: list) -> None:
        out.append(_U32.pack(value is not None))
        if value is not None:
            self._item._enc(value, out)

    def _dec(self, buf: bytes, pos: int) -> tuple:
        (flag,) = _U32.unpack_from(buf, pos)
        if flag > 1:
            raise XdrError(f"boolean encoded as {flag}")
        return self._item._dec(buf, pos + 4) if flag else (None, pos + 4)


def optional(item: Codec) -> Codec:
    return _Optional(item)


# -- records ---------------------------------------------------------------
class _Field(NamedTuple):
    """One record field: decoded into ``name`` (None: dropped); encoded
    from the attribute or position ``src``, or as ``value`` when ``src``
    is None; ``check`` rejects any other decoded value; ``keep=False``
    keeps the field out of the constructor call."""

    elem: Codec
    name: Any = None
    src: Any = None
    value: Any = None
    check: bool = False
    keep: bool = True


class _Union(NamedTuple):
    on: Any
    arms: dict
    default: Optional[list]


def const(elem: Codec, value) -> _Field:
    """Always written as ``value``; any other decoded value is an error."""
    return _Field(elem, value=value, check=True)


def ignore(elem: Codec, value=None, attr=None) -> _Field:
    """Written as ``value`` (or the object's ``attr``), read and dropped."""
    return _Field(elem, src=attr, value=value)


def key(name, elem: Codec) -> _Field:
    """Written from ``name``; decoded only for a later :func:`union`."""
    return _Field(elem, name=name, src=name, keep=False)


def union(on, arms: dict, default: Optional[list] = None) -> _Union:
    """Fields chosen by the value of the earlier field ``on``: ``arms``
    maps each value to its field list; values without an arm use
    ``default``, or fail with XdrError when there is none."""
    return _Union(on, arms, default)


def _fields(entries) -> list:
    return [e if isinstance(e, (_Field, _Union)) else _Field(e[1], name=e[0], src=e[0])
            for e in entries]


# A record compiles to a list of ops run by the interpreters below.  A
# run of fixed-width fields is one op whose parts gather (encode) or
# scatter (decode) the slots of its struct.
_PLAIN, _ONE, _RUN, _BYTES, _VAR, _UNION = range(6)      # ops
_P_GET, _P_ONE, _P_CONST, _P_MAP, _P_CALL = range(5)     # encode parts
_D_ZIP, _D_MAP, _D_CALL, _D_CHECK = range(4)       # decode parts
_MISSING = object()


def _slots(parts: list, obj) -> list:
    vals: list = []
    for part in parts:
        kind = part[0]
        if kind == _P_GET:
            vals.extend(part[1](obj))
        elif kind == _P_ONE:
            vals.append(part[1](obj))
        elif kind == _P_CONST:
            vals.extend(part[1])
        elif kind == _P_MAP:
            vals.append(part[2][part[1](obj)])
        elif part[3]:
            vals.extend(part[2](part[1](obj)))
        else:
            vals.append(part[2](part[1](obj)))
    return vals


def _fill(parts: list, raw: tuple, scope: dict) -> None:
    for part in parts:
        kind = part[0]
        if kind == _D_ZIP:
            scope.update(zip(part[1], raw[part[2]:part[3]]))
        elif kind == _D_MAP:
            value = part[3].get(raw[part[2]], _MISSING)
            if value is _MISSING:
                raise XdrError(f"unknown enum value {raw[part[2]]}")
            if part[1] is not None:
                scope[part[1]] = value
        elif kind == _D_CALL:
            i, width = part[2], part[3]
            value = part[4](raw[i] if width == 1 else raw[i:i + width])
            if part[1] is not None:
                scope[part[1]] = value
        elif raw[part[1]] != part[2]:
            raise XdrError(f"expected {part[2]!r}, got {raw[part[1]]!r}")


def _run_enc(ops: list, obj, out: list) -> None:
    for op in ops:
        kind = op[0]
        if kind == _PLAIN:
            out.append(op[1](*op[2](obj)))
        elif kind == _ONE:
            out.append(op[1](op[2](obj)))
        elif kind == _VAR:
            op[1](op[2](obj), out)
        elif kind == _BYTES:
            out.append(op[1])
        elif kind == _RUN:
            out.append(op[1](*_slots(op[2], obj)))
        else:
            disc = op[1](obj)
            arm = op[2].get(disc, op[3])
            if arm is None:
                raise XdrError(f"no union arm for {disc!r}")
            if arm:
                _run_enc(arm, obj, out)


def _run_dec(ops: list, buf: bytes, pos: int, scope: dict) -> int:
    for op in ops:
        kind = op[0]
        if kind == _RUN:
            _fill(op[3], op[1](buf, pos), scope)
            pos += op[2]
        elif kind == _VAR:
            value, pos = op[1](buf, pos)
            if op[3] and value != op[4]:
                raise XdrError(f"expected {op[4]!r}, got {value!r}")
            if op[2] is not None:
                scope[op[2]] = value
        else:
            disc = scope[op[1]]
            arm = op[2].get(disc, op[3])
            if arm is None:
                raise XdrError(f"no union arm for {disc!r}")
            if arm:
                pos = _run_dec(arm, buf, pos, scope)
    return pos


def _enc_parts(fields: list, getter) -> list:
    parts: list = []
    for f in fields:
        wide = len(f.elem.fmt) > 1
        if f.src is None:
            raw = f.value if f.elem.to_wire is None else f.elem.to_wire(f.value)
            raw = tuple(raw) if wide else (raw,)
            if parts and parts[-1][0] == _P_CONST:
                raw = parts.pop()[1] + raw
            parts.append((_P_CONST, raw))
        elif f.elem.to_wire is None and not wide:
            srcs = (f.src,)
            if parts and parts[-1][0] in (_P_GET, _P_ONE):
                srcs = parts.pop()[2] + srcs
            parts.append((_P_GET, getter(*srcs), srcs) if len(srcs) > 1
                         else (_P_ONE, getter(f.src), srcs))
        elif f.elem.value_slots is not None:
            parts.append((_P_MAP, getter(f.src), f.elem.value_slots))
        else:
            parts.append((_P_CALL, getter(f.src), f.elem.to_wire, wide))
    return [p[:2] if p[0] in (_P_GET, _P_ONE) else p for p in parts]


def _dec_parts(fields: list) -> list:
    parts: list = []
    i = 0
    for f in fields:
        elem, width = f.elem, len(f.elem.fmt)
        if f.check:
            parts.append((_D_CHECK, i, f.value if elem.to_wire is None
                           else elem.to_wire(f.value)))
        elif elem.wire_values is not None:
            parts.append((_D_MAP, f.name, i, elem.wire_values))
        elif elem.from_wire is not None or width > 1:
            parts.append((_D_CALL, f.name, i, width, elem.from_wire))
        elif f.name is not None:
            names: tuple = (f.name,)
            if parts and parts[-1][0] == _D_ZIP and parts[-1][3] == i:
                names = parts.pop()[1] + names
            parts.append((_D_ZIP, names, i + 1 - len(names), i + 1))
        i += width
    return parts


def _compile(fields: list, getter) -> tuple[list, list]:
    """Encode and decode ops for ``fields`` (union arms compile to
    nested op lists)."""
    enc_ops: list = []
    dec_ops: list = []
    run: list = []

    def flush():
        if not run:
            return
        fmt = "".join(f.elem.fmt for f in run)
        st = struct.Struct(">" + fmt)
        parts = _enc_parts(run, getter)
        if len(parts) == 1 and parts[0][0] == _P_CONST:
            enc_ops.append((_BYTES, st.pack(*parts[0][1])))
        elif len(parts) == 1 and parts[0][0] in (_P_GET, _P_ONE):
            enc_ops.append((_PLAIN if parts[0][0] == _P_GET else _ONE,
                            st.pack, parts[0][1], fmt))
        else:
            enc_ops.append((_RUN, st.pack, parts, fmt))
        dec_ops.append((_RUN, st.unpack_from, st.size, _dec_parts(run)))
        run.clear()

    for f in fields:
        if isinstance(f, _Union):
            flush()
            arms = {k: _compile(_fields(v), getter) for k, v in f.arms.items()}
            default = None if f.default is None else _compile(_fields(f.default), getter)
            for side, ops, on in ((0, enc_ops, getter(f.on)), (1, dec_ops, f.on)):
                ops.append((_UNION, on, {k: v[side] for k, v in arms.items()},
                            None if default is None else default[side]))
        elif f.elem.fmt:
            run.append(f)
        elif f.elem is not VOID:  # a VOID field is absent: None on decode
            flush()
            enc_ops.append((_BYTES, f.elem.encode(f.value)) if f.src is None
                           else (_VAR, f.elem._enc, getter(f.src)))
            dec_ops.append((_VAR, f.elem._dec, f.name, f.check, f.value))
    flush()
    return enc_ops, dec_ops


def _names(fields: list, names: dict) -> dict:
    """Every field name in ``fields`` (union arms included) -> keep."""
    for f in fields:
        if isinstance(f, _Union):
            for arm in [*f.arms.values(), f.default or []]:
                _names(_fields(arm), names)
        elif f.name is not None:
            names.setdefault(f.name, f.keep)
    return names


class _Record(Codec):
    """A nested schema: fields encoded from an object, decoded into a
    constructor call (``tuple``: positions in, a tuple out)."""

    def __init__(self, cls, entries):
        fields = _fields(entries)
        names = _names(fields, {})
        drop = [name for name, keep in names.items() if not keep]
        if cls is tuple:
            getter = itemgetter
            positions = range(len(names))

            def build(scope):
                return tuple(map(scope.get, positions))
        else:
            getter = attrgetter

            def build(scope):
                for name in drop:
                    del scope[name]
                return cls(**scope)
        enc_ops, dec_ops = _compile(fields, getter)

        if len(enc_ops) == 1 and enc_ops[0][0] in (_PLAIN, _ONE, _RUN):
            # Wholly fixed width: one struct call, and usable inside a
            # parent's struct run.
            op, parts = enc_ops[0], dec_ops[0][3]
            pack, unpack_from, size = op[1], dec_ops[0][1], dec_ops[0][2]
            self.fmt = op[3]
            to_wire = (op[2] if op[0] == _PLAIN else partial(_slots, op[2])
                       if op[0] == _RUN else (lambda obj, one=op[2]: (one(obj),)))

            def from_wire(raw):
                scope: dict = {}
                _fill(parts, raw, scope)
                return build(scope)

            self.to_wire, self.from_wire = to_wire, from_wire
            self._enc = lambda obj, out: out.append(pack(*to_wire(obj)))
            self._dec = lambda buf, pos: (from_wire(unpack_from(buf, pos)), pos + size)
            return

        if cls is tuple:
            def dec(buf: bytes, pos: int) -> tuple:
                scope: dict = {}
                pos = _run_dec(dec_ops, buf, pos, scope)
                return tuple(map(scope.get, positions)), pos
        else:
            def dec(buf: bytes, pos: int) -> tuple:
                scope: dict = {}
                pos = _run_dec(dec_ops, buf, pos, scope)
                for name in drop:
                    del scope[name]
                return cls(**scope), pos

        self._enc = partial(_run_enc, enc_ops)
        self._dec = dec


def record(cls, *entries) -> Codec:
    """Compile a nested schema.  Entries are ``(name, element)`` pairs
    (attribute names; positions when ``cls`` is ``tuple``) or the
    :func:`const`/:func:`ignore`/:func:`key`/:func:`union` forms."""
    return _Record(cls, entries)


def seq(*elems: Codec) -> Codec:
    """Positional fields: encodes a tuple, decodes to a tuple."""
    return _Record(tuple, list(enumerate(elems)))


def result(status: Codec, ok, resok: Codec = VOID) -> Codec:
    """``(status, resok)``: a status word, then ``resok`` only when the
    status is ``ok`` (error results carry the status alone)."""
    return _Record(tuple, [(0, status), union(0, {ok: [(1, resok)]}, default=[])])


class Procedure(NamedTuple):
    """One RPC procedure's argument and reply codecs, shared by the
    client that encodes a call and the server that decodes it."""

    args: Codec
    res: Codec
