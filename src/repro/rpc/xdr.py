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

Compiler rules: every codec is compiled, when it is declared, into one
generated ``encode`` and one ``decode`` function of straight-line
Python (its text is ``codec.source``).  Nested records, arrays,
optionals and unions are inlined; adjacent fixed-width fields, nested
fixed-width records included, pack and unpack with one precompiled
``struct.Struct``; enums and booleans convert by table lookup;
constructors are called positionally.  The text is built from the
schema alone: constants and callables reach it through the namespace
it runs in, never as literals.  Decoders fail closed: truncation, bad
UTF-8, unknown enum or union values, broken caps and constructors
rejecting peer data all raise :class:`XdrError`, as do out-of-range
values on encode.  No trailing-bytes check is made.
"""

from __future__ import annotations

import dataclasses
import enum as _enum
import inspect
import itertools
import struct
from contextlib import contextmanager
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

#: Generated functions number their lines from here, past the end of
#: this file: traceback line ``_LINE_BASE + n`` is line ``n`` of the
#: codec's ``source``, and no unrelated line of this file is shown.
_LINE_BASE = 100_000

_serials = itertools.count(1)


class _Gen:
    """Text and namespace of one codec's generated functions.

    ``bind`` hands the text a name for a constant or callable; ``tmp``
    a fresh local.  On the encode side, ``out``/``out_const`` collect
    the parts of the output, which ``flush`` appends to the ``out``
    list before any branch or loop (a function without one returns
    their join directly).
    """

    def __init__(self) -> None:
        self.ns: dict = {"XdrError": XdrError, "_u32": _U32.unpack_from,
                         "_p32": _U32.pack, "_PAD": _PADDING}
        self._bound: dict = {}
        self._serial = 0
        self.lines: list[str] = []
        self.depth = 1
        self.pieces: list[tuple[str, Optional[bytes]]] = []
        self.used_out = False

    def bind(self, obj) -> str:
        name = self._bound.get(id(obj))
        if name is None:
            name = self._bound[id(obj)] = f"_k{len(self._bound)}"
            self.ns[name] = obj
        return name

    def tmp(self, hint: str) -> str:
        self._serial += 1
        return f"{hint}{self._serial}"

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def local(self, expr: str) -> str:
        """``expr`` evaluated once, as a local name."""
        if expr.isidentifier():
            return expr
        name = self.tmp("t")
        self.emit(f"{name} = {expr}")
        return name

    def reject(self, condition: str, message: str) -> None:
        """Raise XdrError with the f-string ``message`` if ``condition``."""
        self.emit(f"if {condition}: raise XdrError(f{message!r})")

    def unpack(self, fmt: str) -> list[str]:
        """Unpack ``fmt`` at ``pos`` into fresh locals, one per slot."""
        st = struct.Struct(">" + fmt)
        slots = [self.tmp("s") for _ in fmt]
        self.emit(f"{', '.join(slots)}, = {self.bind(st.unpack_from)}(buf, pos)")
        self.emit(f"pos += {st.size}")
        return slots

    def out(self, expr: str) -> None:
        self.pieces.append((expr, None))

    def out_const(self, data: bytes) -> None:
        if not data:
            return
        if self.pieces and self.pieces[-1][1] is not None:
            data = self.pieces.pop()[1] + data
        self.pieces.append((self.bind(data), data))

    def flush(self) -> None:
        if not self.pieces:
            return
        exprs = [expr for expr, _ in self.pieces]
        self.pieces.clear()
        self.used_out = True
        if len(exprs) == 1:
            self.emit(f"out.append({exprs[0]})")
        else:
            self.emit(f"out += ({', '.join(exprs)})")

    @contextmanager
    def block(self, header: str):
        self.flush()
        self.emit(header)
        self.depth += 1
        mark = len(self.lines)
        yield
        self.flush()
        if len(self.lines) == mark:
            self.emit("pass")
        self.depth -= 1


class Codec:
    """A compiled schema element.

    ``encode`` and ``decode_from`` run the two functions generated from
    it; ``source`` is their text.  Fixed-width elements also carry
    their struct format ``fmt`` (one code per slot), which is how
    records pack them into one struct with their neighbours.

    Subclasses generate code: ``_gen_enc(g, x)`` emits the encoding of
    the expression ``x``, ``_gen_dec(g)`` emits a decode at ``pos`` and
    returns an expression for the value.  Fixed-width elements instead
    give ``_enc_slots`` (slot expressions for ``x``), ``_dec_value``
    (the value from slot locals) and ``_wire`` (a constant's slots).
    """

    fmt = ""
    source = ""
    _encode: Callable[[Any], bytes]
    _decode: Callable[[bytes, int], tuple]

    def encode(self, value) -> bytes:
        try:
            return self._encode(value)
        except XdrError:
            raise
        except (struct.error, ValueError, KeyError) as exc:
            raise XdrError(f"cannot encode {value!r}: {exc}") from None

    def decode_from(self, data, pos: int = 0) -> tuple:
        """Decode one value at ``pos``; returns ``(value, end offset)``."""
        buf = data if type(data) is bytes else bytes(data)
        try:
            return self._decode(buf, pos)
        except XdrError:
            raise
        except (struct.error, ValueError) as exc:
            # Truncation, bad UTF-8 and constructors rejecting peer
            # values: all malformed input, all one typed error.
            raise XdrError(f"malformed XDR: {exc}") from None

    def decode(self, data):
        return self.decode_from(data)[0]

    # -- code generation ---------------------------------------------------
    def _gen_enc(self, g: _Gen, x: str) -> None:
        st = struct.Struct(">" + self.fmt)
        g.out(f"{g.bind(st.pack)}({', '.join(self._enc_slots(g, x))})")

    def _gen_dec(self, g: _Gen) -> str:
        return self._dec_value(g, g.unpack(self.fmt))

    def _enc_slots(self, g: _Gen, x: str) -> list[str]:
        raise NotImplementedError

    def _dec_value(self, g: _Gen, slots: list[str], keep: bool = True) -> Optional[str]:
        raise NotImplementedError

    def _wire(self, value) -> tuple:
        raise TypeError(f"{type(self).__name__} has no constant form")

    def _build(self, label: str) -> None:
        """Generate, compile and install ``_encode``/``_decode``."""
        name = f"{label}_{next(_serials)}"
        g = _Gen()
        self._gen_enc(g, "v")
        if g.used_out:
            g.flush()
            body = ["    out = []", *g.lines, "    return b''.join(out)"]
        else:
            exprs = [expr for expr, _ in g.pieces]
            ret = (exprs[0] if len(exprs) == 1 else "b''" if not exprs
                   else f"b''.join(({', '.join(exprs)},))")
            body = [*g.lines, f"    return {ret}"]
        g.lines = []
        g.emit(f"return {self._gen_dec(g)}, pos")
        source = "\n".join([f"def encode_{name}(v):", *body,
                            f"def decode_{name}(buf, pos):", *g.lines, ""])
        exec(compile(source, __file__, "exec"), g.ns)
        for attr, prefix in (("_encode", "encode_"), ("_decode", "decode_")):
            fn = g.ns[prefix + name]
            fn.__code__ = fn.__code__.replace(
                co_firstlineno=fn.__code__.co_firstlineno + _LINE_BASE)
            setattr(self, attr, fn)
        self.source = source


class _Fixed(Codec):
    """Fixed-width element over struct format ``fmt`` (one code per slot).

    ``to_wire``/``from_wire`` convert between a value and its slot(s)
    (None: the value is the slot).  Closed sets convert by table
    instead: ``wire_values`` maps slot -> value on decode (any other
    slot is an XdrError reading ``what``), ``value_slots`` value ->
    slot on encode.  When every value compares by identity (plain
    ``Enum`` members), the encode table is keyed by ``id``: hashing a
    member would cost a Python-level ``Enum.__hash__`` call.
    """

    def __init__(self, fmt, to_wire=None, from_wire=None, wire_values=None,
                 value_slots=None, what="unknown enum value", label="fixed"):
        self.fmt, self.to_wire, self.from_wire = fmt, to_wire, from_wire
        self.wire_values, self.value_slots, self.what = wire_values, value_slots, what
        self._by_id = value_slots is not None and all(
            isinstance(v, _enum.Enum) and type(v).__eq__ is object.__eq__
            for v in value_slots)
        if self._by_id:
            self._id_slots = {id(v): slot for v, slot in value_slots.items()}
        self._build(label)

    def _enc_slots(self, g: _Gen, x: str) -> list[str]:
        if self._by_id:
            return [f"{g.bind(self._id_slots)}[id({x})]"]
        if self.value_slots is not None:
            return [f"{g.bind(self.value_slots)}[{x}]"]
        if self.to_wire is not None:
            call = f"{g.bind(self.to_wire)}({x})"
            return [f"*{call}" if len(self.fmt) > 1 else call]
        return [f"*{x}" if len(self.fmt) > 1 else x]

    def _dec_value(self, g: _Gen, slots: list[str], keep: bool = True) -> Optional[str]:
        raw = slots[0] if len(slots) == 1 else f"({', '.join(slots)})"
        if self.wire_values is not None:
            table = g.bind(self.wire_values)
            g.reject(f"{raw} not in {table}", f"{{{g.bind(self.what)}}} {{{raw}}}")
            return f"{table}[{raw}]" if keep else None
        if self.from_wire is not None:
            call = f"{g.bind(self.from_wire)}({raw})"
            if keep:
                return call
            g.emit(call)
            return None
        return raw

    def _wire(self, value) -> tuple:
        if self.value_slots is not None:
            return (self.value_slots[value],)
        raw = value if self.to_wire is None else self.to_wire(value)
        return tuple(raw) if len(self.fmt) > 1 else (raw,)


class _Bool(_Fixed):
    """XDR boolean: any truthy value encodes as 1; only 0 and 1 decode."""

    def __init__(self):
        super().__init__("I", wire_values={0: False, 1: True},
                         what="boolean encoded as", label="bool")

    def _enc_slots(self, g: _Gen, x: str) -> list[str]:
        return [f"(1 if {x} else 0)"]

    def _wire(self, value) -> tuple:
        return (1 if value else 0,)


U32 = _Fixed("I", label="u32")
I32 = _Fixed("i", label="i32")
U64 = _Fixed("Q", label="u64")
I64 = _Fixed("q", label="i64")
BOOL = _Bool()


def fixed(fmt: str, to_wire: Callable, from_wire: Callable) -> Codec:
    """A fixed-width layout with a value conversion: ``to_wire(value)``
    returns the slots, ``from_wire(slots)`` rebuilds the value."""
    return _Fixed(fmt, to_wire, from_wire)


def enum(values) -> Codec:
    """A u32 drawn from a closed set; any other value is an XdrError.

    ``values`` is an ``IntEnum`` class (decodes to members), a mapping
    from values to wire numbers, or an iterable of accepted numbers.
    """
    slots = None
    if isinstance(values, type) and issubclass(values, _enum.IntEnum):
        wire = {int(m): m for m in values}
    elif isinstance(values, dict):
        slots = dict(values)
        wire = {v: k for k, v in slots.items()}
    else:
        wire = {int(v): int(v) for v in values}
    return _Fixed("I", wire_values=wire, value_slots=slots, label="enum")


class _Opaque(Codec):
    """Variable-length opaque (or UTF-8 string): length, data, pad."""

    def __init__(self, text: bool = False):
        self._text = text
        self._build("string" if text else "opaque")

    def _gen_enc(self, g: _Gen, x: str) -> None:
        x = g.local(x)
        data = g.tmp("d")
        g.emit(f"{data} = {x}.encode('utf-8')" if self._text
               else f"{data} = {x} if type({x}) is bytes else bytes({x})")
        g.out(f"_p32(len({data}))")
        g.out(data)
        g.out(f"_PAD[len({data}) & 3]")

    def _gen_dec(self, g: _Gen) -> str:
        n, end, value = g.tmp("n"), g.tmp("e"), g.tmp("x")
        g.emit(f"{n}, = _u32(buf, pos)")
        g.emit(f"{end} = pos + 4 + {n}")
        g.reject(f"{end} + (-{n} & 3) > len(buf)",
                 f"truncated XDR: opaque of {{{n}}} bytes at offset {{pos}}")
        g.emit(f"{value} = buf[pos + 4:{end}]" + (".decode('utf-8')" if self._text else ""))
        g.emit(f"pos = {end} + (-{n} & 3)")
        return value


OPAQUE = _Opaque()
STRING = _Opaque(text=True)


class _FixedOpaque(Codec):
    def __init__(self, size: int):
        self._size = size
        self._build("fixed_opaque")

    def _gen_enc(self, g: _Gen, x: str) -> None:
        x = g.local(x)
        size = g.bind(self._size)
        g.reject(f"len({x}) != {size}",
                 f"fixed opaque of {{len({x})}} bytes, expected {{{size}}}")
        g.out(f"bytes({x})")
        g.out_const(_PADDING[self._size & 3])

    def _gen_dec(self, g: _Gen) -> str:
        value = g.tmp("x")
        size = g.bind(self._size)
        padded = g.bind(self._size + (-self._size & 3))
        g.reject(f"pos + {padded} > len(buf)", "truncated XDR: fixed opaque at offset {pos}")
        g.emit(f"{value} = buf[pos:pos + {size}]")
        g.emit(f"pos += {padded}")
        return value


def fixed_opaque(size: int) -> Codec:
    return _FixedOpaque(size)


class _Tail(Codec):
    """Pre-encoded XDR spliced at the end of a message: zero-padded to
    alignment on encode, the rest of the buffer on decode."""

    def __init__(self):
        self._build("tail")

    def _gen_enc(self, g: _Gen, x: str) -> None:
        x = g.local(x)
        g.out(x)
        g.out(f"_PAD[len({x}) & 3]")

    def _gen_dec(self, g: _Gen) -> str:
        value = g.tmp("x")
        g.emit(f"{value} = buf[pos:]")
        g.emit("pos = len(buf)")
        return value


class _Void(Codec):
    def __init__(self):
        self._build("void")

    def _gen_enc(self, g: _Gen, x: str) -> None:
        pass

    def _gen_dec(self, g: _Gen) -> str:
        return "None"


TAIL = _Tail()
VOID = _Void()


class _Array(Codec):
    """Counted array: u32 count then each item; counts above the cap fail."""

    def __init__(self, item: Codec, max_items: int):
        self._item, self._max = item, max_items
        self._build("array")

    def _gen_enc(self, g: _Gen, x: str) -> None:
        items, item = g.local(x), g.tmp("i")
        g.out(f"_p32(len({items}))")
        with g.block(f"for {item} in {items}:"):
            self._item._gen_enc(g, item)

    def _gen_dec(self, g: _Gen) -> str:
        n, out = g.tmp("n"), g.tmp("a")
        cap = g.bind(self._max)
        g.emit(f"{n}, = _u32(buf, pos)")
        g.reject(f"{n} > {cap}", f"array of {{{n}}} items exceeds cap {{{cap}}}")
        g.emit("pos += 4")
        g.emit(f"{out} = []")
        if self._item.fmt:
            # Fixed-width items: one bounds check, one C-level unpack loop.
            rows = struct.Struct(">" + self._item.fmt)
            end = g.tmp("e")
            g.emit(f"{end} = pos + {n} * {rows.size}")
            g.reject(f"{end} > len(buf)",
                     f"truncated XDR: {{{n}}} array items at offset {{pos}}")
            slots = [g.tmp("s") for _ in self._item.fmt]
            with g.block(f"for {', '.join(slots)}, in {g.bind(rows.iter_unpack)}(buf[pos:{end}]):"):
                g.emit(f"{out}.append({self._item._dec_value(g, slots)})")
            g.emit(f"pos = {end}")
        else:
            with g.block(f"for _ in range({n}):"):
                g.emit(f"{out}.append({self._item._gen_dec(g)})")
        return out


def array(item: Codec, max_items: int = 1 << 20) -> Codec:
    return _Array(item, max_items)


class _Optional(Codec):
    """XDR optional-data (``*``): a boolean, then the value if present."""

    def __init__(self, item: Codec):
        self._item = item
        self._build("optional")

    def _gen_enc(self, g: _Gen, x: str) -> None:
        x = g.local(x)
        with g.block(f"if {x} is None:"):
            g.out_const(_U32.pack(0))
        with g.block("else:"):
            g.out_const(_U32.pack(1))
            self._item._gen_enc(g, x)

    def _gen_dec(self, g: _Gen) -> str:
        flag, value = g.tmp("f"), g.tmp("o")
        g.emit(f"{flag}, = _u32(buf, pos)")
        g.reject(f"{flag} > 1", f"boolean encoded as {{{flag}}}")
        g.emit("pos += 4")
        with g.block(f"if {flag}:"):
            g.emit(f"{value} = {self._item._gen_dec(g)}")
        with g.block("else:"):
            g.emit(f"{value} = None")
        return value


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
    if not arms:
        raise TypeError("a union needs at least one arm")
    return _Union(on, arms, default)


def _fields(entries) -> list:
    return [e if isinstance(e, (_Field, _Union)) else _Field(e[1], name=e[0], src=e[0])
            for e in entries]


def _names(fields: list, names: dict) -> dict:
    """Every field name in ``fields`` (union arms included) -> keep."""
    for f in fields:
        if isinstance(f, _Union):
            for arm in [*f.arms.values(), f.default or []]:
                _names(_fields(arm), names)
        elif f.name is not None:
            names.setdefault(f.name, f.keep)
    return names


def _arm_groups(u: _Union) -> list:
    """``(values, fields)`` per distinct arm, values sharing one list
    grouped together."""
    groups: dict = {}
    for value, arm in u.arms.items():
        groups.setdefault(id(arm), ([], arm))[0].append(value)
    return [(tuple(values), _fields(arm)) for values, arm in groups.values()]


class _Record(Codec):
    """A nested schema: fields encoded from an object, decoded into a
    constructor call (``tuple``: positions in, a tuple out)."""

    def __init__(self, cls, entries):
        self._cls = cls
        self._fields = _fields(entries)
        names = _names(self._fields, {})
        if cls is tuple:
            self._positional, self._keyword = list(range(len(names))), []
        else:
            self._positional, self._keyword = _call_order(
                cls, [name for name, keep in names.items() if keep])
        if self._fields and all(isinstance(f, _Field) and f.elem.fmt for f in self._fields):
            # Wholly fixed width: one struct, also inside a parent's run.
            self.fmt = "".join(f.elem.fmt for f in self._fields)
        self._build("seq" if cls is tuple else cls.__name__)

    def _get(self, x: str, src, discs: dict) -> str:
        if src in discs:
            return discs[src]
        if self._cls is tuple:
            return f"{x}[{int(src)}]"
        if not src.isidentifier():
            raise TypeError(f"{self._cls.__name__}: field name {src!r}")
        return f"{x}.{src}"

    def _construct(self, g: _Gen, scope: dict) -> str:
        args = [scope.get(name, "None") for name in self._positional]
        args += [f"{name}={scope[name]}" for name in self._keyword if name in scope]
        if self._cls is tuple:
            return f"({''.join(arg + ', ' for arg in args)})"
        return f"{g.bind(self._cls)}({', '.join(args)})"

    def _default(self, g: _Gen, name) -> str:
        """The constructor's default for ``name``, for a value only some
        union arms decode."""
        if self._cls is tuple or name not in self._positional + self._keyword:
            return "None"
        fields = ({f.name: f for f in dataclasses.fields(self._cls)}
                  if dataclasses.is_dataclass(self._cls) else {})
        if name in fields and fields[name].default_factory is not dataclasses.MISSING:
            return f"{g.bind(fields[name].default_factory)}()"
        param = inspect.signature(self._cls).parameters.get(name)
        if param is not None and param.default is not param.empty:
            return g.bind(param.default)
        raise TypeError(f"{self._cls.__name__}.{name} is decoded by only some "
                        f"union arms and has no default")

    # -- fixed width -------------------------------------------------------
    def _enc_slots(self, g: _Gen, x: str) -> list[str]:
        return self._run_slots(g, g.local(x), self._fields, {})

    def _run_slots(self, g: _Gen, x: str, run: list, discs: dict) -> list[str]:
        slots: list[str] = []
        for f in run:
            slots += ([g.bind(w) for w in f.elem._wire(f.value)] if f.src is None
                      else f.elem._enc_slots(g, self._get(x, f.src, discs)))
        return slots

    def _dec_value(self, g: _Gen, slots: list[str], keep: bool = True) -> Optional[str]:
        scope: dict = {}
        self._dec_run(g, self._fields, slots, scope, {})
        value = self._construct(g, scope)
        if keep:
            return value
        g.emit(value)  # dropped, but the constructor may still reject it
        return None

    def _dec_run(self, g: _Gen, run: list, slots: list[str], scope: dict,
                 preset: dict) -> None:
        for f in run:
            width = len(f.elem.fmt)
            part, slots = slots[:width], slots[width:]
            if f.check:
                raw = part[0] if width == 1 else f"({', '.join(part)})"
                wire = f.elem._wire(f.value)
                expected = g.bind(wire[0] if width == 1 else wire)
                g.reject(f"{raw} != {expected}", f"expected {{{expected}!r}}, got {{{raw}!r}}")
            else:
                value = f.elem._dec_value(g, part, keep=f.name is not None)
                if f.name is not None:
                    self._set(g, scope, preset, f.name, value)

    @staticmethod
    def _set(g: _Gen, scope: dict, preset: dict, name, value: str) -> None:
        if name in preset:
            g.emit(f"{preset[name]} = {value}")
            value = preset[name]
        scope[name] = value

    # -- variable width ----------------------------------------------------
    def _gen_enc(self, g: _Gen, x: str) -> None:
        if self.fmt:
            return super()._gen_enc(g, x)
        x = g.local(x)
        # A union's discriminant is read once, even when a key field
        # also writes it.
        discs = {u.on: g.local(self._get(x, u.on, {}))
                 for u in self._fields if isinstance(u, _Union)}
        self._enc_fields(g, x, self._fields, discs)

    def _enc_fields(self, g: _Gen, x: str, fields: list, discs: dict) -> None:
        run: list = []

        def flush():
            if not run:
                return
            st = struct.Struct(">" + "".join(f.elem.fmt for f in run))
            if all(f.src is None for f in run):
                g.out_const(st.pack(*[w for f in run for w in f.elem._wire(f.value)]))
            else:
                args = self._run_slots(g, x, run, discs)
                g.out(f"{g.bind(st.pack)}({', '.join(args)})")
            run.clear()

        for f in fields:
            if isinstance(f, _Union):
                flush()
                disc = discs.get(f.on) or g.local(self._get(x, f.on, discs))
                self._branch(g, f, disc,
                             lambda arm: self._enc_fields(g, x, arm, discs))
            elif f.elem.fmt:
                run.append(f)
            elif f.elem is not VOID:  # a VOID field is absent: None on decode
                flush()
                if f.src is None:
                    g.out_const(f.elem.encode(f.value))
                else:
                    f.elem._gen_enc(g, self._get(x, f.src, discs))
        flush()

    def _gen_dec(self, g: _Gen) -> str:
        if self.fmt:
            return super()._gen_dec(g)
        scope: dict = {}
        self._dec_fields(g, self._fields, scope, {})
        return self._construct(g, scope)

    def _dec_fields(self, g: _Gen, fields: list, scope: dict, preset: dict) -> None:
        run: list = []

        def flush():
            if run:
                slots = g.unpack("".join(f.elem.fmt for f in run))
                self._dec_run(g, run, slots, scope, preset)
                run.clear()

        for f in fields:
            if isinstance(f, _Union):
                flush()
                self._dec_union(g, f, scope, preset)
            elif f.elem.fmt:
                run.append(f)
            elif f.elem is VOID:
                if f.name is not None:
                    self._set(g, scope, preset, f.name, "None")
            else:
                flush()
                value = f.elem._gen_dec(g)
                if f.check:
                    expected = g.bind(f.value)
                    g.reject(f"{value} != {expected}",
                             f"expected {{{expected}!r}}, got {{{value}!r}}")
                elif f.name is not None:
                    self._set(g, scope, preset, f.name, value)
        flush()

    def _dec_union(self, g: _Gen, u: _Union, scope: dict, preset: dict) -> None:
        # Every name an arm may set gets one local, set to the
        # constructor's default first: the arms assign it.
        preset = dict(preset)
        arms = [*u.arms.values(), u.default or []]
        for name in _names([f for arm in arms for f in _fields(arm)], {}):
            if name in preset:
                continue
            local = g.tmp("u")
            g.emit(f"{local} = {scope[name] if name in scope else self._default(g, name)}")
            preset[name] = scope[name] = local
        scope[u.on] = disc = g.local(scope[u.on])
        self._branch(g, u, disc, lambda arm: self._dec_fields(g, arm, scope, preset))

    @staticmethod
    def _branch(g: _Gen, u: _Union, disc: str, arm_body: Callable) -> None:
        keyword = "if"
        for values, fields in _arm_groups(u):
            test = (f"{disc} == {g.bind(values[0])}" if len(values) == 1
                    else f"{disc} in {g.bind(values)}")
            with g.block(f"{keyword} {test}:"):
                arm_body(fields)
            keyword = "elif"
        if u.default is None:
            with g.block("else:"):
                g.emit(f"raise XdrError(f'no union arm for {{{disc}!r}}')")
        elif u.default:
            with g.block("else:"):
                arm_body(_fields(u.default))


def _call_order(cls, names: list) -> tuple[list, list]:
    """``cls``'s parameters that ``names`` covers from the first on, in
    order (passed positionally), and the other names (by keyword)."""
    positional = []
    try:
        params = list(inspect.signature(cls).parameters.values())
    except (TypeError, ValueError):
        params = []
    for param in params:
        if param.name not in names or param.kind not in (
                param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
            break
        positional.append(param.name)
    return positional, [name for name in names if name not in positional]


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
