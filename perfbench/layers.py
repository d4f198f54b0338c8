"""Roll a :mod:`cProfile` run up into per-layer host time.

DES processes are generators, so a span around a public function would
time only the generator's creation.  The profiler sees every resume
instead, and its per-function self time (tottime) sums to the profiled
total.  Each function is charged to the layer that defines it:

* the ``repro`` subpackage or top-level module of its file (``sim``,
  ``ib``, ``core``, ``rpc``, ``nfs``, ``fs``, ``osmodel``, ``tcpip``,
  ``payload``, ``workloads``, ``experiments``);
* ``sim`` also for the methods of the compiled ``repro.sim._cengine``;
* ``builtin`` for every other C callable;
* ``other`` for the rest: Python code of other ``repro`` modules and of
  the standard library (``enum``, dataclass-generated methods), which
  together take a few percent and would otherwise fall outside the
  total.

``L.calls_in`` counts primitive calls into layer L from a function of a
different layer, read off the profiler's caller edges.
"""

from __future__ import annotations

import cProfile
from pathlib import PurePath
from typing import Any

LAYERS = ("sim", "ib", "core", "rpc", "nfs", "fs", "osmodel", "tcpip",
          "payload", "workloads", "experiments", "builtin", "other")

_CENGINE = "repro.sim._cengine"

#: Hot spots named by function: (metric prefix, module path, function).
#: Their ``_s`` figure is cumulative time, so ``Arena.free`` includes the
#: ``list.remove`` it calls.
HOT_SPOTS = (
    ("ib.arena_free", "ib/memory.py", "free"),
    ("osmodel.cpu_consume", "osmodel/cpu.py", "consume"),
)


def _repro_path(filename: str) -> tuple[str, ...]:
    """Path parts below the ``repro`` package, or () outside it."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1:]
    return ()


def layer_of(func: tuple[str, int, str]) -> str:
    filename, _, name = func
    if filename == "~":
        return "sim" if _CENGINE in name else "builtin"
    rel = _repro_path(filename)
    if not rel:
        return "other"
    top = rel[0][:-3] if rel[0].endswith(".py") else rel[0]
    return top if top in LAYERS else "other"


def rollup(profile: cProfile.Profile) -> dict[str, float]:
    """Per-layer and hot-spot figures from one finished profile."""
    profile.create_stats()
    stats: dict[Any, Any] = profile.stats  # type: ignore[attr-defined]
    layer = {func: layer_of(func) for func in stats}
    out = {f"{name}.{kind}": 0.0
           for name in LAYERS for kind in ("self_s", "calls_in")}
    hot = {key: 0.0 for prefix, _, _ in HOT_SPOTS
           for key in (f"{prefix}.calls", f"{prefix}_s")}
    hot.update({"rpc.xdr.calls": 0.0, "rpc.xdr.self_s": 0.0})
    total = 0.0
    for func, (cc, _nc, tt, ct, callers) in stats.items():
        name = layer[func]
        total += tt
        out[f"{name}.self_s"] += tt
        for caller, edge in callers.items():
            # edge = (ncalls, primitive calls, tottime, cumtime)
            if layer.get(caller, "other") != name:
                out[f"{name}.calls_in"] += edge[1]
        rel = "/".join(_repro_path(func[0]))
        if rel == "rpc/xdr.py":
            hot["rpc.xdr.calls"] += cc
            hot["rpc.xdr.self_s"] += tt
        for prefix, path, fn in HOT_SPOTS:
            if rel == path and func[2] == fn:
                hot[f"{prefix}.calls"] += cc
                hot[f"{prefix}_s"] += ct
    out.update(hot)
    out["profile.total_s"] = total
    return out
