"""``repro.check.static`` — interprocedural contract analyzer.

The dynamic layers of ``repro check`` (sanitizer, schedule
perturbation) *prove* the simulation's contracts by running golden
grids; this package makes the same contracts **statically checkable**
so a violation is caught at lint time, before a golden run executes.

Architecture (DESIGN.md §16):

* a shared **front end** (:mod:`repro.check.static.frontend`): module
  loader over ``src/repro``, a symbol table of every function/method,
  a conservatively-resolved call graph, and per-function summaries
  (generator-ness, direct impurity effects, call sites);
* an **analyzer core** (:mod:`repro.check.static.analyzer`): runs rule
  packs over the loaded program, applies per-line
  ``# lint-sim: allow[rule]`` suppressions, and audits for allow
  comments that no longer suppress anything (``unused-suppression``);
* **rule packs** (:mod:`repro.check.static.rules`): pluggable passes,
  each owning one or more named rules.  Shipped packs:

  ========== ==========================================================
  pack       rules
  ========== ==========================================================
  purity     wallclock, global-random, set-iteration, mutable-default
             (the intraprocedural rules absorbed from the old
             ``tools/lint_sim.py``)
  zerocost   zero-cost-off — ``sim.telemetry``/``sim.sanitizer``
             touchpoints in hot-path modules must be dominated by an
             ``is None`` guard
  interproc  purity-escape — wallclock/global-RNG/set-iteration
             reached *through helper calls* from sim code
  procgen    process-yield, callback-yield, double-trigger — simulation
             process/generator discipline
  boundary   exception-boundary — ``except`` clauses in transport/
             fault-recovery code that would swallow ``SanitizerError``;
             unguarded-decode — peer-bytes decoders in the RPC
             transports called outside a ``try`` catching ``XdrError``
  ========== ==========================================================

Surfaced as ``python -m repro check --static [--rule NAME]
[--format text|json]`` and run as the lint phase of the full
``python -m repro check`` suite.
"""

from __future__ import annotations

from repro.check.static.analyzer import (
    StaticReport,
    analyze,
    analyze_source,
    rule_names,
)
from repro.check.static.frontend import FunctionInfo, Module, Program, load_program
from repro.check.static.rules import RULE_PACKS, RulePack

__all__ = [
    "RULE_PACKS",
    "FunctionInfo",
    "Module",
    "Program",
    "RulePack",
    "StaticReport",
    "analyze",
    "analyze_source",
    "load_program",
    "rule_names",
]
