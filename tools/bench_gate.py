#!/usr/bin/env python3
"""Timing gate: perfbench runs of a base and a head commit, one runner.

Usage::

    python tools/bench_gate.py --base BASE.out... --head HEAD.out...

Each file holds the stdout of ``python3 perfbench/run.py --workload all
--trace 0`` (only its last line is read: one JSON object with
``correct``, ``failed`` and ``metrics``).  Take the runs of both sides
on the same host back to back, interleaved (base, head, head, base),
so host drift lands on both sides alike.

For every workload in ``BENCHMARK.json`` and every metric in its
``end_to_end`` list, each side's value is the median of its runs.  The
gate fails (exit 1) when head's median is worse than base's by more
than the metric's ``bound`` (a fraction of base's median), when a head
run lacks a workload's metric, or when any head run is not ``correct``
or has ``failed`` ops.  A metric that no base run has (a workload new at
head) is reported and not compared.  Unreadable input exits 2.
``BENCHMARK.json`` is only read.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path: Path = SPEC) -> tuple[list[str], list[dict]]:
    """The benchmark's workload names and its end-to-end metrics."""
    spec = json.loads(path.read_text())
    return [w["name"] for w in spec["workloads"]], spec["end_to_end"]


def load_run(path: Path) -> dict:
    """Read one perfbench run; raises ``ValueError`` if it is unreadable."""
    try:
        lines = path.read_text().strip().splitlines()
        run = json.loads(lines[-1]) if lines else None
        values = {name: float(m["value"])
                  for name, m in run["metrics"].items()}
        return {"correct": run["correct"], "failed": run["failed"],
                "values": values}
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a perfbench result line ({exc!r})") from exc


def compare(base: list[dict], head: list[dict], workloads: list[str],
            metrics: list[dict]) -> list[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures = [f"head run {i + 1}: correct={run['correct']} "
                f"failed={run['failed']}"
                for i, run in enumerate(head)
                if run["correct"] is not True or run["failed"] != 0]
    for workload in workloads:
        for metric in metrics:
            key = f"{workload}.{metric['name']}"
            head_values = [run["values"].get(key) for run in head]
            if None in head_values:
                failures.append(f"{key}: missing from "
                                f"{head_values.count(None)} head run(s)")
                continue
            base_values = [run["values"][key] for run in base
                           if key in run["values"]]
            head_median = statistics.median(head_values)
            if not base_values:
                print(f"{key:<28} {'(not at base)':>12} -> {head_median:>10.3f}")
                continue
            base_median = statistics.median(base_values)
            bound = metric["bound"]
            if metric["better"] == "lower":
                worse = head_median > base_median * (1 + bound)
            else:
                worse = head_median < base_median * (1 - bound)
            change = (100.0 * (head_median - base_median) / base_median
                      if base_median else 0.0)
            status = "REGRESSION" if worse else "OK"
            print(f"{key:<28} {base_median:>12.3f} -> {head_median:>10.3f} "
                  f"{metric['unit']:<4} ({change:+6.1f}%, bound "
                  f"{100 * bound:.0f}%)  {status}")
            if worse:
                failures.append(
                    f"{key}: {base_median:.3f} -> {head_median:.3f} "
                    f"{metric['unit']} ({change:+.1f}%, bound "
                    f"{100 * bound:.0f}%)")
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, nargs="+", type=Path,
                    metavar="FILE", help="perfbench output of the base commit")
    ap.add_argument("--head", required=True, nargs="+", type=Path,
                    metavar="FILE", help="perfbench output of the head commit")
    args = ap.parse_args(argv)

    try:
        workloads, metrics = load_spec()
        base = [load_run(p) for p in args.base]
        head = [load_run(p) for p in args.head]
    except ValueError as err:
        print(f"bench-gate: {err}", file=sys.stderr)
        return 2

    print(f"bench-gate: median of {len(base)} base and {len(head)} head runs")
    failures = compare(base, head, workloads, metrics)
    if failures:
        print("\nbench-gate: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nbench-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
