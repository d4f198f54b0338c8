"""Host-time benchmark of the NFS/RDMA simulator.

Measures how long this simulator takes to run a fixed simulated
workload, from outside the program, through its public entry points.
Network and disk are simulated; the times are the simulator's own.

    python3 perfbench/run.py --workload rdma-meta --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --record-expected

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``cpu_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` runs the same workload
under the profiler and prints the per-layer metrics.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--record-expected`` re-pins the simulated results at
the default seed in ``perfbench/expected.json``.

Every measurement runs in a child process (``worker.py``), one after
another: ``setup_s`` in fresh interpreters, ``peak_rss_mb`` in a
process that runs only the one workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
#: Fresh set-up processes, split around the timed process so that their
#: median spans the same stretch of host time.
SETUP_SAMPLES = (3, 2)
BUILD_TIMEOUT = 850.0   # first import compiles the C core
RUN_BUDGET = 170.0      # per workload, after the build


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        # Require the compiled core: a silent fallback to the pure-python
        # core would read as a 2.3x regression.
        "REPRO_SIM_CORE": "c",
        "PYTHONHASHSEED": "0",
        # Where the C core is cached when src/ is read-only.
        "XDG_CACHE_HOME": str(ROOT / ".bench_build" / "cache"),
    })
    return env


def call(args: list[str], timeout: float) -> dict:
    """Run one child to completion; its last stdout line is JSON."""
    if timeout <= 0:
        raise BenchError("out of time budget")
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:3]} timed out after {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[:3]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def worker(mode: str, workload: str, seed: int, seconds: float,
           deadline: float) -> dict:
    return call([str(WORKER), "--mode", mode, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds)],
                deadline - time.monotonic())


def prepare() -> None:
    """Build (first run only) and load the compiled core, untimed."""
    call([str(WORKER), "--mode", "engine"], BUILD_TIMEOUT)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            units: dict[str, str]) -> dict:
    deadline = time.monotonic() + RUN_BUDGET
    if trace:
        out = worker("traced", workload, seed, seconds, deadline)
        metrics = out["metrics"]
    else:
        def setup_samples(n: int) -> list[float]:
            return [worker("setup", workload, seed, seconds, deadline)[
                "setup_s"] for _ in range(n)]

        before, after = SETUP_SAMPLES
        setups = setup_samples(before)
        out = worker("timed", workload, seed, seconds, deadline)
        setups += setup_samples(after)
        metrics = dict(out["metrics"])
        if metrics:
            metrics["setup_s"] = statistics.median(setups)
    complete = set(metrics) == set(units)
    if metrics and not complete:
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do "
                         f"not match BENCHMARK.json")
    return {
        "correct": complete and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"] + (0 if complete else 1),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
        "env": out["env"],
        "reps": out.get("reps"),
    }


def report(workload: str, seed: int, trace: bool, result: dict) -> None:
    env = result["env"]
    reps = f" reps={result['reps']}" if result["reps"] else ""
    print(f"perfbench {workload} seed={seed} trace={int(trace)} "
          f"core={env['core']} python={env['python']} "
          f"nproc={env['nproc']}{reps}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6f} {m['unit']}")
    print(f"  ops {result['attempted']}  ops_failed {result['failed']}")


def record_expected(names: list[str]) -> None:
    prepare()
    pinned = {}
    seed = None
    for name in names:
        out = call([str(WORKER), "--mode", "expect", "--workload", name],
                   RUN_BUDGET)
        seed, pinned[name] = out["seed"], out["points"]
    EXPECTED.write_text(json.dumps({"seed": seed, "workloads": pinned},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the NFS/RDMA simulator.")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.record_expected:
        record_expected(names)
        return 0
    if args.workload != "all" and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(names)} or all)", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    chosen = names if args.workload == "all" else [args.workload]

    try:
        prepare()
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace),
                              units) for w in chosen}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for w, result in results.items():
        report(w, args.seed, bool(args.trace), result)
    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
