"""One measuring process of the benchmark; ``run.py`` starts it.

Modes (``--mode``):

``setup``
    fresh interpreter -> ``import repro`` + compiled-core load +
    constructing every cluster the workload uses; prints ``setup_s``.
``timed``
    a warm-up repetition at the default seed, checked exactly against
    ``expected.json``, then repetitions at ``--seed`` for at least
    ``--seconds`` seconds.  Prints the per-point median host wall and
    CPU time and the process's peak resident memory.
``traced``
    the warm-up, one untraced repetition and two profiled repetitions
    at ``--seed``; prints the per-layer metrics.
``engine``
    loads (on first use, builds) the compiled core and prints the
    engine facts.
``expect``
    prints the simulated results at the default seed, for
    ``run.py --record-expected``.

The last stdout line is one JSON object.  Imports of ``repro`` wait
until the clock of ``setup`` mode has started.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
MIN_REPS = 2


def pin_engine() -> dict:
    """The engine facts recorded with every result; compiled core only.

    The pure-python core is about 2.3x slower, so a silent fallback
    would read as a regression: stop instead.
    """
    try:
        from repro.sim import engine
    except ImportError as exc:
        raise SystemExit(f"perfbench: the compiled sim core 'c' could not "
                         f"be loaded: {exc}") from exc
    if engine.ACTIVE_CORE != "c":
        raise SystemExit(f"perfbench: needs the compiled sim core 'c', but "
                         f"the active core is {engine.ACTIVE_CORE!r}")
    return {"core": engine.ACTIVE_CORE,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


class Runner:
    """Runs a workload's steps and keeps the failure accounting."""

    def __init__(self, workload: str):
        import workloads

        self.w = workloads
        self.steps = workloads.WORKLOADS[workload]
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def fail(self, label: str, seed: int, why: str) -> None:
        self.failed += 1
        print(f"perfbench: {self.workload} {label} seed={seed}: {why}",
              file=sys.stderr)

    def execute(self, step, seed: int, profile=None):
        """Build, then run one point.

        Returns None if the point failed, else (fingerprint, run wall,
        run CPU, build + run wall).  A profile, if given, covers the
        build and the run.
        """
        self.attempted += 1
        gc.collect()
        try:
            b0 = time.perf_counter()
            if profile is not None:
                profile.enable()
            cluster = step.build(seed)
            w0, c0 = time.perf_counter(), time.process_time()
            result = step.run(cluster, seed)
            cpu = time.process_time() - c0
            end = time.perf_counter()
        except Exception:  # a failed point is counted, not fatal
            self.fail(step.label, seed, traceback.format_exc())
            return None
        finally:
            if profile is not None:
                profile.disable()
        fp = self.w.fingerprint(result, cluster)
        del cluster
        gc.collect()
        errors = self.w.invariant_errors(fp)
        if errors:
            self.fail(step.label, seed, "; ".join(errors))
            return None
        return fp, end - w0, cpu, end - b0

    def warm_up(self) -> None:
        """One repetition at the default seed, pinned to expected.json."""
        expected = json.loads(EXPECTED.read_text())
        pinned = expected["workloads"][self.workload]
        for step in self.steps:
            out = self.execute(step, self.w.DEFAULT_SEED)
            if out is not None and out[0] != pinned[step.label]:
                self.fail(step.label, self.w.DEFAULT_SEED,
                          "simulated results differ from expected.json: "
                          + _diff(pinned[step.label], out[0]))

    def repeat_check(self, reference: dict, label: str, seed: int,
                     fp: dict) -> None:
        """A repetition at the same seed must repeat exactly."""
        first = reference.setdefault(label, fp)
        if fp != first:
            self.fail(label, seed, "simulated results changed between "
                      "repetitions: " + _diff(first, fp))

    def result(self, metrics: dict, **extra) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "metrics": metrics, **extra}


def _diff(want: dict, got: dict) -> str:
    out = []
    for part in ("result", "counters"):
        a, b = want.get(part, {}), got.get(part, {})
        out += [f"{k}: {a.get(k)!r} != {b.get(k)!r}"
                for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    return ", ".join(out[:8]) or "structure differs"


def mode_setup(workload: str, seed: int) -> None:
    pin_engine()
    import workloads

    clusters = [step.build(seed) for step in workloads.WORKLOADS[workload]]
    setup_s = time.perf_counter() - _T0
    emit({"setup_s": setup_s, "clusters": len(clusters)})
    os._exit(0)  # skip tearing down the clusters: not part of set-up


def mode_timed(workload: str, seed: int, seconds: float) -> None:
    env = pin_engine()
    runner = Runner(workload)
    runner.warm_up()
    walls: dict[str, list[float]] = {s.label: [] for s in runner.steps}
    cpus: dict[str, list[float]] = {s.label: [] for s in runner.steps}
    reference: dict[str, dict] = {}
    start = time.perf_counter()
    reps = 0
    while reps < MIN_REPS or time.perf_counter() - start < seconds:
        for step in runner.steps:
            out = runner.execute(step, seed)
            if out is None:
                continue
            fp, wall, cpu, _ = out
            runner.repeat_check(reference, step.label, seed, fp)
            walls[step.label].append(wall)
            cpus[step.label].append(cpu)
        reps += 1
    if not all(walls.values()):
        emit(runner.result({}, reps=reps, env=env))
        return
    metrics = {
        "wall_s": sum(statistics.median(v) for v in walls.values()),
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    emit(runner.result(metrics, reps=reps, env=env))


def mode_traced(workload: str, seed: int) -> None:
    import layers

    env = pin_engine()
    runner = Runner(workload)
    runner.warm_up()

    def repetition(profile=None):
        outs = [runner.execute(step, seed, profile) for step in runner.steps]
        return None if None in outs else outs

    base = repetition()
    profiles = [cProfile.Profile(), cProfile.Profile()]
    traced = [repetition(p) for p in profiles]
    if base is None or None in traced:
        emit(runner.result({}, env=env))
        return
    for outs in traced:
        for step, a, b in zip(runner.steps, base, outs):
            if a[0] != b[0]:
                runner.fail(step.label, seed, "traced run changed the "
                            "simulated results: " + _diff(a[0], b[0]))
    roll1, roll2 = (layers.rollup(p) for p in profiles)
    counts = [k for k in roll1 if ".calls" in k]
    for key in counts:
        if roll1[key] != roll2[key]:
            runner.fail("trace", seed, f"{key} differs between the two "
                        f"traced runs: {roll1[key]} != {roll2[key]}")
    for roll in (roll1, roll2):
        layer_sum = sum(roll[f"{name}.self_s"] for name in layers.LAYERS)
        if abs(layer_sum - roll["profile.total_s"]) > 0.01 * roll[
                "profile.total_s"]:
            runner.fail("trace", seed, f"layer self time {layer_sum} does "
                        f"not sum to the profiler total "
                        f"{roll['profile.total_s']}")
    metrics = {key: value if key in counts else (value + roll2[key]) / 2
               for key, value in roll1.items()}
    total = metrics.pop("profile.total_s")
    for name in layers.LAYERS:
        metrics[f"{name}.share"] = metrics[f"{name}.self_s"] / total
    metrics["trace.total_s"] = total
    walls = [sum(out[3] for out in outs) for outs in (base, *traced)]
    metrics["trace.overhead"] = (walls[1] + walls[2]) / 2 / walls[0]
    metrics.update(simulated_metrics([out[0] for out in base],
                                     sum(out[1] for out in base)))
    emit(runner.result(metrics, env=env))


def simulated_metrics(fps: list[dict], run_wall: float) -> dict:
    """The simulated counters of one repetition, summed over its points.

    ``sim.host_us_per_event`` and ``rpc.host_us_per_call`` divide the
    untraced host wall time of the runs by simulated work; they are
    host figures and do not repeat exactly.
    """
    def total(name: str) -> float:
        return sum(fp["counters"].get(name, 0.0) for fp in fps)

    def ratio(hit: str, miss: str) -> float:
        hits, misses = total(hit), total(miss)
        return hits / (hits + misses) if hits + misses else 0.0

    results = [fp["result"] for fp in fps]
    read_mb, write_mb, p99, txns = [], [], [], []
    for r in results:
        if "read_mb_s" in r:  # IOzone: one transaction is one record
            read_mb.append(r["read_mb_s"])
            write_mb.append(r["write_mb_s"])
            p99.append(r["read_p99_us"])
            elapsed = r["read_elapsed_us"] + r["write_elapsed_us"]
            txns.append(r["records"] / (elapsed / 1e6))
        else:  # PostMark
            read_mb.append(r["bytes_read"] / r["elapsed_us"])
            write_mb.append(r["bytes_written"] / r["elapsed_us"])
            p99.append(r["latency_p99"])
            txns.append(r["txns_per_s"])
    events = total("sim_events")
    calls = total("rpc_mount_calls")
    return {
        "sim.events": events,
        "sim.sim_s": total("sim_us") / 1e6,
        "sim.host_us_per_event": run_wall * 1e6 / events,
        "nfs.client_ops": total("nfs_client_ops"),
        "rpc.calls_sent": calls,
        "rpc.host_us_per_call": run_wall * 1e6 / calls,
        "rpc.retransmits": total("rpc_retransmits"),
        "rpc.server_failed": total("rpc_server_failed"),
        "rpc.credit_waits": total("rpc_credit_waits"),
        "rpc.queue_waits": total("rpc_queue_waits"),
        "rpc.drc_replays": total("drc_replays"),
        "ib.send_ops": total("hca_send_ops"),
        "ib.rdma_read_bytes": total("hca_rdma_read_bytes"),
        "ib.rdma_write_bytes": total("hca_rdma_write_bytes"),
        "ib.rnr_events": total("hca_rnr_events"),
        "ib.qps": total("hca_qps"),
        "ib.tpt_registrations": total("tpt_registrations"),
        "ib.srq_exhaustions": total("srq_exhaustions"),
        "ib.mux_lanes": total("mux_lanes"),
        "core.regcache_hit_ratio": ratio("regcache_hits", "regcache_misses"),
        "fs.pagecache_hit_ratio": ratio("pagecache_hits", "pagecache_misses"),
        "model.read_MBps": statistics.fmean(read_mb),
        "model.write_MBps": statistics.fmean(write_mb),
        "model.read_p99_us": statistics.fmean(p99),
        "model.txns_per_s": statistics.fmean(txns),
    }


def mode_expect(workload: str) -> None:
    pin_engine()
    runner = Runner(workload)
    pinned = {}
    for step in runner.steps:
        out = runner.execute(step, runner.w.DEFAULT_SEED)
        if out is None:
            raise SystemExit(f"perfbench: {workload} {step.label} failed at "
                             f"the default seed")
        pinned[step.label] = out[0]
    emit({"seed": runner.w.DEFAULT_SEED, "points": pinned})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", required=True,
                        choices=("engine", "setup", "timed", "traced",
                                 "expect"))
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    if args.mode == "engine":
        emit(pin_engine())
    elif args.mode == "setup":
        mode_setup(args.workload, args.seed)
    elif args.mode == "timed":
        mode_timed(args.workload, args.seed, args.seconds)
    elif args.mode == "traced":
        mode_traced(args.workload, args.seed)
    else:
        mode_expect(args.workload)


if __name__ == "__main__":
    main()
