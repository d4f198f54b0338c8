"""The benchmark's four workloads, built through the public entry points.

Each workload is a list of :class:`Step` objects.  A step is one
simulated point: ``build(seed)`` constructs the deployment (this is the
set-up the benchmark times as ``setup_s``) and ``run(cluster, seed)``
drives one closed-loop workload on it and returns the simulated results
as plain numbers.  Every simulated thread issues its next NFS call only
after the previous reply, and all concurrency lives inside the
discrete-event simulation: the host runs the steps one after another.

Network and disk are simulated.  Nothing here touches a real link or a
real disk; the host time the benchmark reports is the simulator's own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from repro.api import connect
from repro.experiments.cluster import Cluster, ClusterConfig
from repro.experiments.sweep import PROFILES, Point, run_point
from repro.experiments.topology import MultiCluster, TopologyConfig
from repro.telemetry import Telemetry
from repro.workloads import PostmarkParams, run_postmark

#: The seed whose simulated results ``expected.json`` pins exactly.
DEFAULT_SEED = 2007


@dataclass(frozen=True)
class Step:
    """One simulated point of a workload."""

    label: str
    build: Callable[[int], Any]
    run: Callable[[Any, int], dict]


def _iozone(**params) -> Callable[[Any, int], dict]:
    point = Point(kind="iozone", params=params)

    def run(cluster: Any, seed: int) -> dict:
        out = run_point(point, cluster=cluster)
        # One IOzone transaction is one record, written then read back.
        out["records"] = 2 * out["bytes_per_phase"] // params["record_bytes"]
        return out
    return run


# ---------------------------------------------------------------- rdma-stream
def _stream_cluster(transport: str) -> Callable[[int], Any]:
    return lambda seed: Cluster(ClusterConfig(
        transport=transport, strategy="dynamic", backend="tmpfs",
        profile=PROFILES["solaris-sdr"], seed=seed))


_STREAM_IO = _iozone(nthreads=8, record_bytes=1 << 20, ops_per_thread=120)


# ---------------------------------------------------------------- rdma-meta
def _meta_cluster(seed: int) -> Any:
    return connect(ClusterConfig.rdma_rw(
        strategy="cache", profile=PROFILES["solaris-sdr"], seed=seed)).cluster


def _postmark(cluster: Any, seed: int) -> dict:
    # One thread, as in the original PostMark.  With more threads,
    # run_postmark lets one thread remove a file that another is still
    # using, and most seeds then end in an NFS STALE error.
    r = run_postmark(cluster, PostmarkParams(
        initial_files=200, transactions=2000, nthreads=1, seed=seed))
    out = {k: v for k, v in dataclasses.asdict(r).items() if k != "latency"}
    out.update({f"latency_{k}": v
                for k, v in dataclasses.asdict(r.latency).items()})
    return out


# ---------------------------------------------------------------- many-mounts
def _mounts_cluster(sharded: bool) -> Callable[[int], Any]:
    extra = {"servers": 4, "mux": True} if sharded else {}

    def build(seed: int) -> Any:
        return MultiCluster(TopologyConfig(
            client_hosts=4, credits=8, **extra,
            cluster=ClusterConfig(
                transport="rdma-rw", strategy="dynamic",
                profile=PROFILES["solaris-sdr"], nclients=1000,
                server_workers=8, server_queue_depth=64, srq=sharded,
                seed=seed)))
    return build


_MOUNTS_IO = _iozone(nthreads=1, record_bytes=64 * 1024, ops_per_thread=2)


# ---------------------------------------------------------------- tcp-disk
FILE_BYTES = 64 << 20


def _tcp_cluster(seed: int) -> Any:
    return Cluster(ClusterConfig.tcp(
        "ipoib", strategy="dynamic", backend="raid",
        cache_bytes=4 * FILE_BYTES, nclients=5,
        profile=PROFILES["linux-ddr-raid"], seed=seed))


WORKLOADS: dict[str, list[Step]] = {
    "rdma-stream": [
        Step("RR-1M-t8", _stream_cluster("rdma-rr"), _STREAM_IO),
        Step("RW-1M-t8", _stream_cluster("rdma-rw"), _STREAM_IO),
    ],
    "rdma-meta": [
        Step("postmark-RW-cache", _meta_cluster, _postmark),
    ],
    "many-mounts": [
        Step("per-conn-m1000", _mounts_cluster(False), _MOUNTS_IO),
        Step("muxed+sharded-m1000", _mounts_cluster(True), _MOUNTS_IO),
    ],
    "tcp-disk": [
        Step("IPoIB-4x-file-cache-c5", _tcp_cluster,
             _iozone(nthreads=1, record_bytes=1 << 20, file_bytes=FILE_BYTES,
                     ops_per_thread=None)),
    ],
}


def counters(cluster: Any) -> dict[str, float]:
    """The cluster's simulated counters, each summed over its labels.

    Reads the live counters through :meth:`Telemetry.attach_cluster`
    after the run; the telemetry object is never installed as
    ``sim.telemetry``, so the run itself is untouched.
    """
    telemetry = Telemetry(cluster.sim, tracing=False)
    telemetry.attach_cluster(cluster)
    sums: dict[str, float] = {}
    for sample in telemetry.registry.collect():
        sums[sample.name] = sums.get(sample.name, 0.0) + sample.value
    sums["nfs_client_ops"] = float(sum(m.nfs.ops.events
                                       for m in cluster.mounts))
    # Per mount only: on a mux the registry counts each call twice, once
    # on the mount's lane and once on the shared channel.
    sums["rpc_mount_calls"] = float(sum(m.transport.calls_sent.events
                                        for m in cluster.mounts))
    sums["sim_events"] = float(cluster.sim.steps)
    sums["sim_us"] = float(cluster.sim.now)
    return sums


def fingerprint(result: dict, cluster: Any) -> dict:
    """Everything simulated about one point, as exact plain numbers."""
    return {
        "result": {k: float(v) for k, v in sorted(result.items())},
        "counters": dict(sorted(counters(cluster).items())),
    }


def invariant_errors(fp: dict) -> list[str]:
    """Invariants every seed must meet: these runs inject no faults.

    A short read already raises inside the IOzone workload, which marks
    the point failed before it gets here.
    """
    c = fp["counters"]
    errors = [f"{name} = {c.get(name, 0.0):g}, expected 0"
              for name in ("nfsd_errors", "rpc_server_failed",
                           "rpc_retransmits")
              if c.get(name, 0.0) != 0.0]
    if c["nfs_client_ops"] <= 0:
        errors.append("no NFS calls completed")
    return errors
