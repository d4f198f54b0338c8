"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper, but direct probes of its mechanisms:

* Read-engine serialization — §4.1 blames the WRITE ceiling on "the
  serialization of RDMA Reads"; sweeping the responder's per-read
  turnaround moves that ceiling exactly as predicted.
* Inline threshold — the Fig 2 inline size decides which operations pay
  chunk/registration costs at all.
* Client-side registration cache — the technical report's extension:
  with the server cache in place, client registration is the next
  ceiling.
* Adaptive credits — the §7 future-work flow control under a client
  flood.

Each ablation is fixed-size — the IOzone probes run 8 threads × 40 ops,
the credit flood 96 writes — and ``REPRO_BENCH_SCALE`` does not change
them.
"""

from dataclasses import replace

from repro.analysis import SOLARIS_SDR
from repro.analysis.stats import format_table
from repro.core import AdaptiveCreditPolicy
from repro.core.config import RpcRdmaConfig
from repro.experiments import Cluster, ClusterConfig
from repro.workloads import IozoneParams, run_iozone


def _iozone(cluster, **kwargs):
    params = IozoneParams(nthreads=8, ops_per_thread=40, **kwargs)
    return run_iozone(cluster, params)


def test_ablation_read_engine_serialization():
    """WRITE throughput vs the responder read-engine turnaround (§4.1).

    The paper blames the WRITE ceiling on "the serialization of RDMA
    Reads"; the read engine's per-read setup is that serialization.
    (The IRD/ORD=8 in-flight cap itself is property-tested in
    tests/test_ib_verbs_hca.py; on a serialized responder it is the
    turnaround, not the cap, that sets throughput.)"""

    def sweep():
        rows = []
        for setup_us in (20.0, 60.0, 112.0, 220.0, 440.0):
            profile = replace(
                SOLARIS_SDR,
                client_hca=replace(SOLARIS_SDR.client_hca,
                                   read_response_setup_us=setup_us),
            )
            cluster = Cluster(ClusterConfig(
                transport="rdma-rw", strategy="cache", profile=profile))
            result = _iozone(cluster)
            rows.append((setup_us, round(result.write_mb_s, 1)))
        return rows

    rows = sweep()
    print()
    print(format_table(["read setup us", "write MB/s"], rows))
    by_setup = dict(rows)
    # Write bandwidth tracks 128KB/(setup+wire) until other costs bind.
    assert by_setup[20.0] > 1.5 * by_setup[220.0]
    assert by_setup[220.0] > by_setup[440.0]


def test_ablation_inline_threshold():
    """Small-write throughput vs the inline threshold (Fig 2 knob)."""

    def sweep():
        rows = []
        for inline in (512, 1024, 4096, 8192):
            profile = replace(
                SOLARIS_SDR,
                rpcrdma=RpcRdmaConfig(inline_threshold=inline),
            )
            cluster = Cluster(ClusterConfig(
                transport="rdma-rw", strategy="dynamic", profile=profile))
            result = _iozone(cluster, record_bytes=2048)
            rows.append((inline, round(result.write_mb_s, 1)))
        return rows

    rows = sweep()
    print()
    print(format_table(["inline bytes", "2KB-record write MB/s"], rows))
    by_inline = dict(rows)
    # Once 2KB records fit inline (4096+), the chunk/registration path —
    # and its cost — disappears from the write path entirely.
    assert by_inline[4096] > 1.5 * by_inline[1024]


def test_ablation_client_registration_cache():
    """TR extension: caching client registrations lifts the Fig 7 cache
    plateau the rest of the way toward the wire."""

    def sweep():
        rows = []
        for strategy in ("dynamic", "cache", "client-cache"):
            cluster = Cluster(ClusterConfig(transport="rdma-rw", strategy=strategy))
            result = _iozone(cluster)
            rows.append((strategy, round(result.read_mb_s, 1)))
        return rows

    rows = sweep()
    print()
    print(format_table(["strategy", "read MB/s"], rows))
    by_strategy = dict(rows)
    assert by_strategy["dynamic"] < by_strategy["cache"] < by_strategy["client-cache"]


def test_ablation_adaptive_credits_under_flood():
    """§7 future work: AIMD credits tame a flooding client's backlog."""

    def run_once(adaptive: bool):
        # Dynamic registration makes each 128KB write expensive at the
        # server, so a flood genuinely backs the dispatcher up.
        cluster = Cluster(ClusterConfig(transport="rdma-rw", strategy="dynamic"))
        if adaptive:
            policy = AdaptiveCreditPolicy(
                total_credits=16, min_grant=2, max_grant=32,
                backlog_high=6, backlog_low=2,
            )
            for server in cluster.server_transports:
                server.credit_policy = policy
                policy.register_connection(server.qp.qp_num)
        nfs = cluster.mounts[0].nfs

        def flood():
            fh, _ = yield from nfs.create(nfs.root, "flood")

            def one(i):
                yield from nfs.write(fh, i * 131072, b"y" * 131072)

            procs = [cluster.sim.process(one(i)) for i in range(96)]
            from repro.sim import AllOf

            yield AllOf(cluster.sim, procs)

        watcher_samples = []

        def watcher():
            while True:
                yield cluster.sim.timeout(50.0)
                watcher_samples.append(cluster.rpc_server.backlog)

        cluster.sim.process(watcher())
        cluster.run(flood())
        peak_backlog = max(watcher_samples, default=0)
        client = cluster.mounts[0].transport
        return peak_backlog, client.credits.outstanding_peak

    def sweep():
        return {"static": run_once(False), "adaptive": run_once(True)}

    results = sweep()
    print()
    print(format_table(
        ["policy", "peak dispatcher backlog", "peak client outstanding"],
        [[k, v[0], v[1]] for k, v in results.items()],
    ))
    # Adaptive grants clamp how deep one client can bury the server.
    assert results["adaptive"][1] < results["static"][1]
    assert results["adaptive"][0] <= results["static"][0]


def test_ablation_interrupt_cost():
    """§4.2 probes: the Read-Read design takes more interrupts per READ
    (the RDMA_DONE completion among them), so inflating per-interrupt
    CPU cost hurts it disproportionately."""

    def sweep():
        rows = []
        for irq_us in (0.0, 16.0, 48.0):
            profile = replace(SOLARIS_SDR, interrupt_cost_us=irq_us)
            for design in ("rdma-rr", "rdma-rw"):
                cluster = Cluster(ClusterConfig(
                    transport=design, strategy="cache", profile=profile))
                result = _iozone(cluster)
                irqs = (cluster.server_node.irq.delivered.events
                        + sum(n.irq.delivered.events
                              for n in cluster.client_nodes))
                rows.append((irq_us, design, round(result.read_mb_s, 1),
                             irqs,
                             round(result.server_cpu_read * 100, 1)))
        return rows

    rows = sweep()
    print()
    print(format_table(
        ["irq cost us", "design", "read MB/s", "total irqs", "server CPU %"],
        rows,
    ))
    by = {(r[0], r[1]): r for r in rows}
    # The Read-Read design delivers ~1/3 more interrupts (call recv,
    # reply recv at client, and the DONE recv at the server).
    assert by[(16.0, "rdma-rr")][3] > 1.2 * by[(16.0, "rdma-rw")][3]
    # At these operation rates the cost shows up as CPU headroom, not
    # throughput — the TPT/read-engine ceilings bind first.  Server CPU
    # rises with interrupt cost.
    assert by[(48.0, "rdma-rr")][4] > by[(0.0, "rdma-rr")][4]
