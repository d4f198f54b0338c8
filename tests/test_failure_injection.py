"""Failure injection: QP death, automatic recovery, exactly-once replay."""

import gc
import sys
from dataclasses import replace

import pytest

from repro.analysis import SOLARIS_SDR
from repro.core.base import TransportError
from repro.core.config import RpcRdmaConfig
from repro.core.strategies import FmrStrategy
from repro.experiments import Cluster, ClusterConfig
from repro.faults import FaultPlan
from repro.ib.verbs import QPError
from repro.nfs.server import NfsServer
from repro.workloads.iozone import IozoneParams, run_iozone

NFS_PROG, NFS_VERS = 100003, 3


def kill_connection(cluster, index=0):
    """Fatal error on both ends of one mount's connection."""
    qp = cluster.mounts[index].transport.qp
    qp.enter_error("injected fault")
    qp.peer.enter_error("injected fault (remote)")


def count_executions(cluster):
    """Wrap the NFS program handler to tally (xid, proc) executions."""
    executions: dict = {}
    original = cluster.rpc_server._programs[(NFS_PROG, NFS_VERS)]

    def wrapped(call):
        key = (call.xid, call.proc)
        executions[key] = executions.get(key, 0) + 1
        return (yield from original(call))

    cluster.rpc_server._programs[(NFS_PROG, NFS_VERS)] = wrapped
    return executions


def test_qp_error_fails_inflight_calls_without_reconnect_policy():
    """Legacy fail-fast behaviour, still available with the policy off."""
    c = Cluster(ClusterConfig(transport="rdma-rw", auto_reconnect=False))
    nfs = c.mounts[0].nfs
    outcomes = []

    def victim():
        try:
            fh, _ = yield from nfs.create(nfs.root, "doomed")
            yield from nfs.write(fh, 0, bytes(256 * 1024))
            outcomes.append("ok")
        except (TransportError, QPError):
            outcomes.append("failed")

    def killer():
        yield c.sim.timeout(50.0)  # mid-flight
        kill_connection(c)

    c.sim.process(victim())
    c.sim.process(killer())
    c.sim.run(until=c.sim.now + 5_000_000.0)
    assert outcomes == ["failed"]


def test_inflight_call_recovers_from_qp_error():
    """The tentpole behaviour: a QP kill mid-WRITE heals transparently —
    the transport redials, replays the call, and the data lands."""
    c = Cluster(ClusterConfig(transport="rdma-rw"))
    nfs = c.mounts[0].nfs
    executions = count_executions(c)
    outcomes = []

    def victim():
        fh, _ = yield from nfs.create(nfs.root, "survivor")
        yield from nfs.write(fh, 0, bytes(range(256)) * 1024)
        data, _, _ = yield from nfs.read(fh, 0, 256 * 1024)
        outcomes.append(data)

    def killer():
        yield c.sim.timeout(50.0)  # mid-flight
        kill_connection(c)

    c.sim.process(victim())
    c.sim.process(killer())
    c.sim.run(until=c.sim.now + 60_000_000.0)
    assert outcomes == [bytes(range(256)) * 1024]
    transport = c.mounts[0].transport
    assert transport.reconnects.events >= 1
    assert transport.calls_recovered.events >= 1
    # Exactly-once: no (xid, proc) pair ran the handler twice.
    assert all(n == 1 for n in executions.values())


def test_new_calls_recover_after_failure():
    """A call issued on an already-dead mount redials instead of failing
    (replaces the old "new calls rejected after failure" behaviour)."""
    c = Cluster(ClusterConfig(transport="rdma-rw"))
    nfs = c.mounts[0].nfs

    def warm():
        fh, _ = yield from nfs.create(nfs.root, "pre")
        yield from nfs.write(fh, 0, b"before the crash")
        return fh

    fh = c.run(warm())
    kill_connection(c)

    def after():
        data, _, _ = yield from nfs.read(fh, 0, 100)
        return data

    assert c.run(after()) == b"before the crash"
    assert c.mounts[0].transport.reconnects.events == 1


def test_drc_replay_over_rdma():
    """A lost reply over the RDMA transport is recovered by xid-preserving
    retransmit + DRC replay: the non-idempotent CREATE runs once."""
    profile = replace(
        SOLARIS_SDR,
        rpcrdma=replace(RpcRdmaConfig(), reply_timeout_us=20_000.0),
    )
    c = Cluster(ClusterConfig(transport="rdma-rw", profile=profile,
                              fault_plan=FaultPlan(seed=11)))
    nfs = c.mounts[0].nfs
    executions = count_executions(c)

    def proc():
        # Eat the next message arriving at the client: the CREATE reply.
        c.faults.drop_next("client0", 1)
        fh, _ = yield from nfs.create(nfs.root, "once")
        entries = yield from nfs.readdir(nfs.root)
        return fh, entries

    fh, entries = c.run(proc())
    assert "once" in [e.name for e in entries]
    transport = c.mounts[0].transport
    assert transport.retransmissions.events >= 1
    assert c.faults.messages_dropped.events == 1
    assert c.drc.replays.events + c.drc.drops.events >= 1
    assert all(n == 1 for n in executions.values())


def test_reconnect_resumes_service_with_same_handles():
    c = Cluster(ClusterConfig(transport="rdma-rw", auto_reconnect=False))
    nfs = c.mounts[0].nfs

    def before():
        fh, _ = yield from nfs.create(nfs.root, "durable")
        yield from nfs.write(fh, 0, b"survives reconnect")
        return fh

    fh = c.run(before())
    # Kill the connection.
    kill_connection(c)
    # Manual reconnect: fresh QP + transport; handles remain valid.
    mount = c.reconnect_client(0)

    def after():
        data, _, _ = yield from mount.nfs.read(fh, 0, 100)
        return data

    assert c.run(after()) == b"survives reconnect"


def test_reconnect_reclaims_withheld_rr_buffers():
    """Dropping a DONE-withholding client frees its pinned windows."""
    from repro.nfs import NfsClient
    from repro.core.readread import ReadReadServer
    from repro.security import DoneWithholdingClient

    c = Cluster(ClusterConfig(transport="rdma-rr"))
    mount = c.mounts[0]
    qc, qs = c.fabric.connect(mount.node, c.server_node)
    evil = DoneWithholdingClient(mount.node, qc, c.config.profile.rpcrdma,
                                 mount.transport.strategy)
    server = ReadReadServer(c.server_node, qs, c.config.profile.rpcrdma,
                            c.server_strategy)
    server.attach(c.rpc_server)
    evil.peer_ready = server.ready
    nfs = NfsClient(evil, c.nfs_server.root_handle())

    def attack():
        fh, _ = yield from nfs.create(nfs.root, "bait")
        yield from nfs.write(fh, 0, bytes(512 * 1024))
        for i in range(4):
            yield from nfs.read(fh, i * 128 * 1024, 128 * 1024)

    c.run(attack())
    assert server.pending_done_count == 4
    c.run(server.disconnect())
    assert server.pending_done_count == 0
    assert c.server_node.hca.tpt.remotely_exposed() == []


def test_fmr_pool_exhaustion_falls_back_not_fails():
    """A tiny FMR pool under concurrency silently falls back to dynamic
    registration (the paper's transparent fallback path)."""
    c = Cluster(ClusterConfig(transport="rdma-rw", strategy="fmr"))
    # Shrink the server pool drastically after construction.
    small = FmrStrategy(c.server_node, pool_size=2)
    for st in c.server_transports:
        st.strategy = small
    c.server_stacks[0].strategy = small
    nfs = c.mounts[0].nfs
    done = []

    def op(i):
        fh, _ = yield from nfs.create(nfs.root, f"f{i}")
        yield from nfs.write(fh, 0, bytes(128 * 1024))
        data, _, _ = yield from nfs.read(fh, 0, 128 * 1024)
        done.append(len(data))

    for i in range(8):
        c.sim.process(op(i))
    c.sim.run(until=c.sim.now + 60_000_000.0)
    assert done == [128 * 1024] * 8
    assert small.fallbacks.events > 0      # degradations counted...
    assert small._fallback.acquires.events > 0  # ...and actually taken


def test_rnr_storm_recovers_without_data_loss():
    """Posting far more sends than posted receives triggers RNR retries
    but the credit machinery keeps everything delivered eventually."""
    profile = replace(SOLARIS_SDR, rpcrdma=RpcRdmaConfig(credits=2))
    c = Cluster(ClusterConfig(transport="rdma-rw", profile=profile))
    nfs = c.mounts[0].nfs
    done = []

    def op(i):
        fh, _ = yield from nfs.create(nfs.root, f"n{i}")
        done.append(i)

    for i in range(20):
        c.sim.process(op(i))
    c.sim.run(until=c.sim.now + 60_000_000.0)
    assert sorted(done) == list(range(20))
    assert c.mounts[0].transport.credits.outstanding_peak <= 2


def test_reconnect_tcp_transport():
    c = Cluster(ClusterConfig(transport="tcp-gige"))
    nfs = c.mounts[0].nfs

    def before():
        fh, _ = yield from nfs.create(nfs.root, "t")
        yield from nfs.write(fh, 0, b"tcp data")
        return fh

    fh = c.run(before())
    mount = c.reconnect_client(0)

    def after():
        data, _, _ = yield from mount.nfs.read(fh, 0, 10)
        return data

    assert c.run(after()) == b"tcp data"


def test_experiment_runners_smoke():
    """The fast experiment runners produce well-formed rows."""
    from repro.experiments.figures import run_security_audit, run_table1

    t1 = run_table1()
    assert len(t1.rows) == 2
    assert t1.headers[0] == "primitive"
    audit = run_security_audit()
    designs = [row[0] for row in audit.rows]
    assert designs == ["rdma-rr", "rdma-rw"]


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
def test_aborted_run_closes_inflight_calls_quietly(monkeypatch, transport):
    """A run that aborts with calls in flight leaves their generators
    suspended; collecting them must release without yielding, so no
    'generator ignored GeneratorExit' reaches sys.unraisablehook."""
    def failing_write(self, call, args):
        raise RuntimeError("injected server fault")
        yield  # pragma: no cover

    monkeypatch.setattr(NfsServer, "_do_write", failing_write)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    cluster = Cluster(ClusterConfig(transport=transport))
    params = IozoneParams(nthreads=4, record_bytes=64 << 10,
                          file_bytes=1 << 20, ops_per_thread=4)
    with pytest.raises(RuntimeError, match="injected server fault"):
        run_iozone(cluster, params)
    del cluster
    gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []
