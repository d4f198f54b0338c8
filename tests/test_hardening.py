"""Hardened-data-plane tests: leases, quotas, quarantine, AES, campaigns.

Complements ``test_security.py`` (the raw §4.1 attacks): here every
attack runs against a server with the PR-6 mitigations toggled on, and
the assertions are about the *defense* — bounded pinning, admission
control, escalation to quarantine, and the analytic stag-guess bound.
The later sections send crafted and mutated frames from hostile
clients and servers: every receive path must count what it cannot
decode or serve, keep running, and keep serving legitimate mounts.
"""

import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.calibration import SOLARIS_SDR
from repro.core.base import DATA_CHUNK_POSITION, RpcRdmaServerBase, _RdmaEndpoint
from repro.core.chunks import ChunkList, ReadChunk
from repro.core.header import MessageType, RpcRdmaHeader
from repro.core.readread import ReadReadServer
from repro.errors import ReproError
from repro.experiments import Cluster, ClusterConfig
from repro.ib.verbs import Segment, SendWR
from repro.nfs import NfsClient
from repro.nfs.fh import FH
from repro.nfs.mountd import MNT, MOUNT_PROG, MOUNT_VERS, Export, MountClient, MountServer
from repro.nfs.protocol import NFS3_PROCS, NFS3_PROG, NFS3_VERS, Nfs3Proc, Nfs3Status
from repro.rpc.msg import MSG_DENIED, RpcCall, frame_message
from repro.rpc.transport import RpcTimeout
from repro.rpc.xdr import OPAQUE, STRING, XdrError
from repro.security import (
    CampaignParams,
    DoneWithholdingClient,
    StagGuessingAdversary,
    audit_server_exposure,
    run_campaign,
    stag_guess_success_probability,
)
from repro.security.campaign import _add_mal_node, _qp_factory
from repro.tcpip.tcp import TcpConnection
from repro.workloads import IozoneParams, run_iozone
from tests.test_wire_fuzz import mutations as wire_mutations

RECORD = 128 * 1024


def _withholder_cluster(**knobs):
    """An RR cluster plus a DONE-withholding mount wired through the
    cluster's own hardened transport factory (leases/quota/policy)."""
    c = Cluster(ClusterConfig(transport="rdma-rr", **knobs))
    qc, qs = c.fabric.connect(c.mounts[0].node, c.server_node)
    withholder = DoneWithholdingClient(
        c.mounts[0].node, qc, c.rpcrdma, c.mounts[0].transport.strategy)
    server = c.server_stacks[0].make_transport(qs)
    withholder.peer_ready = server.ready
    nfs = NfsClient(withholder, c.nfs_server.root_handle())
    return c, nfs, withholder, server


def _withhold_eight(c, nfs):
    def attack():
        fh, _ = yield from nfs.create(nfs.root, "pinned")
        yield from nfs.write(fh, 0, bytes(1 << 20))
        for i in range(8):
            yield from nfs.read(fh, i * RECORD, RECORD)

    c.run(attack())


# ---------------------------------------------------------------- analytic bound
def test_uniform_guess_hits_match_analytic_bound():
    """Empirical uniform-guess hit count is consistent with the
    ``exposed / 2^32`` analytic probability: zero hits over any
    realistic number of attempts."""
    c = Cluster(ClusterConfig(transport="rdma-rr"))
    mount = c.mounts[0]

    def traffic():
        nfs = mount.nfs
        fh, _ = yield from nfs.create(nfs.root, "victim")
        yield from nfs.write(fh, 0, bytes(512 * 1024))
        for i in range(4):
            yield from nfs.read(fh, i * RECORD, RECORD)

    c.run(traffic())
    exposed = len(c.server_node.hca.tpt.stags_exposed_ever)
    assert exposed >= 4
    p = stag_guess_success_probability(exposed)
    assert p == exposed / 2**32

    def qp_factory():
        qc, _qs = c.fabric.connect(mount.node, c.server_node)
        return qc

    adversary = StagGuessingAdversary(mount.node, qp_factory, seed=11)
    guesses = 200
    faults_before = c.server_node.hca.tpt.protection_faults.events
    c.run(adversary.run(guesses=guesses))
    # Expected hits = guesses * p ~ 2e-8: a single observed hit would be
    # a >1e7-sigma event, i.e. a randomization bug.
    assert guesses * p < 1e-6
    assert adversary.successes.events == 0
    assert (c.server_node.hca.tpt.protection_faults.events
            - faults_before) >= guesses


# ---------------------------------------------------------------- leases
def test_withheld_pins_unbounded_without_leases():
    c, nfs, withholder, server = _withholder_cluster()
    _withhold_eight(c, nfs)
    c.sim.run(until=c.sim.now + 200_000.0)
    # No deadline: all eight windows stay pinned forever.
    assert withholder.dones_suppressed.events == 8
    assert server.pending_done_count == 8
    assert server.lease_reclaims.events == 0


def test_leases_reclaim_withheld_pins():
    c, nfs, withholder, server = _withholder_cluster(lease_timeout_us=5_000.0)
    _withhold_eight(c, nfs)
    c.sim.run(until=c.sim.now + 200_000.0)
    assert withholder.dones_suppressed.events == 8
    # Every withheld window was reclaimed at its lease deadline.
    assert server.pending_done_count == 0
    assert server.lease_reclaims.events == 8
    assert server.lease_reclaims.value == 8 * RECORD
    # The policy saw the reclaims (misbehavior signal) and the TPT holds
    # no remote exposure.
    assert c.security_policy is not None
    assert c.security_policy.lease_reclaims.value == 8 * RECORD
    report = audit_server_exposure(c.server_node, c.server_transports)
    assert report["exposed_regions_now"] == 0


# ---------------------------------------------------------------- quotas
def test_quota_caps_pinned_exposure():
    quota = 2 * RECORD
    c, nfs, withholder, server = _withholder_cluster(
        exposure_quota_bytes=quota)
    _withhold_eight(c, nfs)
    report = audit_server_exposure(c.server_node, [server])
    assert report["pending_done_bytes"] <= quota
    # Six of the eight windows were evicted by admission control.
    assert server.quota_evictions.events >= 6
    assert c.security_policy.quota_evictions.value >= 6 * RECORD


# ---------------------------------------------------------------- AES payloads
def test_aes_payload_charges_crypt_on_both_ends():
    plain = Cluster(ClusterConfig(transport="rdma-rr"))
    aes = Cluster(ClusterConfig(transport="rdma-rr", aes_payload=True))
    r_plain = run_iozone(plain, IozoneParams(nthreads=1, ops_per_thread=8))
    r_aes = run_iozone(aes, IozoneParams(nthreads=1, ops_per_thread=8))
    assert plain.server_node.cpu.crypt_bytes.value == 0
    # Both ends pay per byte moved; the work shows up as throughput loss.
    assert aes.server_node.cpu.crypt_bytes.value > 0
    assert aes.client_nodes[0].cpu.crypt_bytes.value > 0
    assert r_aes.read_mb_s < r_plain.read_mb_s


# ---------------------------------------------------------------- SRQ audit
def test_exposure_audit_counts_shared_recv_pool_once():
    c = Cluster(ClusterConfig(transport="rdma-rr", srq=True, nclients=4))
    run_iozone(c, IozoneParams(nthreads=1, ops_per_thread=4))
    report = audit_server_exposure(c.server_node, c.server_transports)
    # One shared pool attributed once — not once per transport.
    assert report["recv_shared_pools"] == 1
    assert report["recv_registered_bytes"] == c.server_recv_buffer_bytes()
    assert report["recv_registered_bytes"] == c.srq.registered_bytes


def test_exposure_audit_sums_per_connection_rings():
    c = Cluster(ClusterConfig(transport="rdma-rr", nclients=4))
    run_iozone(c, IozoneParams(nthreads=1, ops_per_thread=4))
    report = audit_server_exposure(c.server_node, c.server_transports)
    assert report["recv_shared_pools"] == 0
    assert report["recv_registered_bytes"] == c.server_recv_buffer_bytes()
    assert report["recv_registered_bytes"] > 0


# ---------------------------------------------------------------- quarantine
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_quarantine_evicts_flooder_not_victims(seed):
    """Property over adversary seeds: a flooding mount always ends up
    quarantined while the legitimate mounts keep full service."""
    c = Cluster(ClusterConfig(transport="rdma-rr", quarantine=True))
    result = run_campaign(c, CampaignParams(
        duration_us=15_000.0, adversaries=("flood",), seed=seed))
    assert result.quarantined >= 1
    assert c.security_policy.is_banned("malfl")
    # Victims were never evicted and kept reading throughout.
    for mount in c.mounts:
        assert not getattr(mount.transport, "failed", False)
        assert not c.security_policy.is_banned(mount.node.name)
    assert result.legit_ops > 0


# ---------------------------------------------------------------- campaign acceptance
def test_campaign_rr_acceptance():
    """The fig12 acceptance story at campaign level: unmitigated RR
    pinning grows unbounded; leases+quota bound it below the cap while
    legitimate throughput stays within 10% of the attack-free run."""
    # Full-figure duration: long enough that the fixed-size attacks (and
    # the pre-quarantine damage window) are small next to the measured
    # steady state — the regime the within-10% criterion is about.
    duration = 120_000.0
    quota = 4 * RECORD

    baseline = run_campaign(
        Cluster(ClusterConfig(transport="rdma-rr")),
        CampaignParams(duration_us=duration, adversaries=()))
    unmitigated = run_campaign(
        Cluster(ClusterConfig(transport="rdma-rr")),
        CampaignParams(duration_us=duration))
    hardened = run_campaign(
        Cluster(ClusterConfig(transport="rdma-rr", lease_timeout_us=5_000.0,
                              exposure_quota_bytes=quota, quarantine=True)),
        CampaignParams(duration_us=duration))

    # Unmitigated: the withholder's pins survive the whole campaign.
    assert unmitigated.pinned_final_bytes >= 4 * RECORD
    # Hardened: peak exposure bounded by quota (+ the one in-flight
    # window admission control always lets through); at the end nothing
    # is pinned beyond at most one window whose DONE is still in flight.
    assert hardened.pinned_peak_bytes <= quota + RECORD
    assert hardened.pinned_final_bytes <= RECORD
    assert hardened.lease_reclaimed_bytes + hardened.quota_evicted_bytes > 0
    # Victim throughput: within 10% of attack-free.
    assert hardened.legit_read_mb_s >= 0.9 * baseline.legit_read_mb_s


def test_campaign_rw_immune():
    """Against Read-Write the same campaign has nothing to attack:
    no pins, no exposed stags to hit, no replayable windows."""
    result = run_campaign(
        Cluster(ClusterConfig(transport="rdma-rw")),
        CampaignParams(duration_us=15_000.0))
    assert result.pinned_final_bytes == 0
    assert result.pinned_peak_bytes == 0
    assert result.guess_hits == 0
    assert result.replay_hits == 0
    assert result.legit_ops > 0


# ---------------------------------------------------------------- sanitized flood
def test_flood_under_sanitizer_yields_typed_naks_only():
    """Attack traffic is NAKed with typed causes; none of it escapes as
    a sanitizer violation (adversarial WRs are NAKs by design, not
    simulation bugs)."""
    c = Cluster(ClusterConfig(transport="rdma-rr", sanitizer=True))
    result = run_campaign(c, CampaignParams(
        duration_us=15_000.0, adversaries=("flood", "guess")))
    assert result.protection_naks > 0
    causes = {cause for cause, n in
              c.server_node.hca.tpt.faults_by_cause.items() if n}
    assert causes and causes <= {"stag", "access", "bounds"}
    assert "stag" in causes
    assert c.sim.sanitizer.violations == []


def test_hardening_knobs_validated():
    with pytest.raises(ValueError):
        ClusterConfig(transport="tcp-ipoib", lease_timeout_us=5_000.0)
    with pytest.raises(ValueError):
        ClusterConfig(transport="rdma-rr", lease_timeout_us=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(transport="rdma-rr", exposure_quota_bytes=-1)
    with pytest.raises(ValueError):
        CampaignParams(adversaries=("withhold", "zerg"))


def test_mitigations_off_by_default():
    """Hardening knobs default off: no policy object, no lease timers,
    no quota checks — the inertness the golden figures pin."""
    c = Cluster(ClusterConfig(transport="rdma-rr"))
    assert c.security_policy is None
    assert c.rpcrdma.lease_timeout_us is None
    assert c.rpcrdma.exposure_quota_bytes is None
    assert not c.rpcrdma.aes_payload


# ---------------------------------------------------------------- crafted frames
#: An RDMA_MSG header whose write list holds one chunk with zero
#: segments.  It used to escape the decoders as a bare ValueError and
#: stop the whole simulation.
EMPTY_WRITE_CHUNK_FRAME = struct.pack(">10I", 7, 1, 1, 0, 0, 1, 0, 0, 0, 0)


def _legit_round_trip(c, name):
    nfs = c.mounts[0].nfs
    payload = bytes(range(256)) * 64

    def io():
        fh, _ = yield from nfs.create(nfs.root, name)
        yield from nfs.write(fh, 0, payload)
        data, _, _ = yield from nfs.read(fh, 0, len(payload))
        return data

    assert c.run(io()) == payload


def _send_raw(c, node, qp, frame):
    def send():
        wr = SendWR(c.sim, inline=frame)
        yield from node.hca.post_send(qp, wr)

    c.run(send())
    c.sim.run(until=c.sim.now + 1_000.0)


def test_empty_write_chunk_decodes_to_typed_error():
    with pytest.raises(XdrError):
        RpcRdmaHeader.decode(EMPTY_WRITE_CHUNK_FRAME)


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
def test_hostile_client_empty_write_chunk_frame_fails_closed(transport):
    """The server counts the frame, stays up and keeps serving."""
    c = Cluster(ClusterConfig(transport=transport))
    node = _add_mal_node(c, "hostile")
    servers: list = []
    qp, ready = _qp_factory(c, node, servers, with_ready=True)()
    c.run((lambda: (yield ready))())
    _send_raw(c, node, qp, EMPTY_WRITE_CHUNK_FRAME)
    assert servers[0].malformed_received.events == 1
    assert not servers[0].failed
    _legit_round_trip(c, "after-crafted-frame")


def test_hostile_server_empty_write_chunk_frame_fails_closed():
    """A client that receives the frame as a reply drops and counts it."""
    c = Cluster(ClusterConfig(transport="rdma-rw"))
    client = c.mounts[0].transport
    server = c.server_transports[0]
    c.run((lambda: (yield server.ready))())
    _send_raw(c, c.server_node, server.qp, EMPTY_WRITE_CHUNK_FRAME)
    assert client.malformed_received.events == 1
    assert not client.failed
    _legit_round_trip(c, "after-crafted-reply")


# ------------------------------------------------ undecodable RPC messages
#: RPC messages inside a well-formed RPC/RDMA header (or TCP record)
#: that cannot be decoded: a record too short for its length word, and
#: a record whose 8-byte RPC header is truncated.
SHORT_RECORD = b"\0\0"
TRUNCATED_CALL = struct.pack(">I", 8) + bytes(8)
BAD_MESSAGES = {"short-record": SHORT_RECORD, "truncated-rpc": TRUNCATED_CALL}


def _inline_frame(message, xid=7):
    return RpcRdmaHeader(xid=xid, credits=1, mtype=MessageType.RDMA_MSG,
                         rpc_message=message).encode()


@pytest.mark.parametrize("message", BAD_MESSAGES.values(), ids=BAD_MESSAGES.keys())
@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
def test_hostile_client_undecodable_rpc_message_fails_closed(transport, message):
    """The server counts the frame, sends nothing and keeps serving."""
    c = Cluster(ClusterConfig(transport=transport))
    node = _add_mal_node(c, "hostile")
    servers: list = []
    qp, ready = _qp_factory(c, node, servers, with_ready=True)()
    c.run((lambda: (yield ready))())
    _send_raw(c, node, qp, _inline_frame(message))
    assert servers[0].malformed_received.events == 1
    assert servers[0].calls_received.events == 0
    assert not servers[0].failed
    _legit_round_trip(c, "after-bad-rpc-message")


def _garble_next_reply(server, message):
    """Make ``server`` answer its next call with an RPC/RDMA header whose
    inline RPC message is ``message``, then behave again."""
    real = server._respond

    def respond(ctx, reply):
        server._respond = real
        header = RpcRdmaHeader(xid=reply.xid, credits=server.grant(),
                               mtype=MessageType.RDMA_MSG, rpc_message=message)
        wr = yield from server.send_header(header)
        yield wr.completion

    server._respond = respond


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
def test_hostile_server_undecodable_reply_fails_closed(transport):
    """The client counts the reply, treats it as lost (the call is
    retried over a redialled connection) and keeps working."""
    c = Cluster(ClusterConfig(transport=transport))
    client = c.mounts[0].transport
    _garble_next_reply(c.server_transports[0], TRUNCATED_CALL)
    _legit_round_trip(c, "after-bad-reply")
    assert client.malformed_received.events == 1
    assert not client.failed


def test_hostile_server_undecodable_reply_is_typed_without_recovery():
    c = Cluster(ClusterConfig(transport="rdma-rw", auto_reconnect=False))
    nfs = c.mounts[0].nfs
    _garble_next_reply(c.server_transports[0], SHORT_RECORD)

    def attempt():
        try:
            yield from nfs.getattr(nfs.root)
        except RpcTimeout:
            return "lost"

    assert c.run(attempt()) == "lost"
    assert nfs.transport.malformed_received.events == 1
    _legit_round_trip(c, "after-typed-loss")


def _tcp_send(c, conn, endpoint, record):
    def send():
        yield from conn.send(endpoint, record)

    c.run(send())
    c.sim.run(until=c.sim.now + 1_000.0)


def test_hostile_tcp_client_undecodable_record_fails_closed():
    c = Cluster(ClusterConfig(transport="tcp-ipoib"))
    client = c.mounts[0].transport
    server = c.server_transports[0]
    _tcp_send(c, client.conn, client.endpoint, TRUNCATED_CALL + bytes(4))
    assert server.malformed_received.events == 1
    assert server.calls_received.events == 0
    _legit_round_trip(c, "after-bad-tcp-call")


def test_hostile_tcp_server_undecodable_record_fails_closed():
    c = Cluster(ClusterConfig(transport="tcp-ipoib"))
    client = c.mounts[0].transport
    server = c.server_transports[0]
    _tcp_send(c, server.conn, server.endpoint, TRUNCATED_CALL + bytes(4))
    assert client.malformed_received.events == 1
    _legit_round_trip(c, "after-bad-tcp-reply")


# ------------------------------------------------------ non-UTF-8 names
NOT_UTF8 = b"\xff\xfe"


@pytest.mark.parametrize("transport", ["rdma-rw", "tcp-ipoib"])
def test_lookup_of_non_utf8_name_is_inval(transport):
    c = Cluster(ClusterConfig(transport=transport, nclients=2))
    hostile = c.mounts[0].nfs
    args = FH.encode(hostile.root) + OPAQUE.encode(NOT_UTF8)

    def lookup():
        call = RpcCall(prog=NFS3_PROG, vers=NFS3_VERS,
                       proc=int(Nfs3Proc.LOOKUP), header=args)
        reply = yield from hostile.transport.call(call)
        return NFS3_PROCS[Nfs3Proc.LOOKUP].res.decode(reply.header)

    assert c.run(lookup()) == (Nfs3Status.INVAL, None)
    assert c.nfs_server.errors.events == 1
    nfs = c.mounts[1].nfs

    def io():
        fh, _ = yield from nfs.create(nfs.root, "second-mount")
        yield from nfs.write(fh, 0, b"still serving")
        data, _, _ = yield from nfs.read(fh, 0, 64)
        return data

    assert c.run(io()) == b"still serving"


def test_mount_of_non_utf8_path_is_denied():
    c = Cluster(ClusterConfig(transport="rdma-rw"))
    MountServer(c.rpc_server, c.fs, [Export("/")])
    transport = c.mounts[0].transport
    header = STRING.encode("client0") + OPAQUE.encode(NOT_UTF8)

    def mount():
        call = RpcCall(prog=MOUNT_PROG, vers=MOUNT_VERS, proc=MNT, header=header)
        return (yield from transport.call(call))

    reply = c.run(mount())
    assert reply.stat == MSG_DENIED and reply.header == b""
    root = c.run(MountClient(transport, "client0").mount("/"))
    assert root == c.nfs_server.root_handle()
    _legit_round_trip(c, "after-bad-mount")


# ---------------------------------------------- unservable and mutated frames
def _unservable_frames():
    """Well-formed headers the server cannot serve: a long call without
    a position-zero chunk, and an inline call whose data chunk is empty."""
    null_call = frame_message(RpcCall(prog=NFS3_PROG, vers=NFS3_VERS, proc=0,
                                      xid=7).encode(), None)
    empty = ChunkList(read_chunks=[ReadChunk(DATA_CHUNK_POSITION, Segment(1, 0, 0))])
    return {
        "nomsg-without-body": RpcRdmaHeader(
            xid=7, credits=1, mtype=MessageType.RDMA_NOMSG).encode(),
        "empty-data-chunk": RpcRdmaHeader(
            xid=7, credits=1, mtype=MessageType.RDMA_MSG, chunks=empty,
            rpc_message=null_call).encode(),
    }


@pytest.mark.parametrize("name", sorted(_unservable_frames()))
@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
def test_hostile_client_unservable_chunks_fail_closed(transport, name):
    c = Cluster(ClusterConfig(transport=transport))
    node = _add_mal_node(c, "hostile")
    servers: list = []
    qp, ready = _qp_factory(c, node, servers, with_ready=True)()
    c.run((lambda: (yield ready))())
    _send_raw(c, node, qp, _unservable_frames()[name])
    assert servers[0].malformed_received.events == 1
    assert servers[0].calls_received.events == 0
    assert not servers[0].failed
    _legit_round_trip(c, "after-unservable-frame")


def _legit_frames(transport, monkeypatch):
    """Every RPC/RDMA header a small legitimate session puts on the wire."""
    frames: list = []
    real = _RdmaEndpoint.send_header

    def record(self, header):
        frames.append(header.encode())
        return (yield from real(self, header))

    monkeypatch.setattr(_RdmaEndpoint, "send_header", record)
    c = Cluster(ClusterConfig(transport=transport))
    nfs = c.mounts[0].nfs

    def session():
        d, _ = yield from nfs.mkdir(nfs.root, "d")
        fh, _ = yield from nfs.create(d, "f")
        yield from nfs.write(fh, 0, bytes(range(256)) * 4)
        yield from nfs.read(fh, 0, 1024)
        yield from nfs.readdirplus(d)
        yield from nfs.rename(d, "f", d, "g")

    c.run(session())
    monkeypatch.undo()
    return frames


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
def test_hostile_client_mutated_frame_stream_fails_closed(transport, monkeypatch):
    """A stream of mutated real frames: every one is either served,
    answered with an error, counted as malformed, or kills only the
    hostile connection (which redials); the server keeps serving."""
    frames = [m for f in _legit_frames(transport, monkeypatch)
              for m in wire_mutations(f) if m]
    stream = random.Random(2007).sample(frames, 300)
    c = Cluster(ClusterConfig(transport=transport))
    node = _add_mal_node(c, "hostile")
    servers: list = []
    dial = _qp_factory(c, node, servers, with_ready=True)
    qp = None
    def wait(event):
        yield event

    for frame in stream:
        if qp is None or servers[-1].failed:
            qp, ready = dial()
            c.run(wait(ready))
        _send_raw(c, node, qp, frame)
    assert sum(s.malformed_received.events for s in servers) > 0
    _legit_round_trip(c, "after-mutated-stream")


@pytest.mark.parametrize("transport", ["rdma-rw", "rdma-rr"])
def test_hostile_server_mutated_reply_stream_fails_closed(transport, monkeypatch):
    """The server mutates most of its replies: each call either
    completes or fails with a typed error, and the client keeps going."""
    rng = random.Random(2007)
    real = _RdmaEndpoint.send_header

    def hostile(self, header):
        if isinstance(self, RpcRdmaServerBase) and rng.random() < 0.7:
            frame = rng.choice([m for m in wire_mutations(header.encode()) if m])
            wr = SendWR(self.sim, inline=frame)
            yield from self.node.hca.post_send(self.qp, wr)
            return wr
        return (yield from real(self, header))

    profile = replace(SOLARIS_SDR, rpcrdma=replace(
        SOLARIS_SDR.rpcrdma, reply_timeout_us=2_000.0, max_retransmits=2))
    c = Cluster(ClusterConfig(transport=transport, profile=profile))
    nfs = c.mounts[0].nfs
    monkeypatch.setattr(_RdmaEndpoint, "send_header", hostile)
    outcomes: list = []

    def session():
        for i in range(40):
            try:
                fh, _ = yield from nfs.create(nfs.root, f"f{i}")
                yield from nfs.write(fh, 0, bytes(2048))
                yield from nfs.read(fh, 0, 2048)
                outcomes.append("ok")
            except ReproError as exc:
                outcomes.append(type(exc).__name__)

    c.run(session())
    assert len(outcomes) == 40
    assert nfs.transport.malformed_received.events > 0
    monkeypatch.undo()
    _legit_round_trip(c, "after-mutated-replies")


def test_hostile_tcp_peers_mutated_record_streams_fail_closed(monkeypatch):
    """Mutated records of a real TCP session, sent by a hostile client
    and by a hostile server: both peers count and drop what they cannot
    decode and keep serving."""
    records: list = []
    real = TcpConnection.send

    def record(self, endpoint, message):
        if isinstance(message, bytes):
            records.append(message)
        return (yield from real(self, endpoint, message))

    monkeypatch.setattr(TcpConnection, "send", record)
    c = Cluster(ClusterConfig(transport="tcp-ipoib"))
    _legit_round_trip(c, "recorded")
    monkeypatch.undo()
    rng = random.Random(2007)
    stream = rng.sample([m for r in records for m in wire_mutations(r) if m], 300)
    client = c.mounts[0].transport
    server = c.server_transports[0]
    for i, frame in enumerate(stream):
        peer = client if i % 2 else server
        _tcp_send(c, peer.conn, peer.endpoint, frame)
    assert client.malformed_received.events > 0
    assert server.malformed_received.events > 0
    _legit_round_trip(c, "after-mutated-records")
