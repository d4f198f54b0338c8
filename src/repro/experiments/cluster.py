"""Builds complete simulated NFS deployments — one builder for every shape.

:class:`Cluster` assembles the full stack of DESIGN.md §2 — nodes,
fabric or TCP network, RPC transport (either RDMA design or TCP on
IPoIB/GigE), registration strategy, RPC dispatcher, NFS server, backend
file system — and hands back per-client NFS mounts.  Every test,
example and benchmark builds on it.

Two descriptions feed the one builder:

* :class:`ClusterConfig` — the paper's testbed: one server, N clients,
  one connection each.  It is wired as ``TopologyConfig(cluster=config)``,
  the one-stack topology.
* :class:`TopologyConfig` — the scale-out shapes of fig13 (K server
  shards, M pNFS data servers, H client hosts, QP multiplexing; see
  :mod:`repro.experiments.topology`).

:class:`ServerStack` is the only code that wires a serving stack:
backend, DRC, dispatcher, NFS program, server registration strategy,
shared receive pool and credit clamp, hardened transport config,
misbehaviour policy, and every server transport (RDMA or TCP).  A
one-stack deployment is simply K=1.

**Naming rule.**  Node and transport names seed simulated randomness
(``IBNode.rng`` feeds steering tags, a client's name feeds its
retransmit jitter), and telemetry labels are part of the operator
surface.  So a one-stack deployment (``TopologyConfig.is_multi`` false)
keeps the testbed names — ``server``, ``rpcsvc``, ``rpcsvc.drc``,
``server.srq``, ``client{i}``, default transport names,
``client{i}.nfs``, unlabeled serving-stack metrics — while a
multi-node one names stacks ``server{k}``/``ds{j}`` and mounts
``client{h}.m{m}...``, with ``server=`` labels.

**Single-stack-only inputs.**  TCP transports, ``quarantine`` and
``fault_plan`` are rejected when ``is_multi`` is true.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt
from typing import Optional

from repro.analysis.calibration import SOLARIS_SDR, TestbedProfile
from repro.core import (
    ClientRegistrationCache,
    DynamicRegistration,
    ReadReadClient,
    ReadReadServer,
    ReadWriteClient,
    ReadWriteServer,
    RegistrationCacheStrategy,
    SrqCreditPolicy,
)
from repro.core.strategies import AllPhysicalStrategy, FmrStrategy, RegistrationStrategy
from repro.errors import TransportError
from repro.faults import FaultInjector, FaultPlan
from repro.fs import BlockFs, Raid0, TmpFs
from repro.ib.fabric import Fabric, IBNode
from repro.ib.mux import MuxConfig, QpMux
from repro.ib.srq import SharedReceivePool
from repro.ib.verbs import QPState
from repro.nfs import NfsClient, NfsServer
from repro.nfs.redirector import MountRedirector
from repro.nfs.striping import StripedNfsClient
from repro.rpc import RpcServer, TcpRpcClient, TcpRpcServerTransport
from repro.rpc.drc import DuplicateRequestCache
from repro.rpc.svc import RpcServerCosts
from repro.sim import Simulator
from repro.tcpip import TcpConnection, TcpEndpoint

__all__ = ["Cluster", "ClusterConfig", "Mount", "MultiCluster",
           "ServerStack", "TopologyConfig", "default_srq_entries"]


def default_srq_entries(nclients: int) -> int:
    """Auto-size the shared receive pool for ``nclients`` mounts.

    ``16·sqrt(n)`` grows sublinearly (the figure-11 contrast with the
    per-connection ``credits·n``), floored at 64 (two rings' worth, so
    small deployments lose nothing) and at ``n`` (every connection can
    always hold at least one buffer).
    """
    return max(64, 16 * isqrt(nclients), nclients)

TRANSPORTS = ("rdma-rw", "rdma-rr", "tcp-ipoib", "tcp-gige")
STRATEGIES = ("dynamic", "fmr", "cache", "client-cache", "all-physical")
BACKENDS = ("tmpfs", "raid")


@dataclass(frozen=True)
class ClusterConfig:
    """What to build."""

    profile: TestbedProfile = SOLARIS_SDR
    transport: str = "rdma-rw"
    strategy: str = "dynamic"
    backend: str = "tmpfs"
    nclients: int = 1
    seed: int = 2007
    #: raid backend: server page cache (the Fig 10 4 GB / 8 GB knob).
    cache_bytes: int = 4 << 30
    ndisks: int = 8
    page_bytes: int = 64 * 1024
    #: install the transport-level reconnect policy on RDMA clients so a
    #: dead QP heals itself instead of killing the mount.
    auto_reconnect: bool = True
    #: deterministic fault schedule to arm against this cluster (None =
    #: no injector constructed, zero overhead).
    fault_plan: Optional[FaultPlan] = None
    #: build with telemetry (span tracer + metrics registry) enabled.
    #: Off by default: when off, ``sim.telemetry`` stays ``None`` and
    #: every instrumentation site is a single attribute test.
    telemetry: bool = False
    #: serve every connection's receives from one shared registered
    #: pool (:mod:`repro.ib.srq`) instead of per-connection rings.
    #: Off by default — the paper figures use per-connection pools.
    srq: bool = False
    #: shared-pool size in buffers (None = auto-size from nclients).
    srq_entries: Optional[int] = None
    #: dispatcher worker threads (None = the profile's calibrated
    #: ``server_threads``, the paper-figure default).
    server_workers: Optional[int] = None
    #: dispatcher run-queue bound (None = unbounded, the historical
    #: behaviour; bounded queues exert credit backpressure).
    server_queue_depth: Optional[int] = None
    #: attach the runtime RDMA sanitizer (:mod:`repro.check.sanitizer`).
    #: Off by default: when off, ``sim.sanitizer`` stays ``None`` and
    #: every check site is a single attribute test.  The sanitizer only
    #: reads sim state, so results are bit-identical either way.
    sanitizer: bool = False
    #: run on a :class:`~repro.check.races.PerturbedSimulator` that
    #: breaks same-timestamp ties in seeded-random order (None = the
    #: plain deterministic engine).
    perturb_seed: Optional[int] = None
    #: hardened data plane (all default-off, and inert when off — see
    #: :class:`repro.core.config.RpcRdmaConfig`): exposure leases,
    #: per-client exposure quota, misbehavior quarantine, AES payloads.
    lease_timeout_us: Optional[float] = None
    exposure_quota_bytes: Optional[int] = None
    quarantine: bool = False
    aes_payload: bool = False

    def __post_init__(self):
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.nclients < 1:
            raise ValueError("need at least one client")
        if self.srq and not self.is_rdma:
            raise ValueError("srq requires an RDMA transport")
        if self.srq_entries is not None and self.srq_entries < self.nclients:
            raise ValueError("srq_entries must cover at least one buffer "
                             "per client")
        if self.server_workers is not None and self.server_workers < 1:
            raise ValueError("server_workers must be >= 1 (or None)")
        if self.server_queue_depth is not None and self.server_queue_depth < 1:
            raise ValueError("server_queue_depth must be >= 1 (or None)")
        if (self.lease_timeout_us is not None or
                self.exposure_quota_bytes is not None or
                self.quarantine or self.aes_payload) and not self.is_rdma:
            raise ValueError("hardening knobs require an RDMA transport")
        if self.lease_timeout_us is not None and self.lease_timeout_us <= 0:
            raise ValueError("lease_timeout_us must be positive (or None)")
        if (self.exposure_quota_bytes is not None
                and self.exposure_quota_bytes < 1):
            raise ValueError("exposure_quota_bytes must be >= 1 (or None)")

    @property
    def is_rdma(self) -> bool:
        return self.transport.startswith("rdma")

    # -- builders (the repro.api entry points) -----------------------------
    @classmethod
    def rdma_rw(cls, **kwargs) -> "ClusterConfig":
        """The paper's proposed Read-Write design (server RDMA Writes)."""
        return cls(transport="rdma-rw", **kwargs)

    @classmethod
    def rdma_rr(cls, **kwargs) -> "ClusterConfig":
        """Callaghan's original Read-Read design (client RDMA Reads)."""
        return cls(transport="rdma-rr", **kwargs)

    @classmethod
    def tcp(cls, nic: str = "ipoib", **kwargs) -> "ClusterConfig":
        """RPC over TCP on ``nic``: ``"ipoib"`` or ``"gige"``."""
        if nic not in ("ipoib", "gige"):
            raise ValueError('nic must be "ipoib" or "gige"')
        return cls(transport=f"tcp-{nic}", **kwargs)


class TopologyConfig:
    """A deployment: base cluster knobs + topology knobs.

    ``cluster`` carries the per-node knobs (transport, strategy,
    profile, nclients, ...); alternatively pass them as keyword
    arguments and they are folded into a fresh :class:`ClusterConfig`::

        TopologyConfig(servers=4, mux=MuxConfig(), nclients=1000,
                       srq=True)

    The defaults describe the one-stack testbed, which is what every
    plain :class:`ClusterConfig` is wired as.
    """

    def __init__(self, servers: int = 1, data_servers: int = 0,
                 mux=None, client_hosts: Optional[int] = None,
                 stripe_unit_bytes: int = 64 * 1024,
                 credits: Optional[int] = None,
                 cluster: Optional[ClusterConfig] = None,
                 **cluster_kwargs):
        if cluster is not None and cluster_kwargs:
            raise ValueError("pass either cluster= or ClusterConfig "
                             "keyword arguments, not both")
        if servers < 1:
            raise ValueError("need at least one server")
        if data_servers < 0:
            raise ValueError("data_servers must be non-negative")
        if client_hosts is not None and client_hosts < 1:
            raise ValueError("client_hosts must be >= 1 (or None)")
        if stripe_unit_bytes < 1:
            raise ValueError("stripe_unit_bytes must be positive")
        if credits is not None and credits < 1:
            raise ValueError("credits must be >= 1 (or None)")
        if mux is True:
            mux = MuxConfig()
        elif mux is False:
            mux = None
        elif isinstance(mux, dict):
            mux = MuxConfig(**mux)
        if mux is not None and not isinstance(mux, MuxConfig):
            raise ValueError("mux must be a MuxConfig, a dict of its "
                             "fields, or a bool")
        self.servers = servers
        self.data_servers = data_servers
        self.mux: Optional[MuxConfig] = \
            mux if (mux is None or mux.enabled) else None
        self.client_hosts = client_hosts
        self.stripe_unit_bytes = stripe_unit_bytes
        self.credits = credits
        self.cluster = cluster if cluster is not None \
            else ClusterConfig(**cluster_kwargs)
        if self.is_multi:
            if not self.cluster.is_rdma:
                raise ValueError("multi-node topologies require an RDMA "
                                 "transport")
            if self.cluster.quarantine:
                raise ValueError("quarantine is not supported on "
                                 "multi-node topologies yet")
            if self.cluster.fault_plan is not None:
                raise ValueError("fault plans are not supported on "
                                 "multi-node topologies yet")

    @property
    def is_multi(self) -> bool:
        """Anything beyond the paper's one-server, one-QP-per-client shape."""
        return (self.servers > 1 or self.data_servers > 0
                or self.mux is not None or self.client_hosts is not None)


@dataclass
class Mount:
    """One client's view: node + transport + NFS client."""

    node: IBNode
    transport: object
    nfs: NfsClient


def make_strategy(config: ClusterConfig, node: IBNode,
                  server: bool) -> RegistrationStrategy:
    """The registration strategy ``config.strategy`` names, for one side."""
    kind = config.strategy
    if kind == "fmr":
        return FmrStrategy(node)
    if kind == "all-physical":
        return AllPhysicalStrategy(node)
    if kind in ("cache", "client-cache") and server:
        return RegistrationCacheStrategy(node)
    if kind == "client-cache":
        # Extension (TR): registration caches on BOTH sides.
        return ClientRegistrationCache(node)
    # "dynamic", and "cache" clients: §4.3's cache is a *server* design.
    return DynamicRegistration(node)


class ServerStack:
    """One server node's complete serving stack.

    Built in two steps: the constructor wires node, backend file
    system, DRC, dispatcher, NFS program and server registration
    strategy; :meth:`size_flow_control` adds what depends on the
    connection count (shared receive pool, credit clamp, hardened
    transport config, misbehaviour policy).  Server transports are
    then built by :meth:`make_transport` (RDMA) or :meth:`dial_tcp`.
    """

    def __init__(self, cluster: "Cluster", name: str):
        config = cluster.config
        profile = config.profile
        self.name = name
        self.sim = cluster.sim
        self.fabric = cluster.fabric
        self.config = config
        self.topology = cluster.topology
        self.node = cluster.fabric.add_node(
            name,
            cpu_config=profile.server_cpu,
            hca_config=profile.server_hca,
            link_config=profile.link,
            interrupt_cost_us=profile.interrupt_cost_us,
            allow_physical=config.strategy == "all-physical",
        )
        if config.backend == "tmpfs":
            self.fs = TmpFs(self.sim, self.node.cpu)
            self.raid = None
        else:
            self.raid = Raid0(
                self.sim,
                ndisks=config.ndisks,
                stripe_unit_bytes=config.page_bytes,
            )
            self.fs = BlockFs(
                self.sim, self.node.cpu, self.raid,
                cache_bytes=config.cache_bytes,
                page_bytes=config.page_bytes,
            )
        if self.topology.is_multi:
            svc_name, drc_name = f"{name}.rpcsvc", f"{name}.drc"
        else:
            svc_name, drc_name = "rpcsvc", "rpcsvc.drc"
        # Every server has a DRC: any transport-level retry (TCP
        # retransmit, RDMA recovery) must not re-execute non-idempotent
        # procedures.
        self.drc = DuplicateRequestCache(name=drc_name)
        self.rpc_server = RpcServer(
            self.sim,
            self.node.cpu,
            nthreads=config.server_workers or profile.server_threads,
            costs=RpcServerCosts(),
            drc=self.drc,
            name=svc_name,
            max_queue=config.server_queue_depth,
        )
        self.nfs_server = NfsServer(
            self.rpc_server, self.fs,
            max_transfer_bytes=profile.rpcrdma.max_transfer_bytes,
        )
        # One shared server-side registration strategy (the registration
        # cache is a server-global structure; dynamic/FMR are stateless
        # enough that sharing matches a real kernel transport).
        self.strategy = make_strategy(config, self.node, server=True)
        self.server_transports: list = []
        self.srq: Optional[SharedReceivePool] = None
        self.credit_policy = None
        self.security_policy = None
        self.rpcrdma = profile.rpcrdma
        self._tcp_port = None

    def size_flow_control(self, lanes: int, connections: int) -> None:
        """Finish the stack for ``connections`` QPs carrying ``lanes`` mounts.

        With the shared receive pool on, one registered pool per server
        HCA is sized sublinearly and client credit grants are clamped
        so their sum never outruns it (the RNR-avoidance invariant).
        The hardened-data-plane knobs fold into the transport config;
        with all of them at their defaults no policy object exists and
        no hook sits on the hot path.
        """
        config = self.config
        base_credits = self.topology.credits or self.rpcrdma.credits
        overrides: dict = {"credits": base_credits}
        if config.srq:
            if self.topology.mux is not None:
                # Shared QPs: the pool only needs to cover *channels*,
                # so the per-mount linear floor goes away — this is the
                # fig13 sublinear-memory claim.
                entries = max(64, 16 * isqrt(max(1, lanes)), connections)
            else:
                entries = (config.srq_entries
                           if config.srq_entries is not None
                           else default_srq_entries(max(1, connections)))
            # Read-Read DONE messages consume receives beyond the credit
            # grant; budget two pool buffers per outstanding call.
            demand = 2 if config.transport == "rdma-rr" else 1
            per_conn = max(1, min(base_credits,
                                  entries // max(1, demand * connections)))
            self.srq = SharedReceivePool(
                self.node, entries, self.rpcrdma.inline_threshold,
                name=f"{self.name}.srq",
            )
            self.sim.process(self.srq.setup(), name=f"{self.name}.srq.setup")
            overrides["credits"] = per_conn
            self.credit_policy = SrqCreditPolicy(self.srq, max_grant=per_conn)
        if config.lease_timeout_us is not None:
            overrides["lease_timeout_us"] = config.lease_timeout_us
        if config.exposure_quota_bytes is not None:
            overrides["exposure_quota_bytes"] = config.exposure_quota_bytes
        if config.quarantine:
            overrides.update(misbehavior_warn=5, misbehavior_throttle=10,
                             misbehavior_quarantine=20)
        if config.aes_payload:
            overrides["aes_payload"] = True
        self.rpcrdma = replace(self.rpcrdma, **overrides)
        if (config.quarantine or config.lease_timeout_us is not None
                or config.exposure_quota_bytes is not None):
            from repro.security.policy import SecurityPolicy

            self.security_policy = SecurityPolicy(
                self.sim, self.rpcrdma, quarantine_enabled=config.quarantine)
            self.node.hca.protection_nak_hook = self.security_policy.record_nak
            self.rpc_server.security_policy = self.security_policy

    def make_transport(self, qp_s):
        """Build + attach one RDMA server transport for ``qp_s``."""
        cls = (ReadWriteServer if self.config.transport == "rdma-rw"
               else ReadReadServer)
        server = cls(self.node, qp_s, self.rpcrdma, self.strategy,
                     credit_policy=self.credit_policy, srq=self.srq,
                     policy=self.security_policy)
        server.attach(self.rpc_server)
        self.server_transports.append(server)
        if self.security_policy is not None:
            self.security_policy.register_transport(server.client_id, server)
        return server

    def dial_tcp(self, host: IBNode) -> TcpRpcClient:
        """One RPC-over-TCP connection from ``host``; returns the client."""
        profile = self.config.profile
        nic = profile.ipoib if self.config.transport == "tcp-ipoib" else profile.gige
        client_ep = TcpEndpoint(self.sim, host.cpu, host.irq, nic,
                                name=f"{host.name}.tcp")
        server_ep = TcpEndpoint(self.sim, self.node.cpu, self.node.irq, nic,
                                name=f"{self.name}.tcp.{host.name}")
        # All per-client server endpoints share the single physical
        # server port so aggregate bandwidth is capped correctly.
        if self._tcp_port is None:
            self._tcp_port = server_ep.port
        server_ep.port = self._tcp_port
        conn = TcpConnection(client_ep, server_ep)
        client = TcpRpcClient(client_ep, conn)
        server = TcpRpcServerTransport(server_ep, conn)
        server.attach(self.rpc_server)
        self.server_transports.append(server)
        return client

    def transport_peered_with(self, qp):
        """The RDMA server transport on the far end of client ``qp``."""
        return next((t for t in self.server_transports if t.qp is qp.peer),
                    None)

    def admit_redial(self, name: str) -> None:
        """Quarantine admission for a client dialing back in.

        A quarantined client is refused (counted in the policy's
        ``redials_refused``): the ban outlives the evicted connection.
        The one check for both :meth:`redial` and the raw adversaries'
        redials in ``repro.security.campaign``.
        """
        policy = self.security_policy
        if policy is not None and policy.is_banned(name):
            policy.redials_refused.add()
            raise TransportError(f"{name}: redial refused (quarantined)")

    def redial(self, client):
        """Transport recovery policy (installed as ``client.reconnector``).

        Tears down the dead connection (the server side reclaims
        anything the old client pinned — §4.1's operational defense),
        then hands back a fresh QP and the new server transport's ready
        event for the CM handshake.  A quarantined client is refused
        (:meth:`admit_redial`).
        """
        self.admit_redial(client.node.name)
        old_qp = client.qp
        old_server = self.transport_peered_with(old_qp)
        if old_qp.state is not QPState.ERROR:
            old_qp.enter_error("client-initiated redial")
        if old_qp.peer is not None and old_qp.peer.state is not QPState.ERROR:
            old_qp.peer.enter_error("client-initiated redial (remote)")
        if old_server is not None:
            self.server_transports.remove(old_server)
            yield from old_server.disconnect()
        qp_c, qp_s = self.fabric.connect(client.node, self.node)
        return qp_c, self.make_transport(qp_s).ready

    def recv_buffer_bytes(self) -> int:
        """Registered receive-buffer memory on this server.

        The figure-11 scaling metric: the shared pool's one-time
        registration vs the per-connection rings' ``credits ×
        inline_threshold`` per mount.  TCP transports pre-register
        nothing (socket buffers are not HCA-registered).
        """
        if self.srq is not None:
            return self.srq.registered_bytes
        total = 0
        for transport in self.server_transports:
            pool = getattr(transport, "recv_pool", None)
            if pool is not None:
                total += pool.count * pool.size
        return total


class Cluster:
    """A fully wired simulated NFS deployment.

    Accepts a :class:`ClusterConfig` (wired as the one-stack topology)
    or a :class:`TopologyConfig`.
    """

    def __init__(self, config):
        if isinstance(config, ClusterConfig):
            config = TopologyConfig(cluster=config)
        elif not isinstance(config, TopologyConfig):
            raise TypeError(f"expected ClusterConfig or TopologyConfig, "
                            f"got {type(config).__name__}")
        self.topology = topology = config
        self.config = config = topology.cluster
        profile = config.profile
        if config.perturb_seed is not None:
            from repro.check.races import PerturbedSimulator

            self.sim = PerturbedSimulator(config.perturb_seed)
        else:
            self.sim = Simulator()
        if config.sanitizer:
            # Attach before any wiring so setup-time registrations and
            # SRQ posts are tracked from the first event.
            from repro.check.sanitizer import Sanitizer

            self.sim.sanitizer = Sanitizer(self.sim)
        self.fabric = Fabric(self.sim, seed=config.seed)
        self._client_cls = (ReadWriteClient if config.transport == "rdma-rw"
                            else ReadReadClient)

        names = ([f"server{i}" for i in range(topology.servers)]
                 if topology.is_multi else ["server"])
        self.server_stacks = [ServerStack(self, name) for name in names]
        self.data_stacks = [ServerStack(self, f"ds{j}")
                            for j in range(topology.data_servers)]

        nclients = config.nclients
        hosts = min(topology.client_hosts or nclients, nclients)
        allow_phys = config.strategy == "all-physical"
        self.client_nodes = [
            self.fabric.add_node(
                f"client{h}",
                cpu_config=profile.client_cpu,
                hca_config=profile.client_hca,
                link_config=profile.link,
                interrupt_cost_us=profile.interrupt_cost_us,
                allow_physical=allow_phys,
            )
            for h in range(hosts)
        ]

        # Placement first — flow-control sizing and mux pool sizing both
        # need the full lane plan before any connection is dialed.
        self.redirector = MountRedirector(self.server_stacks)
        self._placements: list[tuple[int, int]] = []
        server_lanes: dict[tuple[int, int], int] = {}
        host_mounts: dict[int, int] = {}
        for m in range(nclients):
            h = m % hosts
            s, _ = self.redirector.place(m)
            self._placements.append((h, s))
            server_lanes[(h, s)] = server_lanes.get((h, s), 0) + 1
            host_mounts[h] = host_mounts.get(h, 0) + 1

        mux_cfg = topology.mux

        def channels_for(lanes: int) -> int:
            return mux_cfg.qps_for(lanes) if mux_cfg is not None else lanes

        for s, stack in enumerate(self.server_stacks):
            lanes = sum(n for (h, si), n in server_lanes.items() if si == s)
            conns = sum(channels_for(n)
                        for (h, si), n in server_lanes.items() if si == s)
            stack.size_flow_control(lanes, conns)
        for stack in self.data_stacks:
            # Every mount stripes to every data server: lane count per
            # host is simply that host's mount count.
            conns = sum(channels_for(n) for n in host_mounts.values())
            stack.size_flow_control(nclients, conns)

        # Channel pools per (host, target stack), dialed eagerly so the
        # lane plan above matches what actually exists.
        self.muxes: dict[tuple[int, str], QpMux] = {}
        if mux_cfg is not None:
            for h, host in enumerate(self.client_nodes):
                for s, stack in enumerate(self.server_stacks):
                    lanes = server_lanes.get((h, s), 0)
                    if lanes:
                        self._add_mux(h, host, stack, lanes, mux_cfg)
                for stack in self.data_stacks:
                    lanes = host_mounts.get(h, 0)
                    if lanes:
                        self._add_mux(h, host, stack, lanes, mux_cfg)

        self.mounts = [self._build_mount(m, h, s)
                       for m, (h, s) in enumerate(self._placements)]

        # Fault injection (off unless a plan is supplied): hooks install
        # only when armed, so fault-free runs schedule no extra events.
        self.faults: Optional[FaultInjector] = None
        if config.fault_plan is not None:
            self.faults = FaultInjector(self, config.fault_plan)
            self.faults.arm()

        # Telemetry last: every component above must exist before the
        # registry adapters walk the cluster.  Spans only read sim.now,
        # so enabling this cannot perturb simulated timing.
        self.telemetry = None
        if config.telemetry:
            self.enable_telemetry()

    def enable_telemetry(self, tracing: bool = True):
        """Attach a :class:`repro.telemetry.Telemetry` to this cluster.

        Must be called before the simulation runs (the standard path is
        ``ClusterConfig(telemetry=True)``).  Returns the Telemetry.
        """
        from repro.telemetry import Telemetry

        if self.telemetry is None:
            self.telemetry = Telemetry(self.sim, tracing=tracing)
            self.sim.telemetry = self.telemetry
            self.telemetry.attach_cluster(self)
        elif tracing:
            self.telemetry.enable_tracing()
        return self.telemetry

    # -- wiring ------------------------------------------------------------
    def _dial(self, host: IBNode, stack: ServerStack, name: str):
        """One client connection from ``host`` to ``stack``."""
        if not self.config.is_rdma:
            return stack.dial_tcp(host)
        qp_c, qp_s = self.fabric.connect(host, stack.node)
        strategy = make_strategy(self.config, host, server=False)
        client = self._client_cls(host, qp_c, stack.rpcrdma, strategy,
                                  name=name)
        server = stack.make_transport(qp_s)
        # CM handshake: the client may not send until the server side
        # has pre-posted its receives.
        client.peer_ready = server.ready
        if self.config.auto_reconnect:
            client.reconnector = stack.redial
        return client

    def _add_mux(self, h: int, host: IBNode, stack: ServerStack,
                 lanes: int, mux_cfg: MuxConfig) -> None:
        name = f"{host.name}.{stack.name}.mux"
        self.muxes[(h, stack.name)] = QpMux(
            name, lanes,
            lambda i, host=host, stack=stack, name=name:
                self._dial(host, stack, f"{name}.ch{i}"),
            config=mux_cfg,
        )

    def _transport_for(self, m: int, h: int, stack: ServerStack):
        """Mount ``m``'s transport to ``stack``: lane or dedicated QP."""
        if self.topology.mux is not None:
            return self.muxes[(h, stack.name)].add_lane(m)
        host = self.client_nodes[h]
        # One-stack transports keep their default names (see the
        # module docstring's naming rule).
        name = f"{host.name}.m{m}.{stack.name}" if self.topology.is_multi else ""
        return self._dial(host, stack, name)

    def _build_mount(self, m: int, h: int, s: int) -> Mount:
        host = self.client_nodes[h]
        stack = self.server_stacks[s]
        transport = self._transport_for(m, h, stack)
        tag = f"{host.name}.m{m}" if self.topology.is_multi else host.name
        mds = NfsClient(transport, stack.nfs_server.root_handle(),
                        name=f"{tag}.nfs")
        if not self.data_stacks:
            return Mount(node=host, transport=transport, nfs=mds)
        data_clients = [
            NfsClient(self._transport_for(m, h, ds),
                      ds.nfs_server.root_handle(),
                      name=f"{tag}.{ds.name}.nfs")
            for ds in self.data_stacks
        ]
        striped = StripedNfsClient(
            mds, data_clients,
            stripe_unit=self.topology.stripe_unit_bytes,
            name=f"{tag}.pnfs",
            component_tag=f".s{s}.m{m}",
        )
        return Mount(node=host, transport=transport, nfs=striped)

    def reconnect_client(self, index: int) -> Mount:
        """Re-establish mount ``index`` after a fatal connection error.

        Mirrors what a kernel RPC transport does on connection loss:
        tear down the old endpoint (the server side reclaims anything
        the dead client pinned — §4.1's operational defense), build a
        fresh connection and transport, and resume with the same file
        handles (NFS is stateless; handles survive reconnection).
        """
        h, s = self._placements[index]
        if self.config.is_rdma:
            stack = self.server_stacks[s]
            dead = stack.transport_peered_with(self.mounts[index].transport.qp)
            if dead is not None:
                stack.server_transports.remove(dead)
                self.sim.process(dead.disconnect(), name="server.disconnect")
        mount = self._build_mount(index, h, s)
        self.mounts[index] = mount
        return mount

    # -- aggregate views ---------------------------------------------------
    @property
    def all_stacks(self) -> list[ServerStack]:
        return [*self.server_stacks, *self.data_stacks]

    @property
    def server_nodes(self) -> list[IBNode]:
        return [stack.node for stack in self.all_stacks]

    @property
    def server_transports(self) -> list:
        return [t for stack in self.all_stacks
                for t in stack.server_transports]

    @property
    def node_count(self) -> int:
        """Real node count (health's ``hca`` check compares to this)."""
        return len(self.all_stacks) + len(self.client_nodes)

    def qp_count(self) -> int:
        """Live server-side connections across every stack — the fig13
        "total QPs" column (each costs HCA QP context on both ends)."""
        return sum(len(stack.server_transports) for stack in self.all_stacks)

    # The first server stack, by its single-server names.
    @property
    def server_node(self) -> IBNode:
        return self.server_stacks[0].node

    @property
    def server_strategy(self) -> RegistrationStrategy:
        return self.server_stacks[0].strategy

    @property
    def rpc_server(self) -> RpcServer:
        return self.server_stacks[0].rpc_server

    @property
    def nfs_server(self) -> NfsServer:
        return self.server_stacks[0].nfs_server

    @property
    def fs(self):
        return self.server_stacks[0].fs

    @property
    def raid(self) -> Optional[Raid0]:
        return self.server_stacks[0].raid

    @property
    def drc(self) -> Optional[DuplicateRequestCache]:
        return self.server_stacks[0].drc

    @property
    def srq(self) -> Optional[SharedReceivePool]:
        return self.server_stacks[0].srq

    @property
    def rpcrdma(self):
        return self.server_stacks[0].rpcrdma

    @property
    def security_policy(self):
        return self.server_stacks[0].security_policy

    # -- measurement helpers ----------------------------------------------
    def server_recv_buffer_bytes(self) -> int:
        """Registered receive-buffer memory across every server stack."""
        return sum(stack.recv_buffer_bytes() for stack in self.all_stacks)

    def reset_utilization_windows(self) -> None:
        for stack in self.all_stacks:
            stack.node.cpu.reset_utilization_window()
        for node in self.client_nodes:
            node.cpu.reset_utilization_window()

    def client_cpu_utilization(self) -> float:
        """Mean utilization across client nodes (fraction of all cores)."""
        if not self.client_nodes:
            return 0.0
        return (sum(n.cpu.utilization() for n in self.client_nodes)
                / len(self.client_nodes))

    def server_cpu_utilization(self) -> float:
        """Mean utilization across server stacks (fraction of all cores)."""
        stacks = self.all_stacks
        return sum(s.node.cpu.utilization() for s in stacks) / len(stacks)

    def run(self, proc):
        """Run one process to completion and return its value."""
        return self.sim.run_until_complete(self.sim.process(proc))


#: The scale-out name for the same builder.
MultiCluster = Cluster
