"""Scale-out deployment shapes: sharded servers, data servers, QP sharing.

The paper's testbed — one server, N clients, one QP each — is the
one-stack case of a :class:`TopologyConfig`.  Its other knobs describe
the fig13 shapes, and the same builder
(:class:`~repro.experiments.cluster.Cluster`, also exported here as
``MultiCluster``) wires them all:

* **K server shards** — independent :class:`ServerStack` serving stacks
  (file system, DRC, dispatcher, NFS program, registration strategy,
  optional shared receive pool), with a
  :class:`~repro.nfs.redirector.MountRedirector` load-balancing mounts
  across them at build time;
* **M data servers** — pNFS-style striping
  (:class:`~repro.nfs.striping.StripedNfsClient`): each mount keeps its
  namespace on its assigned shard (the MDS) and stripes file contents
  across the data-server stacks;
* **H client hosts** — mounts co-located ``m % H``, the substrate QP
  sharing needs (dedicated-per-mount hosts cannot share anything);
* **QP multiplexing** (:class:`~repro.ib.mux.QpMux`) — per
  (host, target) channel pools of ``ceil(sqrt(lanes))`` shared QPs with
  per-mount virtual lanes, riding each stack's shared receive pool.

With mux on, the shared pool no longer needs one buffer per *mount* —
only one per *channel* — so SRQ sizing drops the linear floor
:func:`~repro.experiments.cluster.default_srq_entries` keeps for
dedicated connections: registered receive memory scales with
``sqrt(N)``, the fig13 claim.

Any of these knobs makes ``TopologyConfig.is_multi`` true, which
switches on the multi-node names and ``server=`` telemetry labels and
rules out TCP, ``quarantine`` and ``fault_plan`` (see the naming rule in
:mod:`repro.experiments.cluster`).
"""

from repro.experiments.cluster import MultiCluster, ServerStack, TopologyConfig

__all__ = ["MultiCluster", "ServerStack", "TopologyConfig"]
