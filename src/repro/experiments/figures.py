"""One runner per table/figure in the paper's evaluation (§5).

Each ``run_*`` function rebuilds the corresponding experiment and
returns an :class:`ExperimentResult` whose rows mirror the series the
paper plots.  ``scale`` trades fidelity for runtime: ``quick`` is sized
for CI/benchmarks, ``full`` for EXPERIMENTS.md regeneration.  Absolute
numbers come from the calibrated profiles (DESIGN.md §4); the *shape*
targets from the paper are embedded here so reports can show
paper-vs-measured side by side.

Every figure is a grid of independent points, so each runner builds a
:class:`~repro.experiments.sweep.Point` list and hands it to
:func:`~repro.experiments.sweep.sweep` — pass ``jobs > 1`` to fan the
grid across worker processes with bit-identical results (``--jobs`` on
the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.stats import format_table
from repro.experiments.sweep import Point, sweep
from repro.security import probe_primitive_properties

__all__ = [
    "ExperimentResult",
    "figure_grid",
    "run_table1",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_security_audit",
]


@dataclass
class ExperimentResult:
    """Structured output: headers + rows + the paper's reference claims."""

    experiment: str
    headers: list[str]
    rows: list[list]
    paper_reference: str

    def table(self) -> str:
        return format_table(self.headers, self.rows)

    def __str__(self) -> str:  # pragma: no cover - presentation
        return (
            f"== {self.experiment} ==\n{self.table()}\n"
            f"paper: {self.paper_reference}\n"
        )


def _ops(scale: str, quick: int, full: int) -> int:
    return quick if scale == "quick" else full


def figure_grid(name: str, scale: str = "quick") -> list[tuple[str, Point]]:
    """The labeled point grid behind an iozone figure.

    Lets per-point tooling (the ``stats`` and ``trace`` CLI commands)
    re-run exactly one point of a figure with telemetry attached.
    """
    if name in ("fig5", "fig6"):
        return [(f"{series}-t{threads}", p)
                for series, threads, p in _solaris_iozone_points(scale)]
    if name == "fig7":
        grid = _strategy_iozone_points(
            scale,
            (("dynamic", "Register"), ("fmr", "FMR"), ("cache", "Cache")),
            "solaris-sdr",
        )
        return [(f"RW-{label}-t{threads}", p) for label, threads, p in grid]
    if name == "fig9":
        grid = _strategy_iozone_points(
            scale,
            (("dynamic", "Register"), ("fmr", "FMR"),
             ("all-physical", "All-Physical")),
            "linux-sdr",
        )
        return [(f"RW-{label}-t{threads}", p) for label, threads, p in grid]
    if name == "fig8":
        return [(f"OLTP-{label}-r{readers}", p)
                for label, readers, p in _fig8_points(scale)]
    if name == "fig10":
        return [(f"{label}-{cache_label}-c{nclients}", p)
                for label, cache_label, nclients, p in _fig10_points(scale)]
    if name == "fig11":
        return [(f"{series}-c{nclients}", p)
                for series, nclients, p in _fig11_points(scale)]
    if name == "fig12":
        return [(f"{mitigation}-{label}", p)
                for mitigation, label, p in _fig12_points(scale)]
    if name == "fig13":
        return [(f"{series}-m{mounts}", p)
                for series, mounts, p in _fig13_points(scale)]
    raise ValueError(
        f"no point grid for {name!r} (choose fig5, fig6, fig7, fig8, fig9, "
        f"fig10, fig11, fig12 or fig13)"
    )


# ---------------------------------------------------------------- Table 1
def run_table1(scale: str = "quick", jobs: int = 1) -> ExperimentResult:
    """Table 1: communication-primitive properties, probed live."""
    rows = [
        [p.primitive,
         "X" if p.receive_buffer_exposed else "",
         "X" if p.receive_buffer_pre_posted else "",
         "X" if p.steering_tag else "",
         "X" if p.rendezvous else ""]
        for p in probe_primitive_properties()
    ]
    return ExperimentResult(
        experiment="Table 1: Communication Primitive Properties",
        headers=["primitive", "recv buffer exposed", "recv pre-posted",
                 "steering tag", "rendezvous"],
        rows=rows,
        paper_reference=(
            "channel: only pre-posted; memory: exposed + steering tag + "
            "rendezvous (Table 1)"
        ),
    )


# ---------------------------------------------------------------- Fig 5 / 6
def _solaris_iozone_points(scale: str) -> list[tuple[str, int, Point]]:
    """The shared Fig 5/6 grid: (series label, threads, point)."""
    ops = _ops(scale, 40, 120)
    threads_list = (1, 2, 4, 8) if scale == "quick" else (1, 2, 3, 4, 5, 6, 7, 8)
    grid = []
    for record in (128 * 1024, 1 << 20):
        for design, label in (("rdma-rr", "RR"), ("rdma-rw", "RW")):
            for threads in threads_list:
                grid.append((
                    f"{label}-{record // 1024}K", threads,
                    Point(kind="iozone",
                          cluster={"transport": design, "strategy": "dynamic",
                                   "profile": "solaris-sdr"},
                          params={"nthreads": threads, "record_bytes": record,
                                  "ops_per_thread": ops}),
                ))
    return grid


def run_fig5(scale: str = "quick", jobs: int = 1) -> ExperimentResult:
    """Fig 5: IOzone READ bandwidth, Solaris, Read-Read vs Read-Write."""
    grid = _solaris_iozone_points(scale)
    results = sweep([p for _, _, p in grid], jobs)
    rows = [[series, threads, round(r["read_mb_s"], 1)]
            for (series, threads, _), r in zip(grid, results)]
    return ExperimentResult(
        experiment="Fig 5: IOzone Read Bandwidth on Solaris (RR vs RW)",
        headers=["series", "threads", "read MB/s"],
        rows=rows,
        paper_reference=(
            "RR saturates ~375 MB/s, RW ~400 MB/s; RW leads by ~47% at 1 "
            "thread/128K shrinking to ~5% at 8 threads; record size barely "
            "matters"
        ),
    )


def run_fig6(scale: str = "quick", jobs: int = 1) -> ExperimentResult:
    """Fig 6: IOzone WRITE bandwidth + client CPU, Solaris, RR vs RW."""
    grid = _solaris_iozone_points(scale)
    results = sweep([p for _, _, p in grid], jobs)
    rows = [[series, threads, round(r["write_mb_s"], 1),
             round(r["client_cpu_read"] * 100, 1)]
            for (series, threads, _), r in zip(grid, results)]
    return ExperimentResult(
        experiment="Fig 6: IOzone Write Bandwidth on Solaris + client CPU",
        headers=["series", "threads", "write MB/s", "client CPU % (read)"],
        rows=rows,
        paper_reference=(
            "write paths nearly identical (both RDMA-Read based, bounded by "
            "read serialization); client CPU: RR 4%->24%, RW flat 2%->5%"
        ),
    )


# ---------------------------------------------------------------- Fig 7 / 9
def _strategy_iozone_points(scale: str, strategies, profile: str):
    ops = _ops(scale, 40, 120)
    threads_list = (1, 2, 4, 8) if scale == "quick" else (1, 2, 3, 4, 5, 6, 7, 8)
    grid = []
    for strategy, label in strategies:
        for threads in threads_list:
            grid.append((
                label, threads,
                Point(kind="iozone",
                      cluster={"transport": "rdma-rw", "strategy": strategy,
                               "profile": profile},
                      params={"nthreads": threads, "record_bytes": 128 * 1024,
                              "ops_per_thread": ops}),
            ))
    return grid


def run_fig7(scale: str = "quick", jobs: int = 1) -> ExperimentResult:
    """Fig 7: registration strategies on OpenSolaris (read + write)."""
    grid = _strategy_iozone_points(
        scale,
        (("dynamic", "Register"), ("fmr", "FMR"), ("cache", "Cache")),
        "solaris-sdr",
    )
    results = sweep([p for _, _, p in grid], jobs)
    rows = [[f"RW-{label}-Solaris", threads,
             round(r["read_mb_s"], 1), round(r["write_mb_s"], 1),
             round(r["client_cpu_read"] * 100, 1)]
            for (label, threads, _), r in zip(grid, results)]
    return ExperimentResult(
        experiment="Fig 7: IOzone bandwidth by registration strategy (Solaris)",
        headers=["series", "threads", "read MB/s", "write MB/s", "client CPU %"],
        rows=rows,
        paper_reference=(
            "read: Register ~350, FMR ~400, Cache ~730 MB/s; write: FMR "
            "modest, Cache ~515 MB/s (bounded by RDMA Read serialization)"
        ),
    )


def run_fig9(scale: str = "quick", jobs: int = 1) -> ExperimentResult:
    """Fig 9: registration strategies on Linux (read + write)."""
    grid = _strategy_iozone_points(
        scale,
        (("dynamic", "Register"), ("fmr", "FMR"), ("all-physical", "All-Physical")),
        "linux-sdr",
    )
    results = sweep([p for _, _, p in grid], jobs)
    rows = [[f"RW-{label}-Linux", threads,
             round(r["read_mb_s"], 1), round(r["write_mb_s"], 1),
             round(r["client_cpu_read"] * 100, 1)]
            for (label, threads, _), r in zip(grid, results)]
    return ExperimentResult(
        experiment="Fig 9: IOzone bandwidth by registration strategy (Linux)",
        headers=["series", "threads", "read MB/s", "write MB/s", "client CPU %"],
        rows=rows,
        paper_reference=(
            "read: Register < FMR < All-Physical (~900 MB/s peak); write: "
            "All-Physical degrades below FMR (no scatter/gather -> more read "
            "chunks -> IRD/ORD limit)"
        ),
    )


# ---------------------------------------------------------------- Fig 8
def _fig8_points(scale: str) -> list[tuple[str, int, Point]]:
    """OLTP strategy grid: (strategy label, readers, point)."""
    readers_list = (10, 50, 100) if scale == "quick" else (10, 25, 50, 100, 150, 200)
    ops = _ops(scale, 4, 8)
    grid = []
    for strategy, label in (("dynamic", "Register"), ("fmr", "FMR"),
                            ("cache", "Cache")):
        for readers in readers_list:
            grid.append((
                label, readers,
                Point(kind="oltp",
                      cluster={"transport": "rdma-rw", "strategy": strategy,
                               "profile": "solaris-sdr"},
                      params={"readers": readers,
                              "writers": max(2, readers // 5),
                              "log_writers": 1, "datafile_bytes": 16 << 20,
                              "ops_per_thread": ops}),
            ))
    return grid


def run_fig8(scale: str = "quick", jobs: int = 1) -> ExperimentResult:
    """Fig 8: FileBench OLTP ops/s and CPU/op by strategy."""
    grid = _fig8_points(scale)
    results = sweep([p for _, _, p in grid], jobs)
    rows = [[label, readers, round(r["ops_per_s"]),
             round(r["client_cpu_us_per_op"], 1)]
            for (label, readers, _), r in zip(grid, results)]
    return ExperimentResult(
        experiment="Fig 8: FileBench OLTP performance by strategy",
        headers=["strategy", "readers", "ops/s", "client CPU us/op"],
        rows=rows,
        paper_reference=(
            "registration cache improves throughput up to ~50% over dynamic "
            "registration; FMR comparable to dynamic; CPU/op slightly higher "
            "for cache"
        ),
    )


# ---------------------------------------------------------------- Fig 10
#: Fig 10 scaling: the paper used 1 GB files against 4/8 GB of server
#: memory; we keep the cache:file ratios (4x and 8x) at 1/16 scale so
#: the LRU knee lands at the same client count.
FIG10_FILE_BYTES = 64 << 20
FIG10_CACHE_SMALL = 4 * FIG10_FILE_BYTES
FIG10_CACHE_BIG = 8 * FIG10_FILE_BYTES


def _fig10_points(scale: str, cache_bytes: Optional[int] = None
                  ) -> list[tuple[str, str, int, Point]]:
    """Multi-client transport grid: (transport, cache label, clients, point)."""
    clients_list = (1, 2, 3, 5, 8) if scale == "quick" else tuple(range(1, 9))
    caches = ([cache_bytes] if cache_bytes is not None
              else [FIG10_CACHE_SMALL, FIG10_CACHE_BIG])
    grid = []
    for cache in caches:
        cache_label = f"{cache / FIG10_FILE_BYTES:.0f}x-file-cache"
        for transport, label in (("rdma-rw", "RDMA"), ("tcp-ipoib", "IPoIB"),
                                 ("tcp-gige", "GigE")):
            strategy = "all-physical" if transport == "rdma-rw" else "dynamic"
            for nclients in clients_list:
                grid.append((
                    label, cache_label, nclients,
                    Point(kind="iozone",
                          cluster={"transport": transport, "strategy": strategy,
                                   "backend": "raid", "cache_bytes": cache,
                                   "nclients": nclients,
                                   "profile": "linux-ddr-raid"},
                          params={"nthreads": 1, "record_bytes": 1 << 20,
                                  "file_bytes": FIG10_FILE_BYTES,
                                  "ops_per_thread": None}),
                ))
    return grid


def run_fig10(scale: str = "quick", cache_bytes: Optional[int] = None,
              jobs: int = 1) -> ExperimentResult:
    """Fig 10: multi-client IOzone READ over RDMA vs IPoIB vs GigE."""
    grid = _fig10_points(scale, cache_bytes)
    results = sweep([p for _, _, _, p in grid], jobs)
    rows = [[label, cache_label, nclients, round(r["read_mb_s"], 1)]
            for (label, cache_label, nclients, _), r in zip(grid, results)]
    return ExperimentResult(
        experiment="Fig 10: Multi-client IOzone Read (RDMA vs IPoIB vs GigE)",
        headers=["transport", "server cache", "clients", "aggregate read MB/s"],
        rows=rows,
        paper_reference=(
            "4GB: RDMA peaks 883 MB/s at 3 clients then falls toward spindle "
            "bandwidth; IPoIB ~326; GigE ~107 falling. 8GB: RDMA >900 MB/s "
            "through 7 clients; IPoIB ~360"
        ),
    )


# ---------------------------------------------------------------- Fig 11
def _fig11_points(scale: str) -> list[tuple[str, int, Point]]:
    """Client-scaling grid: (series label, nclients, point).

    Three series at each client count: Read-Write RDMA with the shared
    receive pool (SRQ), the same design with classic per-connection
    receive rings, and IPoIB as the non-RDMA baseline.  Every server
    runs the same bounded dispatcher (8 workers, 64-deep run queue) so
    the only variable across the RDMA series is receive-buffer pooling.
    """
    ops = _ops(scale, 4, 8)
    clients_list = (1, 4, 16, 64) if scale == "quick" else (1, 8, 32, 64, 128, 256)
    series = (
        ("RDMA-SRQ", {"transport": "rdma-rw", "srq": True}),
        ("RDMA-conn", {"transport": "rdma-rw"}),
        ("IPoIB", {"transport": "tcp-ipoib"}),
    )
    grid = []
    for label, extra in series:
        for nclients in clients_list:
            grid.append((
                label, nclients,
                Point(kind="iozone",
                      cluster={"strategy": "dynamic", "profile": "solaris-sdr",
                               "nclients": nclients, "server_workers": 8,
                               "server_queue_depth": 64, **extra},
                      params={"nthreads": 1, "record_bytes": 64 * 1024,
                              "ops_per_thread": ops}),
            ))
    return grid


def run_fig11(scale: str = "quick", jobs: int = 1) -> ExperimentResult:
    """Fig 11: many-client scaling — SRQ vs per-connection receive pools."""
    grid = _fig11_points(scale)
    results = sweep([p for _, _, p in grid], jobs)
    rows = [[series, nclients, round(r["read_mb_s"], 1),
             round(r["read_p99_us"], 1),
             round(r["server_cpu_read"] * 100, 1),
             round(r["recv_registered_bytes"] / nclients / 1024, 1)]
            for (series, nclients, _), r in zip(grid, results)]
    return ExperimentResult(
        experiment="Fig 11: Client scaling (SRQ vs per-connection pools vs IPoIB)",
        headers=["series", "clients", "aggregate read MB/s", "read p99 us",
                 "server CPU %", "recv KB/client"],
        rows=rows,
        paper_reference=(
            "projection beyond the paper's 8-client testbed: aggregate "
            "bandwidth holds as clients grow while SRQ keeps registered "
            "receive memory sublinear (per-connection rings grow linearly); "
            "IPoIB saturates far below the RDMA series"
        ),
    )


# ---------------------------------------------------------------- Fig 12
#: The fig12 mitigation ladder: each step adds one defense layer on top
#: of the previous (lease values in µs, quota in bytes).
FIG12_MITIGATIONS = (
    ("none", {}),
    ("leases", {"lease_timeout_us": 5_000.0}),
    ("hardened", {"lease_timeout_us": 5_000.0,
                  "exposure_quota_bytes": 512 * 1024,
                  "quarantine": True}),
    ("hardened+aes", {"lease_timeout_us": 5_000.0,
                      "exposure_quota_bytes": 512 * 1024,
                      "quarantine": True, "aes_payload": True}),
)


def _fig12_points(scale: str) -> list[tuple[str, str, Point]]:
    """Attack/mitigation grid: (mitigation, transport label, point)."""
    duration = 30_000.0 if scale == "quick" else 120_000.0
    grid = []
    for mitigation, knobs in FIG12_MITIGATIONS:
        for transport, label in (("rdma-rr", "RR"), ("rdma-rw", "RW")):
            grid.append((
                mitigation, label,
                Point(kind="attack",
                      cluster={"transport": transport, "strategy": "dynamic",
                               "profile": "solaris-sdr", "nclients": 2,
                               **knobs},
                      params={"duration_us": duration}),
            ))
    return grid


def run_fig12(scale: str = "quick", jobs: int = 1) -> ExperimentResult:
    """Fig 12: adversary campaign outcomes across the mitigation ladder.

    Each point runs the full §4.1 adversary cast (DONE withholder,
    informed stag guesser, stale-chunk replayer, garbage flooder) as
    long-lived malicious mounts mixed with two legitimate mounts, and
    reports what the attackers achieved next to what the victims paid.
    """
    grid = _fig12_points(scale)
    results = sweep([p for _, _, p in grid], jobs)
    rows = [[mitigation, label,
             round(r["legit_read_mb_s"], 1), round(r["legit_p99_us"], 1),
             r["pinned_peak_bytes"] // 1024, r["pinned_final_bytes"] // 1024,
             r["guess_hits"], r["replay_hits"], r["malformed_wrs"],
             r["lease_reclaimed_bytes"] // 1024,
             r["quota_evicted_bytes"] // 1024,
             r["quarantined"], r["redials_refused"],
             round(r["server_cpu"] * 100, 1)]
            for (mitigation, label, _), r in zip(grid, results)]
    return ExperimentResult(
        experiment="Fig 12: Adversary campaign vs mitigation ladder (RR/RW)",
        headers=["mitigation", "design", "legit MB/s", "legit p99 us",
                 "pinned peak KB", "pinned end KB", "guess hits",
                 "replay hits", "malformed", "leased KB", "evicted KB",
                 "quarantined", "refused", "server CPU %"],
        rows=rows,
        paper_reference=(
            "RR without mitigation: withheld DONEs pin server buffers "
            "without bound and an informed stag guesser can hit; leases "
            "bound the pinned bytes, quota+quarantine evict the attackers, "
            "AES adds integrity at measurable CPU cost. RW is flat across "
            "the ladder — no server stags exist to attack (§4.2)"
        ),
    )


# ---------------------------------------------------------------- Fig 13
def _fig13_points(scale: str) -> list[tuple[str, int, Point]]:
    """Mount-scaling grid: (series label, mounts, point).

    Three deployments at each mount count, all on four client hosts
    with small (8-deep) per-connection credit windows so connection
    cost — not bandwidth — is the variable:

    * ``per-conn`` — the paper's architecture: every mount dials its
      own RC QP with private receive rings;
    * ``muxed`` — one server, but mounts share ``ceil(sqrt(lanes))``
      QPs per host (:class:`~repro.ib.mux.QpMux`) riding the server's
      shared receive pool;
    * ``muxed+sharded`` — the same mux with mounts redirected across
      four server shards.
    """
    ops = _ops(scale, 2, 4)
    mounts_list = ((1, 10, 100, 1000) if scale == "quick"
                   else (1, 10, 100, 1000, 10000))
    series = (
        ("per-conn", {}),
        ("muxed", {"mux": True, "srq": True}),
        ("muxed+sharded", {"servers": 4, "mux": True, "srq": True}),
    )
    grid = []
    for label, extra in series:
        for mounts in mounts_list:
            grid.append((
                label, mounts,
                Point(kind="iozone",
                      cluster={"transport": "rdma-rw", "strategy": "dynamic",
                               "profile": "solaris-sdr", "nclients": mounts,
                               "server_workers": 8, "server_queue_depth": 64,
                               "client_hosts": 4, "credits": 8, **extra},
                      params={"nthreads": 1, "record_bytes": 64 * 1024,
                              "ops_per_thread": ops}),
            ))
    return grid


def run_fig13(scale: str = "quick", jobs: int = 1) -> ExperimentResult:
    """Fig 13: mount scaling — per-connection QPs vs mux vs mux+shards."""
    grid = _fig13_points(scale)
    results = sweep([p for _, _, p in grid], jobs)
    rows = [[series, mounts, round(r["read_mb_s"], 1),
             round(r["read_p99_us"], 1), r["qp_total"],
             round(r["recv_registered_bytes"] / 1024, 1)]
            for (series, mounts, _), r in zip(grid, results)]
    return ExperimentResult(
        experiment="Fig 13: Mount scaling (per-conn vs QP mux vs mux+shards)",
        headers=["series", "mounts", "aggregate read MB/s", "read p99 us",
                 "total QPs", "recv registered KB"],
        rows=rows,
        paper_reference=(
            "projection beyond the paper: per-connection QP count and "
            "registered receive memory grow linearly with mounts while the "
            "muxed deployments stay O(sqrt(N)); sharding holds p99 flat "
            "where a single muxed server saturates; aggregate bandwidth "
            "matches per-connection at low mount counts"
        ),
    )


# ---------------------------------------------------------------- security
def run_security_audit(scale: str = "quick", jobs: int = 1) -> ExperimentResult:
    """§4.1 exposure comparison: attack surface of RR vs RW under load."""
    grid = [
        (transport,
         Point(kind="security",
               cluster={"transport": transport},
               params={"nthreads": 4, "ops_per_thread": 20}))
        for transport in ("rdma-rr", "rdma-rw")
    ]
    results = sweep([p for _, p in grid], jobs)
    rows = [[transport,
             r["stags_exposed_ever"], r["exposed_regions_now"],
             r["pending_done_ops"], r["protection_faults"]]
            for (transport, _), r in zip(grid, results)]
    return ExperimentResult(
        experiment="Security audit (§4.1): server attack surface under IOzone",
        headers=["design", "server stags exposed (ever)", "exposed now",
                 "pending DONE", "protection faults"],
        rows=rows,
        paper_reference=(
            "Read-Read exposes a server window per bulk reply and depends on "
            "client DONEs; Read-Write exposes zero server stags, ever"
        ),
    )
