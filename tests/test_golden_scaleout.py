"""Golden equivalence for the scale-out, hardening and recovery paths.

``test_golden_figures`` pins the paper's single-mount grid.  This file
pins the paths that grid does not reach: the shared receive pool at
many clients (fig11), adversary campaigns with and without the
mitigation ladder (fig12), a seeded chaos fault plan, per-connection,
muxed+sharded and striped deployments (fig13), and a TCP mount that is
torn down and rebuilt with ``Cluster.reconnect_client``.

Each point records its simulated metrics, the simulator's event count
and end time, and a per-metric summary of the telemetry registry
(sample count and value sum per metric name), so a change in wiring,
naming or scheduling shows up as a diff.  The values in
``golden/scaleout_points.json`` must stay bit-identical.

Regenerate (only when deliberately changing simulated behaviour)::

    PYTHONPATH=src python -m tests.test_golden_scaleout --capture
"""

from __future__ import annotations

import json
import pathlib

GOLDEN = pathlib.Path(__file__).parent / "golden" / "scaleout_points.json"

_FIG13_BASE = {"transport": "rdma-rw", "strategy": "dynamic",
               "profile": "solaris-sdr", "nclients": 100,
               "server_workers": 8, "server_queue_depth": 64,
               "client_hosts": 4, "credits": 8}
_FIG13_IO = {"nthreads": 1, "record_bytes": 64 * 1024, "ops_per_thread": 2}
_HARDENED = {"lease_timeout_us": 5_000.0,
             "exposure_quota_bytes": 512 * 1024, "quarantine": True}

#: Sweep points, run through :func:`repro.experiments.sweep.run_point`.
POINTS = {
    "fig11-srq-c64": (
        "iozone",
        {"transport": "rdma-rw", "srq": True, "strategy": "dynamic",
         "profile": "solaris-sdr", "nclients": 64, "server_workers": 8,
         "server_queue_depth": 64},
        {"nthreads": 1, "record_bytes": 64 * 1024, "ops_per_thread": 4}),
    "fig12-rr-none": (
        "attack",
        {"transport": "rdma-rr", "strategy": "dynamic",
         "profile": "solaris-sdr", "nclients": 2},
        {"duration_us": 30_000.0}),
    "fig12-rr-hardened": (
        "attack",
        {"transport": "rdma-rr", "strategy": "dynamic",
         "profile": "solaris-sdr", "nclients": 2, **_HARDENED},
        {"duration_us": 30_000.0}),
    "fig13-per-conn-m100": ("iozone", _FIG13_BASE, _FIG13_IO),
    "fig13-muxed-sharded-m100": (
        "iozone",
        {**_FIG13_BASE, "servers": 4, "mux": True, "srq": True},
        _FIG13_IO),
    "fig13-striped-ds2": (
        "iozone",
        {"transport": "rdma-rw", "strategy": "dynamic",
         "profile": "solaris-sdr", "nclients": 4, "data_servers": 2,
         "client_hosts": 2, "mux": True, "srq": True},
        {"nthreads": 1, "record_bytes": 256 * 1024, "ops_per_thread": 4}),
}


def _registry_summary(cluster) -> dict:
    """``{metric name: [samples, value sum]}`` read after the run."""
    from repro.telemetry import Telemetry

    telemetry = Telemetry(cluster.sim, tracing=False)
    telemetry.attach_cluster(cluster)
    out: dict = {}
    for sample in telemetry.registry.collect():
        count, total = out.get(sample.name, (0, 0.0))
        out[sample.name] = [count + 1, total + sample.value]
    return out


def _sweep_point(kind: str, cluster_spec: dict, params: dict) -> dict:
    from repro.experiments.sweep import Point, _build_cluster, run_point

    cluster = _build_cluster(cluster_spec)
    out = run_point(Point(kind=kind, cluster=cluster_spec, params=params),
                    cluster=cluster)
    out["registry"] = _registry_summary(cluster)
    return out


def _chaos_point() -> dict:
    from repro.experiments.chaos import run_chaos_soak

    outcome = run_chaos_soak("quick", seed=11)
    cluster = outcome.cluster
    return {
        "completed": outcome.completed,
        "verified_files": outcome.verified_files,
        "lost_writes": outcome.lost_writes,
        "duplicate_executions": outcome.duplicate_executions,
        "summary_rows": outcome.summary.rows,
        "events": cluster.sim.steps,
        "sim_us": cluster.sim.now,
        "registry": _registry_summary(cluster),
    }


def _tcp_reconnect_point() -> dict:
    from repro.experiments.cluster import Cluster, ClusterConfig
    from repro.experiments.sweep import PROFILES

    cluster = Cluster(ClusterConfig.tcp(
        "ipoib", nclients=2, profile=PROFILES["linux-sdr"]))
    nfs = cluster.mounts[1].nfs
    payload = bytes(range(256)) * 512

    def before():
        fh, _ = yield from nfs.create(nfs.root, "kept")
        yield from nfs.write(fh, 0, payload)
        return fh

    fh = cluster.run(before())
    written_at = cluster.sim.now
    mount = cluster.reconnect_client(1)

    def after():
        data, eof, _ = yield from mount.nfs.read(fh, 0, len(payload))
        return data == payload and eof

    return {
        "read_back": cluster.run(after()),
        "written_at_us": written_at,
        "server_transports": len(cluster.server_transports),
        "events": cluster.sim.steps,
        "sim_us": cluster.sim.now,
        "registry": _registry_summary(cluster),
    }


def run_all() -> dict:
    out = {name: _sweep_point(*spec) for name, spec in POINTS.items()}
    out["chaos-soak-seed11"] = _chaos_point()
    out["tcp-ipoib-reconnect"] = _tcp_reconnect_point()
    # JSON round trip so tuples and lists compare the way they are stored.
    return json.loads(json.dumps(out))


def test_scaleout_points_match_capture():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = run_all()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"point {name} diverged from capture"


if __name__ == "__main__":
    import sys

    if "--capture" not in sys.argv:
        sys.exit("usage: python -m tests.test_golden_scaleout --capture")
    points = run_all()
    with open(GOLDEN, "w") as fh:
        json.dump(points, fh, indent=1, sort_keys=True)
    print(f"wrote {GOLDEN} ({len(points)} points)")
