"""tools/bench_gate.py must fail on regressions and reject non-v2 files."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_gate  # noqa: E402


def _write(directory: Path, name: str, payload: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


def _v2(name: str, eps: int, events: int = 1_000_000) -> dict:
    return {
        "schema_version": 2,
        "experiment": name,
        "scale": "quick",
        "jobs": 1,
        "core": "c",
        "wall_seconds": round(events / eps, 3),
        "events": events,
        "events_per_sec": eps,
        "points": 4,
    }


def _v1(name: str, eps: int, events: int = 1_000_000) -> dict:
    # the pre-versioning shape: events_stepped, no schema_version/core
    return {
        "experiment": name,
        "scale": "quick",
        "jobs": 1,
        "wall_seconds": round(events / eps, 3),
        "events_stepped": events,
        "events_per_sec": eps,
        "points": 4,
    }


def test_gate_passes_when_fresh_is_fast_enough(tmp_path):
    _write(tmp_path / "base", "fig5", _v2("fig5", 100_000))
    _write(tmp_path / "fresh", "fig5", _v2("fig5", 95_000))  # -5% < 15%
    rc = bench_gate.main(["--fresh", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"),
                          "--max-regress", "15"])
    assert rc == 0


def test_gate_fails_on_synthetic_regression(tmp_path):
    _write(tmp_path / "base", "fig5", _v2("fig5", 100_000))
    _write(tmp_path / "fresh", "fig5", _v2("fig5", 80_000))  # -20% > 15%
    rc = bench_gate.main(["--fresh", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"),
                          "--max-regress", "15"])
    assert rc != 0


def test_gate_fails_on_missing_figure(tmp_path):
    _write(tmp_path / "base", "fig5", _v2("fig5", 100_000))
    _write(tmp_path / "base", "fig6", _v2("fig6", 100_000))
    _write(tmp_path / "fresh", "fig5", _v2("fig5", 100_000))
    rc = bench_gate.main(["--fresh", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base")])
    assert rc != 0


def test_gate_rejects_v1_files(tmp_path, capsys):
    """An unversioned v1 baseline is an error, never read as zero."""
    _write(tmp_path / "base", "fig5", _v1("fig5", 100_000))
    _write(tmp_path / "fresh", "fig5", _v2("fig5", 200_000))
    rc = bench_gate.main(["--fresh", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base")])
    assert rc == 2
    assert "schema_version None is not supported" in capsys.readouterr().err
    with pytest.raises(ValueError, match="BENCH_fig5.json"):
        bench_gate.load_bench(tmp_path / "base" / "BENCH_fig5.json")


def test_gate_faster_than_baseline_always_passes(tmp_path):
    _write(tmp_path / "base", "fig5", _v2("fig5", 100_000))
    _write(tmp_path / "fresh", "fig5", _v2("fig5", 1_000_000))  # 10x faster
    rc = bench_gate.main(["--fresh", str(tmp_path / "fresh"),
                          "--baseline", str(tmp_path / "base"),
                          "--max-regress", "0"])
    assert rc == 0
