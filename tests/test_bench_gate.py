"""tools/bench_gate.py: the base-vs-head perfbench A/B gate."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_gate  # noqa: E402

WORKLOADS, METRICS = bench_gate.load_spec()


def _run(scale: float = 1.0, *, correct: bool = True, failed: int = 0,
         overrides: dict | None = None,
         workloads: list[str] = WORKLOADS) -> dict:
    """One ``perfbench/run.py --workload all`` result line."""
    metrics = {f"{w}.{m['name']}": {"value": 10.0 * scale, "unit": m["unit"]}
               for w in workloads for m in METRICS}
    for key, value in (overrides or {}).items():
        metrics[key]["value"] = value
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": metrics}


def _gate(tmp_path: Path, base: list[dict], head: list[dict]) -> int:
    def write(side: str, runs: list[dict]) -> list[str]:
        paths = []
        for i, run in enumerate(runs):
            path = tmp_path / f"{side}-{i}.out"
            # perfbench prints a report first; the gate reads the last line.
            path.write_text(f"perfbench all trace=0\n{json.dumps(run)}\n")
            paths.append(str(path))
        return paths

    return bench_gate.main(["--base", *write("base", base),
                            "--head", *write("head", head)])


def _bound(name: str) -> float:
    return next(m["bound"] for m in METRICS if m["name"] == name)


def test_gate_passes_when_fresh_is_fast_enough(tmp_path):
    """Every metric worse by less than its bound: PASS."""
    slack = 0.9 * min(m["bound"] for m in METRICS)
    assert _gate(tmp_path, [_run()], [_run(1 + slack)]) == 0


def test_gate_faster_than_baseline_always_passes(tmp_path):
    assert _gate(tmp_path, [_run(), _run()], [_run(0.1), _run(0.1)]) == 0


def test_gate_fails_on_synthetic_regression(tmp_path, capsys):
    """One workload.metric past its bound fails the gate."""
    key = "many-mounts.wall_s"
    worse = 10.0 * (1 + _bound("wall_s") + 0.01)
    assert _gate(tmp_path, [_run()], [_run(overrides={key: worse})]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "rdma-meta.wall_s" not in err


def test_gate_holds_peak_rss_to_its_tighter_bound(tmp_path):
    key = "tcp-disk.peak_rss_mb"
    assert _bound("peak_rss_mb") == 0.05
    within = 10.0 * 1.04
    past = 10.0 * 1.06
    assert _gate(tmp_path, [_run()], [_run(overrides={key: within})]) == 0
    assert _gate(tmp_path, [_run()], [_run(overrides={key: past})]) == 1


def test_gate_fails_on_incorrect_head_run(tmp_path):
    assert _gate(tmp_path, [_run()], [_run(), _run(correct=False)]) == 1


def test_gate_fails_on_failed_ops_in_head(tmp_path):
    assert _gate(tmp_path, [_run()], [_run(failed=1), _run()]) == 1


def test_gate_ignores_base_correctness(tmp_path):
    """Only head's runs are held to ``correct``/``failed``."""
    assert _gate(tmp_path, [_run(correct=False, failed=3)], [_run()]) == 0


def test_gate_fails_on_missing_figure(tmp_path, capsys):
    """A workload missing from a head run fails the gate."""
    head = _run(workloads=[w for w in WORKLOADS if w != "tcp-disk"])
    assert _gate(tmp_path, [_run()], [head]) == 1
    assert "tcp-disk.wall_s: missing" in capsys.readouterr().err


def test_gate_reports_workload_new_at_head(tmp_path, capsys):
    base = _run(workloads=[w for w in WORKLOADS if w != "tcp-disk"])
    assert _gate(tmp_path, [base], [_run()]) == 0
    assert "(not at base)" in capsys.readouterr().out


def test_gate_compares_median_of_runs(tmp_path):
    """One outlier run per side does not move either median."""
    key = "rdma-stream.wall_s"
    base = [_run(), _run(overrides={key: 100.0}), _run()]
    head = [_run(overrides={key: 11.0}), _run(overrides={key: 1000.0}),
            _run(overrides={key: 11.0})]
    assert _gate(tmp_path, base, head) == 0
    # Two slow head runs of three move head's median past the bound.
    head[0]["metrics"][key]["value"] = 1000.0
    assert _gate(tmp_path, base, head) == 1


def test_gate_exits_2_on_malformed_line(tmp_path, capsys):
    good = tmp_path / "good.out"
    good.write_text(json.dumps(_run()) + "\n")
    for i, text in enumerate(("perfbench: out of time budget\n", "",
                              '{"correct": true}\n',
                              '{"correct": true, "failed": 0, "metrics": '
                              '{"tcp-disk.wall_s": {"value": "fast"}}}\n')):
        bad = tmp_path / f"bad-{i}.out"
        bad.write_text(text)
        assert bench_gate.main(["--base", str(good),
                                "--head", str(bad)]) == 2
        assert "not a perfbench result line" in capsys.readouterr().err
    assert bench_gate.main(["--base", str(tmp_path / "absent.out"),
                            "--head", str(good)]) == 2
