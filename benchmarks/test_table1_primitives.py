"""Table 1: communication-primitive properties, probed from the verbs layer."""

from repro.experiments.figures import run_table1


def test_table1_primitive_properties(bench_scale, record_result):
    result = run_table1(bench_scale)
    record_result(result)
    by_primitive = {row[0]: row[1:] for row in result.rows}
    # The paper's matrix: channel = pre-posted only; memory = exposed +
    # steering tag + rendezvous.
    assert by_primitive["channel"] == ["", "X", "", ""]
    assert by_primitive["memory"] == ["X", "", "X", "X"]
