"""Fixture tests for the static contract analyzer (repro.check.static).

Every rule pack gets a good/bad source pair driven through
``analyze_source`` — the bad fixture must produce exactly the expected
rule, the good twin must be silent — plus the self-check that the repo's
own tree analyzes clean (the bring-up contract: every finding was either
fixed or suppressed with a justification) and a CLI smoke.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.check.static import analyze, analyze_source, rule_names


def rules_of(report):
    return {f.rule for f in report.findings}


def run(source: str, **kwargs):
    return analyze_source(textwrap.dedent(source), **kwargs)


# ---------------------------------------------------------------- purity
def test_purity_bad_wallclock():
    report = run("""
        import time

        def stamp(sim):
            return time.time()
    """)
    assert "wallclock" in rules_of(report)


def test_purity_good_sim_clock():
    report = run("""
        def stamp(sim):
            return sim.now
    """)
    assert report.ok


# ---------------------------------------------------------------- zerocost
def test_zerocost_bad_unguarded_touchpoint():
    report = run("""
        class Transport:
            def send(self, n):
                self.sim.telemetry.tracer.begin("send", "t", "c", "l")
    """)
    assert rules_of(report) == {"zero-cost-off"}


def test_zerocost_good_guarded_touchpoint():
    report = run("""
        class Transport:
            def send(self, n):
                telemetry = self.sim.telemetry
                if telemetry is not None and telemetry.tracer is not None:
                    telemetry.tracer.begin("send", "t", "c", "l")
    """)
    assert report.ok


def test_zerocost_good_early_return_guard():
    report = run("""
        class Transport:
            def span(self):
                telemetry = self.sim.telemetry
                if telemetry is None or telemetry.tracer is None:
                    return None
                tracer = telemetry.tracer
                return tracer.begin("op", "t", "c", "l")
    """)
    assert report.ok


def test_zerocost_guard_does_not_leak_past_branch():
    report = run("""
        class Transport:
            def send(self):
                if self.sim.telemetry is not None:
                    pass
                self.sim.telemetry.tracer
    """)
    assert rules_of(report) == {"zero-cost-off"}


def test_zerocost_only_in_hot_modules():
    report = run(
        """
        class Host:
            def report(self):
                return self.sim.telemetry.tracer
        """,
        name="repro.experiments.fixture",
    )
    assert report.ok


# ---------------------------------------------------------------- interproc
def test_interproc_bad_laundered_wallclock():
    report = run("""
        import time

        def bench_stamp():
            return time.time()  # lint-sim: allow[wallclock]

        def transfer(sim):
            return bench_stamp()
    """)
    assert "purity-escape" in rules_of(report)
    assert "wallclock" not in rules_of(report)  # suppressed at its site


def test_interproc_reports_call_chain():
    report = run("""
        import time

        def inner():
            return time.time()  # lint-sim: allow[wallclock]

        def middle():
            return inner()  # lint-sim: allow[purity-escape]

        def transfer(sim):
            return middle()
    """)
    escape = [f for f in report.findings if f.rule == "purity-escape"]
    assert len(escape) == 1
    assert "middle" in escape[0].message and "inner" in escape[0].message


def test_interproc_good_pure_helper():
    report = run("""
        def pad(n):
            return (n + 3) & ~3

        def transfer(sim):
            return pad(10)
    """)
    assert report.ok


# ---------------------------------------------------------------- procgen
def test_procgen_bad_non_event_yield():
    report = run("""
        def worker(sim):
            yield 5

        def main(sim):
            sim.process(worker(sim))
    """)
    assert rules_of(report) == {"process-yield"}


def test_procgen_yield_from_closure():
    report = run("""
        def helper(sim):
            yield "not an event"

        def worker(sim):
            yield from helper(sim)

        def main(sim):
            sim.process(worker(sim))
    """)
    assert rules_of(report) == {"process-yield"}


def test_procgen_good_event_yields():
    report = run("""
        def worker(sim, ev):
            yield sim.timeout(5)
            yield ev

        def main(sim, ev):
            sim.process(worker(sim, ev))
    """)
    assert report.ok


def test_procgen_plain_iterators_stay_free():
    report = run("""
        def numbers():
            yield 1
            yield 2

        def main(sim):
            return list(numbers())
    """)
    assert report.ok


def test_procgen_bad_yield_in_finally():
    report = run("""
        def worker(sim, pool):
            req = pool.request()
            try:
                yield req
            finally:
                yield from pool.release(req)

        def main(sim, pool):
            sim.process(worker(sim, pool))
    """)
    assert rules_of(report) == {"yield-in-finally"}


def test_procgen_yield_in_finally_beyond_discovered_processes():
    # No sim.process() seed: the transport's call path is reached
    # through dynamic dispatch the discovery cannot follow.
    report = run("""
        class Client:
            def call(self, sim):
                try:
                    yield sim.timeout(1)
                finally:
                    yield sim.timeout(2)
    """)
    assert rules_of(report) == {"yield-in-finally"}


def test_procgen_good_release_outside_finally():
    report = run("""
        def worker(sim, pool):
            req = pool.request()
            try:
                yield req
            except BaseException as exc:
                yield from pool.release(req, isinstance(exc, GeneratorExit))
                raise
            finally:
                def later():
                    yield sim.timeout(1)
                pool.note(later)
            yield from pool.release(req)

        def main(sim, pool):
            sim.process(worker(sim, pool))
    """)
    assert report.ok


def test_procgen_bad_generator_callback():
    report = run("""
        def on_done(ev):
            yield ev

        def main(ev):
            ev.callbacks.append(on_done)
    """)
    assert rules_of(report) == {"callback-yield"}


def test_procgen_good_plain_callback():
    report = run("""
        def on_done(ev):
            print(ev)

        def main(ev):
            ev.callbacks.append(on_done)
    """)
    assert report.ok


def test_procgen_bad_double_trigger():
    report = run("""
        def finish(ev):
            ev.succeed(1)
            ev.succeed(2)
    """)
    assert rules_of(report) == {"double-trigger"}


def test_procgen_bad_loop_invariant_trigger():
    report = run("""
        def finish(ev, items):
            for item in items:
                ev.succeed(item)
    """)
    assert rules_of(report) == {"double-trigger"}


def test_procgen_good_guarded_and_fresh_triggers():
    report = run("""
        def finish(events, done):
            for ev in events:
                ev.succeed()
            for item in (1, 2):
                if not done.triggered:
                    done.succeed(item)
    """)
    assert report.ok


# ---------------------------------------------------------------- boundary
def test_boundary_bad_broad_except():
    report = run("""
        def deliver(msg):
            try:
                msg.send()
            except Exception:
                return None
    """)
    assert rules_of(report) == {"exception-boundary"}


def test_boundary_bad_repro_error():
    report = run("""
        from repro.errors import ReproError

        def deliver(msg):
            try:
                msg.send()
            except (ValueError, ReproError):
                return None
    """)
    assert rules_of(report) == {"exception-boundary"}


def test_boundary_good_reraise_and_narrow():
    report = run("""
        from repro.errors import ProtectionError

        def deliver(msg):
            try:
                msg.send()
            except ProtectionError:
                return None
            except Exception:
                msg.log()
                raise
    """)
    assert report.ok


def test_boundary_scoped_to_transport_modules():
    report = run(
        """
        def host_side(fn):
            try:
                fn()
            except Exception:
                return None
        """,
        name="repro.experiments.fixture",
    )
    assert report.ok


DECODE_BAD = """
    from repro.rpc.msg import RpcCall, unframe_message
    from repro.errors import TransportError

    def receive(message):
        try:
            header, payload = unframe_message(message)
        except TransportError:
            return None
        return RpcCall.decode(header)
"""


def test_boundary_bad_unguarded_peer_decode():
    report = run(DECODE_BAD, name="repro.core.fixture")
    assert rules_of(report) == {"unguarded-decode"}
    assert sorted(f.message.split("(")[0] for f in report.findings) == [
        "RpcCall.decode", "unframe_message"]


def test_boundary_good_decode_under_xdr_handler():
    report = run("""
        from repro.core.header import RpcRdmaHeader
        from repro.rpc.msg import RpcReply, unframe_message
        from repro.rpc.xdr import XdrError

        def receive(raw, counter):
            try:
                header = RpcRdmaHeader.decode(raw)
                body, _ = unframe_message(header.rpc_message)
                return RpcReply.decode(body)
            except (KeyError, XdrError):
                counter.add()
                return None
    """, name="repro.rpc.fixture")
    assert report.ok


def test_boundary_decode_in_nested_def_is_not_guarded():
    report = run("""
        from repro.rpc.msg import RpcReply
        from repro.rpc.xdr import XdrError

        def receive(raw):
            try:
                def later():
                    return RpcReply.decode(raw)
            except XdrError:
                return None
            return later
    """, name="repro.core.fixture")
    assert rules_of(report) == {"unguarded-decode"}


def test_boundary_decode_scoped_to_rpc_transports():
    report = run(DECODE_BAD, name="repro.experiments.fixture")
    assert report.ok


# ------------------------------------------------------- suppressions/audit
def test_suppression_silences_finding():
    report = run("""
        import time

        def stamp(sim):
            return time.time()  # lint-sim: allow[wallclock]
    """)
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["wallclock"]


def test_unused_suppression_is_a_finding():
    report = run("""
        def stamp(sim):
            return sim.now  # lint-sim: allow[wallclock]
    """)
    assert rules_of(report) == {"unused-suppression"}


def test_docstring_mention_is_not_a_suppression():
    report = run('''
        def stamp(sim):
            """Suppress with ``# lint-sim: allow[wallclock]`` if needed."""
            return sim.now
    ''')
    assert report.ok


# ---------------------------------------------------------------- selection
def test_rule_selection_restricts_packs():
    report = run(
        """
        import time

        def stamp(sim):
            return time.time()
        """,
        rules=["zero-cost-off"],
    )
    assert report.ok  # wallclock not selected
    assert report.rules_run == ("zero-cost-off",)


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        analyze_source("x = 1", rules=["bogus"])


def test_rule_names_cover_all_packs():
    names = rule_names()
    for expected in ("wallclock", "zero-cost-off", "purity-escape",
                     "process-yield", "yield-in-finally", "callback-yield",
                     "double-trigger",
                     "exception-boundary", "unguarded-decode",
                     "unused-suppression"):
        assert expected in names


# ---------------------------------------------------------------- self-check
def test_repo_tree_analyzes_clean():
    """The bring-up contract: the shipped tree has zero findings."""
    report = analyze()
    assert report.findings == []
    assert report.modules_scanned > 100


# ---------------------------------------------------------------- CLI
def test_cli_static_text(capsys):
    from repro.__main__ import main

    assert main(["check", "--static"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_static_json_with_rule(capsys):
    from repro.__main__ import main

    assert main(["check", "--static", "--rule", "unguarded-decode",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["rules_run"] == ["unguarded-decode"]


def test_cli_rule_requires_static(capsys):
    from repro.__main__ import main

    assert main(["check", "--rule", "unguarded-decode"]) == 2
