"""Tests for the tooling: schedule explorer and ASCII charts."""

from tests.machines import BusExplorer, Node, on_bus

from repro.core.config import StackConfig
from repro.core.view import View, ViewId
from repro.layers.reliable import STREAM_APP
from repro.tools.ascii_chart import chart_block, render_chart
from repro.tools.explorer import (ScheduleExplorer,
                                  explore_consensus_agreement,
                                  explore_uniform_broadcast)


# ----------------------------------------------------------------------
# schedule explorer
# ----------------------------------------------------------------------
def test_explorer_finds_injected_violation():
    """Sanity: a deliberately unsafe 'protocol' is caught."""

    class Racy:
        def __init__(self, me, bus):
            self.me = me
            self.bus = bus
            self.decided = None

        def on_message(self, sender, payload):
            if self.decided is None:
                self.decided = payload  # adopt first arrival: unsafe

    def factory(bus):
        instances = {0: Racy(0, bus), 1: Racy(1, bus), 2: Racy(2, bus)}
        bus.send(0, 1, "a")
        bus.send(2, 1, "b")
        bus.send(0, 2, "a")
        bus.send(2, 2, "b")
        return instances

    def check(instances):
        decided = {i.decided for i in instances.values()
                   if i.decided is not None}
        if len(decided) > 1:
            return "split"
        return None

    explorer = ScheduleExplorer(factory, check)
    assert not explorer.run()
    assert explorer.violations
    assert explorer.terminal_states >= 1


def test_uniform_broadcast_safe_under_all_schedules():
    explorer = explore_uniform_broadcast(4, 0, max_states=60_000)
    assert not explorer.violations
    assert explorer.terminal_states > 0


def test_uniform_broadcast_two_faced_safe_under_all_schedules():
    # the origin shows half the group "A" and half "B"; no schedule may
    # split the correct members' deliveries
    explorer = explore_uniform_broadcast(
        5, 0, two_faced={1: "A", 2: "A", 3: "B", 4: "B"},
        max_states=60_000)
    assert not explorer.violations
    assert explorer.states_explored > 100


def test_uniform_broadcast_two_faced_total_bounded_search():
    # n=8, f=1: the origin shows "A" to members 1-6 and "B" to member 7,
    # and echoes "A" to member 1 only.  Echoing once ever, every schedule
    # that delivers the initials first leaves only member 1 delivering
    # (found within ~50 states); echoing once per value, none may.  This
    # is a bounded search: 5,000 states of a space too large to exhaust
    # without a visited set, not a proof over every schedule.
    explorer = explore_uniform_broadcast(
        8, 1, two_faced={1: "A", 2: "A", 3: "A", 4: "A", 5: "A", 6: "A",
                         7: "B"},
        echo_to={1}, max_states=5_000)
    assert not explorer.violations
    assert explorer.terminal_states > 1_000


def test_consensus_agreement_under_all_schedules():
    proposals = {0: (1,), 1: (0,), 2: (1,), 3: (0,)}
    explorer = explore_consensus_agreement(4, 0, proposals,
                                           max_states=40_000)
    assert not explorer.violations
    assert explorer.states_explored > 100


def test_consensus_validity_under_all_schedules():
    proposals = {i: (1,) for i in range(3)}
    explorer = explore_consensus_agreement(3, 0, proposals,
                                           max_states=30_000)
    assert not explorer.violations
    assert explorer.terminal_states > 0


# ----------------------------------------------------------------------
# the view-change machine over the real stream machine, under the
# explorer (ROADMAP 8(a) starts here)
# ----------------------------------------------------------------------
CRASHED = 3
#: member 3's last app cast, which only survivor 0 accepted before the crash
LAST_CAST = "m3"


def test_view_change_installs_one_view_under_all_schedules():
    """n=4, f=0, member 3 crashed: every survivor starts a change, regroup
    mode decides on its timer, and the agreed cut holds member 3's last
    cast, which only survivor 0 has.  Survivors 1 and 2 complete the cut
    only by a NAK that 0 answers with a retransmission.  Under every
    explored schedule all three deliver the cast and install the same
    view with no evidence against anyone."""

    def factory(bus):
        config = StackConfig.byz()
        view = View(ViewId(1, 0), (0, 1, 2, CRASHED), f=config.resilience(4))
        nodes = {me: Node(me, view, config, crashed={CRASHED})
                 for me in (0, 1, 2)}
        nodes[0].streams.accept(CRASHED, STREAM_APP, 1, LAST_CAST)
        for node in nodes.values():
            node.machine.start({CRASHED})
        return on_bus(bus, nodes)

    def check(instances):
        nodes = [instance.node for instance in instances.values()]
        views = {(n.installed.vid, n.installed.mbrs) if n.installed else None
                 for n in nodes}
        if (len(views) != 1 or None in views or any(n.evidence for n in nodes)
                or any(LAST_CAST not in n.delivered for n in nodes)
                or not any(LAST_CAST in n.repaired for n in nodes)):
            return "split, stuck or evidence: %r, states %r" % (
                views, [n.machine.state for n in nodes])
        return None

    explorer = BusExplorer(factory, check, max_states=100_000,
                           max_inflight_choice=2)
    assert explorer.run(), explorer.violations
    assert not explorer.truncated
    print("states visited:", explorer.states_explored,
          "terminal:", explorer.terminal_states)
    assert explorer.terminal_states > 500


# ----------------------------------------------------------------------
# ascii charts
# ----------------------------------------------------------------------
def test_chart_renders_all_series_markers():
    series = {
        "up": [(0, 0.0), (10, 10.0)],
        "down": [(0, 10.0), (10, 0.0)],
    }
    lines = render_chart(series, width=30, height=8, title="t")
    text = "\n".join(lines)
    assert "t" == lines[0]
    assert "o up" in text and "x down" in text
    assert "o" in text and "x" in text


def test_chart_handles_nan_and_flat_series():
    series = {"flat": [(0, 5.0), (5, 5.0), (10, float("nan"))]}
    lines = render_chart(series, width=20, height=5)
    assert any("o" in line for line in lines)


def test_chart_empty_series():
    assert render_chart({"e": []}, title="none")[1] == "(no data)"


def test_chart_block_is_fenced():
    block = chart_block({"s": [(0, 1.0), (1, 2.0)]})
    assert block.startswith("```") and block.endswith("```")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_calibration_runs():
    from repro.__main__ import main
    assert main(["calibration", "--nodes", "16"]) == 0


def test_cli_demo_runs():
    from repro.__main__ import main
    assert main(["demo", "--nodes", "5", "--crypto", "none",
                 "--seed", "3"]) == 0


def test_cli_attack_unknown_scenario():
    from repro.__main__ import main
    assert main(["attack", "NotAScenario"]) == 2


def test_cli_soak_writes_report(tmp_path, capsys):
    """The nightly soak matrix's entry point: exit 0 and one report."""
    import json

    from repro.__main__ import main
    out = str(tmp_path)
    assert main(["soak", "--seed", "3", "--nodes", "5", "--events", "60000",
                 "--out", out]) == 0
    with open(str(tmp_path / "soak-seed3.json")) as handle:
        report = json.load(handle)
    assert report["kind"] == "soak" and report["verdict"] == "pass"
    assert "soak seed 3: PASS" in capsys.readouterr().out


def test_cli_attack_runs_outside_the_repo_root(tmp_path):
    """The Table-1 runner ships in the package: no checkout on sys.path."""
    import os
    import subprocess
    import sys

    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "attack", "ByzMuteNode",
         "--nodes", "8"], env=dict(os.environ, PYTHONPATH=src),
        cwd=str(tmp_path), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "recovered=True" in done.stdout


# ----------------------------------------------------------------------
# timeline rendering
# ----------------------------------------------------------------------
def _small_run():
    from repro import Group, StackConfig
    group = Group.bootstrap(3, config=StackConfig.byz(), seed=9)
    group.endpoints[0].cast(("x", 1))
    group.run(0.2)
    return group


def test_timeline_globally_ordered():
    from repro.tools.timeline import merged_events
    group = _small_run()
    times = [t for t, _n, _k, _e in merged_events(group.execution())]
    assert times == sorted(times)
    assert times  # non-empty


def test_timeline_render_and_filters():
    from repro.tools.timeline import render_timeline
    group = _small_run()
    lines = render_timeline(group.execution(), kinds={"cast_deliver"})
    assert lines and all("deliver" in line for line in lines)
    limited = render_timeline(group.execution(), limit=2)
    assert len(limited) == 3 and "truncated" in limited[-1]


def test_view_summary_counts_match():
    from repro.tools.timeline import render_view_summary, view_summary
    group = _small_run()
    summary = view_summary(group.execution())
    vid = group.processes[0].view.vid
    assert summary[vid]["deliveries"] == {0: 1, 1: 1, 2: 1}
    assert sorted(summary[vid]["installed_by"]) == [0, 1, 2]
    assert render_view_summary(group.execution())
