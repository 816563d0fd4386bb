"""Soak-plane tests: bounded-state checker, state-size hooks, soak runs.

The ``soak``-marked test at the bottom is the acceptance run (>= 1M
simulated events under the Def 2.1/2.2 checker plus the bounded-state
checker); it is excluded from tier-1 by the pytest marker and runs in the
nightly CI job.
"""

from unittest.mock import patch

import pytest

from tests.helpers import make_group

from repro.chaos import BoundedStateChecker, run_soak
from repro.chaos.soak import SOAK_SCHEMA
from repro.layers.stability import StabilityTracker


# ----------------------------------------------------------------------
# a minimal group stand-in so checker unit tests need no simulator
# ----------------------------------------------------------------------
class _StubSim:
    def __init__(self):
        self.now = 0.0


class _StubProcess:
    def __init__(self):
        self.sizes = {}
        self.stopped = False

    def state_sizes(self):
        return dict(self.sizes)


class _StubGroup:
    def __init__(self, nodes=2):
        self.sim = _StubSim()
        self.processes = {node: _StubProcess() for node in range(nodes)}
        self.byzantine_nodes = set()


def feed(checker, group, values, metric="m", quiescent=False):
    """One sample per entry in ``values``, applied to node 0."""
    for value in values:
        group.processes[0].sizes[metric] = value
        group.sim.now += 1.0
        checker.sample(group, quiescent=quiescent)


# ----------------------------------------------------------------------
# BoundedStateChecker
# ----------------------------------------------------------------------
def test_bounded_checker_flags_monotone_growth():
    checker = BoundedStateChecker(growth_slack=2.0, growth_floor=10)
    group = _StubGroup(nodes=1)
    feed(checker, group, [20 * i for i in range(1, 17)])
    violations = checker.check()
    assert len(violations) == 1 and "state growth" in violations[0]
    assert checker.max_sizes() == {"m": 320}


def test_bounded_checker_tolerates_plateau_and_spikes():
    checker = BoundedStateChecker(growth_slack=2.0, growth_floor=10)
    group = _StubGroup(nodes=1)
    # fills toward a plateau, with churn spikes that always come back down
    series = [40, 80, 120, 160, 200, 200, 900, 200,
              200, 200, 850, 200, 200, 200, 200, 200]
    feed(checker, group, series)
    assert checker.check() == []


def test_bounded_checker_growth_floor_filters_small_tables():
    checker = BoundedStateChecker(growth_slack=1.5, growth_floor=64)
    group = _StubGroup(nodes=1)
    feed(checker, group, list(range(1, 17)))   # rising, but tiny
    assert checker.check() == []


def test_bounded_checker_quiescent_caps():
    checker = BoundedStateChecker(quiescent_caps={"stash": 10})
    group = _StubGroup(nodes=1)
    group.processes[0].sizes["stash"] = 50
    checker.sample(group, quiescent=False)     # mid-churn spike: allowed
    assert checker.check() == []
    checker.sample(group, quiescent=True)      # after recovery: not allowed
    violations = checker.check()
    assert len(violations) == 1 and "state cap" in violations[0]


def test_bounded_checker_skips_stopped_and_byzantine():
    checker = BoundedStateChecker(quiescent_caps={"stash": 1})
    group = _StubGroup(nodes=3)
    for process in group.processes.values():
        process.sizes["stash"] = 99
    group.processes[1].stopped = True
    group.byzantine_nodes.add(2)
    checker.sample(group, quiescent=True)
    assert len(checker.check()) == 1           # only node 0 judged


def test_bounded_checker_recovery_bound():
    checker = BoundedStateChecker(recovery_bound=2.0)
    checker.record_recovery(1.5, at=10.0)
    checker.record_recovery(3.0, at=20.0)
    checker.record_recovery(None, at=30.0)
    violations = checker.check()
    assert len(violations) == 2
    assert any("exceeds bound" in line for line in violations)
    assert any("never re-stabilized" in line for line in violations)
    assert checker.recoveries() == [(10.0, 1.5), (20.0, 3.0), (30.0, None)]


# ----------------------------------------------------------------------
# state-size hooks on the real stack
# ----------------------------------------------------------------------
def test_state_sizes_cover_every_stateful_layer():
    group = make_group(4, seed=0)
    group.run(0.5)
    sizes = group.processes[0].state_sizes()
    prefixes = {metric.split(".", 1)[0] for metric in sizes}
    assert prefixes >= {"bottom", "reliable", "membership", "suspicion",
                        "state_transfer", "stability", "fuzzy", "process"}
    assert all(isinstance(v, int) and v >= 0 for v in sizes.values())
    assert sizes["process.last_heard"] == 4
    group.stop()


# ----------------------------------------------------------------------
# the stability-listener leak (regression)
# ----------------------------------------------------------------------
def _churn_with_stability_wait(checker, rounds=12):
    """Crash/restart churn with the coordinator's stability wait forced.

    ``all_stable`` is usually already true by the time the cut completes
    (the reliable layer's cut retransmission doubles as acknowledgement),
    so the per-change subscription only happens in a narrow race.  The
    wrapper answers "not yet" to the first query of each change, forcing
    the membership layer through its real subscribe-wait-unsubscribe
    path on every view change -- the path the leak lived on.
    """

    real_all_stable = StabilityTracker.all_stable
    queries = {}

    def lagged(self, cut, members):
        count = queries.get(id(self), 0)
        queries[id(self)] = count + 1
        if count % 2 == 0:
            # the AWAIT_VIEW entry query: report "not yet stable" so the
            # coordinator subscribes; the re-query from the very next
            # ack-matrix notify answers truthfully and releases the wait
            return False
        return real_all_stable(self, cut, members)

    StabilityTracker.all_stable = lagged
    group = make_group(5, seed=11)
    try:
        group.run(0.5)
        for round_no in range(rounds):
            # fresh app traffic each round: every change flushes a new,
            # larger cut, so the first-query-lags-once wrapper above
            # forces one stability wait per change
            for node in range(4):
                group.endpoints[node].cast(("churn", round_no, node))
            group.crash(4)
            group.run(0.6)
            group.restart(4)
            group.run(0.8)
            checker.sample(group)
        return max(p.stability.state_sizes()["listeners"]
                   for p in group.processes.values())
    finally:
        StabilityTracker.all_stable = real_all_stable
        group.stop()


def test_stability_listeners_bounded_under_view_churn():
    """Membership pairs every per-change stability subscription with an
    unsubscribe, so the listener list stays flat across view churn."""
    checker = BoundedStateChecker(growth_slack=1.5, growth_floor=4)
    peak = _churn_with_stability_wait(checker)
    # the flow layer's one standing registration, nothing per-change
    assert peak <= 2, peak
    assert not [v for v in checker.check() if "stability.listeners" in v]


def test_soak_checker_catches_resurrected_listener_leak():
    """A planted leak -- ``unsubscribe`` a no-op -- leaves one dead
    listener per view change, which the bounded-state checker must flag
    under churn."""
    leaky = BoundedStateChecker(growth_slack=1.5, growth_floor=4)
    with patch.object(StabilityTracker, "unsubscribe",
                      lambda self, callback: None):
        peak = _churn_with_stability_wait(leaky)
    assert peak > 4, peak
    violations = leaky.check()
    assert any("stability.listeners" in v for v in violations), violations


# ----------------------------------------------------------------------
# soak runs
# ----------------------------------------------------------------------
def test_mini_soak_passes_and_reports():
    report = run_soak(seed=3, n=5, target_events=30_000, recovery_bound=5.0)
    assert report["schema"] == SOAK_SCHEMA and report["kind"] == "soak"
    assert report["verdict"] == "pass", (report["violations"],
                                         report["state_violations"])
    assert report["events_processed"] >= 30_000
    assert report["cycles"] >= 1
    assert report["recovery"]["measured"] >= 1
    assert report["recovery"]["stuck"] == 0
    assert report["plan_hash"]
    assert report["max_sizes"]


def test_mini_soak_deterministic_per_seed():
    a = run_soak(seed=5, n=5, target_events=25_000)
    b = run_soak(seed=5, n=5, target_events=25_000)
    assert a == b
    c = run_soak(seed=6, n=5, target_events=25_000)
    assert c["events_processed"] != a["events_processed"] or \
        c["max_sizes"] != a["max_sizes"]


def test_soak_runs_byzantine_episodes():
    report = run_soak(seed=2, n=6, target_events=120_000)
    assert report["verdict"] == "pass", (report["violations"],
                                         report["state_violations"])
    assert report["byzantine_episodes"] >= 1


@pytest.mark.soak
def test_soak_one_million_events():
    """The acceptance soak: >= 1M events of churn, all checkers green."""
    report = run_soak(seed=7, n=6, target_events=1_000_000,
                      recovery_bound=5.0)
    assert report["events_processed"] >= 1_000_000
    assert report["verdict"] == "pass", (report["violations"],
                                         report["state_violations"])
    assert report["recovery"]["stuck"] == 0
    assert report["byzantine_episodes"] >= 1
