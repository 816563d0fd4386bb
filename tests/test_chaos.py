"""Chaos-plane tests: fault plans, the engine, shrinking, and hardening."""

import hashlib
import random
from contextlib import contextmanager
from unittest.mock import patch

import pytest

from tests.helpers import cast_payloads, golden_plan, make_group

from repro.broadcast.uniform import UniformBroadcast
from repro.chaos import (ADVERSARY_OPS, DEFAULT_OPS, ChaosEngine, FaultPlan,
                         LinkFaults, random_plan, run_plan, shrink_plan)
from repro.chaos.plan import RESHARD_OPS
from repro.layers.bottom import CORRUPTION_SUSPECT_THRESHOLD
from repro.layers.reliable import RETRANS_BACKOFF_MAX, RETRANS_JITTER
from repro.layers.view_change import AWAIT_VIEW, ViewChange


# ----------------------------------------------------------------------
# plan serialization
# ----------------------------------------------------------------------
def test_plan_json_roundtrip(tmp_path):
    plan = random_plan(17, ops=10, config={"crypto": "sym"},
                       net={"drop_prob": 0.05}, check={"total_order": False})
    clone = FaultPlan.from_json(plan.to_json())
    assert clone == plan
    path = str(tmp_path / "plan.json")
    plan.save(path)
    assert FaultPlan.load(path) == plan
    assert len(plan.replace_ops(plan.ops[:3])) == 3


def test_random_plans_are_seed_deterministic():
    assert random_plan(23, ops=9).to_dict() == random_plan(23, ops=9).to_dict()
    assert random_plan(23, ops=9).to_dict() != random_plan(24, ops=9).to_dict()


#: sha256 over ``random_plan(seed, ops=ops, allow=allow).digest()`` for
#: seeds 0-1199 x ops 8 and 12 x the five op tables below, in that loop
#: order.  Every seed a CI chaos leg runs is inside, so a generator change
#: that moves any leg's ``plan_hash`` fails here; one that means to says
#: so in CHANGES.md and re-records this value.
RANDOM_PLAN_SHA256 = \
    "adf131297eaf7cdfa8162d56e132573c006c7afa82586267943a2a027b1cd53e"


def test_random_plan_draws_are_pinned():
    digest = hashlib.sha256()
    for allow in (DEFAULT_OPS, ADVERSARY_OPS, RESHARD_OPS,
                  ADVERSARY_OPS + ("corrupt",), DEFAULT_OPS + ("corrupt",)):
        for ops in (8, 12):
            for seed in range(1200):
                plan = random_plan(seed, ops=ops, allow=allow)
                digest.update(plan.digest().encode("ascii"))
    assert digest.hexdigest() == RANDOM_PLAN_SHA256


#: op subsets and configurations random plans are held to the checker
#: under, each one seed range: (seeds, ops, allow, StackConfig overrides)
RANDOM_PLAN_SHAPES = {
    "traffic-and-crashes": (range(0, 4), 8,
                            ("cast", "run", "crash", "leave"), {}),
    "partitions-and-heals": (range(4, 7), 8,
                             ("cast", "run", "partition", "heal"), {}),
    "joins": (range(7, 9), 6, ("cast", "run", "join"), {}),
    "everything-mixed": (range(9, 13), 10,
                         ("cast", "run", "crash", "leave", "partition",
                          "heal", "join"), {}),
    "sym-crypto": ((31, 32), 8, ("cast", "run", "crash", "leave"),
                   {"crypto": "sym"}),
    # "packing" and "partitions-with-packing" ran these seeds with the
    # bottom layer's pack queue on; the queue is gone, so they run as
    # every other campaign does (a coalesced batch is the UDP
    # transport's, covered by tests/test_coalescer.py)
    "packing": ((33, 34), 8, ("cast", "run", "crash", "leave"), {}),
    # uniform delivery + churn: the flush's pending-agreement handling
    "uniform-delivery": ((37,), 6, ("cast", "run", "crash", "leave"),
                         {"uniform_delivery": True}),
    "sym-total-order": ((38,), 6, ("cast", "run", "crash"),
                        {"crypto": "sym", "total_order": True}),
    "partitions-with-packing": ((39,), 8,
                                ("cast", "run", "partition", "heal"), {}),
}


@pytest.mark.parametrize("shape", list(RANDOM_PLAN_SHAPES))
def test_random_plan_shapes_stay_safe(shape):
    seeds, ops, allow, config = RANDOM_PLAN_SHAPES[shape]
    for seed in seeds:
        plan = random_plan(seed, ops=ops, allow=allow, config=config)
        violations, _engine = run_plan(plan)
        assert violations == [], (seed, violations[:5], plan.ops)


# ----------------------------------------------------------------------
# link-fault tables
# ----------------------------------------------------------------------
def test_link_fault_wildcards_and_counters():
    faults = LinkFaults(random.Random(1))
    faults.set_fault("drop", None, None, 1.0)
    assert faults.filter(0, 1, "payload")[2] is True
    faults.clear()
    assert not faults.active
    faults.set_fault("drop", 2, None, 1.0)
    assert faults.filter(2, 5, "payload")[2] is True
    assert faults.filter(1, 5, "payload")[2] is False
    faults.set_fault("duplicate", None, 3, 1.0)
    payload, extra, dropped = faults.filter(1, 3, "payload")
    assert (payload, extra, dropped) == ("payload", 1, False)
    assert faults.dropped == 2 and faults.duplicated == 1
    # prob 0 removes the entry
    faults.set_fault("drop", 2, None, 0)
    assert faults.filter(2, 5, "payload")[2] is False


def test_plan_replay_is_deterministic():
    plan = random_plan(5, ops=10)
    first_v, first_e = run_plan(plan, settle=1.0)
    second_v, second_e = run_plan(plan, settle=1.0)
    assert first_v == second_v
    assert (first_e.group.network.datagrams_sent
            == second_e.group.network.datagrams_sent)
    assert (first_e.group.sim.events_processed
            == second_e.group.sim.events_processed)


def test_drop_and_duplicate_faults_recovered():
    plan = FaultPlan(seed=6, n=4, ops=[
        ["drop", None, None, 0.2],
        ["duplicate", None, None, 0.2],
        ["cast", 0, 8],
        ["run", 0.5],
    ])
    violations, engine = run_plan(plan)
    assert violations == []
    assert engine.faults.dropped > 0
    assert engine.faults.duplicated > 0


def test_duplicated_datagrams_are_independent_copies():
    """Regression: the sim used to redeliver the *same* Message object
    for a duplicated datagram.  The first delivery pops layer headers in
    place, so the replay arrived header-stripped and every receiver
    scored a benign network duplicate as Byzantine verbosity -- enough
    wildcard duplication dissolved the whole group into singleton views
    (destroying the total-order layer's undelivered buffer with it).
    With per-delivery copies, heavy duplication is absorbed silently."""
    plan = FaultPlan(seed=6, n=5, config={"total_order": True}, ops=[
        ["duplicate", None, None, 0.3],
        ["cast", 0, 8],
        ["run", 0.4],
        ["cast", 3, 6],
        ["cast", 1, 6],
        ["run", 0.6],
    ])
    violations, engine = run_plan(plan)
    assert violations == []
    assert engine.faults.duplicated > 0
    # duplication alone must never trigger a view change
    vids = {p.view.vid for p in engine.group.processes.values()}
    assert len(vids) == 1 and next(iter(vids)).counter == 1
    # and the dedup happened at the reliable layer, silently
    assert any(p.reliable.duplicates > 0
               for p in engine.group.processes.values())


def test_skew_and_nic_faults_run_clean():
    plan = FaultPlan(seed=4, n=4, ops=[
        ["skew", 1, 1.3],
        ["nic", 2, 0.1],
        ["cast", 0, 5],
        ["run", 0.4],
        ["cast", 1, 3],
        ["run", 0.3],
    ])
    violations, engine = run_plan(plan)
    assert violations == []
    # the skewed node got a real NodeClock, restored to neutral at settle
    assert engine.group.clocks[1].drift == 1.0
    nic = engine.group.network.nic_of(2)
    assert nic.bandwidth_bps == engine.group.network.topology.nic_bandwidth_bps


def test_ops_are_tolerant_of_invalid_targets():
    plan = FaultPlan(seed=8, n=4, ops=[
        ["crash", 99],              # nonexistent node
        ["restart", 2],             # never crashed
        ["leave", 99],
        ["cast", 99, 3],
        ["partition", [[0, 99], [1, 2]]],
        ["nic", 99, 0.5],
        ["skew", 99, 1.2],
        ["cast", 0, 2],
        ["run", 0.2],
    ])
    violations, _engine = run_plan(plan)
    assert violations == []


@pytest.mark.parametrize("preset", ["byz-total", "byz-fast"])
def test_restarted_member_casts_under_total_order(preset):
    """A plan the generator almost never draws: 7 of 3000
    ``random_plan(ops=8)`` plans let a restarted node cast, which is how
    the restarted member's id shape stayed broken under total order."""
    from repro.__main__ import CHAOS_PRESETS
    victim = 3
    plan = FaultPlan(seed=9, n=7, config=CHAOS_PRESETS[preset]["config"],
                     ops=[["crash", victim], ["run", 1.5],
                          ["restart", victim], ["run", 3.0],
                          ["cast", victim, 3], ["run", 0.5]])
    violations, engine = run_plan(plan, settle=2.0)
    assert violations == []
    assert engine.group.processes[victim].incarnation == 1
    for endpoint in engine.group.endpoints.values():
        assert cast_payloads(endpoint) == [(victim, "fz", k)
                                           for k in range(3)]


def test_crash_and_restart_through_plan():
    plan = FaultPlan(seed=9, n=4, ops=[
        ["run", 0.2],
        ["crash", 3],
        ["run", 1.5],               # eviction
        ["restart", 3],
        ["run", 3.0],               # rejoin
    ])
    violations, engine = run_plan(plan, settle=2.0)
    assert violations == []
    assert engine.group.processes[3].incarnation == 1
    # run_plan stops the group before returning; the final installed
    # views are still inspectable on the processes
    views = {p.view for p in engine.group.processes.values()}
    assert len(views) == 1
    assert set(engine.group.processes[3].view.mbrs) == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# corruption -> suspicion (bottom-layer hardening)
# ----------------------------------------------------------------------
def test_corruption_faults_drive_suspicion_and_eviction():
    """A node whose outgoing packets rot on the wire is detected by the
    signature-rejection path and evicted through the suspicion layer --
    well before the mute detector (parked at 1s) could have acted."""
    plan = FaultPlan(seed=2, n=4, ops=[
        ["corrupt", 3, None, 1.0],
        ["run", 0.1],
    ], config={"byzantine": True, "crypto": "sym",
               "mute_timeout": 1.0,
               "verbose_suspect_threshold": 100.0})
    engine = ChaosEngine(plan)
    engine.build()
    for op in plan.ops:
        engine.apply(op)
    group = engine.group
    ok = group.run_until(
        lambda: all(3 not in p.view.mbrs
                    for node, p in group.processes.items() if node != 3),
        timeout=5.0)
    assert ok
    # eviction happened long before the mute timeout could fire, so the
    # corruption-triggered strikes are what reported node 3
    assert group.sim.now < 0.9
    assert any(p.bottom.dropped_bad_signature >= CORRUPTION_SUSPECT_THRESHOLD
               for node, p in group.processes.items() if node != 3)
    assert engine.faults.corrupted >= CORRUPTION_SUSPECT_THRESHOLD
    group.stop()


# ----------------------------------------------------------------------
# retransmission backoff hardening (reliable layer)
# ----------------------------------------------------------------------
def test_retrans_backoff_grows_and_caps():
    group = make_group(3, seed=1)
    reliable = group.processes[0].reliable
    config = group.config
    d0 = reliable.streams._retrans_delay(1, "stream", 0)
    d3 = reliable.streams._retrans_delay(1, "stream", 3)
    d20 = reliable.streams._retrans_delay(1, "stream", 20)
    # growth until the cap; at the cap only the per-round jitter varies
    assert config.retrans_timeout <= d0 < d3
    for delay in (d0, d3, d20):
        assert delay <= RETRANS_BACKOFF_MAX * (1.0 + RETRANS_JITTER)
    # jitter is a pure hash: the same (peer, stream, round) always gets
    # the same delay -- no RNG draw, so seeds stay stable
    assert d3 == reliable.streams._retrans_delay(1, "stream", 3)
    # different nodes decorrelate
    other = group.processes[1].reliable
    assert d3 != other.streams._retrans_delay(1, "stream", 3)
    group.stop()


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def _two_faced_plan():
    # the known failure: content agreement is violated by a two-faced
    # caster when only plain reliable delivery runs; everything else in
    # the script is removable padding
    return FaultPlan(seed=11, n=5, ops=[
        ["byzantine", 0, "TwoFacedCaster", {}],
        ["run", 0.1],
        ["cast", 2, 3],
        ["cast", 0, 3],
        ["heal"],
        ["run", 0.5],
        ["cast", 1, 2],
        ["run", 0.2],
    ], check={"content_agreement": True})


def test_shrink_minimizes_known_failure(tmp_path):
    plan = _two_faced_plan()
    violations, _engine = run_plan(plan)
    assert violations, "the seed scenario must fail for shrinking to apply"
    small = shrink_plan(plan)
    assert len(small) < len(plan)
    op_names = [op[0] for op in small.ops]
    assert "byzantine" in op_names and "cast" in op_names
    # the minimized plan still fails, and survives a JSON round trip with
    # identical violations (the replayable artifact contract)
    small_violations, _engine = run_plan(small)
    assert small_violations
    path = str(tmp_path / "minimized.json")
    small.save(path)
    replay_violations, _engine = run_plan(FaultPlan.load(path))
    assert replay_violations == small_violations


def test_shrink_rejects_passing_plan():
    plan = FaultPlan(seed=1, n=4, ops=[["cast", 0, 1], ["run", 0.2]])
    try:
        shrink_plan(plan)
    except ValueError:
        pass
    else:
        raise AssertionError("shrink_plan accepted a passing plan")


def test_shrink_with_synthetic_predicate():
    # pure-logic check of ddmin (no simulation): minimize to the two ops
    # that jointly cause the "failure"
    plan = FaultPlan(seed=0, n=4, ops=[["a"], ["b"], ["c"], ["d"], ["e"],
                                       ["f"], ["g"], ["h"]])

    def fails(candidate):
        names = [op[0] for op in candidate.ops]
        return "b" in names and "g" in names

    small = shrink_plan(plan, fails=fails)
    assert sorted(op[0] for op in small.ops) == ["b", "g"]


# ----------------------------------------------------------------------
# campaign artifacts + CLI
# ----------------------------------------------------------------------
def test_campaign_artifacts_written(tmp_path):
    from repro.chaos.campaign import _write_artifacts
    plan = FaultPlan(seed=1, n=4, ops=[["cast", 0, 1]])
    summary = {"seeds": 1, "passed": 0, "failed": 1,
               "failures": [{"seed": 1, "plan": plan.to_dict(),
                             "violations": ["boom"],
                             "minimized": plan.to_dict(),
                             "minimized_violations": ["boom"]}]}
    _write_artifacts(summary, str(tmp_path), lambda line: None)
    artifact = tmp_path / "counterexample-seed1.json"
    assert artifact.exists()
    assert FaultPlan.load(str(artifact)) == plan
    assert (tmp_path / "summary.json").exists()


def test_cli_chaos_replay_and_campaign(tmp_path, capsys):
    from repro.__main__ import main
    path = str(tmp_path / "plan.json")
    FaultPlan(seed=1, n=4, ops=[["cast", 0, 2], ["run", 0.2]]).save(path)
    assert main(["chaos", "--replay", path]) == 0
    out = str(tmp_path / "artifacts")
    assert main(["chaos", "--seeds", "2", "--ops", "5",
                 "--preset", "benign", "--out", out]) == 0
    assert (tmp_path / "artifacts" / "summary.json").exists()
    capsys.readouterr()


def test_cli_replays_golden_plan(tmp_path, capsys):
    from repro.__main__ import main
    path = str(tmp_path / "scenario-101.json")
    golden_plan("scenario-101").save(path)
    assert main(["chaos", "--replay", path]) == 0
    assert "0 violations" in capsys.readouterr().out


# ----------------------------------------------------------------------
# regressions the chaos campaign itself found (kept as fixed plans)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [304, 312])
def test_classic_order_keeps_own_casts_across_view_change(seed):
    # random_plan(seed, ops=8, allow=ADVERSARY_OPS + ("corrupt",),
    # byzantine_fraction=0.3, config=byz(sym, total_order)), committed.
    # A correct member the others agreed to exclude installed its
    # singleton view while its own casts still sat in the ordering buffer
    # (ROADMAP 1 r3); it now delivers them first
    violations, _engine = run_plan(golden_plan("r3-%d" % seed))
    assert violations == []


def test_fast_order_keeps_own_casts_beside_a_verbose_member():
    # the byz-fast chaos leg's seed 229, ddmin-shrunk to three ops: n=10,
    # f=1.  The verbose member, alone in a singleton view with the larger
    # vid, offered the other nine a merge, and they installed it without
    # flushing their own view: member 2's unordered casts 2 and 3 were
    # dropped everywhere (r3).  A join now flushes the view it leaves
    violations, _engine = run_plan(golden_plan("r3-fast-229"))
    assert violations == []


def test_concurrent_leaves_keep_view_agreement():
    """Campaign-found safety bug: two concurrent leaves made the elected
    coordinator bind vid ``(counter+1, me)`` to the group's proposed view,
    then -- after that attempt was superseded -- reuse the *same* vid for
    its singleton fallback, violating view agreement.  The membership
    layer now keeps a monotone per-node counter floor across attempts."""
    plan = FaultPlan(seed=14, n=6,
                     ops=(("leave", 5), ("leave", 2)))
    violations, _engine = run_plan(plan)
    assert violations == []


def test_leaves_under_traffic_keep_view_agreement():
    """Second minimized counterexample from the same campaign run: the
    vid reuse also surfaced with app traffic interleaved."""
    plan = FaultPlan(seed=4, n=7,
                     ops=(("cast", 3, 9), ("leave", 6),
                          ("cast", 1, 9), ("leave", 1)))
    violations, _engine = run_plan(plan)
    assert violations == []


def test_originate_is_idempotent():
    """Campaign-found liveness bug: the membership coordinator re-ran
    ``originate`` on every ack-matrix update, and each re-broadcast's
    zero-delay self-delivery produced the next update -- the simulator
    span forever at one instant.  ``originate`` must broadcast once."""
    sent = []
    inst = UniformBroadcast(("nv", 0), list(range(7)), 0, 0, 0, sent.append)
    inst.originate("view-a")
    inst.originate("view-a")
    inst.originate("view-b")   # also not an equivocation channel
    assert [p for p in sent if p[0] == "ub-initial"] == [("ub-initial",
                                                           "view-a")]


def test_known_counterexamples_stay_fixed():
    """The two historical minimal plans pass under the shipped defaults."""
    vid_plan = FaultPlan(seed=14, n=6, ops=[["leave", 5], ["leave", 2]])
    violations, _engine = run_plan(vid_plan, settle=2.0)
    assert not violations
    livelock_plan = FaultPlan(seed=9, n=4,
                              ops=[["cast", 0, 8], ["crash", 3],
                                   ["run", 2.0]])
    violations, engine = run_plan(livelock_plan, settle=2.0,
                                  event_budget=300_000)
    assert not violations and not engine.stalled


# rediscovery: with a fixed bug planted back by the test, plain random
# plans must find it within a small budget and ddmin must shrink it to a
# replayable counterexample that the shipped code kills
@contextmanager
def vid_reuse_bug():
    """Plant vid reuse: the vid-counter floor reads 0 and drops writes,
    so an aborted change plus a later singleton fallback can bind two
    memberships to one vid."""
    floorless = property(lambda self: 0, lambda self, value: None)
    with patch.object(ViewChange, "counter_floor", floorless, create=True):
        yield


@contextmanager
def livelock_bug():
    """Plant the self-delivery livelock: the view send re-enters on every
    ack-matrix update, through one standing stability subscription, and
    ``originate`` re-broadcasts, so its zero-delay self-delivery feeds the
    next update forever."""
    try_send_view = ViewChange._try_send_view

    def standing_try_send_view(self):
        if not getattr(self, "standing", False):
            self.standing = True
            self.host.stability.subscribe(self.on_stability)
        try_send_view(self)

    def reentering_on_stability(self):
        if self.state == AWAIT_VIEW:
            self._try_send_view()

    def rebroadcasting_originate(self, value):
        self.broadcast(("ub-initial", value))
        self._on_initial(self.me, value)

    with patch.object(ViewChange, "_try_send_view", standing_try_send_view), \
            patch.object(ViewChange, "on_stability",
                         reentering_on_stability), \
            patch.object(UniformBroadcast, "originate",
                         rebroadcasting_originate):
        yield


#: membership churn only, no link faults: keeps every run cheap
CHURN_OPS = ("cast", "run", "crash", "restart", "leave", "join", "heal")


def _find_and_shrink(plans, run, failed, max_runs):
    """The first of ``plans`` whose ``run`` ``failed``, ddmin-shrunk under
    the same predicate; returns the shrunk plan and its run's outcome.
    Runs are deterministic, so each distinct plan runs once."""
    outcomes = {}

    def fails(plan):
        if plan.digest() not in outcomes:
            outcomes[plan.digest()] = run(plan)
        return failed(*outcomes[plan.digest()])

    found = next((plan for plan in plans if fails(plan)), None)
    assert found is not None, "no plan in the budget found the bug"
    small = shrink_plan(found, fails=fails, max_runs=max_runs)
    assert len(small) <= len(found)
    return small, outcomes[small.digest()]


def test_rediscovers_vid_reuse_bug_and_shrinks():
    def run(plan):
        return run_plan(plan, settle=1.5, event_budget=100_000,
                        measure_recovery=True)

    with vid_reuse_bug():
        small, (violations, _engine) = _find_and_shrink(
            # seeds 19, 53 and 56 of 0-63 find it (11 did too while acks
            # left on their own 12 ms tick)
            (random_plan(seed, n=6, ops=6, allow=CHURN_OPS)
             for seed in range(20)),
            run, lambda violations, _engine: bool(violations), max_runs=64)
        # the counterexample replays from scratch, violation for violation
        assert violations and run(small)[0] == violations
    # ... and the shipped code kills it
    violations, engine = run(small)
    assert not violations and engine.recovery_time is not None


def test_rediscovers_self_delivery_livelock_and_shrinks():
    def run(plan):
        return run_plan(plan, settle=1.0, event_budget=20_000,
                        measure_recovery=True)

    with livelock_bug():
        small, (_violations, engine) = _find_and_shrink(
            (random_plan(seed, n=5, ops=4,
                         allow=("cast", "run", "crash", "leave", "join"))
             for seed in range(4)),
            run, lambda _violations, engine: engine.stalled, max_runs=16)
        # a stalled run burns its whole event budget, seconds of wall
        # time: the replay is shrink_plan's own fresh run of the shrunk
        # plan, not a second one
        assert engine.stalled
    # with the fixes restored the same plan runs to quiescence
    violations, engine = run(small)
    assert not violations and not engine.stalled
    assert engine.recovery_time is not None


class ChurnMisordersCasts(Exception):
    """The one failure the r2 pins below expect."""


def _probe_violations(seed):
    # the episode `python -m benchmarks.ledger run --probe churn_order_n12
    # --seed S` runs; run_probe itself reports only the first three
    # violations, and every one is checked here
    from benchmarks.ledger.runner import run_episode, sub_seed
    from benchmarks.ledger.workloads import PROBES

    return run_episode(PROBES["churn_order_n12"],
                       sub_seed(seed, 0))["violations"]


@pytest.mark.xfail(strict=True, raises=ChurnMisordersCasts,
                   reason="ROADMAP 1 r2: the ledger's churn_order_n12 "
                   "probe delivers casts in opposite orders at two members")
# the lost-cast half of r2 (seeds 7 and 8 while acks had a tick of their
# own, 10 after) was r3's and went with it; 20 and 40 misorder casts
@pytest.mark.parametrize("seed", [20, 40])
def test_churn_order_probe_keeps_total_order(seed):
    violations = _probe_violations(seed)
    # nothing but the r2 signature may hide behind the xfail
    assert all(v.startswith("total-order:") for v in violations)
    if violations:
        raise ChurnMisordersCasts(violations[0])


def test_churn_order_probe_keeps_own_casts():
    # seed 44 lost members' own casts (20 reliable- and 20 self-delivery
    # violations) until an excluded member delivered them before its
    # singleton view and a join flushed the view it leaves
    assert _probe_violations(44) == []
