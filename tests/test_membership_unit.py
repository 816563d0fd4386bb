"""Unit tests driving the membership layer's FSM through the stub harness,
whose view change flushes a real stream machine (``process.reliable``)."""

import pytest

from tests.helpers import MALFORMED_CONSENSUS_PAYLOADS, tagged_detector
from tests.stubs import StubProcess

from repro.core import message as mk
from repro.core.message import Message
from repro.core.view import View, ViewId
from repro.layers.membership import MembershipLayer


class FakeSuspicion:
    def __init__(self):
        self._suspected = set()

    def suspected_set(self):
        return set(self._suspected)

    def is_suspected(self, member):
        return member in self._suspected

    suspects = is_suspected

    def suspect_locally(self, member, reason="x"):
        self._suspected.add(member)

    def adopt(self, member, reason="x"):
        self._suspected.add(member)


_ORIGINAL_SUSPICION = StubProcess.suspicion


def membership_stub(members=(0, 1, 2, 3, 4, 5, 6, 7), me=0):
    layer = MembershipLayer()
    process = StubProcess(layer, node_id=me, members=members)
    process._fake_suspicion = FakeSuspicion()
    StubProcess.suspicion = property(
        lambda self: getattr(self, "_fake_suspicion", None)
        or _ORIGINAL_SUSPICION.fget(self))
    layer.start()
    return process


def teardown_module(module):
    # restore the stub's original suspicion property
    StubProcess.suspicion = _ORIGINAL_SUSPICION


def sync_msg(process, origin, epoch, report, ord_k=(0, 0)):
    wire_report = tuple(sorted(report.items(), key=repr))
    msg = Message(mk.KIND_SYNC, origin, process.view.vid,
                  ("report", epoch, wire_report, ord_k))
    msg.sender = origin
    return msg


def deliver_cut(process, cut):
    """Deliver every app message up to ``cut`` from origins other than
    us, as the stream machine's repair would."""
    for origin, last in cut.items():
        if origin != process.node_id:
            for seq in range(1, last + 1):
                process.reliable.streams.accept(origin, "a", seq,
                                                ("cast", origin, seq))


def test_begin_runs_consensus_then_sync():
    process = membership_stub()
    layer = process.layer
    process._fake_suspicion.suspect_locally(7)
    layer.on_control("start-view-change", {"suspected": {7}})
    assert layer.machine.state == "consensus"
    assert process.stack.blocked
    # feed the other members' identical proposals: 1-round decision
    proposal = tuple(1 if m == 7 else 0 for m in process.view.mbrs)
    iid = layer.machine.attempt.consensus.instance_id
    for sender in (1, 2, 3, 4, 5, 6, 7):
        msg = Message(mk.KIND_CONSENSUS, sender, process.view.vid,
                      (iid, ("val", 1, proposal)))
        msg.sender = sender
        layer.handle_up(msg)
    assert layer.machine.state == "sync"
    assert process.reliable.streams.wedged
    assert layer.machine.attempt.survivors == [0, 1, 2, 3, 4, 5, 6]
    # our own SYNC went out
    sync_out = [m for m in process.below.received_down
                if m.kind == mk.KIND_SYNC]
    assert len(sync_out) == 1


def drive_to_sync(process, failed=7):
    layer = process.layer
    process._fake_suspicion.suspect_locally(failed)
    layer.on_control("start-view-change", {"suspected": {failed}})
    proposal = tuple(1 if m == failed else 0 for m in process.view.mbrs)
    iid = layer.machine.attempt.consensus.instance_id
    for sender in process.view.mbrs:
        if sender == process.node_id:
            continue
        msg = Message(mk.KIND_CONSENSUS, sender, process.view.vid,
                      (iid, ("val", 1, proposal)))
        msg.sender = sender
        layer.handle_up(msg)
    return layer


def test_sync_reports_from_all_survivors_produce_cut():
    process = membership_stub()
    layer = drive_to_sync(process)
    epoch = layer.machine.epoch
    for origin in (1, 2, 3, 4, 5, 6):
        layer.handle_up(sync_msg(process, origin, epoch, {0: 3, 1: 5}))
    # all survivors reported: the agreed cut is the entry-wise max, and
    # its missing part is asked from its origin at once
    streams = process.reliable.streams
    assert streams.cut[1] == 5 and layer.machine.state == "cut"
    assert process.reliable.naks() == [(1, 1, "a", (1, 2, 3, 4, 5))]
    deliver_cut(process, {1: 4})
    assert layer.machine.state == "cut"
    deliver_cut(process, {1: 5})
    assert layer.machine.state == "await-view"


def test_sync_from_failed_member_does_not_count():
    process = membership_stub()
    layer = drive_to_sync(process, failed=7)
    epoch = layer.machine.epoch
    layer.handle_up(sync_msg(process, 7, epoch, {0: 99}))  # the evictee
    assert 7 not in layer.machine.attempt.sync_reports or layer.machine.state == "sync"
    # still waiting: survivors 1..6 have not reported
    assert process.reliable.streams.cut is None


#: SYNC bodies a correct member never sends: a watermark pair that is not
#: a 2-tuple of non-negative ints, or a report top that is not an int
MALFORMED_SYNC_BODIES = {
    "short": ("report", "x"),
    "dict-empty": ("report", 1, ((1, 2),), {}),
    "dict-one": ("report", 1, ((1, 2),), {0: 1}),
    "dict-two": ("report", 1, ((1, 2),), {0: 1, 1: 2}),
    "list": ("report", 1, ((1, 2),), [1, 2]),
    "triple": ("report", 1, ((1, 2),), (1, 2, 3)),
    "bool": ("report", 1, ((1, 2),), (1, True)),
    "negative": ("report", 1, ((1, 2),), (-1, 0)),
    "str-top": ("report", 1, ((1, "2"),), (1, 2)),
    "float-top": ("report", 1, ((1, 2.0),), (1, 2)),
}


@pytest.mark.parametrize("body", MALFORMED_SYNC_BODIES.values(),
                         ids=MALFORMED_SYNC_BODIES.keys())
@pytest.mark.parametrize("driven", [False, True], ids=["idle", "sync"])
def test_malformed_sync_flagged(driven, body):
    process = membership_stub()
    layer = drive_to_sync(process) if driven else process.layer
    bad = Message(mk.KIND_SYNC, 1, process.view.vid, body)
    bad.sender = 1
    layer.handle_up(bad)
    assert process.verbose_detector.violations >= 1
    assert 1 not in layer.machine.attempt.sync_reports


def test_malformed_consensus_payload_flagged_not_raised():
    # the failed-set agreement gets the wire value as it came: a Byzantine
    # member's shapeless protocol payload must not raise inside this node
    process = membership_stub()
    layer = process.layer
    process._fake_suspicion.suspect_locally(7)
    layer.on_control("start-view-change", {"suspected": {7}})
    iid = layer.machine.attempt.consensus.instance_id
    for proto in MALFORMED_CONSENSUS_PAYLOADS:
        bad = Message(mk.KIND_CONSENSUS, 3, process.view.vid, (iid, proto))
        bad.sender = 3
        layer.handle_up(bad)
    assert process.verbose_detector.violations == len(
        MALFORMED_CONSENSUS_PAYLOADS)
    assert layer.machine.state == "consensus"


def test_stale_epoch_sync_ignored():
    process = membership_stub()
    layer = drive_to_sync(process)
    layer.handle_up(sync_msg(process, 1, 999, {0: 1}))
    assert 1 not in layer.machine.attempt.sync_reports


def test_merge_request_to_non_coordinator_ignored():
    process = membership_stub(me=0)  # coordinator of vid(1;...) is member 1
    layer = process.layer
    foreign = View(ViewId(0, "z"), ("z",), coordinator="z")
    req = Message(mk.KIND_MERGE, "z", process.view.vid,
                  ("request", foreign.to_wire()), dest=0)
    req.sender = "z"
    layer.handle_up(req)
    assert layer.joiners is None
    assert layer.machine.state == "idle"


def test_merge_request_overlapping_membership_rejected():
    process = membership_stub(me=1)  # 1 IS the coordinator
    layer = process.layer
    foreign = View(ViewId(0, 3), (3,), coordinator=3)  # 3 already a member
    req = Message(mk.KIND_MERGE, 3, process.view.vid,
                  ("request", foreign.to_wire()), dest=1)
    req.sender = 3
    layer.handle_up(req)
    assert layer.joiners is None


def test_vacuous_view_change_aborts():
    process = membership_stub()
    layer = process.layer
    layer.on_control("start-view-change", {"suspected": set()})
    proposal = tuple(0 for _ in process.view.mbrs)
    iid = layer.machine.attempt.consensus.instance_id
    for sender in process.view.mbrs:
        if sender == process.node_id:
            continue
        msg = Message(mk.KIND_CONSENSUS, sender, process.view.vid,
                      (iid, ("val", 1, proposal)))
        msg.sender = sender
        layer.handle_up(msg)
    assert layer.machine.state == "idle"
    assert not process.stack.blocked
    assert layer.view_changes == 0


# ----------------------------------------------------------------------
# lossy-transport liveness: the two recovery paths the UDP conformance
# workload exposed (see docs/RUNTIME.md, "Lossy-transport hardening")
# ----------------------------------------------------------------------
def test_sync_report_racing_the_decision_is_stashed_then_folded():
    """A flush report that arrives while we are still deciding must not
    be dropped: the ctl stream delivers it exactly once, and the sender
    never repeats it at our epoch -- dropping wedged the flush forever."""
    process = membership_stub()
    layer = process.layer
    process._fake_suspicion.suspect_locally(7)
    layer.on_control("start-view-change", {"suspected": {7}})
    assert layer.machine.state == "consensus"
    early = sync_msg(process, 1, layer.machine.epoch, {0: 3, 1: 5})
    layer.handle_up(early)
    assert 1 not in layer.machine.attempt.sync_reports
    assert any(origin == 1 for origin, _e, _r, _k in layer.machine.attempt.sync_stash)
    # now the consensus decides; the stashed report counts immediately
    proposal = tuple(1 if m == 7 else 0 for m in process.view.mbrs)
    iid = layer.machine.attempt.consensus.instance_id
    for sender in process.view.mbrs:
        if sender == process.node_id:
            continue
        msg = Message(mk.KIND_CONSENSUS, sender, process.view.vid,
                      (iid, ("val", 1, proposal)))
        msg.sender = sender
        layer.handle_up(msg)
    assert layer.machine.state in ("sync", "await-view")
    assert layer.machine.attempt.sync_reports.get(1) == {0: 3, 1: 5}


def test_foreign_gossip_naming_me_triggers_rejoin_request():
    """A newer view that still lists us means we missed its install (a
    lost NEWVIEW): ask that coordinator for a resend.  The merge path
    cannot recover this case -- the views are not disjoint."""
    from repro.layers.heartbeat import stack_fingerprint
    process = membership_stub(members=(0,), me=0)
    layer = process.layer
    foreign = View(ViewId(5, 3), (0, 1, 2, 3), coordinator=3,
                   f=process.config.resilience(4))
    data = {"src": 3, "view": foreign,
            "fingerprint": stack_fingerprint(process.config)}
    layer.on_control("foreign-gossip", data)
    requests = [m for m in process.below.received_down
                if m.kind == mk.KIND_MERGE]
    assert len(requests) == 1
    assert requests[0].payload == ("rejoin",)
    assert requests[0].dest == 3
    # throttled: a second gossip inside the gossip interval is ignored
    layer.on_control("foreign-gossip", data)
    assert len([m for m in process.below.received_down
                if m.kind == mk.KIND_MERGE]) == 1
    process.run(2 * process.config.gossip_interval)
    layer.on_control("foreign-gossip", data)
    assert len([m for m in process.below.received_down
                if m.kind == mk.KIND_MERGE]) == 2


def test_rejoin_request_from_member_gets_view_resend():
    process = membership_stub(me=1)  # 1 IS the coordinator
    layer = process.layer
    req = Message(mk.KIND_MERGE, 3, process.view.vid, ("rejoin",), dest=1)
    req.sender = 3
    layer.handle_up(req)
    offers = [m for m in process.below.received_down
              if m.kind == mk.KIND_NEWVIEW]
    assert len(offers) == 1
    assert offers[0].dest == 3
    assert offers[0].payload[0] == "joined"
    assert offers[0].payload[1] == process.view.to_wire()
    # no change state was touched: the resend is pure
    assert layer.machine.state == "idle"
    assert layer.joiners is None


def test_rejoin_request_from_stranger_ignored():
    process = membership_stub(me=1)
    layer = process.layer
    req = Message(mk.KIND_MERGE, "z", process.view.vid, ("rejoin",), dest=1)
    req.sender = "z"
    layer.handle_up(req)
    assert not [m for m in process.below.received_down
                if m.kind == mk.KIND_NEWVIEW]


def test_rejoin_offer_installs_directly_from_singleton():
    process = membership_stub(members=(0,), me=0)
    layer = process.layer
    installed = []
    process.install_view = installed.append
    offered = View(ViewId(5, 3), (0, 1, 2, 3), coordinator=3,
                   f=process.config.resilience(4))
    offer = Message(mk.KIND_NEWVIEW, 3, process.view.vid,
                    ("joined", offered.to_wire()), dest=0)
    offer.sender = 3
    layer.handle_up(offer)
    assert len(installed) == 1
    assert installed[0].vid == offered.vid
    assert tuple(installed[0].mbrs) == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# one view-change attempt owns everything it created: what an abandoned
# attempt left behind, and stashes a flooding member cannot grow
# ----------------------------------------------------------------------
def consensus_msg(process, sender, epoch, proto):
    iid = ("vc", process.view.vid.key(), epoch)
    msg = Message(mk.KIND_CONSENSUS, sender, process.view.vid, (iid, proto))
    msg.sender = sender
    return msg


def ub_msg(process, sender, epoch, proto):
    iid = ("nv", process.view.vid.key(), epoch)
    msg = Message(mk.KIND_UB, sender, process.view.vid, (iid, proto))
    msg.sender = sender
    return msg


def new_view_value(process, survivors, cut):
    """The (view, cut) value survivors' coordinator must broadcast."""
    config = process.config
    coord = survivors[process.view.vid.counter % len(survivors)]
    f = config.resilience(len(survivors))
    view = View(ViewId(process.view.vid.counter + 1, coord), tuple(survivors),
                coordinator=coord, f=f,
                underprovisioned=(f == 0 and config.byzantine))
    return coord, (view.to_wire(), tuple(sorted(cut.items(), key=repr)))


def flush_at(process, epoch, report):
    for origin in (0, 1, 2, 3, 4, 5, 6):
        if origin != process.node_id:
            process.layer.handle_up(sync_msg(process, origin, epoch, report))


def test_epoch_join_echoes_the_new_epochs_view():
    process = membership_stub()
    layer = drive_to_sync(process)
    flush_at(process, 1, {0: 3, 1: 5})
    deliver_cut(process, {0: 3, 1: 5})
    assert layer.machine.state == "await-view"
    cut = {m: 0 for m in process.view.mbrs}
    cut.update({0: 3, 1: 5})
    coord, value = new_view_value(process, [0, 1, 2, 3, 4, 5, 6], cut)
    layer.handle_up(ub_msg(process, coord, 1, ("ub-initial", value)))
    # another member's attempt 2 for the same failed set pulls us in
    proposal = tuple(1 if m == 7 else 0 for m in process.view.mbrs)
    for sender in (1, 2, 3, 4, 5, 6, 7):
        layer.handle_up(consensus_msg(process, sender, 2, ("val", 1, proposal)))
    flush_at(process, 2, {0: 3, 1: 5})
    assert layer.machine.state == "await-view" and layer.machine.epoch == 2
    sent = len(process.below.received_down)
    layer.handle_up(ub_msg(process, coord, 2, ("ub-initial", value)))
    echoes = [m for m in process.below.received_down[sent:]
              if m.kind == mk.KIND_UB and m.payload[0][2] == 2]
    assert echoes, "a correct survivor stayed silent in the epoch-2 broadcast"


def test_retired_bracha_initial_fulfils_nothing():
    # only a real ub-initial answers the coordinator's newview debt; the
    # tag of the retired Bracha broadcast is an unknown kind
    process = membership_stub()
    tags = tagged_detector(process)
    layer = drive_to_sync(process)
    flush_at(process, 1, {0: 3, 1: 5})
    deliver_cut(process, {0: 3, 1: 5})
    assert layer.machine.state == "await-view"
    cut = {m: 0 for m in process.view.mbrs}
    cut.update({0: 3, 1: 5})
    coord, value = new_view_value(process, [0, 1, 2, 3, 4, 5, 6], cut)
    mute = process.mute_detector
    assert mute.pending_count(coord) == 1
    layer.handle_up(ub_msg(process, coord, 1, ("br-initial", value)))
    assert mute.pending_count(coord) == 1
    assert tags == ["ub:unknown-kind"]
    layer.handle_up(ub_msg(process, coord, 1, ("ub-initial", value)))
    assert mute.pending_count(coord) == 0


def test_restart_drops_the_stability_listener():
    process = membership_stub(me=1)  # survivor 1 coordinates the next view
    layer = drive_to_sync(process)
    listeners = process.stability.state_sizes()["listeners"]
    flush_at(process, 1, {0: 3})     # seq 3 of origin 0 is not stable yet
    deliver_cut(process, {0: 3})
    assert layer.machine.state == "await-view"
    assert process.stability.state_sizes()["listeners"] == listeners + 1
    process._fake_suspicion.suspect_locally(2)
    layer.on_control("suspicions-updated", {"suspected": {2, 7}})
    assert layer.machine.state == "consensus"
    next_view = View(ViewId(2, 1), (0, 1, 3, 4, 5, 6), coordinator=1,
                     f=process.config.resilience(6))
    process.view = next_view
    layer.on_view(next_view)
    assert process.stability.state_sizes()["listeners"] == listeners


def test_ub_stash_is_bounded_per_sender():
    process = membership_stub()
    layer = process.layer
    for k in range(5000):
        layer.handle_up(ub_msg(process, 3, 1, ("ub-echo", k)))
    assert layer.state_sizes()["ub_pending"] <= 8


def test_sync_stash_keeps_a_correct_report_under_a_flood():
    process = membership_stub()
    layer = process.layer
    process._fake_suspicion.suspect_locally(7)
    layer.on_control("start-view-change", {"suspected": {7}})
    for epoch in range(1, 41):
        layer.handle_up(sync_msg(process, 3, epoch, {0: 1}))
    layer.handle_up(sync_msg(process, 1, 1, {0: 1}))
    proposal = tuple(1 if m == 7 else 0 for m in process.view.mbrs)
    for sender in (1, 2, 3, 4, 5, 6, 7):
        layer.handle_up(consensus_msg(process, sender, 1, ("val", 1, proposal)))
    assert layer.machine.state == "sync"
    for origin in (2, 4, 5, 6):
        layer.handle_up(sync_msg(process, origin, 1, {0: 1}))
    # member 1 reported once, before the decide: the flush must not wait
    assert process.reliable.streams.cut is not None


def test_regroup_consensus_flood_arms_one_timer():
    process = membership_stub()
    layer = process.layer
    suspected = {5, 6, 7}           # more than f = 1: regroup mode
    for member in suspected:
        process._fake_suspicion.suspect_locally(member)
    layer.on_control("start-view-change", {"suspected": suspected})
    pending = process.sim.pending
    proposal = tuple(1 if m in suspected else 0 for m in process.view.mbrs)
    for _ in range(2000):
        layer.handle_up(consensus_msg(process, 3, layer.machine.epoch,
                                      ("val", 1, proposal)))
    assert process.sim.pending <= pending + 1
    assert layer.machine.epoch <= 2   # at most one re-entry


@pytest.mark.xfail(strict=True, reason="ROADMAP 6: a regroup timer armed in "
                   "one view fires in a later view whose epoch matches, "
                   "before that view's heartbeat of grace")
def test_regroup_timer_does_not_cross_views():
    process = membership_stub()
    layer = process.layer
    grace = process.config.heartbeat_interval
    suspected = {5, 6, 7}
    for member in suspected:
        process._fake_suspicion.suspect_locally(member)
    layer.on_control("start-view-change", {"suspected": suspected})
    process.run(grace / 2)
    next_view = View(ViewId(2, 1), (0, 1, 2, 3, 4, 5, 6, 7), coordinator=1,
                     f=process.config.resilience(8))
    process.view = next_view
    layer.on_view(next_view)
    layer.on_control("start-view-change", {"suspected": suspected})
    process.run(grace * 0.9)        # past the old view's timer only
    assert not [m for m in process.below.received_down
                if m.kind == mk.KIND_SYNC]
