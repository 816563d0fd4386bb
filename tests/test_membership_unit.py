"""Unit tests driving the membership layer's FSM through the stub harness."""

from tests.helpers import MALFORMED_CONSENSUS_PAYLOADS
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

    def suspect_locally(self, member, reason="x"):
        self._suspected.add(member)

    def adopt(self, member, reason="x"):
        self._suspected.add(member)


_ORIGINAL_SUSPICION = StubProcess.suspicion


def membership_stub(members=(0, 1, 2, 3, 4, 5, 6, 7), me=0):
    layer = MembershipLayer()
    process = StubProcess(layer, node_id=me, members=members)
    process.fake_reliable = StubProcess.FakeReliable()
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


def test_begin_runs_consensus_then_sync():
    process = membership_stub()
    layer = process.layer
    process._fake_suspicion.suspect_locally(7)
    layer.on_control("start-view-change", {"suspected": {7}})
    assert layer._state == "consensus"
    assert process.stack.blocked
    # feed the other members' identical proposals: 1-round decision
    proposal = tuple(1 if m == 7 else 0 for m in process.view.mbrs)
    iid = layer._consensus.instance_id
    for sender in (1, 2, 3, 4, 5, 6, 7):
        msg = Message(mk.KIND_CONSENSUS, sender, process.view.vid,
                      (iid, ("val", 1, proposal)))
        msg.sender = sender
        layer.handle_up(msg)
    assert layer._state == "sync"
    assert process.fake_reliable.wedged
    assert layer._survivors == [0, 1, 2, 3, 4, 5, 6]
    # our own SYNC went out
    sync_out = [m for m in process.below.received_down
                if m.kind == mk.KIND_SYNC]
    assert len(sync_out) == 1


def drive_to_sync(process, failed=7):
    layer = process.layer
    process._fake_suspicion.suspect_locally(failed)
    layer.on_control("start-view-change", {"suspected": {failed}})
    proposal = tuple(1 if m == failed else 0 for m in process.view.mbrs)
    iid = layer._consensus.instance_id
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
    epoch = layer._epoch
    for origin in (1, 2, 3, 4, 5, 6):
        layer.handle_up(sync_msg(process, origin, epoch, {0: 3, 1: 5}))
    # all survivors reported: the agreed cut is the entry-wise max
    assert process.fake_reliable.cut is not None
    assert process.fake_reliable.cut[1] == 5
    assert layer._state == "await-view"  # FakeReliable completes instantly


def test_sync_from_failed_member_does_not_count():
    process = membership_stub()
    layer = drive_to_sync(process, failed=7)
    epoch = layer._epoch
    layer.handle_up(sync_msg(process, 7, epoch, {0: 99}))  # the evictee
    assert 7 not in layer._sync_reports or layer._state == "sync"
    # still waiting: survivors 1..6 have not reported
    assert process.fake_reliable.cut is None


def test_malformed_sync_flagged():
    process = membership_stub()
    layer = drive_to_sync(process)
    bad = Message(mk.KIND_SYNC, 1, process.view.vid, ("report", "x"))
    bad.sender = 1
    layer.handle_up(bad)
    assert process.verbose_detector.violations >= 1


def test_malformed_consensus_payload_flagged_not_raised():
    # the failed-set agreement gets the wire value as it came: a Byzantine
    # member's shapeless protocol payload must not raise inside this node
    process = membership_stub()
    layer = process.layer
    process._fake_suspicion.suspect_locally(7)
    layer.on_control("start-view-change", {"suspected": {7}})
    iid = layer._consensus.instance_id
    for proto in MALFORMED_CONSENSUS_PAYLOADS:
        bad = Message(mk.KIND_CONSENSUS, 3, process.view.vid, (iid, proto))
        bad.sender = 3
        layer.handle_up(bad)
    assert process.verbose_detector.violations == len(
        MALFORMED_CONSENSUS_PAYLOADS)
    assert layer._state == "consensus"


def test_stale_epoch_sync_ignored():
    process = membership_stub()
    layer = drive_to_sync(process)
    layer.handle_up(sync_msg(process, 1, 999, {0: 1}))
    assert 1 not in layer._sync_reports


def test_merge_request_to_non_coordinator_ignored():
    process = membership_stub(me=0)  # coordinator of vid(1;...) is member 1
    layer = process.layer
    foreign = View(ViewId(0, "z"), ("z",), coordinator="z")
    req = Message(mk.KIND_MERGE, "z", process.view.vid,
                  ("request", foreign.to_wire()), dest=0)
    req.sender = "z"
    layer.handle_up(req)
    assert layer._pending_joiners is None
    assert layer._state == "idle"


def test_merge_request_overlapping_membership_rejected():
    process = membership_stub(me=1)  # 1 IS the coordinator
    layer = process.layer
    foreign = View(ViewId(0, 3), (3,), coordinator=3)  # 3 already a member
    req = Message(mk.KIND_MERGE, 3, process.view.vid,
                  ("request", foreign.to_wire()), dest=1)
    req.sender = 3
    layer.handle_up(req)
    assert layer._pending_joiners is None


def test_vacuous_view_change_aborts():
    process = membership_stub()
    layer = process.layer
    layer.on_control("start-view-change", {"suspected": set()})
    proposal = tuple(0 for _ in process.view.mbrs)
    iid = layer._consensus.instance_id
    for sender in process.view.mbrs:
        if sender == process.node_id:
            continue
        msg = Message(mk.KIND_CONSENSUS, sender, process.view.vid,
                      (iid, ("val", 1, proposal)))
        msg.sender = sender
        layer.handle_up(msg)
    assert layer._state == "idle"
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
    assert layer._state == "consensus"
    early = sync_msg(process, 1, layer._epoch, {0: 3, 1: 5})
    layer.handle_up(early)
    assert 1 not in layer._sync_reports
    assert any(origin == 1 for origin, _e, _r, _k in layer._sync_pending)
    # now the consensus decides; the stashed report counts immediately
    proposal = tuple(1 if m == 7 else 0 for m in process.view.mbrs)
    iid = layer._consensus.instance_id
    for sender in process.view.mbrs:
        if sender == process.node_id:
            continue
        msg = Message(mk.KIND_CONSENSUS, sender, process.view.vid,
                      (iid, ("val", 1, proposal)))
        msg.sender = sender
        layer.handle_up(msg)
    assert layer._state in ("sync", "await-view")
    assert layer._sync_reports.get(1) == {0: 3, 1: 5}


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
    assert layer._state == "idle"
    assert layer._pending_joiners is None


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
