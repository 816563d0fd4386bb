"""The reliable layer's receive side, :class:`StreamMachine`, driven
through the test port (``tests/machines.py``): no simulator, no stack, no
network.  Every output lands in a list, and a timer fires only when the
test fires it."""

import pytest
from tests.machines import Node, Port

from repro import StackConfig
from repro.core.message import KIND_RETRANS, KIND_SYNC
from repro.core.view import View, ViewId

#: a record's repair fields and the machine's flush state, as new
REPAIR_DEFAULTS = {"ceiling": 0, "round": 0, "asked_at": float("-inf"),
                   "timer": None}
FLUSH_DEFAULTS = {"cut": None, "scope": None, "wedged": False}


def machine_for(members=(0, 1, 2, 3), me=3):
    port = Port(me, View(ViewId(1, members[0]), members), StackConfig.byz())
    return port.streams, port


def watch(machine):
    """Wrap ``_to``; the returned check asserts that the machine's repair
    and flush state is exactly what the writes through ``_to`` made it."""
    written, alive = {}, []
    to = machine._to

    def recording(target, **fields):
        alive.append(target)    # keeps id(target) from being reused
        for name, value in fields.items():
            written[id(target), name] = value
        to(target, **fields)

    machine._to = recording

    def check():
        for rec in machine.records.values():
            for name, default in REPAIR_DEFAULTS.items():
                assert getattr(rec, name) == written.get((id(rec), name),
                                                         default), name
        for name, default in FLUSH_DEFAULTS.items():
            assert getattr(machine, name) == written.get((id(machine), name),
                                                         default), name
    return check


def test_a_withholding_origin_is_passed_over_for_a_holder():
    machine, port = machine_for()
    check = watch(machine)
    port.acks[(1, 0, "a")] = 2         # member 1 holds origin 0's 1 and 2
    machine.accept(0, "a", 2, "m2")     # 1 is missing
    check()
    rec = machine.records[(0, "a")]
    assert port.naks() == [] and rec.ceiling == 2 and rec.timer is not None
    port.expire(rec.timer)             # round 0: the origin
    check()
    assert port.naks() == [(0, 0, "a", (1,))] and rec.round == 1
    port.expire(rec.timer)             # round 1: the origin ignored us
    check()
    assert port.naks()[-1] == (1, 0, "a", (1,)) and rec.round == 2
    machine.accept(0, "a", 1, "m1")     # a holder answered
    check()
    assert port.delivered == ["m1", "m2"]
    assert rec.timer is None and rec.round == 0
    assert port.timers[-1].cancelled


def test_a_cut_without_the_crashed_origin_asks_a_holder_at_round_zero():
    machine, port = machine_for()
    check = watch(machine)
    machine.accept(0, "a", 1, "m1")
    port.acks[(2, 0, "a")] = 3
    machine.wedge()
    done = []
    machine.set_cut({0: 3, 1: 0, 2: 0, 3: 0}, [1, 2, 3],
                    on_complete=lambda: done.append(True))
    check()
    rec = machine.records[(0, "a")]
    assert machine.scope == [1, 2, 3] and rec.round == 0
    assert port.naks() == [(2, 0, "a", (2, 3))]
    machine.accept(0, "a", 3, "m3")
    check()
    assert port.delivered == ["m1"] and rec.timer is not None and not done
    machine.accept(0, "a", 2, "m2")     # the holes are filled
    check()
    assert port.delivered == ["m1", "m2", "m3"] and done == [True]
    assert rec.timer is None and port.timers[-1].cancelled
    machine.accept(0, "a", 4, "m4")     # past the cut: held
    assert port.delivered[-1] == "m3"


def test_ack_evidence_asks_once_per_timeout_and_clear_cancels_it_all():
    machine, port = machine_for()
    check = watch(machine)
    machine.ask(0, "a", 2)
    machine.ask(1, "c", 1)
    machine.ask(0, "a", 3)              # within retrans_timeout: no ask
    check()
    assert port.naks() == [(0, 0, "a", (1, 2)), (1, 1, "c", (1,))]
    assert machine.records[(0, "a")].ceiling == 3
    timers = [rec.timer for rec in machine.records.values()]
    assert len(timers) == 2 and None not in timers
    machine.set_cut({0: 1}, [0, 1, 3])
    check()
    machine.clear()
    check()
    assert all(timer.cancelled for timer in timers)
    assert machine.records == {} and machine.cut is None
    assert machine.scope is None and not machine.wedged


def test_a_ceiling_inside_the_delivered_prefix_is_not_recorded():
    machine, port = machine_for()
    check = watch(machine)
    for seq in (1, 2, 3):
        machine.accept(0, "c", seq, seq)
    machine.ask(0, "c", 2)
    check()
    rec = machine.records[(0, "c")]
    assert rec.ceiling == 0 and rec.top == 3 and rec.timer is None
    assert port.naks() == [] and port.timers == []


@pytest.mark.parametrize("seq", [1, 3], ids=["delivered", "buffered"])
def test_a_duplicate_is_refused(seq):
    machine, port = machine_for()
    assert machine.accept(0, "a", 1, "m1") and machine.accept(0, "a", 3, "m3")
    assert machine.accept(0, "a", seq, "again") is False
    assert port.delivered == ["m1"]
    assert machine.records[(0, "a")].buffer == {3: "m3"}


def test_the_view_change_completes_its_cut_through_a_holders_retransmission():
    """The composed pair, as in a stack: member 3 crashed after only
    survivor 0 took its cast 1.  Survivor 1's view change sets the agreed
    cut on its real stream machine, whose first NAK goes to survivor 0,
    never to the crashed origin; the change waits in ``cut`` until the
    retransmission is accepted."""
    config = StackConfig.byz()
    node = Node(1, View(ViewId(1, 0), (0, 1, 2, 3), f=0), config,
                crashed={3})
    node.machine.start({3})                   # regroup mode: more than f
    node.expire(node.machine.regroup_timer)
    assert node.machine.state == "sync" and node.streams.wedged
    for sender, report in ((0, ((0, 0), (3, 1))), (2, ((2, 0),))):
        node.take(sender, (KIND_SYNC, ("report", 1, report, (0, 0)),
                           node.view.vid))
    assert node.streams.cut[3] == 1 and node.machine.state == "cut"
    assert node.naks() == [(0, 3, "a", (1,))]
    node.take(0, (KIND_RETRANS, (3, "a", 1, "m3"), node.view.vid))
    assert node.delivered == ["m3"] and node.machine.state == "await-view"


class Installing(Port):
    """A port whose delivery of ``"ub"`` installs a view, as the uniform
    broadcast carrying a new view does in a stack: every record is
    cleared mid-drain.  ``drains`` records each ``drained`` call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.drains = []

    def deliver(self, msg):
        super().deliver(msg)
        if msg == "ub":
            self.streams.clear()

    def drained(self, origin, stream, top):
        self.drains.append((origin, stream, top))


def test_a_drain_stops_at_the_delivery_that_installs_a_view():
    port = Installing(3, View(ViewId(1, 0), (0, 1, 2, 3)), StackConfig.byz())
    machine = port.streams
    machine.accept(0, "c", 2, "m2")     # buffered behind the UB, seq 1
    machine.accept(0, "c", 4, "m4")     # and a hole at 3: a ceiling of 4
    rec = machine.records[(0, "c")]
    assert rec.timer is not None and port.drains == [(0, "c", 0)] * 2
    machine.accept(0, "c", 1, "ub")
    # the old view's successor is not delivered into the new one, no
    # repair timer is left on the detached record, and nothing is
    # reported drained with the old view's top
    assert port.delivered == ["ub"]
    assert all(timer.cancelled for timer in port.timers)
    assert port.drains == [(0, "c", 0)] * 2
    assert machine.records == {}
