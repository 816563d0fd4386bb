"""The reliable layer's receive side, :class:`StreamMachine`, driven
through a fake host: no simulator, no stack, no network.  Every output
lands in a list, and a timer fires only when the test fires it."""

import pytest

from repro import StackConfig
from repro.layers.reliable import StreamMachine

#: a record's repair fields and the machine's flush state, as new
REPAIR_DEFAULTS = {"ceiling": 0, "round": 0, "asked_at": float("-inf"),
                   "timer": None}
FLUSH_DEFAULTS = {"cut": None, "scope": None, "wedged": False}


class FakeTimer:
    def __init__(self, delay, callback, args):
        self.delay, self.callback, self.args = delay, callback, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeHost:
    """The machine's host port, recording instead of acting."""

    def __init__(self, members):
        self.view = list(members)
        self.time = 0.0
        self.acked = {}         # (member, origin, stream) -> acked seq
        self.delivered = []
        self.naks = []          # (target, origin, stream, seqs)
        self.timers = []

    def admit(self, origin, stream, seq, msg):
        return True

    def opened(self, origin, stream):
        pass

    def deliver(self, msg):
        self.delivered.append(msg)

    send_up = deliver

    def drained(self, origin, stream, top):
        pass

    def send_nak(self, target, origin, stream, seqs):
        self.naks.append((target, origin, stream, seqs))

    def count(self, name):
        pass

    def schedule(self, delay, callback, *args):
        timer = FakeTimer(delay, callback, args)
        self.timers.append(timer)
        return timer

    def now(self):
        return self.time

    def acked_seq(self, member, origin, stream):
        return self.acked.get((member, origin, stream), 0)

    def members(self):
        return self.view

    def sent(self, stream):
        return 0


def machine_for(members=(0, 1, 2, 3), me=3):
    host = FakeHost(members)
    return StreamMachine(host, StackConfig.byz(), me), host


def expire(host, timer):
    """Advance the fake clock to ``timer`` and fire it."""
    assert not timer.cancelled
    host.time += timer.delay
    timer.callback(*timer.args)


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
    machine, host = machine_for()
    check = watch(machine)
    host.acked[(1, 0, "a")] = 2         # member 1 holds origin 0's 1 and 2
    machine.accept(0, "a", 2, "m2")     # 1 is missing
    check()
    rec = machine.records[(0, "a")]
    assert host.naks == [] and rec.ceiling == 2 and rec.timer is not None
    expire(host, rec.timer)             # round 0: the origin
    check()
    assert host.naks == [(0, 0, "a", (1,))] and rec.round == 1
    expire(host, rec.timer)             # round 1: the origin ignored us
    check()
    assert host.naks[-1] == (1, 0, "a", (1,)) and rec.round == 2
    machine.accept(0, "a", 1, "m1")     # a holder answered
    check()
    assert host.delivered == ["m1", "m2"]
    assert rec.timer is None and rec.round == 0
    assert host.timers[-1].cancelled


def test_a_cut_without_the_crashed_origin_asks_a_holder_at_round_zero():
    machine, host = machine_for()
    check = watch(machine)
    machine.accept(0, "a", 1, "m1")
    host.acked[(2, 0, "a")] = 3
    machine.wedge()
    done = []
    machine.set_cut({0: 3, 1: 0, 2: 0, 3: 0}, [1, 2, 3],
                    on_complete=lambda: done.append(True))
    check()
    rec = machine.records[(0, "a")]
    assert machine.scope == [1, 2, 3] and rec.round == 0
    assert host.naks == [(2, 0, "a", (2, 3))]
    machine.accept(0, "a", 3, "m3")
    check()
    assert host.delivered == ["m1"] and rec.timer is not None and not done
    machine.accept(0, "a", 2, "m2")     # the holes are filled
    check()
    assert host.delivered == ["m1", "m2", "m3"] and done == [True]
    assert rec.timer is None and host.timers[-1].cancelled
    machine.accept(0, "a", 4, "m4")     # past the cut: held
    assert host.delivered[-1] == "m3"


def test_ack_evidence_asks_once_per_timeout_and_clear_cancels_it_all():
    machine, host = machine_for()
    check = watch(machine)
    machine.ask(0, "a", 2)
    machine.ask(1, "c", 1)
    machine.ask(0, "a", 3)              # within retrans_timeout: no ask
    check()
    assert host.naks == [(0, 0, "a", (1, 2)), (1, 1, "c", (1,))]
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
    machine, host = machine_for()
    check = watch(machine)
    for seq in (1, 2, 3):
        machine.accept(0, "c", seq, seq)
    machine.ask(0, "c", 2)
    check()
    rec = machine.records[(0, "c")]
    assert rec.ceiling == 0 and rec.top == 3 and rec.timer is None
    assert host.naks == [] and host.timers == []


@pytest.mark.parametrize("seq", [1, 3], ids=["delivered", "buffered"])
def test_a_duplicate_is_refused(seq):
    machine, host = machine_for()
    assert machine.accept(0, "a", 1, "m1") and machine.accept(0, "a", 3, "m3")
    assert machine.accept(0, "a", seq, "again") is False
    assert host.delivered == ["m1"]
    assert machine.records[(0, "a")].buffer == {3: "m3"}
