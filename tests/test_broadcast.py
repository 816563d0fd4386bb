"""Unit tests for the 2-step Byzantine uniform broadcast."""

import pytest

from repro.broadcast.uniform import UniformBroadcast
from repro.consensus.interface import max_f_uniform
from repro.sim.scheduler import Simulator


class Bus:
    """Direct bus with per-destination alteration (for two-faced tests)."""

    def __init__(self, n, seed=0):
        self.sim = Simulator(seed=seed)
        self.members = list(range(n))
        self.instances = {}
        self.delivered = {}
        self.crashed = set()
        self.twist = {}  # sender -> callable(dst, payload) -> payload

    def broadcast_from(self, sender):
        def bcast(payload):
            if sender in self.crashed:
                return
            for receiver in self.members:
                if receiver == sender or receiver in self.crashed:
                    continue
                out = payload
                twist = self.twist.get(sender)
                if twist is not None:
                    out = twist(receiver, payload)
                self.sim.schedule(0.001 + self.sim.rng.random() * 0.001,
                                  self._deliver, receiver, sender, out)
        return bcast

    def _deliver(self, receiver, sender, payload):
        if receiver not in self.crashed:
            self.instances[receiver].on_message(sender, payload)

    def build(self, protocol, f, origin):
        for i in self.members:
            self.instances[i] = protocol(
                ("t", 0), self.members, i, f, origin,
                self.broadcast_from(i),
                on_deliver=lambda v, i=i: self.delivered.__setitem__(i, v))
        return self

    def run(self):
        self.sim.run(max_events=500_000)


# ----------------------------------------------------------------------
# the paper's 2-step protocol
# ----------------------------------------------------------------------
def test_uniform_broadcast_delivers_everywhere():
    bus = Bus(12).build(UniformBroadcast, 1, origin=3)
    bus.instances[3].originate("value")
    bus.run()
    assert len(bus.delivered) == 12
    assert set(bus.delivered.values()) == {"value"}


def test_uniform_two_faced_origin_never_splits_delivery():
    # the origin equivocates: half the group sees "A", half sees "B"
    n, f = 12, 1
    bus = Bus(n)
    bus.twist[3] = (lambda dst, payload:
                    ("ub-initial", "A" if dst % 2 == 0 else "B")
                    if payload[0] == "ub-initial" else payload)
    bus.build(UniformBroadcast, f, origin=3)
    bus.instances[3].originate("A")
    bus.run()
    values = set(bus.delivered.values())
    assert len(values) <= 1   # uniformity: never two different deliveries


def test_uniform_broadcast_with_crashed_members():
    n, f = 14, 2
    bus = Bus(n)
    bus.crashed = {12, 13}
    bus.build(UniformBroadcast, f, origin=0)
    bus.instances[0].originate("v")
    bus.run()
    live = set(range(12))
    assert live.issubset(bus.delivered.keys())
    assert set(bus.delivered.values()) == {"v"}


def test_uniform_echo_equivocation_third_value_reported():
    # a correct member echoes at most two values (its initial's and the
    # one that can be amplified): a second counts, a third is reported
    bus = Bus(12).build(UniformBroadcast, 1, origin=0)
    reports = []
    inst = bus.instances[5]
    inst.on_misbehavior = lambda m, r: reports.append((m, r))
    inst.on_message(7, ("ub-echo", "x"))
    inst.on_message(7, ("ub-echo", "y"))
    assert inst._echoes[7] == ["x", "y"]
    assert reports == []
    inst.on_message(7, ("ub-echo", "z"))
    inst.on_message(7, ("ub-echo", "x"))   # a repeat is not a new value
    assert inst._echoes[7] == ["x", "y"]
    assert inst._tally == {"x": 1, "y": 1}
    assert reports == [(7, "ub:echo-equivocated")]


def test_uniform_two_faced_origin_cannot_split_totality():
    # n=8, f=1, no loss: the origin shows "A" to members 1-6 and "B" to
    # member 7, and sends its own echo of "A" to member 1 only.  Member 1
    # reaches the deliver threshold (7) with the origin's echo; members
    # 2-7 hold 6 echoes of "A".  Echoing once ever, member 7 (which
    # echoed "B") never echoes "A" and 2-7 never deliver; echoing once
    # per value, member 7 crosses the echo threshold (6) and echoes "A",
    # and every correct member delivers it.
    bus = Bus(8)
    bus.build(UniformBroadcast, 1, origin=0)
    bus.crashed = {0}  # the Byzantine origin runs no correct instance
    for receiver in range(1, 8):
        bus.sim.schedule(0.001, bus._deliver, receiver, 0,
                         ("ub-initial", "A" if receiver <= 6 else "B"))
    bus.sim.schedule(0.001, bus._deliver, 1, 0, ("ub-echo", "A"))
    bus.run()
    assert bus.delivered == {i: "A" for i in range(1, 8)}


def test_uniform_initial_forgery_detected():
    bus = Bus(12).build(UniformBroadcast, 1, origin=0)
    reports = []
    inst = bus.instances[5]
    inst.on_misbehavior = lambda m, r: reports.append(r)
    inst.on_message(4, ("ub-initial", "fake"))  # 4 is not the origin
    assert "ub:initial-forged" in reports
    assert inst._initial_value is None


@pytest.mark.parametrize("payload", [
    5, (), ("ub-initial",), ("ub-echo",), ("ub-echo", "v", "extra"),
    ["ub-echo", "v"], ("ub-echo", ["unhashable"]),
])
def test_uniform_malformed_body_refused_not_raised(payload):
    # a Byzantine member's body arrives as any wire value: the instance
    # reports it and stays live (the interface's "it never raises")
    bus = Bus(8).build(UniformBroadcast, 1, origin=3)
    reports = []
    for instance in bus.instances.values():
        instance.on_misbehavior = lambda member, reason: reports.append(
            (member, reason))
    bus.instances[0].on_message(5, payload)
    assert reports == [(5, "ub:malformed")]
    bus.instances[3].originate("value")
    bus.run()
    assert set(bus.delivered.values()) == {"value"}
    assert len(bus.delivered) == 8


def test_uniform_only_origin_can_originate():
    bus = Bus(12).build(UniformBroadcast, 1, origin=0)
    with pytest.raises(RuntimeError):
        bus.instances[5].originate("v")


def test_uniform_liveness_bound_rejects_too_small_views():
    with pytest.raises(ValueError):
        UniformBroadcast(("t", 0), list(range(6)), 0, 1, 0, lambda p: None)


def test_max_f_uniform_is_the_safe_liveness_bound():
    # the paper says f < n/5, but its own Lemma 3.9 needs n >= 6f + 2
    # (DESIGN.md deviation 1); the helper returns the safe bound
    for n in range(2, 60):
        f = max_f_uniform(n)
        assert n - f >= n / 2.0 + 2 * f + 1
        assert n - (f + 1) < n / 2.0 + 2 * (f + 1) + 1
    assert max_f_uniform(8) == 1
    assert max_f_uniform(14) == 2
    assert max_f_uniform(50) == 8


def test_uniform_f0_still_agrees():
    bus = Bus(4).build(UniformBroadcast, 0, origin=1)
    bus.instances[1].originate("v")
    bus.run()
    assert set(bus.delivered.values()) == {"v"}
    assert len(bus.delivered) == 4
