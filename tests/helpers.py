"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import os

from repro import Group, StackConfig
from repro.chaos import FaultPlan
from repro.core.message import KIND_HEARTBEAT

#: the committed fault plans: the golden scenarios and pinned reproducers
GOLDEN_PLANS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "golden_plans.json")

#: consensus protocol payloads no correct member sends and that an
#: unchecked ``payload[0..2]`` would raise on: not a tuple, empty, and two
#: known kinds with too few fields
MALFORMED_CONSENSUS_PAYLOADS = (7, (), ("val",), ("coord", 1))


def cast_payloads(endpoint):
    """Payloads of all CastDeliver events at an endpoint, in order."""
    return [e.payload for e in endpoint.events
            if type(e).__name__ == "CastDeliver"]


def cast_ids(endpoint):
    return [e.msg_id for e in endpoint.events
            if type(e).__name__ == "CastDeliver"]


def view_events(endpoint):
    return [e for e in endpoint.events if type(e).__name__ == "ViewEvent"]


class TickCounter:
    """A clock observer (``Simulator.observer`` / ``AsyncioClock.observer``)
    recording when each member's ``OrderingLayer._tick`` fired."""

    def __init__(self):
        self.fired = {}     # node id -> [time]

    def on_timer(self, now, timer):
        callback = timer.callback
        owner = getattr(callback, "__self__", None)
        if (type(owner).__name__ == "OrderingLayer"
                and callback.__name__ == "_tick"):
            self.fired.setdefault(owner.me, []).append(now)

    def counts(self):
        return {node: len(times) for node, times in self.fired.items()}


class DatagramLog:
    """A ``Network.observer`` recording every protocol message handed to
    the simulated network as ``(time, src, dst, message)``, and every
    arrival time per (src, dst) link -- how the control-plane tests count
    acks, heartbeats and probes without reading layer counters."""

    def __init__(self, group):
        self.sim = group.sim
        self.sent = []
        self.arrivals = {}      # (src, dst) -> [time]
        group.network.observer = self

    def on_datagram_sent(self, src, dst, size, payload):
        self.sent.append((self.sim.now, src, dst, payload))

    def on_datagram_delivered(self, dst, src, payload):
        self.arrivals.setdefault((src, dst), []).append(self.sim.now)

    def on_datagram_dropped(self, src, dst):
        pass

    def on_gossip_sent(self, src, size):
        pass

    def on_gossip_delivered(self, dst, src):
        pass

    def select(self, kind=None, since=0.0, until=float("inf"), src=None,
               dst=None):
        """The logged ``(time, src, dst, message)`` rows matching."""
        return [row for row in self.sent
                if since <= row[0] < until
                and (kind is None or row[3].kind == kind)
                and (src is None or row[1] == src)
                and (dst is None or row[2] == dst)]

    def count(self, kind=None, **where):
        return len(self.select(kind, **where))

    def probes(self, **where):
        return [row for row in self.select(KIND_HEARTBEAT, **where)
                if is_probe(row[3])]


def is_probe(msg):
    """A probe is a heartbeat carrying the reliable layer's header."""
    return msg.kind == KIND_HEARTBEAT and msg.header("rel") is not None


def tagged_detector(process):
    """Record the tags the verbose detector is fed, still feeding it."""
    tags = []
    detector = process.verbose_detector
    illegal = detector.illegal

    def recording(member, tag, weight=None):
        tags.append(tag)
        illegal(member, tag, weight)
    detector.illegal = recording
    return tags


def count_calls(obj, name):
    """Record the positional arguments of every ``obj.name(...)`` call."""
    calls = []
    method = getattr(obj, name)

    def counted(*args, **kw):
        calls.append(args)
        return method(*args, **kw)
    setattr(obj, name, counted)
    return calls


def make_group(n, seed=0, established=True, behaviors=None, **config_kw):
    config = StackConfig.byz(**config_kw)
    return Group.bootstrap(n, config=config, seed=seed,
                           established=established, behaviors=behaviors)


def golden_plan(name, **overrides):
    """The committed plan ``name`` from ``GOLDEN_PLANS``, with
    ``overrides`` merged into its StackConfig keywords."""
    with open(GOLDEN_PLANS) as fh:
        plan = FaultPlan.from_dict(json.load(fh)[name])
    plan.config.update(overrides)
    return plan
