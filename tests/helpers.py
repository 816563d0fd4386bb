"""Shared helpers for the test suite."""

from __future__ import annotations

import json
import os

from repro import Group, NetworkConfig, StackConfig
from repro.chaos import FaultPlan
from repro.core import history, message
from repro.core.message import KIND_HEARTBEAT
from repro.core.properties import check_virtual_synchrony
from repro.layers import uniform_delivery
from repro.layers.reliable import STREAM_P2P, ack_layout
from repro.runtime import wire

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


def ack_row(mbrs, counts=()):
    """The ack row a member of a view of ``mbrs`` sends: ``counts`` maps
    ``(origin, stream)`` columns to counts, every other column is 0."""
    counts = dict(counts)
    columns, codec = ack_layout(mbrs)
    return codec.pack(*(counts.get(column, 0) for column in columns))


def row_entries(mbrs, row):
    """``row`` decoded to ``(origin, stream, count)`` triples, in column
    order."""
    columns, codec = ack_layout(mbrs)
    return tuple(column + (cum,) for column, cum
                 in zip(columns, codec.unpack(row)))


def acknowledged(reliable):
    """The (origin, stream) pairs a member's ack row acknowledges, which its
    modelled size counts: its own two streams and every peer in-stream
    opened, at 0 or more."""
    return 2 + sum(1 for origin, stream in reliable.streams.records
                   if stream != STREAM_P2P and origin != reliable.me)


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


def count_digests(monkeypatch):
    """Record every message whose signed block is encoded (the one
    encoding its auth digest covers: ``wire.encode_signed``)."""
    calls = []
    encode = wire.encode_signed

    def counted(msg):
        calls.append(msg)
        return encode(msg)
    monkeypatch.setattr(wire, "encode_signed", counted)
    return calls


def count_hashes(monkeypatch):
    """Record every signed block a message hashes into its auth digest."""
    calls = []
    sha256 = message._sha256

    def counted(block):
        calls.append(block)
        return sha256(block)
    monkeypatch.setattr(message, "_sha256", counted)
    return calls


def count_content_digests(monkeypatch):
    """Record every payload whose checker content digest is computed
    (``history.content_digest``, in each module that calls it)."""
    calls = []
    digest = history.content_digest

    def counted(payload):
        calls.append(payload)
        return digest(payload)
    for module in (history, uniform_delivery):
        monkeypatch.setattr(module, "content_digest", counted)
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


def two_crashes_under_loss(seed, fast=False):
    """ROADMAP 1's r5 scenario: eight members under 5 % loss, total order
    (classic, or the fast path with ``fast``), 200 casts 0.4 ms apart
    round robin, and members 6 and 7 crashed at 20 ms + 0.7 ms x seed.

    Returns ``(stuck, violations)``: ``stuck`` maps each survivor to its
    membership state if the six survivors are not all in the view of
    exactly themselves within 5 simulated seconds, else None;
    ``violations`` is the Definition 2.2 checker's list."""
    config = StackConfig.byz(crypto="sym", total_order=True,
                             ordering_fast_path=fast)
    group = Group.bootstrap(8, config, seed=seed,
                            net_config=NetworkConfig(drop_prob=0.05))

    def cast(i):
        node = i % 8
        if not group.processes[node].stopped:
            group.endpoints[node].cast(("r5", i), size=16)

    def crash_two():
        group.crash(6)
        group.crash(7)

    for i in range(200):
        group.sim.schedule(0.0004 * i, cast, i)
    group.sim.schedule(0.020 + 0.0007 * seed, crash_two)
    survivors = set(range(6))
    ok = group.run_until(
        lambda: all(set(group.processes[n].view.mbrs) == survivors
                    for n in survivors), timeout=5.0)
    stuck = None if ok else {
        n: group.processes[n].membership.snapshot()["state"]
        for n in sorted(survivors)}
    return stuck, check_virtual_synchrony(group.execution())
