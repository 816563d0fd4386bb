"""Shared helpers for the test suite."""

from __future__ import annotations

from repro import Group, StackConfig

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


def make_group(n, seed=0, established=True, behaviors=None, **config_kw):
    config = StackConfig.byz(**config_kw)
    return Group.bootstrap(n, config=config, seed=seed,
                           established=established, behaviors=behaviors)
