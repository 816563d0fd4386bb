"""Crash-recovery tests: restart with rejoin, stale-incarnation filtering,
and crash semantics of the timer plane (chaos-plane tentpole)."""

import pytest

from tests.helpers import make_group

from repro.core import message as mk
from repro.core.message import Message
from repro.core.properties import check_virtual_synchrony


def _others_evicted(group, victim):
    return all(victim not in p.view.mbrs
               for node, p in group.processes.items()
               if node != victim and not p.stopped)


def _all_rejoined(group, n):
    return all(len(p.view.mbrs) == n for p in group.processes.values()
               if not p.stopped)


def test_crash_restart_rejoin_and_state_transfer():
    group = make_group(4, seed=7)
    snapshot = ("kv", (("balance", 111),), 1)
    for endpoint in group.endpoints.values():
        endpoint.state_provider = lambda: snapshot
    group.run(0.3)
    group.crash(3)
    assert group.run_until(lambda: _others_evicted(group, 3), timeout=5.0)

    endpoint = group.restart(3)
    installed = []
    endpoint.state_provider = lambda: ("empty",)
    endpoint.state_installer = installed.append
    assert group.run_until(lambda: _all_rejoined(group, 4), timeout=8.0)
    group.run(0.3)

    assert group.processes[3].incarnation == 1
    view = group.common_view()
    assert view is not None and set(view.mbrs) == {0, 1, 2, 3}
    # the snapshot reached the reincarnation through state transfer
    assert installed == [snapshot]
    assert group.processes[3].stack.layer("state_transfer").installed == 1
    # peers recorded the new incarnation once its first messages arrived
    assert any(p.bottom._peer_inc.get(3) == 1
               for node, p in group.processes.items() if node != 3)
    # the reincarnated member is held to the full Definition 2.1/2.2
    # contract -- no discard of node 3: its fresh history checks clean
    # (the retired incarnation's history sits in group.retired, outside
    # the execution)
    assert check_virtual_synchrony(group.execution()) == []
    assert group.retired and group.retired[0][:2] == (3, 0)


@pytest.mark.parametrize("config_kw", [
    {},
    {"total_order": True},
    {"total_order": True, "ordering_fast_path": True, "crypto": "sym"},
    {"uniform_delivery": True},
], ids=["fifo", "classic", "fast", "uniform"])
def test_restarted_node_reaches_steady_traffic(config_kw):
    group = make_group(4, seed=11, **config_kw)
    for endpoint in group.endpoints.values():
        endpoint.state_provider = lambda: ("s",)
    group.run(0.2)
    group.crash(1)
    assert group.run_until(lambda: _others_evicted(group, 1), timeout=5.0)
    endpoint = group.restart(1)
    endpoint.state_provider = lambda: ("s",)
    assert group.run_until(lambda: _all_rejoined(group, 4), timeout=8.0)
    group.run(0.2)
    # the fresh incarnation can broadcast and everyone delivers
    endpoint.cast(("back", 1))
    assert group.run_until(
        lambda: all(any(e.payload == ("back", 1) for e in ep.events
                        if type(e).__name__ == "CastDeliver")
                    for ep in group.endpoints.values()), timeout=5.0)
    assert check_virtual_synchrony(group.execution()) == []


def test_stale_incarnation_messages_filtered():
    """Bottom-layer unit test: a dead incarnation's stragglers are dropped."""
    group = make_group(4, seed=3)
    group.run(0.05)
    process = group.processes[0]
    bottom = process.bottom
    vid = process.view.vid

    fresh = Message(mk.KIND_CAST, 1, vid, ("new", 1), 16, msg_id=(1, 1))
    fresh.push_header("rel", ("a", 1))
    fresh.push_header("inc", 2)     # incarnation 2 of node 1 speaks first
    fresh.sender = 1
    bottom._process_in(1, fresh)
    assert bottom._peer_inc.get(1) == 2

    stale = Message(mk.KIND_CAST, 1, vid, ("old", 1), 16, msg_id=(1, 99))
    stale.push_header("rel", ("a", 99))
    stale.sender = 1                # no "inc" header => incarnation 0
    before_up = bottom.dropped_stale_incarnation
    bottom._process_in(1, stale)
    assert bottom.dropped_stale_incarnation == before_up + 1
    # the table survives view changes (a membership change must not
    # re-admit the dead incarnation)
    bottom.on_view(process.view)
    assert bottom._peer_inc.get(1) == 2


def test_first_boot_pushes_no_incarnation_header():
    """Wire compatibility: incarnation 0 adds no header, so seed-pinned
    runs without restarts are byte-identical to pre-chaos builds."""
    group = make_group(3, seed=5)
    group.endpoints[0].cast(("x",))
    group.run(0.2)
    delivered = [e for e in group.endpoints[1].events
                 if type(e).__name__ == "CastDeliver"]
    assert delivered
    assert all(p.incarnation == 0 for p in group.processes.values())
    assert all(p.bottom._peer_inc == {} for p in group.processes.values())


#: transient callbacks that may legitimately still sit in the heap at the
#: crash instant: in-flight datagram/CPU completions, all guarded by
#: ``process.stopped`` (or dropped by the crashed network port)
_TRANSIENT_OK = {"_process_in", "_process_pack_in", "_transmit",
                 "_accept_stream", "send"}


def _armed_victim_timers(group, victim, allow=()):
    process = group.processes[victim]
    owned = [process, process.stack, process.stability,
             process.mute_levels, process.verbose_levels,
             process.mute_detector, process.verbose_detector]
    owned.extend(process.stack.layers)
    # the machines without I/O arm their own timers
    owned += [process.reliable.streams, process.membership.machine]
    if process.endpoint is not None:
        owned.append(process.endpoint)
    owned_ids = {id(component) for component in owned}
    hits = []
    for _deadline, _seq, timer in group.sim.timers():
        if timer.cancelled:
            continue
        callback = timer.callback
        owner = getattr(callback, "__self__", None)
        if owner is None or id(owner) not in owned_ids:
            continue
        if callback.__name__ in allow:
            continue
        hits.append(callback)
    return hits


def test_stop_cancels_an_armed_repair_timer():
    """A stream with holes keeps its repair timer armed; stop() cancels
    it, or the dead member would go on asking for them."""
    group = make_group(4, seed=9)
    group.run(0.05)
    victim = 2
    streams = group.processes[victim].reliable.streams
    streams.ask(0, "a", 3)      # evidence of three casts it never got
    assert streams.records[(0, "a")].timer is not None
    group.crash(victim)
    assert _armed_victim_timers(group, victim, allow=_TRANSIENT_OK) == []
    group.stop()


def test_stop_cancels_all_pending_timers():
    """A crashed node's stack must not fire callbacks afterwards: every
    periodic/armed timer is cancelled at stop(), and whatever transient
    completions remain are guarded no-ops that never re-arm."""
    group = make_group(4, seed=9, total_order=True)
    for endpoint in group.endpoints.values():
        endpoint.cast(("warm", endpoint.node_id))
    group.run(0.3)
    victim = 2
    group.crash(victim)
    # immediately after the crash: nothing armed beyond guarded transients
    leftovers = _armed_victim_timers(group, victim, allow=_TRANSIENT_OK)
    assert leftovers == [], [cb.__qualname__ for cb in leftovers]
    # after the dust settles: nothing at all -- a transient that re-armed
    # a periodic timer into the dead stack would show up here
    group.run(0.5)
    leftovers = _armed_victim_timers(group, victim)
    assert leftovers == [], [cb.__qualname__ for cb in leftovers]
    # and the rest of the group reconfigured without the victim
    assert group.run_until(lambda: _others_evicted(group, victim),
                           timeout=5.0)
