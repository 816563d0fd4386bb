"""Idle members cost nothing: the demand-armed ordering tick and the
signalled op completion of the shard clients.

Two polls were replaced by signals; these tests pin the contracts that
replaced them.  The ordering tick sleeps when *nothing is buffered,
stashed or in flight* -- at a grid instant, or at the decide of a member
that is not busy (its last cast came a tick or more after the one before)
-- and is *grid-preserving*: re-armed, it fires at the float instant the
always-armed chain would have fired at (``==``, checked against a real
always-armed reference chain on the same simulator).  A cast that finds
the tick dormant opens its instance at arrival; one that finds it armed
waits for the grid, which is all the batching an open-loop load gets.  A
shard client re-reads replica state only after a replica of
the target shard applied something, and still wakes on fences and timeouts.
"""

import random

import pytest

from tests.helpers import TickCounter, cast_ids, count_calls, make_group
from tests.test_reshard import make_plane

from repro import Group, StackConfig
from repro.core import message as mk
from repro.core.message import Message
from repro.layers.ordering import ORDER_TICK
from repro.shard.rsm import Applied
from repro.sim.clock import GridTimer, NodeClock
from repro.sim.scheduler import Simulator


def reference_chain(sim, period):
    """The always-armed chain the tick used to be, from ``sim.now``."""
    instants = []

    def tick():
        instants.append(sim.now)
        sim.schedule(period, tick)
    sim.schedule(period, tick)
    return instants


def first_after(instants, t):
    return next(x for x in instants if x > t)


def grid_instant_after(origin, period, t):
    """The chain's first instant past ``t``, before the run reaches it."""
    while origin <= t:
        origin += period
    return origin


# ----------------------------------------------------------------------
# GridTimer
# ----------------------------------------------------------------------
def test_grid_timer_sleeps_and_wakes_on_the_always_armed_grid():
    sim = Simulator(seed=0)
    sim.run(until=0.0137)                   # an origin that is no multiple
    reference = reference_chain(sim, 0.002)
    fired = []
    timer = GridTimer(sim, 0.002, lambda: (fired.append(sim.now),
                                           timer.fired(False)))
    timer.arm()                             # not started: stays unarmed
    assert timer.timer is None and not timer.dormant
    timer.start()
    for wake_at in (0.0141, 0.0203, 0.0550001, 0.3):
        sim.run(until=wake_at)
        assert timer.dormant                # started, asleep
        timer.arm()
        timer.arm()                         # idempotent while armed
        assert not timer.dormant
    sim.run(until=0.4)
    assert fired == [first_after(reference, t)
                     for t in (0.0141, 0.0203, 0.0550001, 0.3)]
    timer.stop()
    timer.arm()                             # a dead node's timer stays dead
    assert timer.timer is None and not timer.dormant    # dead, not asleep


def test_grid_timer_sleep_cancels_the_wake_up_and_keeps_the_grid():
    sim = Simulator(seed=0)
    sim.run(until=0.0137)
    reference = reference_chain(sim, 0.002)
    fired = []
    timer = GridTimer(sim, 0.002, lambda: (fired.append(sim.now),
                                           timer.fired(False)))
    timer.sleep()                           # never started: nothing to do
    assert timer.timer is None and not timer.dormant
    timer.start()
    for sleep_at, wake_at in ((0.0139, 0.0140), (0.0203, 0.0291)):
        sim.run(until=sleep_at - 0.0001)
        timer.arm()
        sim.run(until=sleep_at)
        timer.sleep()
        assert timer.dormant
        sim.run(until=wake_at)
        timer.arm()
    sim.run(until=0.05)
    assert fired == [first_after(reference, 0.0140),
                     first_after(reference, 0.0291)]
    timer.stop()
    timer.sleep()                           # stopped: still dead
    assert timer.timer is None and not timer.dormant
    timer.arm()
    assert timer.timer is None and not timer.dormant


def test_grid_timer_arming_on_a_grid_instant_takes_the_next_one():
    sim = Simulator(seed=0)
    reference = reference_chain(sim, 0.002)
    fired = []
    timer = GridTimer(sim, 0.002, lambda: (fired.append(sim.now),
                                           timer.fired(False)))
    timer.start()
    sim.run(until=0.0071)
    # an event that reaches instant reference[3] after the chain's own
    # timer for it (set a period earlier) has missed that instant
    sim.schedule_at(reference[2] + 0.002, timer.arm)
    sim.run(until=0.02)
    assert fired == [reference[4]]


def test_grid_timer_scales_its_step_with_clock_drift():
    sim = Simulator(seed=0)
    clock = NodeClock(sim, drift=1.5)
    chain = []

    def tick():
        chain.append(sim.now)
        clock.schedule(0.002, tick)
    clock.schedule(0.002, tick)
    fired = []
    timer = GridTimer(clock, 0.002, lambda: (fired.append(sim.now),
                                             timer.fired(True)))
    timer.start()
    timer.arm()
    sim.run(until=0.05)
    assert fired == chain and len(fired) > 10


# ----------------------------------------------------------------------
# the ordering tick
# ----------------------------------------------------------------------
def test_quiescent_members_fire_at_most_one_tick():
    group = Group.bootstrap(
        8, config=StackConfig.byz(crypto="sym", total_order=True), seed=5)
    counter = group.sim.observer = TickCounter()
    group.run(1.0)
    assert all(len(times) <= 1 for times in counter.fired.values()), \
        counter.fired
    # and the members are not deaf: a cast still gets ordered, then the
    # ticks stop again
    group.endpoints[3].cast("wake")
    group.run(0.1)
    assert all(len(cast_ids(group.endpoints[n])) == 1 for n in range(8))
    after_cast = counter.counts()
    group.run(1.0)
    assert counter.counts() == after_cast


def inject_cast(group, node, at, counter):
    """Hand ``node``'s ordering layer a cast at exactly ``at``."""
    layer = group.processes[node].ordering
    msg = Message(mk.KIND_CAST, 0, group.processes[node].view.vid,
                  ("injected", counter), 16, msg_id=(0, 1000 + counter))
    group.sim.schedule_at(at, layer.handle_up, msg)


def long_dormant_group(fast, member=2):
    """n=4 beside a reference chain with the ticks' origin, idle for 50 ms.
    Returns the group, the chain's instants, the tick counter and the
    times at which ``member`` opened an ordering instance."""
    group = Group.bootstrap(
        4, config=StackConfig.byz(total_order=True, ordering_fast_path=fast),
        seed=9, start=False)
    sim = group.sim
    tick = ORDER_TICK
    reference = reference_chain(sim, tick)      # same origin as start()
    for process in group.processes.values():
        process.start()
    counter = sim.observer = TickCounter()
    opened = []
    layer = group.processes[member].ordering
    open_instance = layer._open_instance
    layer._open_instance = lambda: (opened.append(sim.now), open_instance())
    group.run(0.0501)                           # long dormant
    assert len(counter.fired.get(member, [])) <= 1
    return group, reference, counter, opened


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("offset", [-0.0007, 0.0, 0.0004])
def test_mid_period_cast_is_served_on_the_always_armed_grid(fast, offset):
    group, reference, counter, opened = long_dormant_group(fast)
    sim = group.sim
    tick = ORDER_TICK
    arrival = grid_instant_after(0.0, tick, 0.061) + offset
    if offset == 0.0:
        # scheduled from inside the period, so the chain's own timer for
        # this instant precedes it -- as any real arrival would be
        sim.schedule_at(arrival - tick / 2,
                        lambda: inject_cast(group, 2, arrival, 1))
    else:
        inject_cast(group, 2, arrival, 1)
    group.run(0.05)
    expected = first_after(reference, arrival)
    ticks = [t for t in counter.fired[2] if t > 0.0501]
    assert ticks[0] == expected                 # == on floats, no tolerance
    # after a long dormancy the arrival itself opens the instance, in both
    # modes; the tick it armed only mops up
    assert opened[0] == arrival


def test_cast_behind_an_armed_tick_waits_for_the_grid():
    """Batching kept: casts buffered in a period a *busy* member's cast
    armed open nothing of their own -- the grid instant opens one instance
    for all of them.  (Two casts 1.1 ms apart make the member busy; a
    light member's tick would be asleep by then.)"""
    group, reference, _counter, opened = long_dormant_group(fast=False)
    tick = ORDER_TICK
    grid = grid_instant_after(0.0, tick, 0.061)
    arrivals = [grid - 0.0009, grid + 0.0002, grid + 0.0013, grid + 0.0016]
    for node in group.processes:
        for i, at in enumerate(arrivals):
            inject_cast(group, node, at, i + 1)
    group.run(0.05)
    expected = first_after(reference, arrivals[2])
    assert first_after(reference, arrivals[3]) == expected  # one period
    assert [t for t in opened if t >= arrivals[2]] == [expected]
    assert all(cast_ids(group.endpoints[n]) == [(0, 1001 + i)
                                                for i in range(4)]
               for n in group.processes)


def test_light_member_opens_its_next_cast_at_arrival():
    """A member whose casts come more than a tick apart is light: the
    decide that empties it puts the tick to sleep, so its next cast -- 1.1
    ms after the first, long after the first was delivered -- finds the
    tick dormant and opens its instance at arrival."""
    group, _reference, _counter, opened = long_dormant_group(fast=False)
    tick = ORDER_TICK
    first = grid_instant_after(0.0, tick, 0.061) + 0.0002
    second = first + 0.0011
    for node in group.processes:
        inject_cast(group, node, first, 1)
        inject_cast(group, node, second, 2)
    group.run(0.05)
    assert opened == [first, second]
    assert all(cast_ids(group.endpoints[n]) == [(0, 1001), (0, 1002)]
               for n in group.processes)


def test_busy_member_still_waits_for_the_grid():
    """Three casts 1.1 ms apart: the second came less than a tick after the
    first, so the member is busy and its decide keeps the tick armed --
    the third cast, behind that tick, waits for the grid instant."""
    group, reference, _counter, opened = long_dormant_group(fast=False)
    tick = ORDER_TICK
    arrivals = [grid_instant_after(0.0, tick, 0.061) - 0.0009 + 0.0011 * i
                for i in range(3)]
    for node in group.processes:
        for i, at in enumerate(arrivals):
            inject_cast(group, node, at, i + 1)
    group.run(0.05)
    assert opened == arrivals[:2] + [first_after(reference, arrivals[2])]
    assert all(cast_ids(group.endpoints[n]) == [(0, 1001), (0, 1002),
                                                 (0, 1003)]
               for n in group.processes)


def instance_rounds(group):
    """``{node: [rounds the instance ran, ...]}``, filled as the members'
    ordering instances decide."""
    rounds = {}
    for node, process in group.processes.items():
        layer = process.ordering

        def on_decided(k, vector, node=node, layer=layer,
                       decided=layer._on_decided):
            rounds.setdefault(node, []).append(
                layer._instances[k].rounds_executed)
            decided(k, vector)
        layer._on_decided = on_decided
    return rounds


#: (n, config, cast -> last delivery in ms when only the tick opened
#: instances: the tick wait plus one consensus round)
IDLE_CAST_TICK_PACED_MS = [(5, {}, 2.08), (8, {"crypto": "sym"}, 2.33),
                           (16, {"crypto": "sym"}, 2.76)]


@pytest.mark.parametrize("n,config_kw,tick_paced_ms", IDLE_CAST_TICK_PACED_MS)
def test_idle_group_orders_a_cast_at_arrival(n, config_kw, tick_paced_ms):
    """One cast on a group idle for 50 ms, issued 0.1 ms after a grid
    instant (so nearly a whole period from the next): every member opens
    the instance when the cast reaches it, and the staggered opens still
    propose the same batch -- one round everywhere."""
    group = Group.bootstrap(
        n, config=StackConfig.byz(total_order=True, **config_kw), seed=3)
    sim = group.sim
    rounds = instance_rounds(group)
    group.run(0.05)
    issued = grid_instant_after(
        0.0, ORDER_TICK, sim.now) + 0.0001
    delivered = {}
    for node, endpoint in group.endpoints.items():
        endpoint.on_cast = (
            lambda event, node=node: delivered.setdefault(node, sim.now))
    sim.schedule_at(issued, group.endpoints[0].cast, "solo")
    group.run(0.03)
    assert sorted(delivered) == sorted(group.processes)
    assert (max(delivered.values()) - issued) * 1e3 < tick_paced_ms / 2
    assert rounds == {node: [1] for node in group.processes}


def test_open_loop_load_still_batches_on_the_tick():
    """The ``order_classic_n8`` load shape: four of eight members cast
    every 3.3 ms, off the 2 ms tick, for 0.8 s.  An instance finishes
    before the next cast arrives, so the only batching there is the wait
    for the tick -- 639 instances for the 969 casts when nothing but the
    tick opens one, 969 if every cast that finds the engine idle did."""
    seed = 7000
    rng = random.Random(seed)
    group = Group.bootstrap(
        8, config=StackConfig.byz(crypto="sym", total_order=True), seed=seed)
    sim = group.sim
    for endpoint in group.endpoints.values():
        endpoint.record_events = False
    issued = []

    def cast(node, due, k):
        if due < 0.8:
            issued.append(group.endpoints[node].cast((node, k)))
            sim.schedule_at(due + 0.0033, cast, node, due + 0.0033, k + 1)
    for node in range(4):
        phase = 0.0011 * (node + 1) + rng.uniform(0.0, 50e-6)
        sim.schedule_at(phase, cast, node, phase, 0)
    group.run(1.0)
    layer = group.processes[7].ordering
    assert len(issued) == layer.messages_ordered == 969
    assert layer.batches_decided <= 1.1 * 639


@pytest.mark.parametrize("fast", [False, True])
def test_grid_survives_a_view_change_that_empties_the_buffer(fast):
    group = Group.bootstrap(
        5, config=StackConfig.byz(total_order=True, ordering_fast_path=fast),
        seed=21, start=False)
    sim = group.sim
    tick = ORDER_TICK
    reference = reference_chain(sim, tick)
    for process in group.processes.values():
        process.start()
    counter = sim.observer = TickCounter()
    group.endpoints[1].cast("before")
    group.run(0.05)
    group.crash(4)
    assert group.run_until(
        lambda: all(group.processes[n].view.n == 4 for n in range(4)),
        timeout=5.0)
    group.run(0.2)                              # the new view goes quiet
    layer = group.processes[0].ordering
    assert not (layer._buffer or layer._pending or layer._instances)
    assert layer._ticker.timer is None          # dormant again
    quiet_since = sim.now
    arrival = grid_instant_after(0.0, tick, quiet_since + 0.0101) - 0.0003
    inject_cast(group, 0, arrival, 2)
    group.run(0.05)
    ticks = [t for t in counter.fired[0] if t > quiet_since]
    assert ticks[0] == first_after(reference, arrival)


def test_stopped_member_is_not_rearmed_by_a_late_cast():
    group = make_group(4, seed=2, total_order=True)
    group.run(0.05)
    layer = group.processes[3].ordering
    assert layer._ticker.timer is None          # dormant when stopped
    group.crash(3)
    pending = group.sim.pending
    msg = Message(mk.KIND_CAST, 0, group.processes[3].view.vid, "late", 16,
                  msg_id=(0, 99))
    layer.handle_up(msg)                        # a receive charged earlier
    assert layer._ticker.timer is None
    assert group.sim.pending == pending


# ----------------------------------------------------------------------
# signalled op completion
# ----------------------------------------------------------------------
def test_applied_gate_rereads_only_after_a_bump():
    signal = Applied()
    reads = []
    predicate = signal.gate(lambda: (reads.append(1), False)[1])
    assert [predicate() for _ in range(5)] == [False] * 5
    assert len(reads) == 1                      # once on entry
    signal.bump()
    predicate(), predicate()
    assert len(reads) == 2
    woken = []
    signal.waiters.append(lambda: woken.append(signal.version))
    signal.bump(), signal.bump()
    assert woken == [2]                         # one-shot


def test_op_reads_replica_state_per_apply_not_per_event():
    cluster = make_plane(4, 5, seed=3)
    rsm = cluster.sharded_rsm()
    client = rsm.client("counted")
    assert client.set("k", 0)[0] == "ok"
    cluster.run(0.05)                           # every replica has the set
    calls = count_calls(client, "_outcome")
    applied0 = {s: signal.version for s, signal in rsm.applied.items()}
    events0 = cluster.sim.events_processed
    for _ in range(50):
        assert client.incr("k")[0] == "ok"
    events = cluster.sim.events_processed - events0
    cluster.run(0.05)                           # the last op's stragglers
    shard = cluster.manager.route("k")
    applied = rsm.applied[shard].version - applied0[shard]
    assert rsm.get("k") == 50
    assert applied == 50 * 5                    # every replica, every op
    # per op: one read on entry, one after each apply until the first
    # replica shows the result, one to fetch it -- never one per event
    assert len(calls) <= applied + 2 * 50
    assert len(calls) * 5 < events
    assert all(args[0] == shard for args in calls)


def test_fenced_attempt_wakes_and_reroutes():
    cluster = make_plane(2, 4, seed=3, ring_shards=1)
    rsm = cluster.sharded_rsm()
    client = rsm.client("fenced", timeout=1.5, attempts=30)
    keys = ["s:%d" % i for i in range(12)]
    for key in keys:
        assert client.set(key, 1)[0] == "ok"
    coordinator = cluster.resharder()
    coordinator.start(shards=2)
    # the client still holds the old table: its op is ordered behind the
    # source shard's mig_begin (same submitter, FIFO), fenced ``stale``,
    # re-routed, and held ``wait`` at the destination until the install
    moved = next(k for k in keys if cluster.manager.route(k) == 1)
    assert client.incr(moved) == ("ok", 2)
    assert client.fences["stale"] >= 1, client.fences
    assert coordinator.run(timeout=30.0)
    assert rsm.get(moved) == 2


def test_timed_out_attempt_wakes_and_resubmits_the_same_op():
    cluster = make_plane(2, 4, seed=3)
    rsm = cluster.sharded_rsm()
    client = rsm.client("retry", timeout=0.2)
    assert client.set("t", 0)[0] == "ok"
    shard = cluster.manager.route("t")
    replica = rsm.live_replica(shard)
    submit = replica.submit
    lost = []

    def lossy_submit(command, size=32):
        if not lost:
            lost.append(command)    # the first submission never leaves
            return None
        return submit(command, size=size)
    replica.submit = lossy_submit
    started = cluster.sim.now
    assert client.incr("t") == ("ok", 1)
    assert client.retries == 1 and len(lost) == 1
    assert cluster.sim.now - started >= 0.2     # the timeout really ran
    assert rsm.get("t") == 1                    # exactly once


def test_get_reads_the_most_advanced_live_replica():
    """An op is complete for its client as soon as ANY replica recorded
    it, so ``get`` must not read a replica that has yet to apply it."""
    cluster = make_plane(2, 4, seed=3)
    rsm = cluster.sharded_rsm()
    client = rsm.client("lag")
    assert client.set("t", 0)[0] == "ok"
    shard = cluster.manager.route("t")
    first = rsm.live_replica(shard)     # what get() used to read
    endpoint = first.endpoint
    held, deliver = [], endpoint.on_cast
    endpoint.on_cast = held.append      # replica 0 applies nothing for now
    assert client.incr("t") == ("ok", 1)
    assert first.machine.data["t"] == 0
    assert rsm.get("t") == client.get("t") == 1
    cluster.run(0.05)
    assert held and first.machine.data["t"] == 0
    endpoint.on_cast = deliver
    for event in held:
        deliver(event)
    assert first.machine.data["t"] == 1
    assert len(set(rsm.shard_digests(shard).values())) == 1
