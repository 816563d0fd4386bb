"""The tentpole's second backend: a live reshard over real localhost UDP.

The sim plane proves the migration protocol under deterministic chaos;
this module proves the SAME coordinator state machine and the same
fencing rules run on the asyncio backend -- wall clocks, real sockets,
one datagram per frame on the wire.  ``net``-marked (opens sockets), so
excluded from tier-1; select with ``pytest -m net``.
"""

from __future__ import annotations

import pytest

from repro.shard.netplane import run_reshard_conformance

pytestmark = pytest.mark.net

#: generous wall budget for a loaded CI host; the scenario runs in
#: well under a second on an idle machine
NET_WALL_BUDGET = 30.0


def test_net_backend_runs_a_migration_to_completion():
    report = run_reshard_conformance(shards=2, nodes_per_shard=3,
                                     ring_shards=1, keys=12, rounds=2,
                                     seed=1, wall_timeout=NET_WALL_BUDGET)
    assert report["ok"], report["violations"]
    migration = report["migration"]
    assert migration["state"] == "done"
    assert migration["from_shards"] == 1 and migration["to_shards"] == 2
    assert migration["keys_moved"] > 0
    assert migration["pairs_done"] == migration["pairs"]
    assert report["elapsed"] <= NET_WALL_BUDGET


def test_net_migration_fences_and_applies_exactly_once():
    """The concurrent write workload must observe the epoch seam (at
    least one fencing verdict) and still land every increment exactly
    once -- the conformance runner's conservation oracle asserts the
    values, this test asserts the seam was genuinely exercised."""
    report = run_reshard_conformance(shards=3, nodes_per_shard=3,
                                     ring_shards=2, keys=18, rounds=2,
                                     seed=5, wall_timeout=NET_WALL_BUDGET)
    assert report["ok"], report["violations"]
    fencing = report["migration"]["fencing"]
    assert sum(fencing.values()) > 0, fencing


def test_idle_members_stop_ticking_and_ops_await_the_signal(monkeypatch):
    """The asyncio half of tests/test_idle_cost.py: on ``AsyncioClock`` a
    quiet member's ordering tick is dormant (at most the boot tick), an
    op wakes it and it goes back to sleep, and ``NetShardClient.op``
    completes off the shard's ``Applied`` signal with no waiter left.

    The wake is observed as an arm, not a fire: an op that is decided
    inside one ``ORDER_TICK`` puts the armed tick back to sleep before
    its grid instant (DESIGN §4 promises dormancy, not a fire per op)."""
    import asyncio

    from tests.helpers import TickCounter
    from repro.shard.netplane import NetShardClient, boot_plane
    from repro.sim.clock import GridTimer

    arms = {}       # node id -> times its ordering tick went dormant -> armed
    arm = GridTimer.arm

    def counted_arm(timer):
        dormant = timer.timer is None
        arm(timer)
        owner = getattr(timer.callback, "__self__", None)
        if (dormant and timer.timer is not None
                and type(owner).__name__ == "OrderingLayer"):
            arms[owner.me] = arms.get(owner.me, 0) + 1

    monkeypatch.setattr(GridTimer, "arm", counted_arm)

    async def scenario():
        plane = await boot_plane(1, 4, seed=3)
        try:
            counter = TickCounter()     # one observer on every node's clock
            for runtime in plane.runtimes.values():
                runtime.clock.observer = counter
            assert await plane.views_formed(timeout=NET_WALL_BUDGET / 2)
            await asyncio.sleep(0.5)
            quiet = counter.counts()
            assert all(ticks <= 1 for ticks in quiet.values()), quiet
            quiet_arms = dict(arms)
            client = NetShardClient(plane, name="idle")
            assert await client.set("k", 1) == ("ok", None)
            assert await client.incr("k") == ("ok", 2)
            assert all(arms.get(node, 0) > quiet_arms.get(node, 0)
                       for node in plane.processes), (quiet_arms, arms)
            await asyncio.sleep(0.3)            # drain, then go quiet
            drained = counter.counts()
            await asyncio.sleep(0.5)
            assert counter.counts() == drained
            assert not any(signal.waiters
                           for signal in plane.applied.values())
            for process in plane.processes.values():
                assert process.ordering._ticker.timer is None
        finally:
            plane.stop()

    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        loop.run_until_complete(
            asyncio.wait_for(scenario(), NET_WALL_BUDGET))
    finally:
        loop.close()
