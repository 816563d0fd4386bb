"""Live resharding over the epoch seam, end to end on the simulator.

The tentpole's contract, exercised at the ``Cluster`` surface:

* the blocking ``Cluster.reshard(...)`` moves exactly the keys whose
  ring owner changed, retires the old epoch, and leaves every replica
  of every shard on one digest;
* client operations issued *during* a migration apply exactly once per
  key -- the stale/early/wait fences plus the ``op_results`` dedup
  table, not timing luck, carry linearizability across the seam;
* the resubmit-same-txid path survives a destination-shard view change
  mid-migration (the crash-the-submitter scenario from the cross-shard
  transfer tests, replayed against the epoch machinery);
* an abandoned coordinator's migration is adoptable: ``resume()``
  rebuilds the plan from the directory and finishes it idempotently.
"""

import re

import pytest

from repro import Cluster, Group, StackConfig
from repro.chaos import ChaosEngine
from repro.shard.chaos import (ShardChaosEngine, check_key_conservation,
                               run_reshard_campaign)
from repro.shard.rsm import ShardReplica
from repro.sim.topology import FlatGigE
from tests.helpers import count_calls


def make_plane(shards, nodes_per_shard, seed=0, ring_shards=None):
    """A total-order cluster with ``shards`` built groups, the first
    ``ring_shards`` of them on the initial hash ring (the rest are the
    spare capacity a scale-out reshard grows onto)."""
    config = StackConfig.byz(total_order=True, crypto="none")
    cluster = Cluster.create(shards=shards, nodes_per_shard=nodes_per_shard,
                             config=config, seed=seed,
                             ring_shards=ring_shards)
    cluster.run_until_stable_views(10.0)
    return cluster


# ----------------------------------------------------------------------
# the blocking facade call
# ----------------------------------------------------------------------
def test_reshard_scale_out_moves_exactly_the_routing_delta():
    cluster = make_plane(4, 3, seed=1, ring_shards=2)
    rsm = cluster.sharded_rsm()
    client = rsm.client("seeder")
    keys = ["acct:%d" % i for i in range(40)]
    expected = {}
    for i, key in enumerate(keys):
        assert client.set(key, i)[0] == "ok"
        expected[key] = i
    before = {key: cluster.route(key) for key in keys}

    coordinator = cluster.reshard(shards=4)
    assert coordinator.state == "done"
    cluster.run(0.05)       # every replica applies the last mig_retire
    moved = [key for key in keys if cluster.route(key) != before[key]]
    assert moved, "a 2->4 scale-out must move some keys"
    metrics = coordinator.migration_metrics()
    assert metrics["keys_moved"] == len(moved)
    assert metrics["pairs_done"] == metrics["pairs"]
    assert metrics["finished_at"] is not None

    # old epoch retired, every key on its new owner with its old value
    assert cluster.directory.epochs() == (coordinator.epoch,)
    assert check_key_conservation(rsm, expected) == []
    for shard in range(4):
        cluster.run_until(
            lambda shard=shard: len(set(
                rsm.shard_digests(shard).values())) == 1, timeout=5.0)
        assert len(set(rsm.shard_digests(shard).values())) == 1
    cluster.stop()


def test_reshard_shrink_drains_keys_back():
    cluster = make_plane(3, 3, seed=2)
    rsm = cluster.sharded_rsm()
    client = rsm.client("drainer")
    expected = {}
    for i in range(24):
        key = "cold:%d" % i
        assert client.set(key, i * 10)[0] == "ok"
        expected[key] = i * 10

    coordinator = cluster.reshard(shards=1)
    assert coordinator.state == "done"
    # "done" is the first replica's word for the last mig_retire; the
    # conservation oracle reads replica 0, so let the rest apply it
    cluster.run(0.05)
    # everything now lives on shard 0; the drained shards hold nothing
    assert check_key_conservation(rsm, expected) == []
    for shard in (1, 2):
        for machine in rsm.machines(shard):
            assert machine.data == {}
            assert machine.outbox == {}
    assert cluster.directory.ring().shards == 1
    cluster.stop()


def test_reshard_rejects_noop_and_overgrown_targets():
    cluster = make_plane(2, 3, seed=3)
    with pytest.raises(ValueError):
        cluster.resharder().start(shards=2)      # same ring: a caller bug
    with pytest.raises(ValueError):
        cluster.resharder().start(shards=5)      # only 2 groups built
    cluster.stop()


# ----------------------------------------------------------------------
# mid-migration linearizability (the satellite's core scenario)
# ----------------------------------------------------------------------
def test_concurrent_writes_during_migration_apply_exactly_once():
    """Increments driven THROUGH a live migration: every key's counter
    must equal the number of acknowledged increments -- a lost update
    reads low, a double-applied fenced retry reads high."""
    cluster = make_plane(4, 4, seed=5, ring_shards=2)
    rsm = cluster.sharded_rsm()
    client = rsm.client("lin", timeout=1.5, attempts=20)
    keys = ["ctr:%d" % i for i in range(16)]
    # seed every counter BEFORE the seam so the sealed outboxes carry
    # real keys -- the increments below then race the keys' own move
    for key in keys:
        assert client.set(key, 0)[0] == "ok"

    coordinator = cluster.resharder()
    coordinator.start(shards=4)

    expected = {}
    states_seen = set()
    for round_no in range(3):
        for key in keys:
            status, result = client.incr(
                key, op_id=("lin", key, round_no))
            assert status == "ok", (key, round_no)
            expected[key] = expected.get(key, 0) + 1
            assert result == expected[key], (key, round_no, result)
            states_seen.add(coordinator.state)

    assert coordinator.run(timeout=30.0)
    cluster.run_until_stable_views(5.0)
    cluster.run(1.0)

    # the workload genuinely overlapped the migration and hit its fences
    assert "migrating" in states_seen
    assert sum(client.fences.values()) > 0, client.fences
    # exactly-once per key on the destination: counter == acks issued
    assert check_key_conservation(rsm, expected) == []
    for key in keys:
        assert rsm.get(key) == 3, key
    metrics = coordinator.migration_metrics()
    assert metrics["keys_moved"] > 0
    assert cluster.directory.epochs() == (coordinator.epoch,)
    cluster.stop()


def test_resubmit_same_op_id_survives_mid_migration_view_change():
    """The resubmit-same-txid path across a view change: the serving
    shard loses a member while the migration is in flight, the client
    rides fences and timeouts with ONE op id, and the increment lands
    exactly once on the destination shard."""
    cluster = make_plane(2, 4, seed=7, ring_shards=1)
    rsm = cluster.sharded_rsm()
    # fenced attempts are cheap (the verdict lands in a fraction of a
    # second), but the budget must span the destination shard's whole
    # view change, during which every attempt fences "early"
    client = rsm.client("vc", timeout=1.5, attempts=80)

    coordinator = cluster.resharder()
    coordinator.start(shards=2)
    # a key the new ring hands to the destination shard
    key = next("mv:%d" % i for i in range(10000)
               if cluster.directory.route("mv:%d" % i,
                                          coordinator.epoch) == 1)

    # the destination shard loses its lowest member mid-migration: its
    # mig_begin/install must ride out the flush + view change
    dst_group = cluster.shard_group(1)
    victim = min(dst_group.processes)
    dst_group.crash(victim)

    op_id = ("vc", key)
    status, result = client.op(key, ("incr", key, 1), op_id=op_id)
    assert status == "ok"
    assert result == 1
    # a fenced attempt resumes when ITS fence lifts, not on any apply
    # (its own five would do): at the parent, pumped every 0.4 s, the
    # view change cost 36 fenced attempts and no timeout
    assert sum(client.fences.values()) + client.retries <= 36, client.fences

    # blind replay of the SAME op id: dedup returns the recorded result,
    # the counter does not move
    replay_status, replay_result = client.op(key, ("incr", key, 1),
                                             op_id=op_id)
    assert (replay_status, replay_result) == ("ok", 1)

    assert coordinator.run(timeout=30.0)
    cluster.run_until(
        lambda: all(p.view.n == 3 for p in dst_group.processes.values()
                    if not p.stopped), timeout=8.0)
    cluster.run(1.0)
    assert rsm.get(key) == 1
    # the op record migrated WITH the key: it lives on the destination,
    # and only there
    holders = [shard for shard in (0, 1)
               if any(op_id in m.op_results for m in rsm.machines(shard))]
    assert holders == [1]
    assert check_key_conservation(rsm, {key: 1}) == []
    cluster.stop()


# ----------------------------------------------------------------------
# the coordinator advances itself
# ----------------------------------------------------------------------
def _unattended_migration(seed):
    cluster = make_plane(4, 3, seed=seed, ring_shards=3)
    rsm = cluster.sharded_rsm()
    client = rsm.client("seeder")
    for i in range(30):
        assert client.set("u:%d" % i, i)[0] == "ok"
    coordinator = cluster.resharder()
    polls = count_calls(coordinator, "poll")
    coordinator.start(shards=4)
    cluster.run(0.5)            # nobody polls: the plane just runs
    metrics = coordinator.migration_metrics()
    polled = len(polls)
    cluster.run(4.0)            # done: no subscription, no deadline left
    assert len(polls) == polled
    waiting = [s for s in rsm.applied.values() if s.waiters]
    cluster.stop()
    return metrics, waiting


def test_migration_completes_unattended_and_is_a_function_of_the_seed():
    metrics, waiting = _unattended_migration(seed=4)
    assert metrics["state"] == "done" and metrics["keys_moved"] > 0
    assert metrics["resubmits"] == 0
    # three ordered commands per pair, not three poll periods
    assert metrics["finished_at"] - metrics["started_at"] < 0.02
    assert waiting == []        # done: unsubscribed everywhere
    assert _unattended_migration(seed=4)[0] == metrics


def test_op_fenced_wait_resumes_when_its_install_is_applied():
    cluster = make_plane(2, 4, seed=3, ring_shards=1)
    rsm = cluster.sharded_rsm()
    client = rsm.client("parked", timeout=1.5, attempts=30)
    keys = ["w:%d" % i for i in range(12)]
    for key in keys:
        assert client.set(key, 1)[0] == "ok"
    first = cluster.resharder()
    first.start(shards=2)
    epoch = first.epoch
    assert cluster.run_until(
        lambda: all(m.epoch == epoch for m in rsm.machines(1)), 1.0)
    first.stop()                # crashed between mig_begin and mig_install
    second = cluster.resharder()
    cluster.sim.schedule(0.33, second.resume)
    installed_at = []

    def watch():                # when shard 1 first applies the install
        if any((epoch, 0) in m.installed for m in rsm.machines(1)):
            installed_at.append(cluster.sim.now)
        else:
            rsm.applied[1].waiters.append(watch)
    watch()
    moved = next(k for k in keys if cluster.manager.route(k) == 1)
    client.refresh()
    assert client.incr(moved) == ("ok", 2)
    assert client.fences["wait"] >= 3, client.fences    # parked ~0.33 s
    assert 0.0 <= cluster.sim.now - installed_at[0] < 0.010
    assert second.run(timeout=5.0)
    cluster.stop()


def test_lost_install_is_resubmitted_by_the_coordinators_own_deadline():
    cluster = make_plane(2, 4, seed=9, ring_shards=1)
    rsm = cluster.sharded_rsm()
    client = rsm.client("seeder")
    expected = {"d:%d" % i: i for i in range(12)}
    for key, value in expected.items():
        assert client.set(key, value)[0] == "ok"
    dst_group = cluster.shard_group(1)
    submitter = rsm.live_replica(1)
    submit = submitter.submit

    def submit_then_crash(command, size=32):
        submit(command, size=size)
        if command[0] == "mig_install":
            dst_group.crash(submitter.endpoint.process.node_id)
    submitter.submit = submit_then_crash
    coordinator = cluster.resharder(phase_timeout=1.0)
    polls = count_calls(coordinator, "poll")
    coordinator.start(shards=2)
    assert coordinator.run(timeout=10.0)
    metrics = coordinator.migration_metrics()
    assert metrics["resubmits"] == 1
    assert 1.0 <= metrics["finished_at"] - metrics["started_at"] < 1.1
    assert polls                # its own, every one: nobody else polled
    cluster.run(0.05)
    assert check_key_conservation(rsm, expected) == []
    cluster.stop()


# ----------------------------------------------------------------------
# coordinator hand-off
# ----------------------------------------------------------------------
def test_abandoned_migration_is_resumable_by_a_fresh_coordinator():
    cluster = make_plane(3, 3, seed=11, ring_shards=2)
    rsm = cluster.sharded_rsm()
    client = rsm.client("handoff")
    expected = {}
    for i in range(20):
        key = "h:%d" % i
        assert client.set(key, i)[0] == "ok"
        expected[key] = i

    first = cluster.resharder()
    first.start(shards=3)     # mig_begins in flight, then the
    first.stop()              # coordinator crashes
    cluster.run(0.5)
    assert first.state == "migrating"
    assert first.migration_metrics()["pairs_done"] == 0

    second = cluster.resharder()
    with pytest.raises(ValueError):
        # epoch e+1 is already installed, so "start the same reshard"
        # reads as a no-op target; adoption goes through resume()
        second.start(shards=3)
    adopted_epoch = second.resume()
    assert adopted_epoch == first.epoch
    assert second.run(timeout=30.0)
    assert second.state == "done"
    cluster.run(0.05)       # every replica applies the last mig_retire
    assert cluster.directory.epochs() == (adopted_epoch,)
    assert check_key_conservation(rsm, expected) == []
    cluster.stop()


# ----------------------------------------------------------------------
# the sharded chaos engine: ChaosEngine's ops over a plane
# ----------------------------------------------------------------------
def test_settle_restores_a_degraded_nic():
    cluster = make_plane(2, 4, seed=2)
    engine = ShardChaosEngine(cluster)
    network = cluster.manager.network
    line_rate = network.topology.nic_bandwidth_bps
    for op in (["nic", 5, 0.1], ["run", 0.2]):
        engine.apply(op)
    assert network.nic_of(5).bandwidth_bps == 0.1 * line_rate
    engine.settle(duration=0.5)
    assert network.nic_of(5).bandwidth_bps == line_rate
    cluster.stop()


_ONE_PLAN = [["cast", 0, 3], ["run", 0.1], ["drop", None, 2, 0.3],
             ["cast", 1, 4], ["run", 0.2], ["crash", 4], ["cast", 2, 2],
             ["run", 0.6], ["partition", [[0, 1, 2], [3]]], ["cast", 0, 2],
             ["run", 0.5], ["heal"], ["clear_faults"], ["cast", 3, 1],
             ["run", 1.0]]


def _histories(group):
    return {node: [repr(event) for event in process.history.events]
            for node, process in group.processes.items()}


@pytest.mark.parametrize("seed", [3, 11])
def test_one_plan_two_targets_equal_histories(seed):
    """The same script through ChaosEngine on a bootstrapped group and
    through the sharded engine on a one-shard plane: equal per-node
    histories and event counts.  Both sides run the same application
    (the sharded engine attaches the RSM, whose state provider makes
    merges carry snapshots) on the same fabric."""
    config = StackConfig.byz(total_order=True)
    group = Group.bootstrap(5, config=config, seed=seed,
                            topology_cls=FlatGigE)
    for endpoint in group.endpoints.values():
        ShardReplica(endpoint)
    single = ChaosEngine.attached(group)
    cluster = Cluster.create(shards=1, nodes_per_shard=5, config=config,
                             seed=seed)
    sharded = ShardChaosEngine(cluster)
    for op in _ONE_PLAN:
        single.apply(op)
        sharded.apply(op)
    single.settle(2.0)
    sharded.settle(duration=2.0)
    assert single.crashed == sharded.crashed == {4}
    assert _histories(group) == _histories(cluster.group)
    assert group.sim.events_processed == cluster.sim.events_processed
    assert single.check() == sharded.check() == []
    group.stop()
    cluster.stop()


def test_unknown_op_raises_on_both_engines():
    group = Group.bootstrap(4, seed=1)
    cluster = make_plane(1, 4, seed=1)
    for engine in (ChaosEngine.attached(group), ShardChaosEngine(cluster)):
        with pytest.raises(ValueError):
            engine.apply(["scramble", 0])
    group.stop()
    cluster.stop()


def test_crash_below_the_shard_floor_is_refused():
    cluster = make_plane(2, 4, seed=5)
    engine = ShardChaosEngine(cluster)
    engine.apply(["crash", 4])          # 4 -> 3 live: at the floor
    engine.apply(["crash", 5])          # would leave 2 < max(3, 2k/3)
    engine.apply(["leave", 6])          # a leave is a loss too
    assert engine.crashed == {4} and engine.left == set()
    shard = cluster.shard_group(1)
    assert [n for n, p in shard.processes.items() if p.stopped] == [4]
    # the other shard's budget is its own
    engine.apply(["crash", 0])
    assert engine.crashed == {0, 4}
    cluster.stop()


#: the messages of ``check_key_conservation``
KEY_CONSERVATION = re.compile(
    r"key |shard \d+ (has no live replica|outbox residue)")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP 1 (r4): keys on two shards at once")
def test_reshard_campaign_seed_12_conserves_keys():
    """r4 pinned: seed 12 of ``python -m repro reshard`` (its defaults)
    leaves keys on shards 2 and 3 at once and others an increment
    short.  Any other kind of violation is a different failure."""
    report = run_reshard_campaign(seeds=(12,))
    violations = report["results"][0]["violations"]
    others = [v for v in violations if not KEY_CONSERVATION.match(v)]
    if others:
        pytest.fail("r4 changed shape: %r" % (others,))
    assert violations == []
