"""The sharded service plane: routing, isolation, cross-shard atomicity.

Covers the repro.shard subsystem end to end on the simulator:

* directory/ring determinism (the same key always routes to the same
  shard, across processes and ring instances);
* shard isolation -- link faults confined to one shard's member block
  leave the other shards' delivery and views untouched;
* cross-shard transfer atomicity, including a destination-shard view
  change in the middle of a transfer (idempotent same-txid retry);
* fixed-seed multi-shard runs are byte-identical across repeats;
* the flat config surface and the Cluster facade that make all of the
  above the documented entry point.
"""

import pytest

from repro import Cluster, ShardConfig, StackConfig
from repro.obs.metrics import Counter
from repro.shard.directory import HashRing, ShardDirectory
from repro.sim.network import NetworkConfig


def make_cluster(shards, nodes_per_shard, seed=0, total_order=False,
                 crypto="none", obs=False, **kw):
    config = StackConfig.byz(crypto=crypto, total_order=total_order, obs=obs)
    return Cluster.create(shards=shards, nodes_per_shard=nodes_per_shard,
                          config=config, seed=seed, **kw)


def keys_on_shard(cluster, shard, count=1, tag="k"):
    """Deterministically find ``count`` keys the directory routes to
    ``shard``."""
    found = []
    for i in range(10000):
        key = "%s%d" % (tag, i)
        if cluster.route(key) == shard:
            found.append(key)
            if len(found) == count:
                return found
    raise AssertionError("no key routes to shard %r" % (shard,))


# ----------------------------------------------------------------------
# directory / ring
# ----------------------------------------------------------------------
def test_hash_ring_is_deterministic_across_instances():
    a = HashRing(8)
    b = HashRing(8)
    keys = ["user:%d" % i for i in range(256)]
    assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]


def test_hash_ring_spreads_keys_over_every_shard():
    ring = HashRing(8)
    spread = ring.spread("user:%d" % i for i in range(2048))
    assert set(spread) == set(range(8))
    assert min(spread.values()) > 0


def test_directory_epochs_are_versioned():
    directory = ShardDirectory(4)
    key = "account:42"
    owner = directory.route(key)
    directory.install_epoch(1, 8)
    # the old epoch stays queryable; the new one is the default
    assert directory.route(key, epoch=0) == owner
    assert directory.route(key) == HashRing(8).shard_for(key)
    with pytest.raises(ValueError):
        directory.install_epoch(1, 2)
    with pytest.raises(KeyError):
        directory.route(key, epoch=5)


def test_cluster_routing_matches_directory():
    cluster = make_cluster(4, 3)
    for i in range(64):
        key = "k%d" % i
        shard = cluster.route(key)
        assert cluster.manager.group_for(key) is cluster.shard_group(shard)
    cluster.stop()


# ----------------------------------------------------------------------
# config: one flat surface
# ----------------------------------------------------------------------
AGGREGATION_KNOBS = {"mtu": 900, "wire_mtu": 4000}


def test_aggregation_knobs_are_plain_fields():
    base = StackConfig.byz()
    defaults = {name: getattr(base, name) for name in AGGREGATION_KNOBS}
    for name, value in AGGREGATION_KNOBS.items():
        assert value != defaults[name]
        assert getattr(StackConfig.byz(**{name: value}), name) == value
        assert getattr(base.clone(**{name: value}), name) == value
        fork = base.clone()
        setattr(fork, name, value)
        assert getattr(fork, name) == value
    # neither a clone's overrides nor writes to a clone reach its parent
    assert {name: getattr(base, name) for name in AGGREGATION_KNOBS} \
        == defaults
    config = StackConfig.byz(shard=ShardConfig(shards=16, nodes_per_shard=7))
    assert config.shard.shards == 16


def test_clone_rejects_unknown_fields():
    base = StackConfig.byz()
    with pytest.raises(TypeError, match="packng, wire"):
        base.clone(wire=None, packng=True, mtu=900)
    assert not hasattr(base, "packng")
    for removed in ("wire", "chaos", "wire_coalesce_delay", "wire_coalesce",
                    "packing", "packing_delay"):
        with pytest.raises(TypeError):
            StackConfig(**{removed: None})
        with pytest.raises(TypeError):
            base.clone(**{removed: None})


# ----------------------------------------------------------------------
# facade
# ----------------------------------------------------------------------
def test_single_shard_cluster_exposes_classic_group():
    cluster = make_cluster(1, 5)
    group = cluster.group
    assert sorted(group.processes) == [0, 1, 2, 3, 4]
    got = []
    group.endpoints[1].on_cast = lambda ev: got.append(ev.payload)
    group.endpoints[0].cast(("ping",))
    cluster.run_until(lambda: got, timeout=3.0)
    assert got == [("ping",)]
    cluster.stop()


def test_multi_shard_cluster_group_property_raises():
    cluster = make_cluster(2, 3)
    with pytest.raises(ValueError):
        cluster.group
    cluster.stop()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def _plane_fingerprint(seed):
    cluster = make_cluster(3, 4, seed=seed)
    for shard in range(3):
        group = cluster.shard_group(shard)
        for node in sorted(group.processes):
            group.endpoints[node].cast((shard, node))
    cluster.run(0.4)
    fingerprint = []
    for shard in range(3):
        group = cluster.shard_group(shard)
        for node in sorted(group.processes):
            history = group.processes[node].history
            fingerprint.append((node, tuple(map(repr, history.events))))
    events = cluster.sim.events_processed
    cluster.stop()
    return tuple(fingerprint), events


def test_multi_shard_same_seed_byte_identical():
    first, events_a = _plane_fingerprint(seed=42)
    second, events_b = _plane_fingerprint(seed=42)
    assert first == second
    assert events_a == events_b


# ----------------------------------------------------------------------
# isolation
# ----------------------------------------------------------------------
def test_link_faults_in_one_shard_leave_the_other_untouched():
    # jitterless network so the healthy shard's schedule has no noise to
    # absorb; the fault engine draws from its own RNG either way
    cluster = make_cluster(
        2, 4, seed=7,
        net_config=NetworkConfig(jitter=0.0, drop_prob=0.0))
    sick = cluster.shard_group(1)
    members = sorted(sick.processes)
    specs = [("drop", a, b, 1.0)
             for a in members for b in members if a != b]
    cluster.manager.install_link_faults(specs)

    healthy = cluster.shard_group(0)
    got = {node: [] for node in healthy.processes}
    for node, endpoint in healthy.endpoints.items():
        endpoint.on_cast = (lambda node: lambda ev:
                            got[node].append(ev.payload))(node)
    healthy.endpoints[0].cast(("alive",))
    cluster.run_until(lambda: all(got.values()), timeout=3.0)
    assert all(payloads == [("alive",)] for payloads in got.values())

    # the healthy shard keeps its full view while the sick shard's
    # members, fully cut off from each other, cannot hold theirs
    cluster.run(2.0)
    assert all(p.view.n == 4 for p in healthy.processes.values())
    assert any(p.view.n < 4 for p in sick.processes.values())
    assert cluster.manager.network.chaos.dropped > 0
    cluster.stop()


def test_stop_shard_releases_runtime_and_spares_the_rest():
    cluster = make_cluster(2, 3, seed=11)
    cluster.stop_shard(0)
    survivor = cluster.shard_group(1)
    got = []
    first = min(survivor.processes)
    survivor.endpoints[first].on_cast = lambda ev: got.append(ev.payload)
    survivor.endpoints[first].cast(("still-here",))
    cluster.run_until(lambda: got, timeout=3.0)
    assert got == [("still-here",)]
    # the stopped shard's ports are detached, not just crashed: its node
    # ids are free for a fresh attach on the same shared network
    for node in cluster.shard_group(0).processes:
        assert node not in cluster.manager.network._ports
    cluster.stop()


def test_a_third_party_retransmission_in_a_shard_is_no_forgery():
    """A holder's retransmission of a sharded member's cast is rebuilt
    under the shard's group, so it verifies as the origin signed it."""
    from tests.helpers import tagged_detector
    from repro.core.message import Message
    from repro.layers.reliable import STREAM_APP
    cluster = make_cluster(2, 4, seed=3, crypto="sym")
    group = cluster.shard_group(1)
    origin, holder_id, _, asker_id = sorted(group.processes)
    group.endpoints[origin].cast(("m", 1))
    cluster.run(0.005)          # delivered, not yet trimmed as stable
    holder, asker = group.processes[holder_id], group.processes[asker_id]
    record = holder.reliable._archive[(origin, STREAM_APP)][1]
    retrans = Message("retrans", holder_id, holder.view.vid, record,
                      payload_size=record[6] + 24, dest=asker_id)
    tags = tagged_detector(asker)
    asker.reliable._on_retrans(retrans)
    assert tags == []
    cluster.stop()


# ----------------------------------------------------------------------
# cross-shard transfers
# ----------------------------------------------------------------------
def test_cross_shard_transfer_commits_atomically():
    cluster = make_cluster(2, 4, seed=5, total_order=True)
    rsm = cluster.sharded_rsm()
    (src_key,) = keys_on_shard(cluster, 0)
    (dst_key,) = keys_on_shard(cluster, 1)
    rsm.submit(src_key, ("set", src_key, 100))
    rsm.submit(dst_key, ("set", dst_key, 10))
    cluster.run(1.0)

    assert rsm.transfer(src_key, dst_key, 30) == "committed"
    cluster.run(1.0)
    assert rsm.get(src_key) == 70
    assert rsm.get(dst_key) == 40
    # replicas of each shard converge on one digest, transfer tables
    # included
    for shard in (0, 1):
        cluster.run_until(
            lambda shard=shard: len(set(
                rsm.shard_digests(shard).values())) == 1,
            timeout=4.0)
        assert len(set(rsm.shard_digests(shard).values())) == 1
    cluster.stop()


def test_insufficient_funds_aborts_with_no_net_effect():
    cluster = make_cluster(2, 4, seed=6, total_order=True)
    rsm = cluster.sharded_rsm()
    (src_key,) = keys_on_shard(cluster, 0)
    (dst_key,) = keys_on_shard(cluster, 1)
    rsm.submit(src_key, ("set", src_key, 20))
    cluster.run(1.0)
    assert rsm.transfer(src_key, dst_key, 500) == "aborted"
    cluster.run(0.5)
    assert rsm.get(src_key) == 20
    assert rsm.get(dst_key) is None
    cluster.stop()


def test_transfer_survives_mid_transfer_view_change():
    cluster = make_cluster(2, 4, seed=9, total_order=True)
    rsm = cluster.sharded_rsm()
    (src_key,) = keys_on_shard(cluster, 0)
    (dst_key,) = keys_on_shard(cluster, 1)
    rsm.submit(src_key, ("set", src_key, 100))
    cluster.run(1.0)

    # phase 1 lands on the source shard, then the destination shard's
    # lowest member -- the coordinator's next submitter -- crashes, so
    # finishing the SAME transfer must ride out a view change and the
    # idempotent same-txid resubmission path
    coordinator = rsm.coordinator
    txid = ("tx", "viewchange")
    assert coordinator._phase(
        0, ("xfer_prepare", txid, src_key, 40),
        lambda m: txid in m.pending or txid in m.finished)
    dst_group = cluster.shard_group(1)
    victim = min(dst_group.processes)
    dst_group.crash(victim)

    outcome = rsm.transfer(src_key, dst_key, 40, txid=txid)
    assert outcome == "committed"
    cluster.run_until(
        lambda: all(p.view.n == 3 for p in dst_group.processes.values()
                    if not p.stopped),
        timeout=6.0)
    cluster.run(1.0)
    assert rsm.get(src_key) == 60
    assert rsm.get(dst_key) == 40
    # the crashed member is excluded; the survivors agree, tables and all
    for shard in (0, 1):
        cluster.run_until(
            lambda shard=shard: len(set(
                rsm.shard_digests(shard).values())) == 1,
            timeout=4.0)
        digests = rsm.shard_digests(shard)
        assert len(set(digests.values())) == 1, digests
    assert victim not in rsm.shard_digests(1)
    cluster.stop()


# ----------------------------------------------------------------------
# shared keys + per-shard metric namespaces
# ----------------------------------------------------------------------
def test_shared_key_manager_derives_each_pair_once():
    cluster = make_cluster(3, 4, seed=2, crypto="sym")
    cluster.run(1.0)
    stats = cluster.manager.key_stats()
    # 3 shards x C(4,2) unordered pairs, each derived exactly once
    assert stats["pairs_cached"] == 3 * 6
    assert stats["pair_derivations"] == 3 * 6
    # MAC reuse now happens one level up: the half-initialized HMAC state
    # per pair is shared across every co-hosted shard authenticator, so
    # pair_key itself is consulted exactly once per pair (by mac_base)
    assert stats["mac_bases_cached"] == 3 * 6
    cluster.stop()


def test_per_shard_metric_namespaces_partition_the_registry():
    cluster = make_cluster(2, 3, seed=4, obs=True)
    for shard in range(2):
        group = cluster.shard_group(shard)
        first = min(group.processes)
        group.endpoints[first].cast(("m", shard))
    cluster.run(0.5)
    registry = cluster.metrics
    manager = cluster.manager
    names = sorted({key[2] for key, inst in registry._instruments.items()
                    if isinstance(inst, Counter)
                    and key[0] in manager.shard_of})
    assert names, "no per-node counters recorded"
    everyone = list(manager.shard_of)
    for name in names:
        per_shard = [manager.shard_total(shard, name) for shard in range(2)]
        assert sum(per_shard) == registry.total_nodes(everyone, name)
    # at least one counter is active in BOTH shards (traffic flowed)
    assert any(manager.shard_total(0, name) > 0
               and manager.shard_total(1, name) > 0 for name in names)
    cluster.stop()
