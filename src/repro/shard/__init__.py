"""Multi-group sharded service plane (ROADMAP item 1).

The paper's single-group protocol pays O(n^2) per broadcast and hits a
throughput wall near n=50 (PAPER.md Fig. 5).  Scaling to "millions of
users" therefore means running *many small groups* -- each with the
small-quorum efficiency the protocol was measured at -- behind a routing
layer, not one big group.  This package is that plane:

* :class:`~repro.shard.directory.ShardDirectory` -- epoch-versioned
  consistent-hash table mapping keys to shards, with
  :func:`~repro.shard.directory.ring_diff` computing exactly which key
  arcs move between two tables;
* :class:`~repro.shard.manager.ShardManager` -- N independent groups
  over ONE shared runtime (clock, network, pairwise-key cache,
  observability plane), each group tagged with its shard id at the
  bottom layer so one network carries them all;
* :class:`~repro.shard.cluster.Cluster` -- the documented front door
  (``Cluster.create(runtime=..., shards=..., config=...)``), including
  live resharding via ``Cluster.reshard(...)``;
* :mod:`~repro.shard.rsm` -- the sharded replicated KV store with
  idempotent two-phase cross-shard transfers, epoch fencing, and the
  re-route-and-retry :class:`~repro.shard.rsm.ShardClient`;
* :class:`~repro.shard.reshard.ReshardCoordinator` -- live migration of
  key ownership between epochs, built on totally-ordered commands;
* :mod:`~repro.shard.chaos` -- the sharded chaos driver (fault plans
  with mid-run ``reshard_at``, key-conservation checking).
"""

from repro.shard.cluster import Cluster
from repro.shard.directory import (
    HashRing,
    ShardDirectory,
    arc_contains,
    hash_key,
    ring_diff,
)
from repro.shard.manager import ShardManager
from repro.shard.reshard import ReshardCoordinator
from repro.shard.rsm import (
    ShardClient,
    ShardedKVStore,
    ShardedRSM,
    ShardReplica,
    TransferCoordinator,
)

__all__ = [
    "Cluster",
    "HashRing",
    "ReshardCoordinator",
    "ShardClient",
    "ShardDirectory",
    "ShardManager",
    "ShardReplica",
    "ShardedKVStore",
    "ShardedRSM",
    "TransferCoordinator",
    "arc_contains",
    "hash_key",
    "ring_diff",
]
