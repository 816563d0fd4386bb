"""Cluster: the documented front door of the package.

``Cluster.create(runtime=..., shards=..., config=...)`` is the one entry
point the docs teach: it covers the classic single-group experiment
(``shards=1``, the exact seed-pinned histories ``Group.bootstrap`` always
produced) and the multi-group service plane (``shards=N`` over one shared
runtime) with the same surface.  ``Group.bootstrap`` remains supported as
the one-shard special case.
"""

from __future__ import annotations

from repro.core.config import StackConfig
from repro.shard.manager import ShardManager
from repro.shard.reshard import ReshardCoordinator
from repro.shard.rsm import ShardedRSM


class Cluster:
    """A sharded (or single-group) cluster behind one facade."""

    def __init__(self, manager):
        self.manager = manager
        self._rsm = None

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, runtime=None, shards=None, config=None, seed=0,
               nodes_per_shard=None, topology_cls=None, net_config=None,
               established=True, start=True, behaviors=None,
               ring_shards=None):
        """Build a cluster.

        ``shards``/``nodes_per_shard`` default from ``config.shard``;
        ``runtime`` lets several planes (or a caller-owned experiment)
        share one :class:`~repro.runtime.interface.SimRuntime`.  All
        other parameters mean what they mean on ``Group.bootstrap``,
        with ``behaviors`` keyed by global node id.  ``ring_shards``
        puts only the first K groups on the initial hash ring, keeping
        the rest as spare capacity for a live :meth:`reshard`.
        """
        manager = ShardManager.create(
            shards=shards, nodes_per_shard=nodes_per_shard, config=config
            or StackConfig.byz(), seed=seed, runtime=runtime,
            topology_cls=topology_cls, net_config=net_config,
            established=established, start=start, behaviors=behaviors,
            ring_shards=ring_shards)
        return cls(manager)

    # ------------------------------------------------------------------
    # surface delegated to the manager
    # ------------------------------------------------------------------
    @property
    def shards(self):
        return len(self.manager.groups)

    @property
    def directory(self):
        return self.manager.directory

    @property
    def config(self):
        return self.manager.config

    @property
    def metrics(self):
        return self.manager.metrics

    @property
    def sim(self):
        return self.manager.sim

    @property
    def group(self):
        """The single group of a ``shards=1`` cluster (the classic
        experiment object, with ``endpoints``, ``crash``, ...)."""
        if len(self.manager.groups) != 1:
            raise ValueError("cluster has %d shards; use .shard_group(s)"
                             % len(self.manager.groups))
        return next(iter(self.manager.groups.values()))

    def shard_group(self, shard):
        return self.manager.group(shard)

    def endpoint(self, shard, node_id):
        return self.manager.endpoint(shard, node_id)

    def route(self, key):
        return self.manager.route(key)

    def run(self, duration, max_events=None):
        return self.manager.run(duration, max_events=max_events)

    def run_until(self, predicate, timeout=5.0, max_events=None):
        return self.manager.run_until(predicate, timeout,
                                      max_events=max_events)

    def run_until_stable_views(self, timeout=5.0):
        return self.manager.run_until_stable_views(timeout)

    def stop(self):
        self.manager.stop()

    def stop_shard(self, shard):
        self.manager.stop_shard(shard)

    # ------------------------------------------------------------------
    # the replicated service on top
    # ------------------------------------------------------------------
    def sharded_rsm(self, phase_timeout=3.0):
        """Attach a :class:`ShardedRSM` (requires ``total_order=True``).

        Memoized: a cluster runs ONE service (replicas own the endpoint
        callbacks), and resharding must move the same replicas clients
        talk to -- ``phase_timeout`` only takes effect on the first call.
        """
        if self._rsm is None:
            self._rsm = ShardedRSM(self.manager,
                                   phase_timeout=phase_timeout)
        return self._rsm

    def resharder(self, phase_timeout=3.0):
        """A non-blocking :class:`ReshardCoordinator` over this cluster's
        service: ``start()`` returns at once and the migration advances
        itself off the shards' ``Applied`` signals as the plane runs."""
        rsm = self.sharded_rsm()
        return ReshardCoordinator(self.manager, rsm.replicas, rsm.applied,
                                  phase_timeout=phase_timeout)

    def reshard(self, shards=None, ring_slots=None, timeout=60.0,
                phase_timeout=3.0):
        """Live-reshard to a new ring; blocks until the migration is done.

        Installs epoch ``e+1`` over ``shards`` groups (and/or a new
        ``ring_slots``), streams every moved key range between shard
        groups as totally-ordered commands, fences + re-routes client
        operations meanwhile, and retires epoch ``e`` once every range
        is acked.  Returns the coordinator (``.state == "done"`` on
        success; on timeout the migration stays resumable via
        ``coordinator.run()``).
        """
        coordinator = self.resharder(phase_timeout=phase_timeout)
        coordinator.start(shards=shards, ring_slots=ring_slots)
        coordinator.run(timeout=timeout)
        return coordinator

    def __repr__(self):
        return "Cluster(shards={}, nodes={})".format(
            self.shards, len(self.manager.shard_of))
