"""ShardManager: N independent groups over ONE shared runtime.

Where the classic ``Group.bootstrap`` owns a private simulator, network,
and key manager, the manager builds a single :class:`SimRuntime` and
attaches every shard's processes to it:

* one clock/event heap -- shard histories interleave deterministically
  under one seed;
* one network -- every port carries its shard's group id, gossip is
  scoped per group (a view announcement can never leak into another
  shard's merge machinery), and the bottom layer stamps the group id
  into every signed message so a cross-shard replay fails
  authentication;
* one :class:`KeyManager` -- pairwise keys are derived once per node
  pair across all shards (node ids are globally unique: shard ``s``
  owns the contiguous block ``[s*k, (s+1)*k)``);
* one observability plane -- metrics stay keyed by node, and the
  manager's ``shard_of`` map projects them into per-shard namespaces.
"""

from __future__ import annotations

from repro.core.config import StackConfig
from repro.core.group import Group
from repro.crypto.keys import KeyManager
from repro.runtime.interface import SimRuntime
from repro.shard.directory import ShardDirectory
from repro.sim.topology import FlatGigE


class ShardManager:
    """Runs ``shards`` independent groups on one shared runtime."""

    def __init__(self, runtime, groups, directory, config, keys, obs=None):
        self.runtime = runtime
        self.sim = runtime.sim
        self.network = runtime.network
        self.groups = groups          # {shard_id: Group}
        self.directory = directory
        self.config = config
        self.keys = keys
        self.obs = obs
        #: node_id -> shard_id, the projection obs and routing share
        self.shard_of = {node: shard
                         for shard, group in groups.items()
                         for node in group.processes}

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, shards=None, nodes_per_shard=None, config=None, seed=0,
               runtime=None, topology_cls=None, net_config=None,
               established=True, start=True, behaviors=None,
               ring_shards=None):
        """Build the whole plane.

        Parameters
        ----------
        shards, nodes_per_shard:
            Plane shape; default from ``config.shard``, so
            ``StackConfig(shard=ShardConfig(shards=64))`` and
            ``create(shards=64)`` are the same request.
        runtime:
            An existing :class:`SimRuntime` to attach to (it must have
            ports for ``shards * nodes_per_shard`` nodes); None builds
            one.  The default topology is :class:`FlatGigE` -- the
            service plane models a datacenter fabric, not the paper's
            25-blade testbed (pass ``topology_cls`` to override).
        behaviors:
            ``{node_id: ByzantineBehavior}`` by *global* node id.
        """
        config = config or StackConfig.byz()
        if shards is None:
            shards = config.shard.shards
        if nodes_per_shard is None:
            nodes_per_shard = config.shard.nodes_per_shard
        if shards < 1 or nodes_per_shard < 1:
            raise ValueError("need at least one shard of one node")
        n_total = shards * nodes_per_shard
        if runtime is None:
            runtime = SimRuntime(n_total, seed=seed,
                                 topology_cls=topology_cls or FlatGigE,
                                 net_config=net_config)
        # the initial ring may cover only the first ring_shards groups,
        # leaving spares for a live scale-out reshard to grow onto
        if ring_shards is None:
            ring_shards = config.shard.ring_shards
        if ring_shards is None:
            ring_shards = shards
        if not 1 <= ring_shards <= shards:
            raise ValueError("ring_shards=%r outside 1..%d"
                             % (ring_shards, shards))
        directory = ShardDirectory(ring_shards,
                                   ring_slots=config.shard.ring_slots,
                                   epoch=config.shard.epoch)
        obs = Group._make_obs(runtime.sim, runtime.network, config)
        keys = KeyManager()
        behaviors = behaviors or {}
        groups = {}
        for shard in range(shards):
            node_ids = list(range(shard * nodes_per_shard,
                                  (shard + 1) * nodes_per_shard))
            groups[shard] = Group.on_runtime(
                runtime, node_ids, config=config, keys=keys, obs=obs,
                behaviors={n: b for n, b in behaviors.items()
                           if n in node_ids},
                established=established, start=False, group_id=shard)
        manager = cls(runtime, groups, directory, config, keys, obs=obs)
        if start:
            manager.start()
        return manager

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        for shard in sorted(self.groups):
            self.groups[shard].start()

    def stop(self):
        """Stop every shard; each group releases its runtime resources."""
        for shard in sorted(self.groups):
            self.groups[shard].stop()

    def stop_shard(self, shard):
        """Stop ONE shard; the others keep running on the shared runtime
        (the teardown-release fix in ``Group.stop`` is what makes this
        leak-free: ports are detached, not just marked crashed)."""
        self.groups[shard].stop()

    # ------------------------------------------------------------------
    # fault surface by GLOBAL node id (the shard chaos engine's hooks)
    # ------------------------------------------------------------------
    def group_of(self, node_id):
        """The :class:`Group` a global node id belongs to."""
        return self.groups[self.shard_of[node_id]]

    def crash(self, node_id):
        self.group_of(node_id).crash(node_id)

    def restart(self, node_id):
        return self.group_of(node_id).restart(node_id)

    def partition(self, *component_groups):
        """Split the SHARED network into connectivity components (global
        node ids; a component may span shards)."""
        self.network.set_components([set(g) for g in component_groups])

    def heal(self):
        self.network.heal()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, key, epoch=None):
        """The shard id owning ``key``."""
        return self.directory.route(key, epoch=epoch)

    def group_for(self, key):
        """The :class:`Group` owning ``key``."""
        return self.groups[self.route(key)]

    def group(self, shard):
        return self.groups[shard]

    def endpoint(self, shard, node_id):
        return self.groups[shard].endpoints[node_id]

    def endpoints(self, shard):
        return self.groups[shard].endpoints

    def node_ids(self, shard):
        return sorted(self.groups[shard].processes)

    # ------------------------------------------------------------------
    # driving the (shared) simulation
    # ------------------------------------------------------------------
    def run(self, duration, max_events=None):
        return self.sim.run(until=self.sim.now + duration,
                            max_events=max_events)

    def run_until(self, predicate, timeout=5.0, max_events=None):
        return self.sim.run_until(predicate, timeout, max_events=max_events)

    def run_until_stable_views(self, timeout=5.0):
        """Run until every shard's live correct members agree on a view."""
        def settled():
            for group in self.groups.values():
                live = group._live_correct()
                if not live:
                    continue
                if len({p.view.vid for p in live}) != 1:
                    return False
                if len({p.view.mbrs for p in live}) != 1:
                    return False
            return True
        return self.run_until(settled, timeout)

    # ------------------------------------------------------------------
    # fault injection (repro.chaos) -- the engine draws from its own RNG,
    # so installing faults never perturbs the shared simulator stream
    # ------------------------------------------------------------------
    def install_link_faults(self, specs, seed=None):
        """Install per-link faults from ``[(kind, src, dst, prob), ...]``.
        Node ids are global, so a plan naming only one shard's nodes is
        confined to that shard by construction."""
        import random

        from repro.chaos.engine import LinkFaults
        faults = self.network.chaos
        if faults is None:
            rng = None if seed is None else random.Random(seed)
            faults = LinkFaults(rng=rng)
            self.network.chaos = faults
        for kind, src, dst, prob in specs:
            faults.set_fault(kind, src, dst, prob)
        return faults

    # ------------------------------------------------------------------
    # observability: per-shard projections of the shared metric registry
    # ------------------------------------------------------------------
    @property
    def metrics(self):
        return self.obs.metrics if self.obs is not None else None

    def shard_metrics(self, shard, layer=None, name=None):
        """This shard's slice of the shared registry (its namespace)."""
        if self.metrics is None:
            return {}
        return self.metrics.select_nodes(self.node_ids(shard), layer=layer,
                                         name=name)

    def shard_total(self, shard, name, layer=None):
        """Sum of counter ``name`` over one shard's members."""
        if self.metrics is None:
            return 0
        return self.metrics.total_nodes(self.node_ids(shard), name,
                                        layer=layer)

    def shard_histogram(self, shard, name, layer=None):
        """Pooled histogram ``name`` over one shard's members."""
        if self.metrics is None:
            return None
        return self.metrics.merged_histogram_nodes(self.node_ids(shard),
                                                   name, layer=layer)

    def key_stats(self):
        """The shared KeyManager's derivation/cache counters."""
        return self.keys.stats()

    def execution(self, shard):
        """The per-shard :class:`Execution` for the property checkers --
        Defs 2.1/2.2 are PER GROUP, so each shard is checked on its own."""
        return self.groups[shard].execution()

    def __repr__(self):
        return "ShardManager(shards={}, nodes={}, now={:.6f})".format(
            len(self.groups), len(self.shard_of), self.sim.now)
