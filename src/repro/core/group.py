"""Cluster builder: spin up n daemons on one simulated network.

This is the experiment harness every test, example, and benchmark uses.
``Group.bootstrap`` creates the simulator, the network (BladeCenter
topology by default, matching the paper's testbed), the key manager, and
one :class:`GroupProcess` + :class:`GroupEndpoint` per node.

With ``established=True`` (the default) all nodes start inside one common
view -- the steady state the paper measures from.  With
``established=False`` every node boots in its own singleton view and the
gossip/merge machinery must assemble the group, which is how the join
path is exercised.
"""

from __future__ import annotations

from repro.core.config import StackConfig
from repro.core.endpoint import GroupEndpoint
from repro.core.history import Execution
from repro.core.message import MAX_INCARNATION
from repro.core.process import GroupProcess
from repro.core.view import View, ViewId, singleton_view
from repro.crypto.keys import KeyManager
from repro.obs import ObservabilityPlane
from repro.runtime.interface import SimRuntime
from repro.sim.clock import NodeClock


class Group:
    """A simulated cluster of group-communication daemons.

    Built by :meth:`bootstrap` or :meth:`on_runtime` (or
    ``Cluster.create``); the constructor only stores what those assembled.
    """

    def __init__(self, sim, network, processes, endpoints, config,
                 keys=None, obs=None, runtime=None):
        self.sim = sim
        self.network = network
        self.runtime = runtime        # the Runtime these seams came from
        self.processes = processes    # {node_id: GroupProcess}
        self.endpoints = endpoints    # {node_id: GroupEndpoint}
        self.config = config
        self.keys = keys or KeyManager()
        self.obs = obs                # ObservabilityPlane, or None
        self.group_id = None          # shard tag on a shared runtime
        self.byzantine_nodes = set()
        self.clocks = {}              # node_id -> NodeClock (skewed nodes)
        # (node_id, incarnation, History) of pre-restart incarnations --
        # kept for debugging; deliberately NOT part of execution(): the
        # property checkers constrain correct processes, and a crashed
        # incarnation's obligations ended at its crash
        self.retired = []

    @staticmethod
    def _make_obs(sim, network, config):
        """Build and install the observability plane when configured."""
        if not config.obs:
            return None
        plane = ObservabilityPlane(sim, config.obs)
        sim.observer = plane
        network.observer = plane
        return plane

    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(cls, n, config=None, seed=0, topology_cls=None,
                  net_config=None, behaviors=None, established=True,
                  start=True, node_ids=None, clock_drift=None):
        """Create and (optionally) start a cluster of ``n`` nodes.

        Parameters
        ----------
        behaviors:
            ``{node_id: ByzantineBehavior}`` -- fault-injection plan.
        established:
            Start all nodes in one common view (True) or in singleton
            views that must merge (False).
        clock_drift:
            ``{node_id: drift}`` -- give these nodes a
            :class:`~repro.sim.clock.NodeClock` whose relative timer
            delays are scaled by ``drift`` (chaos clock-skew fault).
        """
        config = config or StackConfig.byz()
        runtime = SimRuntime(n, seed=seed, topology_cls=topology_cls,
                             net_config=net_config)
        if node_ids is None:
            node_ids = list(range(n))
        # the one-shard special case of the shared-runtime builder: same
        # construction order (obs, keys, view, processes in node_ids
        # order), so seed-pinned single-group histories are unchanged
        return cls.on_runtime(runtime, node_ids, config=config,
                              behaviors=behaviors, established=established,
                              start=start, clock_drift=clock_drift)

    @classmethod
    def on_runtime(cls, runtime, node_ids, config=None, keys=None, obs=None,
                   behaviors=None, established=True, start=True,
                   group_id=None, clock_drift=None):
        """Build one group over an existing (possibly shared) sim runtime.

        This is the multi-group entry point :class:`repro.shard.ShardManager`
        uses: several groups attach to ONE runtime's clock/network, each
        tagged with ``group_id`` (stamped into every signed message and
        scoping the gossip channel), sharing one ``keys`` manager's
        pairwise-key cache and one observability plane.  With the defaults
        (private keys, obs built from the config, ``group_id=None``) it is
        exactly the classic single-group bootstrap.
        """
        config = config or StackConfig.byz()
        sim = runtime.sim
        network = runtime.network
        if obs is None:
            obs = cls._make_obs(sim, network, config)
        if keys is None:
            keys = KeyManager()
        behaviors = behaviors or {}
        clock_drift = clock_drift or {}
        members = tuple(node_ids)
        n = len(members)
        f = config.resilience(n)
        common = View(ViewId(1, members[0]), members, f=f,
                      underprovisioned=(f == 0 and config.byzantine))
        processes = {}
        endpoints = {}
        clocks = {}
        for node_id in node_ids:
            initial = common if established else singleton_view(node_id)
            clock = None
            if node_id in clock_drift:
                clock = NodeClock(sim, clock_drift[node_id])
                clocks[node_id] = clock
            process = GroupProcess(sim, network, node_id, config, keys,
                                   initial, behavior=behaviors.get(node_id),
                                   obs=obs, clock=clock, group_id=group_id)
            processes[node_id] = process
            endpoints[node_id] = GroupEndpoint(process)
        group = cls(sim, network, processes, endpoints, config, keys=keys,
                    obs=obs, runtime=runtime)
        group.group_id = group_id
        group.byzantine_nodes = set(behaviors)
        group.clocks = clocks
        if start:
            group.start()
        return group

    def start(self):
        for process in self.processes.values():
            process.start()

    def stop(self):
        """Halt every member AND release this group's shared-runtime
        resources: each process's stop cancels its own timers, and the
        per-group transport registrations are detached so a ShardManager
        can stop one shard without leaking ports on the runtime the other
        shards keep using (``crash()`` alone would leave the dead ports
        in every gossip iteration forever)."""
        for process in self.processes.values():
            process.stop()
        for node_id in self.processes:
            self.network.detach(node_id)

    # ------------------------------------------------------------------
    # driving the simulation
    # ------------------------------------------------------------------
    def run(self, duration, max_events=None):
        """Advance the cluster ``duration`` simulated seconds."""
        return self.sim.run(until=self.sim.now + duration,
                            max_events=max_events)

    def run_until(self, predicate, timeout=5.0, max_events=None):
        return self.sim.run_until(predicate, timeout, max_events=max_events)

    def run_until_stable_views(self, timeout=5.0):
        """Run until every live correct node has installed the same view."""
        def settled():
            vids = {p.view.vid for p in self._live_correct()}
            mbrs = {p.view.mbrs for p in self._live_correct()}
            return len(vids) == 1 and len(mbrs) == 1
        return self.run_until(settled, timeout)

    def _live_correct(self):
        return [p for node, p in self.processes.items()
                if not p.stopped and node not in self.byzantine_nodes]

    # ------------------------------------------------------------------
    # observability (repro.obs)
    # ------------------------------------------------------------------
    @property
    def metrics(self):
        """The cluster-wide MetricsRegistry, or None when obs is off."""
        return self.obs.metrics if self.obs is not None else None

    def trace(self, msg_id):
        """The recorded cross-node span of ``msg_id`` (see endpoint.trace)."""
        if self.obs is None or self.obs.tracer is None:
            raise RuntimeError(
                "message tracing is disabled; bootstrap with "
                "StackConfig(obs=True) or obs=ObsConfig(tracing=True)")
        return self.obs.tracer.get(msg_id)

    def export_obs(self, path):
        """Write the metrics+traces artifact of this run as JSON."""
        if self.obs is None:
            raise RuntimeError(
                "observability is disabled; bootstrap with "
                "StackConfig(obs=True) to collect an artifact")
        return self.obs.export_json(path)

    # ------------------------------------------------------------------
    # observation helpers
    # ------------------------------------------------------------------
    def views(self):
        return {node: p.view for node, p in self.processes.items()}

    def common_view(self):
        """The single view all live correct nodes share, or None."""
        live = self._live_correct()
        if not live:
            return None
        views = {p.view for p in live}
        if len(views) == 1:
            return live[0].view
        return None

    def execution(self):
        """Snapshot the run as an :class:`Execution` for property checks."""
        histories = {node: p.history for node, p in self.processes.items()}
        correct = set(self.processes) - self.byzantine_nodes
        return Execution(histories, correct=correct)

    def add_node(self, node_id, behavior=None, start=True):
        """Spawn a new node mid-run, in its own singleton view.

        This is the paper's *join* path: the newcomer establishes a
        singleton view (Horus/Ensemble style), its gossip is heard by the
        established group's members, and the merge machinery folds it in.
        """
        if node_id in self.processes:
            raise ValueError("node %r already exists" % (node_id,))
        process = GroupProcess(self.sim, self.network, node_id, self.config,
                               self.keys, singleton_view(node_id),
                               behavior=behavior, obs=self.obs,
                               group_id=self.group_id)
        endpoint = GroupEndpoint(process)
        self.processes[node_id] = process
        self.endpoints[node_id] = endpoint
        if behavior is not None:
            self.byzantine_nodes.add(node_id)
        if start:
            process.start()
        return endpoint

    def crash(self, node_id):
        """Crash-stop a node (the benign special case of Byzantine)."""
        self.processes[node_id].stop()

    def restart(self, node_id, behavior=None, start=True):
        """Reboot a crashed node as a fresh incarnation that rejoins.

        The new process boots in a *singleton view with counter 0* (a
        reboot is a cold start, exactly like ``add_node``): its view id is
        smaller than the running group's, so gossip discovery makes it the
        requesting side of the merge and state flows *to* it through the
        state-transfer layer.  The incarnation number is bumped so the
        bottom layer of every peer rejects stragglers sent by the dead
        incarnation instead of replaying them into the fresh stack.
        Rejoin only proceeds once the group has evicted the crashed member
        (the merge guards refuse overlapping memberships), which the
        failure detectors drive on their own.
        """
        old = self.processes[node_id]
        if old.incarnation >= MAX_INCARNATION:
            # a higher incarnation would not fit a cast id (is_cast_id)
            raise OverflowError(f"node {node_id} is at incarnation "
                                f"{old.incarnation}, the last one")
        if not old.stopped:
            old.stop()
        self.network.detach(node_id)   # free the port for the new process
        self.retired.append((node_id, old.incarnation, old.history))
        self.byzantine_nodes.discard(node_id)
        # the fresh incarnation keeps the group tag: a rebooted shard
        # member must rejoin ITS shard's gossip scope, not the global one
        process = GroupProcess(self.sim, self.network, node_id, self.config,
                               self.keys, singleton_view(node_id),
                               behavior=behavior, obs=self.obs,
                               incarnation=old.incarnation + 1,
                               clock=self.clocks.get(node_id),
                               group_id=self.group_id)
        endpoint = GroupEndpoint(process)
        self.processes[node_id] = process
        self.endpoints[node_id] = endpoint
        if behavior is not None:
            self.byzantine_nodes.add(node_id)
        if start:
            process.start()
        return endpoint

    def partition(self, *component_groups):
        """Split the network into the given connectivity components."""
        self.network.set_components([set(g) for g in component_groups])

    def heal(self):
        self.network.heal()
