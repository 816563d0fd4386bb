"""Oblivious datagram network (paper section 2.1).

The network is driven by a *scheduler* that controls message timing, may
drop or reorder a random, content-oblivious subset of messages, and decides
at each moment which nodes are connected.  Connectivity is a symmetric and
transitive relation, which we enforce by representing it as a partition of
the node set into components.

Two communication primitives are provided, mirroring the system:

* :meth:`Network.send` -- point-to-point unreliable datagram (UDP model);
  the sender's NIC serializes the bytes, so per-node outgoing bandwidth is
  finite and shared-NIC placements contend.
* :meth:`Network.gossip_cast` -- the IP-multicast discovery channel used by
  coordinators to announce their view; it reaches every *connected* process
  regardless of group membership.
"""

from __future__ import annotations


def _independent_copy(payload):
    """A fresh datagram image for a duplicated delivery.

    The simulator passes live ``Message`` objects where a real network
    carries byte copies.  Delivering the *same* object twice is wrong:
    the first delivery pops layer headers in place, so the replayed
    object arrives header-stripped and the receiver misreads a benign
    network duplicate as a malformed (Byzantine) message.  Cloning the
    message restores wire semantics: every delivery is an independent
    image of what was sent.
    """
    if hasattr(payload, "clone_for"):
        return payload.clone_for(payload.dest)
    return payload


class NetworkConfig:
    """Tunable loss/latency behaviour of the oblivious scheduler."""

    __slots__ = ("drop_prob", "reorder_prob", "reorder_extra", "jitter",
                 "duplicate_prob")

    def __init__(self, drop_prob=0.0, reorder_prob=0.0, reorder_extra=400e-6,
                 jitter=4e-6, duplicate_prob=0.0):
        self.drop_prob = drop_prob
        self.reorder_prob = reorder_prob
        self.reorder_extra = reorder_extra
        self.jitter = jitter
        self.duplicate_prob = duplicate_prob


class Nic:
    """Serializes outgoing datagrams at a fixed bandwidth."""

    __slots__ = ("sim", "bandwidth_bps", "overhead_bytes", "busy_until",
                 "bytes_sent", "packets_sent")

    def __init__(self, sim, bandwidth_bps, overhead_bytes):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.overhead_bytes = overhead_bytes
        self.busy_until = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0

    def transmit(self, nbytes):
        """Queue ``nbytes`` onto the wire; returns serialization-done time."""
        wire_bytes = nbytes + self.overhead_bytes
        tx_time = wire_bytes * 8.0 / self.bandwidth_bps
        start = max(self.sim.now, self.busy_until)
        self.busy_until = start + tx_time
        self.bytes_sent += wire_bytes
        self.packets_sent += 1
        return self.busy_until


class Cpu:
    """A node's processor: work is charged sequentially onto it."""

    __slots__ = ("sim", "busy_until", "busy_accum")

    def __init__(self, sim):
        self.sim = sim
        self.busy_until = 0.0
        self.busy_accum = 0.0

    def charge(self, seconds):
        """Account ``seconds`` of CPU work; returns its completion time."""
        start = max(self.sim.now, self.busy_until)
        self.busy_until = start + seconds
        self.busy_accum += seconds
        return self.busy_until


class _Port:
    """Internal record of an attached node."""

    __slots__ = ("node_id", "deliver", "gossip_deliver", "nic", "crashed",
                 "group")

    def __init__(self, node_id, deliver, gossip_deliver, nic, group=None):
        self.node_id = node_id
        self.deliver = deliver
        self.gossip_deliver = gossip_deliver
        self.nic = nic
        self.crashed = False
        # shard plane (repro.shard): the group this port belongs to, or
        # None for a single-group network.  Gossip is scoped to the
        # port's own group -- the discovery channel must not leak view
        # announcements across shards, or the merge machinery would try
        # to fold independent groups into one.
        self.group = group


class Network:
    """The simulated network connecting all nodes of an experiment.

    Determinism contract (docs/PERFORMANCE.md): every random decision in
    :meth:`send` and :meth:`gossip_cast` draws from the simulator-owned RNG
    in a fixed order -- connectivity check first, then drop, jitter,
    reorder, duplicate.  The *order and number of draws* is part of the
    seed contract: reordering them (e.g. drawing drop before the
    connectivity check) changes every subsequent draw and thus the whole
    simulated history, even though each run would still be internally
    deterministic.  Optimizations here must not add, remove, or reorder
    draws.
    """

    __slots__ = ("sim", "topology", "config", "_ports", "_nics",
                 "_component", "datagrams_sent", "datagrams_dropped",
                 "datagrams_delivered", "observer", "chaos")

    def __init__(self, sim, topology, config=None):
        self.sim = sim
        self.topology = topology
        self.config = config or NetworkConfig()
        self._ports = {}
        self._nics = {}
        self._component = {}
        self.datagrams_sent = 0
        self.datagrams_dropped = 0
        self.datagrams_delivered = 0
        # optional observability hook (repro.obs): None (the default)
        # costs one branch per datagram
        self.observer = None
        # optional per-link fault injector (repro.chaos.LinkFaults): draws
        # from its OWN RNG, never the simulator's, so installing it does
        # not perturb the frozen draw order above -- and None (the
        # default) costs one branch per datagram
        self.chaos = None

    # ------------------------------------------------------------------
    # membership of the physical network
    # ------------------------------------------------------------------
    def attach(self, node_id, deliver, gossip_deliver=None, group=None):
        """Plug a node in.  ``deliver(src, payload)`` is its datagram sink.

        ``group`` tags the port for the shard plane: gossip from this
        node reaches only same-group ports (None = the single-group
        network, where every port sees every cast, unchanged).
        """
        if node_id in self._ports:
            raise ValueError("node %r already attached" % (node_id,))
        nic_id = self.topology.nic_id(node_id)
        nic = self._nics.get(nic_id)
        if nic is None:
            nic = Nic(self.sim, self.topology.nic_bandwidth_bps,
                      self.topology.per_packet_overhead_bytes)
            self._nics[nic_id] = nic
        port = _Port(node_id, deliver, gossip_deliver, nic, group=group)
        self._ports[node_id] = port
        self._component.setdefault(node_id, 0)
        return port

    def detach(self, node_id):
        self._ports.pop(node_id, None)
        self._component.pop(node_id, None)

    def crash(self, node_id):
        """Silence a node entirely (the 'crash' failure of section 2.2)."""
        port = self._ports.get(node_id)
        if port is not None:
            port.crashed = True

    def nic_of(self, node_id):
        port = self._ports.get(node_id)
        if port is not None:
            return port.nic
        # the NIC is physical and shared (blade placements): it outlives
        # any one port's attachment, e.g. post-teardown inspection after
        # Group.stop released the group's transport registrations
        return self._nics[self.topology.nic_id(node_id)]

    def degrade_nic(self, node_id, factor):
        """Scale a node's NIC bandwidth (chaos fault: a flaky or
        autonegotiated-down link).  ``factor=1.0`` restores line rate.
        Nodes sharing a blade (n > 24) share the degradation, as they
        would share the physical NIC."""
        nic = self._ports[node_id].nic
        nic.bandwidth_bps = self.topology.nic_bandwidth_bps * factor

    # ------------------------------------------------------------------
    # connectivity (symmetric + transitive by construction)
    # ------------------------------------------------------------------
    def set_components(self, groups):
        """Partition the nodes: each set in ``groups`` is one component.

        Nodes not named in any group become isolated singletons.
        """
        new = {}
        for idx, group in enumerate(groups):
            for node in group:
                if node in new:
                    raise ValueError("node %r in two components" % (node,))
                new[node] = idx
        next_idx = len(groups)
        for node in self._component:
            if node not in new:
                new[node] = next_idx
                next_idx += 1
        self._component = new

    def heal(self):
        """Reconnect everything into one component."""
        self._component = {node: 0 for node in self._component}

    def connected(self, a, b):
        if a == b:
            return True
        ca = self._component.get(a)
        cb = self._component.get(b)
        return ca is not None and ca == cb

    # ------------------------------------------------------------------
    # datagram primitives
    # ------------------------------------------------------------------
    def send(self, src, dst, size_bytes, payload):
        """Unreliable unicast datagram of ``size_bytes`` from src to dst."""
        self.datagrams_sent += 1
        observer = self.observer
        src_port = self._ports.get(src)
        dst_port = self._ports.get(dst)
        if src_port is None or src_port.crashed:
            self.datagrams_dropped += 1
            return
        sent_at = src_port.nic.transmit(size_bytes)
        if observer is not None:
            observer.on_datagram_sent(src, dst, size_bytes, payload)
        if dst_port is None or dst_port.crashed or not self.connected(src, dst):
            self.datagrams_dropped += 1
            if observer is not None:
                observer.on_datagram_dropped(src, dst)
            return
        # see the class docstring: the RNG draw order below is frozen
        config = self.config
        rng_random = self.sim.rng.random
        if config.drop_prob and rng_random() < config.drop_prob:
            self.datagrams_dropped += 1
            if observer is not None:
                observer.on_datagram_dropped(src, dst)
            return
        delay = self.topology.latency(src, dst)
        if config.jitter:
            delay += rng_random() * config.jitter
        if config.reorder_prob and rng_random() < config.reorder_prob:
            delay += rng_random() * config.reorder_extra
        arrival = sent_at + delay
        schedule_at = self.sim.schedule_at
        chaos = self.chaos
        if chaos is not None:
            # after the frozen draws above, so the main RNG stream is
            # byte-identical whether or not a fault plan is installed
            payload, extra, chaos_dropped = chaos.filter(src, dst, payload)
            if chaos_dropped:
                self.datagrams_dropped += 1
                if observer is not None:
                    observer.on_datagram_dropped(src, dst)
                return
            for k in range(extra):
                schedule_at(arrival + (k + 1) * delay, self._deliver,
                            dst, src, _independent_copy(payload))
        schedule_at(arrival, self._deliver, dst, src, payload)
        if config.duplicate_prob and rng_random() < config.duplicate_prob:
            schedule_at(arrival + delay, self._deliver, dst, src,
                        _independent_copy(payload))

    def gossip_cast(self, src, size_bytes, payload):
        """IP-multicast announcement reaching every connected process."""
        src_port = self._ports.get(src)
        if src_port is None or src_port.crashed:
            return
        sent_at = src_port.nic.transmit(size_bytes)
        if self.observer is not None:
            self.observer.on_gossip_sent(src, size_bytes)
        # iterate the port table directly instead of materializing a list
        # per cast: deliveries are deferred through schedule_at, so nothing
        # in this loop can attach/detach a port mid-iteration.  The
        # connectivity check stays BEFORE the drop draw -- disconnected
        # receivers consume no RNG draw, and moving the check would shift
        # every later draw in the run (see the class docstring)
        config = self.config
        rng_random = self.sim.rng.random
        group = src_port.group
        for node_id, port in self._ports.items():
            if node_id == src or port.crashed or port.gossip_deliver is None:
                continue
            # shard scoping sits with the other pre-draw filters: a
            # cross-group receiver consumes no RNG draw (exactly like a
            # disconnected one), so an all-None single-group network
            # draws the identical stream it always did
            if port.group != group:
                continue
            if not self.connected(src, node_id):
                continue
            if config.drop_prob and rng_random() < config.drop_prob:
                continue
            delay = self.topology.latency(src, node_id)
            if config.jitter:
                delay += rng_random() * config.jitter
            self.sim.schedule_at(sent_at + delay, self._deliver_gossip,
                                 node_id, src, payload)

    # ------------------------------------------------------------------
    def _deliver(self, dst, src, payload):
        port = self._ports.get(dst)
        if port is None or port.crashed:
            self.datagrams_dropped += 1
            return
        self.datagrams_delivered += 1
        if self.observer is not None:
            self.observer.on_datagram_delivered(dst, src, payload)
        port.deliver(src, payload)

    def _deliver_gossip(self, dst, src, payload):
        port = self._ports.get(dst)
        if port is None or port.crashed or port.gossip_deliver is None:
            return
        if self.observer is not None:
            self.observer.on_gossip_delivered(dst, src)
        port.gossip_deliver(src, payload)
