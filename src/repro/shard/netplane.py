"""Live resharding on the asyncio UDP backend.

The sim plane runs migrations through :class:`~repro.shard.manager
.ShardManager`; this module is the net-backend counterpart.  Every node
is a full :class:`~repro.runtime.backend_asyncio.AsyncioRuntime` -- its
own UDP socket, its own wall clock, the unmodified layer stack -- all
sharing one event loop, with each shard an established group scoped by
``group_id`` over the shared localhost bus and a
:class:`~repro.shard.rsm.ShardReplica` bound to every endpoint.

The migration itself is THE SAME state machine as on the simulator: the
plane exposes the manager-shaped surface
:class:`~repro.shard.reshard.ReshardCoordinator` reads (``.sim`` with
``now``/``schedule``, ``.directory``, ``.groups``, plus the replica map
and the ``Applied`` signals), and :func:`run_net_migration` awaits its
state from a coroutine.  Nothing in the epoch seam -- sealing,
install idempotency, fencing, retirement -- is reimplemented for real
time; that is the point of building reconfiguration out of ordinary
totally-ordered commands.

:func:`run_reshard_conformance` is the packaged scenario the net-marked
test and ``python -m repro reshard --net`` both run: boot a plane, seed
keys, migrate while a fenced client keeps writing, then assert key
conservation and exactly-once application -- the same oracle the sim
campaign uses.
"""

from __future__ import annotations

import asyncio
import time

from repro.core.config import StackConfig
from repro.core.endpoint import GroupEndpoint
from repro.runtime.backend_asyncio import AsyncioRuntime, net_profile
from repro.runtime.clock import AsyncioClock
from repro.shard.directory import ShardDirectory
from repro.shard.reshard import ReshardCoordinator
from repro.shard.rsm import Applied, ShardReplica, fence_cleared, op_outcome

#: how often coroutines yield to the loop while watching replica state
POLL_INTERVAL = 0.01


class NetShardPlane:
    """A multi-shard plane on the asyncio backend, one OS process.

    Hosting every node in one process (rather than one process per node
    like the conformance driver) keeps the directory and the replica
    map observable from the coordinator without inventing a control
    protocol -- exactly the trust model of the sim plane, where the
    coordinator is a client with visibility into replica state.  The
    datagrams are still real: one UDP socket per node, every cast on
    the wire.
    """

    def __init__(self, clock, directory, groups, replicas, applied,
                 runtimes, processes, config):
        self.sim = clock               # manager-shaped: .now for pacing
        self.directory = directory
        self.groups = groups           # {shard: (node_id, ...)}
        self.replicas = replicas       # {shard: {node_id: ShardReplica}}
        self.applied = applied         # {shard: Applied}
        self.runtimes = runtimes       # {node_id: AsyncioRuntime}
        self.processes = processes     # {node_id: GroupProcess}
        self.config = config
        self.shard_of = {node: shard
                         for shard, nodes in groups.items()
                         for node in nodes}

    # ------------------------------------------------------------------
    def route(self, key, epoch=None):
        return self.directory.route(key, epoch)

    def live_replica(self, shard):
        # boot_plane fills each shard's dict in node-id order
        for replica in self.replicas[shard].values():
            if not replica.endpoint.process.stopped:
                return replica
        return None

    def machines(self, shard):
        return [replica.machine for replica in self.replicas[shard].values()
                if not replica.endpoint.process.stopped]

    def shard_digests(self, shard):
        return {node_id: replica.state_digest()
                for node_id, replica in self.replicas[shard].items()
                if not replica.endpoint.process.stopped}

    async def until(self, predicate, timeout=5.0):
        """Await ``predicate()`` under a wall deadline; True on success."""
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if predicate():
                return True
            await asyncio.sleep(POLL_INTERVAL)
        return bool(predicate())

    async def until_applied(self, shard, check, timeout=5.0):
        """Await ``check()``, re-evaluated when a replica of ``shard``
        applies something (the shard's signal), not on a poll."""
        signal = self.applied[shard]
        deadline = self.sim.now + timeout
        while not check():
            woken = asyncio.get_running_loop().create_future()

            def wake(woken=woken):
                if not woken.done():
                    woken.set_result(None)
            signal.waiters.append(wake)     # bump() swaps the list: no alias
            try:
                await asyncio.wait_for(woken, deadline - self.sim.now)
            except asyncio.TimeoutError:
                if wake in signal.waiters:  # no bump came to collect it
                    signal.waiters.remove(wake)
                return bool(check())
        return True

    async def views_formed(self, timeout=10.0):
        """Every shard's members agree on the full per-shard view."""
        def formed():
            return all(
                process.view.n == len(self.groups[self.shard_of[node]])
                for node, process in self.processes.items()
                if not process.stopped)
        return await self.until(formed, timeout=timeout)

    def stop(self):
        for process in self.processes.values():
            if not process.stopped:
                process.stop()
        for runtime in self.runtimes.values():
            runtime.close()


async def boot_plane(shards, nodes_per_shard, ring_shards=None, seed=0,
                     config=None, host="127.0.0.1"):
    """Boot ``shards`` established groups over real localhost UDP."""
    from repro.runtime.driver import free_udp_ports
    base = config or StackConfig.byz(total_order=True, crypto="none")
    if not base.total_order:
        raise ValueError("the sharded service requires total_order=True")
    cfg = net_profile(base)
    if ring_shards is None:
        ring_shards = shards
    n_total = shards * nodes_per_shard
    ports = free_udp_ports(n_total, host=host)
    addresses = {node: (host, ports[node]) for node in range(n_total)}
    loop = asyncio.get_event_loop()
    clock = AsyncioClock(loop=loop, seed=seed)   # the plane's own clock:
    # node clocks are per-process (closed by GroupProcess.stop), and the
    # coordinator's pacing reads must survive any node's teardown
    directory = ShardDirectory(ring_shards,
                               ring_slots=cfg.shard.ring_slots,
                               epoch=cfg.shard.epoch)
    groups, replicas, applied, runtimes, processes = {}, {}, {}, {}, {}
    for shard in range(shards):
        node_ids = tuple(range(shard * nodes_per_shard,
                               (shard + 1) * nodes_per_shard))
        groups[shard] = node_ids
        replicas[shard] = {}
        applied[shard] = Applied()
        for node in node_ids:
            runtime = AsyncioRuntime(node, addresses, seed=seed + node,
                                     loop=loop)
            await runtime.open()
            initial = runtime.initial_view(node_ids, established=True)
            process = runtime.spawn_process(cfg, initial_view=initial,
                                            group_id=shard)
            endpoint = GroupEndpoint(process)
            replicas[shard][node] = ShardReplica(
                endpoint, epoch=directory.epoch, applied=applied[shard])
            runtimes[node] = runtime
            processes[node] = process
    for process in processes.values():
        process.start()
    return NetShardPlane(clock, directory, groups, replicas, applied,
                         runtimes, processes, cfg)


# ----------------------------------------------------------------------
# the migration, driven from a coroutine
# ----------------------------------------------------------------------
async def run_net_migration(plane, shards=None, ring_slots=None,
                            phase_timeout=1.0, timeout=30.0):
    """Run one epoch migration on the net plane; returns the coordinator.

    Identical protocol to the simulator path -- same
    :class:`ReshardCoordinator`, same ordered commands, advancing itself
    off the same ``Applied`` signals; this coroutine only watches it.
    """
    coordinator = ReshardCoordinator(plane, plane.replicas, plane.applied,
                                     phase_timeout=phase_timeout)
    coordinator.start(shards=shards, ring_slots=ring_slots)
    await plane.until(lambda: coordinator.state != "migrating", timeout)
    coordinator.stop()      # out of time: abandoned, still resumable
    return coordinator


class NetShardClient:
    """The re-route-and-retry client, asyncio flavour.

    Same rules as :class:`~repro.shard.rsm.ShardClient`: stamp the
    cached epoch into every op envelope, observe the verdict through
    replica state, refresh-and-re-route on ``stale``/``moved``, resubmit
    the SAME op id on ``early``/``wait`` or timeout.
    """

    def __init__(self, plane, name="net-client", timeout=3.0, attempts=40):
        self.plane = plane
        self.name = name
        self.timeout = timeout
        self.attempts = attempts
        self.epoch = plane.directory.epoch
        self._seq = 0
        self.retries = 0
        self.fences = {"stale": 0, "early": 0, "wait": 0, "moved": 0}

    def refresh(self):
        self.epoch = self.plane.directory.epoch
        return self.epoch

    async def op(self, key, sub, op_id=None):
        if op_id is None:
            self._seq += 1
            op_id = (self.name, self._seq)
        attempt = 0
        for _try in range(self.attempts):
            attempt += 1
            if not self.plane.directory.has_epoch(self.epoch):
                self.refresh()
            epoch = self.epoch
            shard = self.plane.route(key, epoch)
            replica = self.plane.live_replica(shard)
            if replica is None:
                await asyncio.sleep(0.1)
                continue
            token = (op_id, attempt)
            replica.submit(("op", op_id, attempt, epoch, key, sub))
            seen = await self.plane.until_applied(
                shard, lambda: self._outcome(shard, op_id, token) is not None,
                timeout=self.timeout)
            if not seen:
                self.retries += 1
                continue
            reason, payload = self._outcome(shard, op_id, token)
            if reason == "ok":
                return ("ok", payload)
            self.fences[reason] = self.fences.get(reason, 0) + 1
            if reason in ("stale", "moved"):
                self.refresh()
            else:   # early / wait: resume when that fence lifts
                await self.plane.until_applied(shard, lambda: fence_cleared(
                    self.plane.machines(shard), reason, epoch, key), 0.05)
        return ("failed", None)

    def _outcome(self, shard, op_id, token):
        return op_outcome(self.plane.machines(shard), op_id, token)

    async def set(self, key, value, **kw):
        return await self.op(key, ("set", key, value), **kw)

    async def incr(self, key, delta=1, **kw):
        return await self.op(key, ("incr", key, delta), **kw)


def key_conservation(plane, expected):
    """The campaign's conservation oracle on the net plane: every key on
    exactly one shard, the ring's owner, at its expected value, with no
    outbox residue."""
    violations = []
    locations = {}
    for shard in sorted(plane.groups):
        machines = plane.machines(shard)
        if not machines:
            violations.append("shard %d has no live replica" % shard)
            continue
        machine = machines[0]
        for token, sealed in machine.outbox.items():
            violations.append("shard %d outbox residue %r (%d keys)"
                              % (shard, token, len(sealed[1])))
        for key in machine.data:
            locations.setdefault(key, []).append(shard)
    for key, value in sorted(expected.items(), key=repr):
        homes = locations.get(key, [])
        if not homes:
            violations.append("key %r lost (on no shard)" % (key,))
            continue
        if len(homes) > 1:
            violations.append("key %r duplicated on shards %r" % (key, homes))
            continue
        owner = plane.route(key)
        if homes[0] != owner:
            violations.append("key %r on shard %d, ring owns it to %d"
                              % (key, homes[0], owner))
        found = plane.machines(homes[0])[0].data.get(key)
        if found != value:
            violations.append("key %r value %r != expected %r"
                              % (key, found, value))
    return violations


# ----------------------------------------------------------------------
# the packaged conformance scenario
# ----------------------------------------------------------------------
async def _conformance(shards, nodes_per_shard, ring_shards, keys, rounds,
                       seed, wall_timeout):
    plane = await boot_plane(shards, nodes_per_shard,
                             ring_shards=ring_shards, seed=seed)
    try:
        formed = await plane.views_formed(timeout=wall_timeout / 2.0)
        if not formed:
            return {"ok": False,
                    "violations": ["shard views never formed"],
                    "migration": None, "fences": {}, "elapsed": None}
        client = NetShardClient(plane, name="conf-%d" % seed)
        key_names = ["net:%d" % i for i in range(keys)]
        expected = {}
        for key in key_names:
            status, _res = await client.set(key, 0)
            if status != "ok":
                return {"ok": False,
                        "violations": ["seed write %r failed" % key],
                        "migration": None, "fences": dict(client.fences),
                        "elapsed": None}
            expected[key] = 0

        # the migration and the write workload run CONCURRENTLY on the
        # loop: increments race the epoch seam exactly as in the sim test
        async def workload():
            for round_no in range(rounds):
                for key in key_names:
                    op_id = ("net-inc", seed, key, round_no)
                    status, _res = await client.incr(key, op_id=op_id)
                    if status != "ok":
                        return ["op %r failed" % (op_id,)]
                    expected[key] += 1
            return []

        migration, op_failures = await asyncio.gather(
            run_net_migration(plane, shards=shards, timeout=wall_timeout),
            workload())
        violations = list(op_failures)
        if migration.state != "done":
            violations.append("migration stuck in %r" % migration.state)
        if len(plane.directory.epochs()) != 1:
            violations.append("stale epochs not retired: %r"
                              % (plane.directory.epochs(),))
        violations += key_conservation(plane, expected)
        # replicas of every shard converge on one digest, epoch included
        for shard in sorted(plane.groups):
            converged = await plane.until(
                lambda shard=shard: len(set(
                    plane.shard_digests(shard).values())) == 1,
                timeout=5.0)
            if not converged:
                violations.append("shard %d digests diverge: %r"
                                  % (shard, plane.shard_digests(shard)))
        metrics = migration.migration_metrics()
        return {"ok": not violations, "violations": violations,
                "migration": metrics, "fences": dict(client.fences),
                "resubmits": migration.resubmits}
    finally:
        plane.stop()


def run_reshard_conformance(shards=2, nodes_per_shard=3, ring_shards=1,
                            keys=12, rounds=2, seed=0, wall_timeout=30.0):
    """Boot a real-UDP plane, migrate under concurrent writes, check the
    conservation + exactly-once oracle.  Returns a report dict with
    ``ok``/``violations``/``migration``/``fences``/``elapsed``."""
    from repro.runtime.backend_asyncio import install_uvloop
    install_uvloop()
    started = time.monotonic()
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    try:
        report = loop.run_until_complete(_conformance(
            shards, nodes_per_shard, ring_shards, keys, rounds, seed,
            wall_timeout))
    finally:
        loop.close()
    report["elapsed"] = time.monotonic() - started
    report["backend"] = "net"
    report["seed"] = seed
    return report
