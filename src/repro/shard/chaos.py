"""Chaos over the sharded plane: fault plans with live resharding.

The single-group :class:`~repro.chaos.engine.ChaosEngine` drives one
``Group``; :class:`ShardChaosEngine` is that engine driving a
:class:`~repro.shard.Cluster` by GLOBAL node id -- the same handlers for
the same op vocabulary (crash / restart / partition / heal / link
faults), plus the op that justifies its existence, ``reshard_at``: start
a live epoch migration mid-plan so every subsequent fault lands while
key ranges are in flight.

:func:`run_reshard_campaign` is the acceptance harness (the CI
``reshard-smoke`` leg and ``python -m repro reshard``): per seed it
builds a plane, runs an exactly-once increment workload *through* a
random fault plan with a mid-run reshard, settles, finishes the
migration, and then asserts the three things a reconfiguration must
never break:

* **per-shard virtual synchrony** -- Definitions 2.1/2.2 checked on each
  shard group's execution (crashed/left/restarted nodes excluded, as in
  the single-group campaigns);
* **key conservation** -- every written key lives on exactly ONE shard
  (no outbox residue, no duplicates, current-ring placement);
* **exactly-once application** -- each key's counter equals the number
  of distinct increments issued for it: a lost update reads low, a
  doubled one reads high.  Client retries reuse the same op id, so the
  dedup tables -- not luck -- carry this through crashes, partitions,
  and the epoch seam.
"""

from __future__ import annotations

from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import RESHARD_OPS, random_plan
from repro.core.config import StackConfig
from repro.core.properties import check_virtual_synchrony
from repro.shard.cluster import Cluster
from repro.shard.reshard import ReshardCoordinator


class ShardChaosEngine(ChaosEngine):
    """:class:`ChaosEngine` over a sharded cluster, by GLOBAL node id.

    The op handlers, the link-fault tables and ``lift_faults`` are the
    single-group engine's, driving the :class:`ShardManager` where that
    engine drives a ``Group``.  What is added is what only a plane has:
    node ids resolve through their shard, crash/leave respect a PER-SHARD
    quorum floor -- the generator's floor only knows the global node
    count, and chaos that silently kills a whole shard would turn every
    liveness assertion into noise -- a restarted member gets its replica
    back, and ``reshard_at`` starts a live migration that every later op
    (and every ``run``) keeps pumping.
    """

    def __init__(self, cluster, plan=None):
        super().__init__(plan=plan, group=cluster.manager)
        self.cluster = cluster
        self.manager = cluster.manager
        self.rsm = cluster.sharded_rsm()
        self.coordinators = []     # every migration started by reshard_at
        self._active = None        # the one currently in flight
        self.mid_migration_ops = 0  # fault ops applied while it was

    # ------------------------------------------------------------------
    def apply(self, op):
        if (self._active is not None
                and op[0] not in ("cast", "run", "reshard_at")):
            self.mid_migration_ops += 1     # what the campaign is for
        super().apply(op)
        self.pump()

    def pump(self):
        """Advance any in-flight migration as far as state allows."""
        if self._active is not None:
            if self._active.poll() == "done":
                self._active = None

    def run_slices(self, duration, slice_=0.25):
        """``manager.run`` in slices, pumping the migration between
        slices so coordinator progress interleaves with fault delivery."""
        remaining = duration
        while remaining > 0:
            step = min(slice_, remaining)
            self.manager.run(step)
            remaining -= step
            self.pump()

    # -- shard-aware lookups and guards ----------------------------------
    def _group_of(self, node):
        shard = self.manager.shard_of.get(node)
        return None if shard is None else self.manager.groups[shard]

    def _may_lose(self, node):
        # the same convention as random_plan's quorum floor, per shard:
        # crash-stops are benign (the view change evicts them), but the
        # membership machinery needs a surviving supermajority to agree
        processes = self._group_of(node).processes
        live = sum(1 for p in processes.values() if not p.stopped)
        return live - 1 >= max(3, (2 * len(processes)) // 3)

    # -- ops that differ on a plane --------------------------------------
    def _op_run(self, duration):
        self.run_slices(duration)

    def _op_restart(self, node):
        super()._op_restart(node)
        # the fresh incarnation needs a replica bound to its new endpoint
        # (with the state installer the snapshot merge feeds)
        self.rsm.rebind()

    def _op_join(self, node_id):
        """Mid-run joins are single-group semantics; no-op on the plane
        (a fresh global node has no shard assignment to merge into)."""

    def _op_skew(self, node, drift):
        """Clock skew needs construction-time NodeClocks; no-op here."""

    def _op_reshard_at(self, delta=1):
        """Start a live reshard NOW; faults applied after this op land
        mid-migration.  Tolerant: a migration already in flight, or a
        plane with nowhere to grow/shrink, makes this a no-op."""
        if self._active is not None:
            return
        current = self.manager.directory.ring().shards
        target = max(1, min(len(self.manager.groups), current + delta))
        if target == current:
            target = max(1, min(len(self.manager.groups), current - delta))
        if target == current:
            return
        # no Applied signals: pump() steps it, faults land BETWEEN steps
        coordinator = ReshardCoordinator(self.manager, self.rsm.replicas)
        coordinator.start(shards=target)
        self.coordinators.append(coordinator)
        self._active = coordinator

    # ------------------------------------------------------------------
    def settle(self, duration=3.0, migration_timeout=30.0):
        """Lift faults, finish any in-flight migration, then drain."""
        self.lift_faults()
        for coordinator in self.coordinators:
            deadline = self.manager.sim.now + migration_timeout
            while (coordinator.poll() == "migrating"
                   and self.manager.sim.now < deadline):
                self.manager.run(0.25)
        self._active = None
        self.manager.run_until_stable_views(timeout=max(duration, 5.0))
        self.run_slices(duration)

    def check(self):
        """Defs 2.1/2.2 per shard; returns violation strings."""
        violations = []
        gone = self.crashed | self.left | self.restarted
        for shard in sorted(self.manager.groups):
            execution = self.manager.execution(shard)
            for node in gone:
                execution.correct.discard(node)
            config = self.manager.groups[shard].config
            for violation in check_virtual_synchrony(
                    execution, content_agreement=config.total_order,
                    total_order=config.total_order):
                violations.append("shard %d: %s" % (shard, violation))
        return violations


def check_key_conservation(rsm, expected):
    """Assert every expected key lives on exactly one shard.

    ``expected`` maps key -> expected value.  Returns violation strings:
    missing keys (lost), multi-homed keys (duplicated), outbox residue
    (migration never retired), wrong placement (not on the current
    ring's owner), and wrong values (lost/doubled updates).
    """
    manager = rsm.manager
    violations = []
    locations = {}
    for shard in sorted(manager.groups):
        machines = rsm.machines(shard)
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
            violations.append("key %r duplicated on shards %r"
                              % (key, homes))
            continue
        owner = manager.route(key)
        if homes[0] != owner:
            violations.append("key %r on shard %d, ring owns it to %d"
                              % (key, homes[0], owner))
        found = rsm.machines(homes[0])[0].data.get(key)
        if found != value:
            violations.append("key %r value %r != expected %r"
                              % (key, found, value))
    return violations


def run_reshard_campaign(seeds=(0, 1, 2), shards=4, nodes_per_shard=4,
                         ring_shards=None, keys=24, rounds=4, plan_ops=14,
                         config=None, verbose=False):
    """The acceptance campaign: exactly-once increments through a random
    fault plan with a mid-run reshard, per seed.  Returns a report dict;
    ``report["failures"]`` is empty on a clean campaign.
    """
    results = []
    for seed in seeds:
        results.append(_one_reshard_run(
            seed, shards=shards, nodes_per_shard=nodes_per_shard,
            ring_shards=ring_shards, keys=keys, rounds=rounds,
            plan_ops=plan_ops, config=config, verbose=verbose))
    failures = [r for r in results if r["violations"]]
    return {"seeds": list(seeds), "results": results,
            "failures": [r["seed"] for r in failures],
            "ok": not failures}


def _one_reshard_run(seed, shards, nodes_per_shard, ring_shards, keys,
                     rounds, plan_ops, config, verbose):
    config = config or StackConfig.byz(total_order=True)
    if ring_shards is None:
        ring_shards = max(1, shards - 1)
    cluster = Cluster.create(shards=shards, nodes_per_shard=nodes_per_shard,
                             seed=seed, ring_shards=ring_shards,
                             config=config)
    try:
        cluster.run_until_stable_views(10.0)
        rsm = cluster.sharded_rsm()
        client = rsm.client("campaign-%d" % seed)
        key_names = ["key:%d" % i for i in range(keys)]

        plan = random_plan(seed, n=shards * nodes_per_shard, ops=plan_ops,
                           allow=RESHARD_OPS, byzantine_fraction=0.0)
        ops = [op for op in plan.ops if op[0] != "byzantine"]
        if not any(op[0] == "reshard_at" for op in ops):
            # the campaign exists to attack the epoch seam: guarantee one
            ops.insert(len(ops) // 2, ["reshard_at", 1])

        engine = ShardChaosEngine(cluster, plan=plan)
        unfinished = []   # (key, op_id) of timed-out ops to drive home

        def increment_round(round_no):
            for key in key_names:
                op_id = ("inc", seed, key, round_no)
                status, _res = client.op(key, ("incr", key, 1), op_id=op_id,
                                         timeout=1.0, attempts=3)
                if status != "ok":
                    unfinished.append((key, op_id))
                engine.pump()

        # interleave: a full increment round, then a burst of fault ops
        per_burst = max(1, len(ops) // max(rounds, 1))
        cursor = 0
        for round_no in range(rounds):
            increment_round(round_no)
            for op in ops[cursor:cursor + per_burst]:
                engine.apply(op)
            cursor += per_burst
        for op in ops[cursor:]:
            engine.apply(op)

        engine.settle(duration=3.0)
        # drive every timed-out op to completion with its ORIGINAL op id:
        # dedup makes this exactly-once even if the first submission also
        # survived somewhere in the retransmit machinery
        for key, op_id in unfinished:
            status, _res = client.op(key, ("incr", key, 1), op_id=op_id,
                                     timeout=2.0, attempts=10)
            if status != "ok":
                return {"seed": seed, "violations":
                        ["op %r never completed" % (op_id,)],
                        "migrations": [c.migration_metrics()
                                       for c in engine.coordinators]}
        engine.settle(duration=2.0)

        violations = engine.check()
        expected = {key: rounds for key in key_names}
        violations += check_key_conservation(rsm, expected)
        resharded = [c for c in engine.coordinators if c.state == "done"]
        for coordinator in engine.coordinators:
            if coordinator.state != "done":
                violations.append("migration to epoch %r stuck in %s"
                                  % (coordinator.epoch, coordinator.state))
        if len(cluster.directory.epochs()) != 1:
            violations.append("stale epochs not retired: %r"
                              % (cluster.directory.epochs(),))
        report = {"seed": seed, "violations": violations,
                  "plan_digest": plan.digest(),
                  "reshards": len(resharded),
                  "crashed": sorted(engine.crashed | engine.restarted),
                  "mid_migration_ops": engine.mid_migration_ops,
                  "migration_ms": sum(
                      (c.metrics["finished_at"] - c.metrics["started_at"])
                      * 1000.0 for c in resharded),
                  "migrations": [c.migration_metrics()
                                 for c in engine.coordinators]}
        if verbose:
            print("seed %d: %s (%d reshards, %d violations; migration "
                  "%.1f ms, %d fault ops mid-migration)"
                  % (seed, "FAIL" if violations else "ok",
                     len(resharded), len(violations),
                     report["migration_ms"], engine.mid_migration_ops))
        return report
    finally:
        cluster.stop()
