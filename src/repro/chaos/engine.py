"""The chaos engine: executes :class:`~repro.chaos.plan.FaultPlan` ops.

Two halves:

* :class:`LinkFaults` -- the per-link packet mangler the network consults
  for every datagram once installed on ``Network.chaos``.  It draws from
  its OWN seeded RNG, never the simulator's, so installing a fault plan
  does not perturb the network's frozen draw order (see the determinism
  contract in :class:`repro.sim.network.Network`).
* :class:`ChaosEngine` -- builds the cluster a plan describes (Byzantine
  behaviors and clock skew must be wired at construction; everything else
  is applied live) and executes the plan's op script against it.

Tolerant op semantics: an op whose target is missing, already crashed,
already restarted, etc. is silently a no-op.  The delta-debugging shrinker
relies on this -- every subset of a failing plan's ops must itself be a
runnable plan.
"""

from __future__ import annotations

import random

from repro.byzantine import behaviors as behavior_library
from repro.core.config import StackConfig
from repro.core.group import Group
from repro.core.message import Message
from repro.core.properties import check_virtual_synchrony
from repro.sim.network import NetworkConfig
from repro.sim.scheduler import SimulationError

#: seed salt so the fault RNG never mirrors the simulator RNG stream
_FAULT_SEED_SALT = 0x5EEDC4A0


class LinkFaults:
    """Per-link drop / corrupt / duplicate tables, wildcard-capable.

    Tables are keyed ``(src, dst)`` where either side may be ``None``
    (wildcard); the most specific matching entries are all consulted and
    the highest probability wins.  ``filter`` is the ``Network.chaos``
    hook: it returns ``(payload, extra_copies, dropped)``.
    """

    __slots__ = ("rng", "_drop", "_corrupt", "_duplicate",
                 "dropped", "corrupted", "duplicated")

    KINDS = ("drop", "corrupt", "duplicate")

    def __init__(self, rng=None):
        self.rng = rng or random.Random(_FAULT_SEED_SALT)
        self._drop = {}
        self._corrupt = {}
        self._duplicate = {}
        self.dropped = 0
        self.corrupted = 0
        self.duplicated = 0

    def _table(self, kind):
        if kind not in self.KINDS:
            raise ValueError("unknown link fault kind %r" % (kind,))
        return getattr(self, "_" + kind)

    def set_fault(self, kind, src, dst, prob):
        table = self._table(kind)
        if prob:
            table[(src, dst)] = prob
        else:
            table.pop((src, dst), None)

    def clear(self):
        self._drop.clear()
        self._corrupt.clear()
        self._duplicate.clear()

    @property
    def active(self):
        return bool(self._drop or self._corrupt or self._duplicate)

    @staticmethod
    def _prob(table, src, dst):
        best = 0.0
        for key in ((src, dst), (src, None), (None, dst), (None, None)):
            prob = table.get(key, 0.0)
            if prob > best:
                best = prob
        return best

    # ------------------------------------------------------------------
    def filter(self, src, dst, payload):
        """Decide this datagram's fate; called once per unicast send.

        RNG draws are gated on each table being non-empty, so a plan's
        replay is deterministic: the same op script yields the same draw
        sequence regardless of how the tables were populated.
        """
        rng = self.rng
        if self._drop:
            prob = self._prob(self._drop, src, dst)
            if prob and rng.random() < prob:
                self.dropped += 1
                return payload, 0, True
        if self._corrupt:
            prob = self._prob(self._corrupt, src, dst)
            # only plain Messages are mangled: a flipped bit in a packed
            # container would fail Python-level unpacking rather than
            # model wire corruption of one message's bytes
            if prob and rng.random() < prob and isinstance(payload, Message):
                bad = payload.clone_for(payload.dest)
                # the payload setter invalidates the memoized auth token,
                # so the receiver recomputes a digest that no longer
                # matches the (untouched) signature -- exactly what bit
                # rot does to a signed packet
                bad.payload = ("corrupted", payload.payload)
                payload = bad
                self.corrupted += 1
        extra = 0
        if self._duplicate:
            prob = self._prob(self._duplicate, src, dst)
            if prob and rng.random() < prob:
                extra = 1
                self.duplicated += 1
        return payload, extra, False


class ChaosEngine:
    """Builds and drives one cluster according to a fault plan."""

    def __init__(self, plan=None, group=None, event_budget=None):
        self.plan = plan
        self.group = group
        seed = plan.seed if plan is not None else 0
        self.faults = LinkFaults(random.Random(seed ^ _FAULT_SEED_SALT))
        self.crashed = set()
        self.left = set()
        self.restarted = set()   # ever crash-restarted (see check())
        self._degraded = set()   # nodes with a non-1.0 NIC factor
        self._skewed = set()     # nodes with a non-1.0 clock drift
        #: hard cap on total simulator events for this engine's lifetime;
        #: exhausting it mid-run sets ``stalled`` instead of raising, which
        #: is how a run reports a livelock (a protocol that spins
        #: forever burns its budget without ever going quiet)
        self.event_budget = event_budget
        self.stalled = False
        #: sim-seconds from fault clearance to stable views, measured by
        #: :meth:`settle_measured`; ``None`` until measured or on timeout
        self.recovery_time = None

    @classmethod
    def attached(cls, group):
        """Wrap an already-built cluster, for callers that build their own
        group and drive it op by op (the ledger's churn workloads, the
        reshard tests' one-group twin of a sharded plane).

        Build-time ops (``byzantine``, ``skew``) are inert in this mode:
        behaviors and node clocks can only be wired at construction, which
        the caller has already done.
        """
        return cls(plan=None, group=group)

    # ------------------------------------------------------------------
    # cluster construction
    # ------------------------------------------------------------------
    def build(self):
        """Materialize the plan's cluster (idempotent).

        ``byzantine`` and ``skew`` ops are scanned out of the script here
        because behaviors and per-node clocks must exist before the stack
        starts: layers cache their timer source at attach, and a behavior
        activates in ``process.start()``.  The runtime op application is
        then a no-op for ``byzantine`` and a drift *change* for ``skew``.
        """
        if self.group is not None:
            return self.group
        plan = self.plan
        behaviors = {}
        drift = {}
        for op in plan.ops:
            if op[0] == "byzantine" and len(op) >= 3:
                node = op[1]
                factory = getattr(behavior_library, str(op[2]), None)
                params = op[3] if len(op) > 3 and isinstance(op[3], dict) \
                    else {}
                if (factory is not None and isinstance(node, int)
                        and 0 <= node < plan.n and node not in behaviors):
                    try:
                        behaviors[node] = factory(**params)
                    except TypeError:
                        pass   # unknown params: tolerate, run benign
            elif op[0] == "skew" and len(op) >= 2:
                node = op[1]
                if isinstance(node, int) and 0 <= node < plan.n:
                    # pre-install a NodeClock at neutral drift: the skew
                    # op only *changes* the factor at its scripted time
                    drift.setdefault(node, 1.0)
        config = StackConfig(**plan.config) if plan.config \
            else StackConfig.byz()
        net = NetworkConfig(**plan.net) if plan.net else None
        self.group = Group.bootstrap(plan.n, config=config, seed=plan.seed,
                                     net_config=net, behaviors=behaviors,
                                     clock_drift=drift)
        return self.group

    def _ensure_faults_installed(self):
        # lazy: a plan with no link-fault ops leaves Network.chaos None,
        # keeping such runs byte-identical to pre-chaos builds
        if self.group.network.chaos is not self.faults:
            self.group.network.chaos = self.faults

    # ------------------------------------------------------------------
    # op dispatch
    # ------------------------------------------------------------------
    def apply(self, op):
        handler = getattr(self, "_op_" + str(op[0]), None)
        if handler is None:
            raise ValueError("unknown chaos op %r" % (op[0],))
        handler(*op[1:])

    def _group_of(self, node):
        """The :class:`Group` ``node`` belongs to (running or not), or None
        for a stranger.  One group here; the sharded engine answers per
        shard."""
        return self.group if node in self.group.processes else None

    def _process_of(self, node):
        """``node``'s live process, or None (stranger, crashed, stopped)."""
        group = self._group_of(node)
        if group is None or group.processes[node].stopped:
            return None
        return group.processes[node]

    def _may_lose(self, node):
        """Whether a crash or leave of ``node`` may go ahead.  Always, on
        one group (the plan generator's quorum floor already counted its
        nodes); the sharded engine holds a floor per shard."""
        return True

    def _budget_run(self, duration):
        """``group.run`` capped by the remaining event budget.

        On exhaustion the run stops where it is and ``stalled`` latches;
        callers treat the partial run like any other -- the checker still
        judges whatever history was produced.
        """
        if self.event_budget is None:
            self.group.run(duration)
            return
        remaining = self.event_budget - self.group.sim.events_processed
        if remaining <= 0:
            self.stalled = True
            return
        try:
            self.group.run(duration, max_events=remaining)
        except SimulationError:
            self.stalled = True

    def _op_cast(self, sender, count):
        process = self._process_of(sender)
        if process is None:
            return
        endpoint = process.endpoint
        for k in range(count):
            endpoint.cast((sender, "fz", k))

    def _op_run(self, duration):
        self._budget_run(duration)

    def _op_crash(self, node):
        if self._process_of(node) is None or not self._may_lose(node):
            return
        self.group.crash(node)
        self.crashed.add(node)

    def _op_restart(self, node):
        if node not in self.crashed:
            return
        self.crashed.discard(node)
        self.restarted.add(node)
        self.group.restart(node)

    def _op_leave(self, node):
        process = self._process_of(node)
        if process is None or node in self.left or not self._may_lose(node):
            return
        process.endpoint.leave()
        self.left.add(node)

    def _op_join(self, node_id):
        if isinstance(node_id, list):
            node_id = tuple(node_id)   # JSON round-trip of tuple ids
        if node_id in self.group.processes:
            return
        self.group.add_node(node_id)

    def _op_partition(self, components):
        seen = set()
        sides = []
        for component in components:
            side = set()
            for node in component:
                if isinstance(node, list):
                    node = tuple(node)
                if self._group_of(node) is not None and node not in seen:
                    seen.add(node)
                    side.add(node)
            if side:
                sides.append(side)
        self.group.partition(*sides)

    def _op_heal(self):
        self.group.heal()

    def _op_byzantine(self, node, name, params=None):
        """Inert at runtime: behaviors are wired in :meth:`build`."""

    def _op_byzantine_at(self, node, name, params=None):
        """Turn a live, so-far-honest node Byzantine *mid-run*.

        Unlike build-time ``byzantine`` ops this needs no construction
        hook: :meth:`BottomLayer._transmit` reads ``process.behavior``
        fresh on every send, and behaviors schedule their attacks with
        relative delays, so install + start works at any sim time.  A node
        that already has a behavior keeps it (first gene wins, which makes
        the op idempotent under ddmin subsetting).
        """
        process = self._process_of(node)
        if process is None or process.behavior is not None:
            return
        factory = getattr(behavior_library, str(name), None)
        if factory is None or not (isinstance(factory, type)
                                   and issubclass(
                                       factory,
                                       behavior_library.ByzantineBehavior)):
            return
        try:
            behavior = factory(**(params or {}))
        except TypeError:
            return   # unknown params: tolerate, stay benign
        process.behavior = behavior
        behavior.install(process)
        self._group_of(node).byzantine_nodes.add(node)
        behavior.start()

    def _op_drop(self, src, dst, prob):
        self._ensure_faults_installed()
        self.faults.set_fault("drop", src, dst, prob)

    def _op_corrupt(self, src, dst, prob):
        self._ensure_faults_installed()
        self.faults.set_fault("corrupt", src, dst, prob)

    def _op_duplicate(self, src, dst, prob):
        self._ensure_faults_installed()
        self.faults.set_fault("duplicate", src, dst, prob)

    def _op_nic(self, node, factor):
        if self._group_of(node) is None:
            return
        try:
            self.group.network.degrade_nic(node, factor)
        except KeyError:
            return   # detached port
        if factor == 1.0:
            self._degraded.discard(node)
        else:
            self._degraded.add(node)

    def _op_skew(self, node, drift):
        clock = self.group.clocks.get(node)
        if clock is None:
            return   # attached mode, or node was never scheduled for skew
        clock.drift = drift
        if drift == 1.0:
            self._skewed.discard(node)
        else:
            self._skewed.add(node)

    def _op_clear_faults(self):
        self.faults.clear()

    def _op_reshard_at(self, delta=1):
        """Only a sharded plane can reshard
        (:class:`repro.shard.chaos.ShardChaosEngine` overrides this); on
        one group the op is a tolerant no-op, keeping every plan
        ddmin-shrinkable."""

    # ------------------------------------------------------------------
    # whole-plan execution
    # ------------------------------------------------------------------
    def run(self, settle=2.0):
        """Build the cluster, apply every op, then settle."""
        self.build()
        for op in self.plan.ops:
            self.apply(op)
        self.settle(settle)
        return self

    def lift_faults(self):
        """Clear every standing environment fault (links, partitions,
        NIC degradation, clock skew) without running the simulator."""
        self.faults.clear()
        self.group.heal()
        for node in sorted(self._degraded, key=repr):
            try:
                self.group.network.degrade_nic(node, 1.0)
            except KeyError:
                pass
        self._degraded.clear()
        for node in sorted(self._skewed, key=repr):
            clock = self.group.clocks.get(node)
            if clock is not None:
                clock.drift = 1.0
        self._skewed.clear()

    def settle(self, duration=2.0):
        """Lift every standing fault and let the protocols converge.

        The Definitions 2.1/2.2 properties are checked on runs that end
        in a calm network -- eventual-synchrony convergence is part of the
        model, so campaigns judge safety after the storm, not during it.
        """
        self.lift_faults()
        if duration:
            self._budget_run(duration)

    def settle_measured(self, timeout=5.0, drain=1.0):
        """Settle while timing the recovery: lift all faults, run until
        every live correct node holds the same view, then drain.

        Returns the sim-seconds from fault clearance to view stability
        (also latched on ``recovery_time``), or ``None`` if stability was
        not reached inside ``timeout`` / the event budget.  The trailing
        ``drain`` run lets reliable-layer retransmissions finish so the
        delivery-set checks judge a quiescent history.
        """
        self.lift_faults()
        sim = self.group.sim
        t0 = sim.now
        max_events = None
        if self.event_budget is not None:
            max_events = self.event_budget - sim.events_processed
            if max_events <= 0:
                self.stalled = True
                return None
        try:
            stable = self.group.run_until(
                self._views_stable, timeout, max_events=max_events)
        except SimulationError:
            self.stalled = True
            return None
        if stable:
            self.recovery_time = sim.now - t0
        if drain:
            self._budget_run(drain)
        return self.recovery_time

    def _views_stable(self):
        # gracefully-departed nodes idle forever in a terminal singleton
        # view; they are not part of the group the cluster converges to
        live = [p for p in self.group._live_correct()
                if p.node_id not in self.left]
        if not live:
            return True
        vids = {p.view.vid for p in live}
        mbrs = {p.view.mbrs for p in live}
        return len(vids) == 1 and len(mbrs) == 1

    def check(self):
        """Safety-check the recorded execution; returns violation strings."""
        execution = self.group.execution()
        # a crash or leave mid-run ends that node's obligations.  A node
        # that was crash-RESTARTED stays excluded too: per Definitions
        # 2.1/2.2 a process that crashed is faulty for the whole
        # execution, and the rebooted incarnation is a *new* process --
        # counting it correct lets view changes that happened while it
        # was down read as missing installations (a soak-campaign false
        # positive: crash, two churn-driven views before eviction,
        # restart, and the fresh history "never installed" those views)
        for node in self.crashed | self.left | self.restarted:
            execution.correct.discard(node)
        config = self.group.config
        opts = self.plan.check if self.plan is not None else {}
        return check_virtual_synchrony(
            execution,
            content_agreement=opts.get("content_agreement",
                                       config.total_order),
            total_order=opts.get("total_order", config.total_order))


def run_plan(plan, settle=2.0, event_budget=None, measure_recovery=False):
    """Execute one plan start-to-finish; returns ``(violations, engine)``.

    With ``event_budget`` the whole run (ops + settle) is capped at that
    many simulator events; exhaustion latches ``engine.stalled`` rather
    than raising.  With ``measure_recovery`` the settle phase times how
    long the cluster takes to re-stabilize (``engine.recovery_time``).
    """
    engine = ChaosEngine(plan, event_budget=event_budget)
    try:
        engine.build()
        for op in plan.ops:
            engine.apply(op)
        if measure_recovery:
            engine.settle_measured(timeout=max(settle, 1.0))
        else:
            engine.settle(settle)
        violations = engine.check()
    finally:
        if engine.group is not None:
            engine.group.stop()
    return violations, engine
