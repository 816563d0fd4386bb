"""The six simulator workloads, as seeded episodes.

An *episode* is one complete pass over a workload: build the cluster and
warm it up (``setup``), drive the measured window (``measure``), let
in-flight operations finish (``drain``), then check the outputs and
summarize what the benchmark saw (``finish``).  A run is several
episodes with sub-seeds derived from ``--seed``; everything an episode
feeds the program (payload tokens, start offsets, key names, the
simulator's own seed) comes from its sub-seed, so the same seed gives
the same inputs and -- the simulator being deterministic -- the same
simulated outputs.

Sizes are fixed per workload; ``scale`` shortens the measured window
(traced passes and the self-test use it).  Ballpark costs on the 2-core
reference box are in :data:`EPISODE_COST_S`.
"""

from __future__ import annotations

import random

from repro import (Cluster, Group, NetworkConfig, ObsConfig, StackConfig,
                   check_virtual_synchrony)
from repro.chaos import ChaosEngine
from repro.shard.chaos import check_key_conservation

from benchmarks.ledger.loadgen import CastLog, SimOpenLoop, SimRing

#: untraced wall seconds of one scale-1 episode on the reference box;
#: the runner sizes a run's episode count from these
EPISODE_COST_S = {
    "ring_sym_n16": 2.8,
    "ring_loss_n16": 2.3,
    "order_classic_n8": 3.9,
    "order_fast_n8": 3.7,
    "churn_n12": 1.5,
    "plane_16x5": 6.0,
}

#: host-speed samples per measured window (see InbandCalibration)
SLICES = 40

#: seeded start offsets stay inside this many simulated seconds: enough
#: to make every timing depend on the seed, too little to move a median
PHASE_JITTER_S = 50e-6


class SimEpisode:
    """Shared plumbing of the simulator episodes."""

    name = None
    drain_s = 0.2

    def __init__(self, seed, scale=1.0, tracer=None):
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.token = "%08x" % self.rng.getrandbits(32)
        self.group = None
        self.log = None
        self.shim = None
        self.calibration = None     # set by the runner while it measures
        self.w0 = self.w1 = None

    # -- helpers -------------------------------------------------------
    def stack_config(self, config):
        """Untraced: the stock config.  Traced: plus the obs plane's
        counters (no obs tracing -- spans come from tracer.py)."""
        if self.tracer is None:
            return config
        return config.clone(obs=ObsConfig(metrics=True, tracing=False))

    def instrument(self, group):
        """Wrap a freshly built group when this episode is traced."""
        tracer = self.tracer
        if tracer is None:
            return
        if self.shim is None:
            self.shim = tracer.observe_clock(group.sim)
            tracer.observe_network(group.network)
        for process in group.processes.values():
            tracer.instrument_process(process)

    def trace_callbacks(self, endpoints):
        """The benchmark's own delivery callbacks get their own row."""
        if self.tracer is not None:
            for endpoint in endpoints:
                endpoint.on_cast = self.tracer.wrap(
                    endpoint.on_cast, "loadgen", "on_cast")

    def run(self, duration):
        """Advance the simulation; inside the measured window, in
        :data:`SLICES` steps with a host-speed sample after each."""
        sim = self.sim
        start = sim.now
        calibration = self.calibration
        steps = SLICES if calibration is not None else 1
        for k in range(1, steps + 1):
            until = start + duration * k / steps
            if self.tracer is None:
                sim.run(until=until)
            else:
                self.tracer.span(lambda: sim.run(until=until),
                                 "sim.scheduler", "run")
            if calibration is not None:
                self.sample_host()

    def sample_host(self):
        if self.tracer is None:
            self.calibration.sample()
        else:
            self.tracer.span(self.calibration.sample, "calibration")

    @property
    def sim(self):
        return self.group.sim

    # -- the episode ---------------------------------------------------
    def setup(self):
        raise NotImplementedError

    def measure(self):
        raise NotImplementedError

    def drain(self):
        self.run(self.drain_s)

    def required(self):
        """Members a cast must reach to count as delivered."""
        return list(self.group.processes)

    def check(self):
        """Output oracle: Definitions 2.1/2.2 on the recorded execution."""
        config = self.group.config
        return check_virtual_synchrony(
            self.group.execution(),
            content_agreement=config.total_order,
            total_order=config.total_order)

    def finish(self):
        summary = self.log.summarize(self.required(), self.w0, self.w1)
        summary["violations"] = self.check()
        summary["facts"] = self.facts()
        return summary

    def facts(self):
        """Program-side counts for the ledger and the determinism digest
        (never used for an end-to-end number)."""
        network = self.group.network
        return {
            "events": self.sim.events_processed,
            "datagrams_sent": network.datagrams_sent,
            "datagrams_dropped": network.datagrams_dropped,
            "sim_now": self.sim.now,
            "pending_peak": self.shim.pending_peak if self.shim else 0,
        }

    def metrics(self):
        return self.group.metrics

    def teardown(self):
        if self.group is not None:
            self.group.stop()


# ----------------------------------------------------------------------
# ring_sym_n16 / ring_loss_n16: closed loop, saturation
# ----------------------------------------------------------------------
class RingEpisode(SimEpisode):
    n = 16
    burst = 16
    warm_s = 0.05
    measure_s = 0.15
    drain_s = 0.1
    drop_prob = 0.0

    def setup(self):
        net = (NetworkConfig(drop_prob=self.drop_prob)
               if self.drop_prob else None)
        self.group = Group.bootstrap(
            self.n, config=self.stack_config(StackConfig.byz(crypto="sym")),
            seed=self.seed, net_config=net)
        self.instrument(self.group)
        self.log = CastLog(lambda sim=self.sim: sim.now, observer=0)
        self.ring = SimRing(self.group, self.log, self.burst, self.token)
        self.trace_callbacks(self.group.endpoints.values())
        self.ring.start({node: self.rng.uniform(0.0, PHASE_JITTER_S)
                         for node in self.group.endpoints})
        self.run(self.warm_s)

    def measure(self):
        self.w0 = self.sim.now
        self.run(self.measure_s * self.scale)
        self.w1 = self.sim.now

    def drain(self):
        self.ring.stopped = True
        self.run(self.drain_s)


class RingSym(RingEpisode):
    name = "ring_sym_n16"


class RingLoss(RingEpisode):
    name = "ring_loss_n16"
    measure_s = 0.6
    drain_s = 0.6
    drop_prob = 0.05


# ----------------------------------------------------------------------
# order_classic_n8 / order_fast_n8: open loop through total ordering
# ----------------------------------------------------------------------
class OrderEpisode(SimEpisode):
    n = 8
    casters = (0, 1, 2, 3)
    interval_s = 0.0033       # off the 2 ms ordering tick on purpose
    warm_s = 0.1
    measure_s = 0.7
    drain_s = 0.2
    fast_path = False

    def setup(self):
        config = StackConfig.byz(crypto="sym", total_order=True,
                                 ordering_fast_path=self.fast_path)
        self.group = Group.bootstrap(self.n, config=self.stack_config(config),
                                     seed=self.seed)
        self.instrument(self.group)
        self.log = CastLog(lambda sim=self.sim: sim.now, observer=self.n - 1)
        for node, endpoint in self.group.endpoints.items():
            self.log.attach(node, endpoint)
        self.trace_callbacks(self.group.endpoints.values())
        self.stop_at = self.warm_s + self.measure_s * self.scale
        phases = [0.0011 * (i + 1) + self.rng.uniform(0.0, PHASE_JITTER_S)
                  for i in range(len(self.casters))]
        self.load = SimOpenLoop(self.group, self.log, self.casters,
                                self.interval_s, phases, self.stop_at,
                                self.token)
        self.run(self.warm_s)

    def measure(self):
        self.w0 = self.sim.now
        self.run(self.stop_at - self.sim.now)
        self.w1 = self.sim.now


class OrderClassic(OrderEpisode):
    name = "order_classic_n8"


class OrderFast(OrderEpisode):
    name = "order_fast_n8"
    fast_path = True


# ----------------------------------------------------------------------
# churn_n12: open loop across four injected membership faults
# ----------------------------------------------------------------------
class Churn(SimEpisode):
    """NoCrypto FIFO stack (the paper's Fig. 8 / Table 1 stack), n = 12.

    Four never-faulted casters cast on schedule *through* a crash, a
    coordinator going mute, a graceful leave and a fresh join, so casts
    due while no view exists are counted.  Victims are picked when the
    fault fires, from the observer's current view, never among the
    casters.  ``scale`` compresses the schedule's time axis.
    """

    name = "churn_n12"
    n = 12
    casters = (8, 9, 10, 11)
    observer = 8
    joiner = 100
    interval_s = 0.012
    cast_from, cast_to, settle_to = 0.1, 4.5, 6.0
    fault_times = (("crash", 0.5), ("mute", 1.5), ("leave", 2.5),
                   ("join", 3.5))
    config_kwargs = {}
    drop_prob = 0.0

    def setup(self):
        config = StackConfig.byz(**self.config_kwargs)
        net = (NetworkConfig(drop_prob=self.drop_prob)
               if self.drop_prob else None)
        self.group = Group.bootstrap(self.n, config=self.stack_config(config),
                                     seed=self.seed, net_config=net)
        self.instrument(self.group)
        self.engine = ChaosEngine.attached(self.group)
        self.faulted = {}            # node -> fault kind
        self.fault_log = []          # (sim time, kind, node)
        self.control_log = []        # (sim time, event) at the observer
        self.view_log = []           # sim times the observer installed views
        self.suspected_ever = set()
        self.joined_at = None
        self.first_joiner_delivery = None
        self.log = CastLog(lambda sim=self.sim: sim.now,
                           observer=self.observer)
        for node, endpoint in self.group.endpoints.items():
            self.log.attach(node, endpoint)
        self.trace_callbacks(self.group.endpoints.values())
        self._tap_observer()
        scale = self.scale
        phases = [self.cast_from * scale + 0.003 * i
                  + self.rng.uniform(0.0, PHASE_JITTER_S)
                  for i in range(len(self.casters))]
        self.load = SimOpenLoop(
            self.group, self.log, self.casters, self.interval_s, phases,
            self.cast_to * scale, self.token,
            alive=lambda node: node not in self.faulted)
        for kind, at in self.fault_times:
            self.sim.schedule_at(at * scale, self._inject, kind)
        self.run(self.cast_from * scale)

    def _tap_observer(self):
        """Record, at the never-faulted observer, when view changes start,
        abort and install, and who was ever suspected (ledger rows
        ``layers.membership.*`` / ``layers.suspicion.*``)."""
        process = self.group.processes[self.observer]
        membership = process.membership
        inner = membership.on_control
        sim = self.sim

        def on_control(event, data):
            if event in ("view-change-started", "view-change-aborted"):
                self.control_log.append((sim.now, event))
            elif event in ("start-view-change", "suspicions-updated"):
                self.suspected_ever.update(data.get("suspected", ()))
            return inner(event, data)

        membership.on_control = on_control
        self.group.endpoints[self.observer].on_view = (
            lambda event: self.view_log.append(sim.now))

    def _inject(self, kind):
        view = self.group.processes[self.observer].view
        if kind == "mute":
            node = view.coordinator
            op = ["byzantine_at", node, "MuteNode", {"mute_at": 0.0}]
        elif kind == "join":
            node = self.joiner
            op = ["join", node]
        else:
            candidates = [m for m in view.mbrs
                          if m not in self.casters and m != view.coordinator
                          and m not in self.faulted]
            if not candidates:
                # the observer's view has already collapsed (only the
                # known-bad probe gets here): nothing left to fault
                self.fault_log.append((self.sim.now, kind + ":skipped", None))
                return
            node = candidates[-1]
            op = [kind, node]
        self.faulted[node] = kind
        self.fault_log.append((self.sim.now, kind, node))
        self.engine.apply(op)
        if kind == "join":
            self._adopt_joiner(node)

    def _adopt_joiner(self, node):
        process = self.group.processes[node]
        if self.tracer is not None:
            self.tracer.instrument_process(process)
        self.joined_at = self.sim.now
        endpoint = self.group.endpoints[node]
        endpoint.record_events = False

        def first_delivery(event):
            if self.first_joiner_delivery is None:
                self.first_joiner_delivery = self.sim.now

        endpoint.on_cast = first_delivery

    def measure(self):
        self.w0 = self.sim.now
        self.run(self.cast_to * self.scale - self.sim.now)
        self.w1 = self.sim.now

    def drain(self):
        self.run(self.settle_to * self.scale - self.sim.now)

    def required(self):
        """Correct throughout and in the view at the end of the run."""
        final = self.group.processes[self.observer].view.mbrs
        return [node for node in final
                if node in self.group.processes and node not in self.faulted]

    def check(self):
        # crashed / left / restarted / Byzantine nodes carry no
        # obligations, exactly as ChaosEngine.check excludes them
        return self.engine.check()

    def facts(self):
        facts = super().facts()
        facts.update({
            "fault_log": [(t, kind, repr(node))
                          for t, kind, node in self.fault_log],
            "control_log": list(self.control_log),
            "view_log": list(self.view_log),
            "false_suspicions": len(
                {n for n in self.suspected_ever if n not in self.faulted}),
            "catchup_s": (self.first_joiner_delivery - self.joined_at
                          if self.first_joiner_delivery is not None
                          and self.joined_at is not None else None),
        })
        return facts


class ChurnOrderProbe(Churn):
    """The known-bad probe (not a workload): the churn schedule with real
    MACs and total ordering at 250 casts/s.  Recorded, never gated."""

    name = "churn_order_n12"
    interval_s = 0.016
    config_kwargs = {"crypto": "sym", "total_order": True}
    drop_prob = 0.02


# ----------------------------------------------------------------------
# plane_16x5: closed-loop client across a live reshard
# ----------------------------------------------------------------------
class Plane(SimEpisode):
    """16 groups of 5 on one scheduler, 12 on the ring; one client sets
    192 keys (warm-up), runs steady increments, keeps issuing while a
    live reshard 12 -> 16 is in flight, then runs some more."""

    name = "plane_16x5"
    shards, nodes_per_shard, ring_shards = 16, 5, 12
    keys = 192
    steady_ops = 600
    after_ops = 300
    drain_s = 0.2

    def setup(self):
        config = self.stack_config(StackConfig.byz(total_order=True))
        self.cluster = Cluster.create(
            shards=self.shards, nodes_per_shard=self.nodes_per_shard,
            config=config, seed=self.seed, ring_shards=self.ring_shards)
        manager = self.manager = self.cluster.manager
        tracer = self.tracer
        if tracer is not None:
            self.shim = tracer.observe_clock(manager.sim)
            tracer.observe_network(manager.network)
            for group in manager.groups.values():
                for process in group.processes.values():
                    tracer.instrument_process(process)
            tracer.wrap_methods(manager, ("run", "run_until"),
                                "sim.scheduler")
            tracer.wrap_methods(manager, ("route",), "shard.directory")
        self.cluster.run_until_stable_views(10.0)
        self.rsm = self.cluster.sharded_rsm()
        self.client = self.rsm.client("ledger-%s" % self.token,
                                      timeout=1.5, attempts=40)
        if tracer is not None:
            tracer.wrap_methods(self.client, ("op",), "shard.rsm")
            for replicas in self.rsm.replicas.values():
                for replica in replicas.values():
                    tracer.wrap_methods(replica.endpoint, ("on_cast",),
                                        "shard.rsm")
        self.key_names = ["%s:%d" % (self.token, i)
                          for i in range(self.keys)]
        self.expected = {}
        self.ops = []                # (phase, issued, completed, status)
        for key in self.key_names:
            status, _ = self.client.set(key, 0)
            if status == "ok":
                self.expected[key] = 0
        self.coordinator = None

    @property
    def sim(self):
        return self.cluster.sim

    def run(self, duration):
        self.manager.run(duration)

    def _ops(self, phase, count, alive=lambda: True):
        sim = self.sim
        issued = 0
        while issued < count and alive():
            key = self.key_names[len(self.ops) % self.keys]
            t0 = sim.now
            status, _ = self.client.op(
                key, ("incr", key, 1), op_id=(self.token, len(self.ops)))
            if status == "ok":
                self.expected[key] = self.expected.get(key, 0) + 1
            self.ops.append((phase, t0, sim.now, status))
            issued += 1
            if self.calibration is not None and not len(self.ops) % 25:
                self.sample_host()

    def measure(self):
        sim = self.sim
        self.w0 = sim.now
        self._ops("steady", int(self.steady_ops * self.scale))
        coordinator = self.coordinator = self.cluster.resharder()
        if self.tracer is not None:
            self.tracer.wrap_methods(coordinator, ("start", "poll"),
                                     "shard.reshard")

        def tick():     # advance the migration while client ops run
            if coordinator.state == "migrating":
                coordinator.poll()
                sim.schedule(0.25, tick)

        sim.schedule(0.25, tick)
        coordinator.start(shards=self.shards)
        self._ops("reshard", 100000,
                  alive=lambda: coordinator.state == "migrating")
        self._ops("after", int(self.after_ops * self.scale))
        self.w1 = sim.now

    def drain(self):
        self.coordinator.run(timeout=30.0)
        self.run(self.drain_s)

    def check(self):
        violations = []
        for shard in sorted(self.manager.groups):
            violations += [
                "shard %d: %s" % (shard, v) for v in check_virtual_synchrony(
                    self.manager.execution(shard), content_agreement=True,
                    total_order=True)]
        if self.coordinator.state != "done":
            violations.append("reshard stuck in %r" % self.coordinator.state)
        # exactly-once: the final counter equals the number of ok
        # increments per key; conservation: every key on exactly one
        # shard, the ring's owner
        violations += check_key_conservation(self.rsm, self.expected)
        return violations

    def finish(self):
        ok = [(t0, t1) for _p, t0, t1, status in self.ops if status == "ok"]
        latencies = sorted(t1 - t0 for t0, t1 in ok)
        # the client is the observer: its longest wait for a completion
        # while the reshard is in flight is its longest single request then
        in_flight = [t1 - t0 for phase, t0, t1, _s in self.ops
                     if phase == "reshard"]
        return {
            "attempted": len(self.ops),
            "delivered": len(ok),
            "completed_in_window": len(ok),
            "window": self.w1 - self.w0,
            "latencies": latencies,
            "gap": max(in_flight, default=0.0),
            "late": [],
            "violations": self.check(),
            "facts": self.facts(len(in_flight)),
        }

    def facts(self, reshard_ops=0):
        network = self.manager.network
        migration = self.coordinator.migration_metrics()
        fenced = sum(self.client.fences.values())
        return {
            "events": self.sim.events_processed,
            "datagrams_sent": network.datagrams_sent,
            "datagrams_dropped": network.datagrams_dropped,
            "sim_now": self.sim.now,
            "pending_peak": self.shim.pending_peak if self.shim else 0,
            "reshard_ops": reshard_ops,
            "fenced": fenced,
            "retries": self.client.retries,
            "migration_s": ((migration["finished_at"]
                             - migration["started_at"])
                            if migration["finished_at"] is not None
                            else None),
            "keys_moved": migration["keys_moved"],
        }

    def metrics(self):
        return self.manager.metrics

    def teardown(self):
        self.cluster.stop()


EPISODES = {cls.name: cls for cls in (RingSym, RingLoss, OrderClassic,
                                      OrderFast, Churn, Plane)}
PROBES = {ChurnOrderProbe.name: ChurnOrderProbe}
