"""The cross-backend join/multicast/leave workload.

One declarative :class:`NetWorkload` drives both runtimes through the
*same* script, via the same :class:`NodeScript` per node:

1. every node boots in its own singleton view (a real cluster cannot
   assume a synchronized boot), and the gossip/merge machinery must
   assemble the common view;
2. when a node first installs the full n-member view it schedules its
   ``casts_per_node`` multicasts, one every ``cast_gap`` seconds;
3. if a *later* full view is installed (some member raced through a
   join fallback and re-merged), every node re-casts its own messages
   and receivers dedupe by ``(origin, index)`` -- the standard
   view-synchronous application idiom for messages that a late joiner
   can never retroactively receive;
4. the designated ``leaver`` (optional) announces a polite leave once it
   has delivered everyone's casts, and the group reconfigures around it.

Because the script only touches the public endpoint surface
(``on_view``/``on_cast`` callbacks, ``cast``, ``leave``) plus the
clock's ``schedule``, it is backend-agnostic by construction -- the
conformance test then asserts that the simulator execution and the
asyncio-UDP execution both satisfy Definitions 2.1/2.2 and agree on the
final view composition and on per-sender delivery order.
"""

from __future__ import annotations

from repro.core.history import content_digest
from repro.core.properties import check_virtual_synchrony
from repro.runtime.report import NodeReport, execution_from_reports


class NetWorkload:
    """Declarative parameters of one join/multicast/leave run."""

    __slots__ = ("n", "casts_per_node", "cast_gap", "payload_bytes",
                 "leaver", "deadline", "linger")

    def __init__(self, n=5, casts_per_node=3, cast_gap=0.05,
                 payload_bytes=16, leaver=None, deadline=8.0, linger=0.5):
        self.n = n
        self.casts_per_node = casts_per_node
        self.cast_gap = cast_gap
        self.payload_bytes = payload_bytes
        self.leaver = leaver          # node id, or None for no leave phase
        self.deadline = deadline      # per-node give-up horizon (seconds)
        self.linger = linger          # settle time after the script is done
        if leaver is not None and not 0 <= leaver < n:
            raise ValueError("leaver %r outside the %d-node cluster"
                             % (leaver, n))

    @property
    def expected_deliveries(self):
        """Cast deliveries each node owes: everyone's casts, own included."""
        return self.n * self.casts_per_node

    def to_jsonable(self):
        return {"n": self.n, "casts_per_node": self.casts_per_node,
                "cast_gap": self.cast_gap, "payload_bytes": self.payload_bytes,
                "leaver": self.leaver, "deadline": self.deadline,
                "linger": self.linger}

    @classmethod
    def from_jsonable(cls, obj):
        return cls(**obj)

    def __repr__(self):
        return ("NetWorkload(n=%d, casts=%d, leaver=%r)"
                % (self.n, self.casts_per_node, self.leaver))


class NodeScript:
    """Runs one node's side of the workload over the endpoint surface."""

    def __init__(self, workload, endpoint, clock):
        self.workload = workload
        self.endpoint = endpoint
        self.clock = clock
        self.me = endpoint.node_id
        self.formed_at = None         # clock time the full view appeared
        self.done_at = None
        self.sent = 0
        self.delivered = 0            # unique (origin, index) deliveries
        self.recasts = 0
        self.left = False
        self.left_at = None
        self._casts_scheduled = False
        self._cast_vid = None         # vid the casts were (re-)issued under
        self._delivered_ids = set()   # {(origin, index)} dedupe for re-casts
        endpoint.on_view = self._on_view
        endpoint.on_cast = self._on_cast

    # ------------------------------------------------------------------
    def _on_view(self, event):
        if len(event.view.mbrs) != self.workload.n:
            return
        if not self._casts_scheduled:
            self.formed_at = self.clock.now
            self._casts_scheduled = True
            self._cast_vid = event.view.vid
            for index in range(self.workload.casts_per_node):
                self.clock.schedule(index * self.workload.cast_gap,
                                    self._cast_one, index)
        elif event.view.vid != self._cast_vid and not self.left:
            # a LATER full view: someone joined late (e.g. via the join
            # fallback) and missed casts delivered in the earlier view.
            # View synchrony never redelivers across a view boundary, so
            # the application re-sends; receivers dedupe.
            self._cast_vid = event.view.vid
            self.recasts += 1
            for index in range(self.workload.casts_per_node):
                self.clock.schedule(index * self.workload.cast_gap,
                                    self._cast_one, index)

    def _cast_one(self, index):
        if self.endpoint.process.stopped or self.left:
            return
        self.endpoint.cast(("wl", self.me, index),
                           size=self.workload.payload_bytes)
        self.sent += 1

    def _on_cast(self, event):
        key = workload_cast_key(event.payload)
        if key is not None:
            if key in self._delivered_ids:
                return                # duplicate via an application re-cast
            self._delivered_ids.add(key)
        self.delivered += 1
        if (self.me == self.workload.leaver and not self.left
                and self.delivered >= self.workload.expected_deliveries):
            # heard everyone's casts: depart politely one gap later (the
            # delay lets the last delivery's acks drain first)
            self.clock.schedule(self.workload.cast_gap, self._leave)

    def _leave(self):
        if self.left or self.endpoint.process.stopped:
            return
        self.left = True
        self.left_at = self.clock.now
        self.endpoint.leave()

    # ------------------------------------------------------------------
    def script_complete(self):
        """This node's side of the script has fully played out.

        NOT monotonic: a survivor is complete only while its installed
        view is exactly the expected survivor set, so a post-completion
        membership wobble (e.g. a member evicted after missing a view
        install, then re-merged) flips it back to False until gossip
        heals the group -- the node runner re-waits on exactly that."""
        if self.formed_at is None or self.sent < self.workload.casts_per_node:
            return False
        if self.delivered < self.workload.expected_deliveries:
            return False
        leaver = self.workload.leaver
        if self.me == leaver:
            if not self.left:
                return False
        else:
            expected = set(range(self.workload.n))
            if leaver is not None:
                expected.discard(leaver)
            if set(self.endpoint.view.mbrs) != expected:
                return False
        return True

    def peers_live(self):
        """Every co-member's heartbeats are fresh.

        A member whose heartbeats have gone stale while still in our view
        is wedged in an older view (it missed the install, so its
        datagrams are view-filtered here and ours there).  Tearing this
        node down then would strand it -- it still needs the group alive
        for a NEWVIEW resend or an evict-and-remerge -- so the runner
        keeps the node up (bounded by its rejoin grace) until every
        member is demonstrably current.  Exited peers also look stale,
        which is why the runner bounds the wait instead of requiring
        liveness forever."""
        process = self.endpoint.process
        horizon = 6 * process.config.heartbeat_interval
        now = self.clock.now
        return all(now - process.last_heard(member) <= horizon
                   for member in self.endpoint.view.mbrs
                   if member != self.me)

    def done(self):
        """Script complete AND (for survivors) all co-members current."""
        if not self.script_complete():
            return False
        if self.me != self.workload.leaver and not self.peers_live():
            return False
        if self.done_at is None:
            self.done_at = self.clock.now
        return True

    def milestones(self):
        return {"formed_at": self.formed_at, "done_at": self.done_at,
                "left_at": self.left_at, "sent": self.sent,
                "delivered": self.delivered, "recasts": self.recasts}


def workload_cast_key(payload):
    """``(origin, index)`` of a workload cast payload, else None.

    Payloads cross a JSON report boundary on the net backend, so the
    tuple the script cast may come back as a list -- accept both.
    """
    if (isinstance(payload, (list, tuple)) and len(payload) == 3
            and payload[0] == "wl"):
        return (payload[1], payload[2])
    return None


# ----------------------------------------------------------------------
class WorkloadResult:
    """One workload run's outcome, backend-independent."""

    def __init__(self, backend, workload, reports, ok, elapsed,
                 artifacts_dir=None):
        self.backend = backend            # "sim" | "net"
        self.workload = workload
        self.reports = dict(reports)      # {node_id: NodeReport}
        self.ok = ok                      # every script reached done()
        self.elapsed = elapsed            # sim seconds / wall seconds
        self.artifacts_dir = artifacts_dir

    # ------------------------------------------------------------------
    def execution(self):
        """The run as an Execution; the leaver is not constrained (it
        stops participating mid-run, same convention the simulator's
        leave tests use)."""
        correct = set(self.reports)
        if self.workload.leaver is not None:
            correct.discard(self.workload.leaver)
        return execution_from_reports(self.reports.values(), correct=correct)

    def violations(self):
        """Definitions 2.1/2.2 safety clauses over the recorded run."""
        return check_virtual_synchrony(self.execution())

    # ------------------------------------------------------------------
    def survivors(self):
        leaver = self.workload.leaver
        return sorted(node for node in self.reports if node != leaver)

    def final_members(self):
        """The final membership at each survivor: {node: (members...)}."""
        return {node: self.reports[node].final_members()
                for node in self.survivors()}

    def common_final_members(self):
        """The one membership all survivors ended on, or None."""
        sets = set(self.final_members().values())
        if len(sets) == 1:
            return sets.pop()
        return None

    def per_sender_orders(self):
        """{survivor: {origin: [workload index, ...]}} in delivery order.

        Keyed on the workload payload (not the stack msg_id) and deduped
        to first delivery, so an application re-cast -- which gets a
        fresh stack msg_id -- does not perturb the cross-backend
        comparison.  The history records a content digest, not the
        payload, so each digest is mapped back to the script's
        ``("wl", origin, index)`` cast it names.
        """
        workload = self.workload
        keys = {content_digest(("wl", origin, index)): (origin, index)
                for origin in range(workload.n)
                for index in range(workload.casts_per_node)}
        orders = {}
        for node in self.survivors():
            per_origin = {}
            seen = set()
            history = self.reports[node].history
            for _t, _m, _o, digest, _v in history.deliveries():
                key = keys.get(digest)
                if key is None or key in seen:
                    continue
                seen.add(key)
                per_origin.setdefault(key[0], []).append(key[1])
            orders[node] = per_origin
        return orders

    def total_delivered(self):
        return sum(len(report.history.delivery_order())
                   for report in self.reports.values())

    def summary(self):
        return {
            "backend": self.backend,
            "ok": self.ok,
            "elapsed": self.elapsed,
            "violations": len(self.violations()),
            "final_members": {str(k): list(v) if v else None
                              for k, v in self.final_members().items()},
            "total_delivered": self.total_delivered(),
        }


# ----------------------------------------------------------------------
def run_sim_workload(workload, seed=0, config=None):
    """Execute the workload on the deterministic simulator backend."""
    from repro.core.config import StackConfig
    from repro.core.group import Group
    config = config or StackConfig.byz(crypto="sym")
    group = Group.bootstrap(workload.n, config=config, seed=seed,
                            established=False, start=False)
    scripts = {node: NodeScript(workload, endpoint, group.sim)
               for node, endpoint in group.endpoints.items()}
    group.start()
    all_done = lambda: all(script.done() for script in scripts.values())
    ok = group.run_until(all_done, timeout=workload.deadline)
    group.run(workload.linger)
    if not all_done():
        # same re-wait the net node runner does: done() is not monotonic,
        # and a linger-time membership wobble must be allowed to heal
        ok = group.run_until(all_done, timeout=workload.deadline)
    reports = {}
    for node, process in group.processes.items():
        view = process.view
        reports[node] = NodeReport(
            node, process.history,
            final_view={"vid": [view.vid.counter, view.vid.creator],
                        "mbrs": list(view.mbrs)},
            counters={"datagrams_sent": group.network.datagrams_sent},
            wall=dict(scripts[node].milestones()), ok=scripts[node].done())
    elapsed = group.sim.now
    group.stop()
    return WorkloadResult("sim", workload, reports, ok, elapsed)
