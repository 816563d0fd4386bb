"""The sharded replicated KV store and its cross-shard transfer protocol.

Each shard runs one totally-ordered RSM (:mod:`repro.apps.rsm`); single-key
commands route by the directory and never coordinate across shards.  The
one multi-shard operation is ``transfer`` -- move an integer amount from a
key on the source shard to a key on the destination shard -- implemented
as a two-phase protocol whose every step is an *ordinary totally-ordered
command* on one shard:

1. ``xfer_prepare`` (source shard): atomically debit the amount and park
   it under the transfer id in the pending table (or record an abort if
   the balance is short);
2. ``xfer_credit`` (destination shard): credit the amount;
3. ``xfer_commit`` (source shard): release the pending entry -- or
   ``xfer_abort``, which refunds it.

Every command carries the full ``(txid, key, amount)`` tuple and every
replica keeps a finished-transfer table, so each step is **idempotent**:
the coordinator may blindly resubmit after a timeout or a shard-side view
change and the state machine applies each step at most once.  That is the
entire recovery story -- atomicity across the two shards comes from
"debit is parked until credit is known durable", not from any cross-shard
locking, and a crashed coordinator leaves at worst a parked debit that
``xfer_abort`` refunds.

Live resharding reuses the same trick.  The machine is **epoch-aware**:
every client operation travels in an ``("op", op_id, attempt, epoch, key,
sub)`` envelope and is either *applied* (recorded in ``op_results``, the
dedup table that makes resubmitting the same ``op_id`` safe) or *fenced*
with a reason (recorded in ``fence_log`` so the client can observe the
verdict through replica state, exactly how transfer outcomes are
observed).  Fencing is **total**: every envelope terminates in exactly
one of ``ok`` / ``stale`` / ``early`` / ``wait`` / ``moved`` -- nothing
is silently dropped.  Migration itself is three more ordinary
totally-ordered commands (``mig_begin`` / ``mig_install`` /
``mig_retire``, see :mod:`repro.shard.reshard`), so a view change in the
middle of a migration is recovered the same way as a mid-transfer one:
resubmit the SAME command and let idempotency sort it out.
"""

from __future__ import annotations

import hashlib
from collections import deque

from repro.apps.rsm import KVStore, Replica
from repro.shard.directory import arcs_contain, hash_key


class ShardedKVStore(KVStore):
    """A KVStore that also speaks the two-phase transfer commands.

    Plain KV commands (``set``/``del``/``incr``/``append``) behave exactly
    as in the base class; the ``xfer_*`` family maintains two extra
    tables, both covered by the digest so replica-divergence checks see
    transfer state too:

    * ``pending``  -- txid -> (key, amount) debited, awaiting commit;
    * ``finished`` -- txid -> outcome, the idempotency/dedup record.

    The resharding extension adds the epoch machinery:

    * ``epoch``      -- the directory epoch this machine serves; bumped
      only by an ordered ``mig_begin``, so every replica fences the same
      operations at the same point in the total order;
    * ``outbox``     -- ``(epoch, dst) -> (arcs, items, records)``: keys
      sealed out of this shard at ``mig_begin``, parked until the
      destination's install is acked and ``mig_retire`` releases them
      (the key-conservation invariant: a key is always in exactly one of
      source ``data``, source ``outbox``, destination ``data``);
    * ``in_flight``  -- ``(epoch, src) -> arcs`` this shard is *expecting*
      from a migration; operations on keys inside those arcs fence with
      ``wait`` until the install lands, which is what makes a
      read-modify-write during migration linearizable instead of
      last-writer-wins;
    * ``installed``  -- ``(epoch, src)`` tokens of applied installs (the
      migration-level dedup record; cleared at the next ``mig_begin``);
    * ``op_results`` -- ``op_id -> (key, result)``, the client-op dedup
      table (FIFO-capped).  Records whose key migrates move WITH the key,
      so an op applied on the source and retried on the destination still
      applies exactly once;
    * ``fence_log``  -- ``(op_id, attempt) -> (reason, epoch)``, a
      FIFO-capped journal of fencing verdicts clients poll for.
    """

    #: dedup/fence journals are FIFO-capped so the bounded-state checker
    #: (repro.chaos.bounded) sees a flat ceiling under endless load
    OP_RECORDS_CAP = 4096
    FENCE_LOG_CAP = 1024

    def __init__(self, epoch=0):
        super().__init__()
        self.pending = {}
        self.finished = {}
        self.epoch = epoch
        self.outbox = {}
        self.in_flight = {}
        self.installed = set()
        self.op_results = {}
        self._op_order = deque()
        self.fence_log = {}
        self._fence_order = deque()
        self.fenced = {"stale": 0, "early": 0, "wait": 0, "moved": 0}

    # -- bounded-journal helpers --------------------------------------
    def _record_op(self, op_id, key, result):
        self.op_results[op_id] = (key, result)
        self._op_order.append(op_id)
        while len(self._op_order) > self.OP_RECORDS_CAP:
            self.op_results.pop(self._op_order.popleft(), None)

    def _record_fence(self, op_id, attempt, reason):
        self.fenced[reason] = self.fenced.get(reason, 0) + 1
        token = (op_id, attempt)
        if token not in self.fence_log:
            self._fence_order.append(token)
        self.fence_log[token] = (reason, self.epoch)
        while len(self._fence_order) > self.FENCE_LOG_CAP:
            self.fence_log.pop(self._fence_order.popleft(), None)
        return ("op", op_id, reason, self.epoch)

    def apply(self, origin, command):
        if not isinstance(command, tuple) or not command:
            return None
        op = command[0]
        if op == "op" and len(command) == 6:
            _, op_id, attempt, epoch, key, sub = command
            self.applied += 1
            prior = self.op_results.get(op_id)
            if prior is not None:
                # the resubmit-same-op_id path: replay the recorded result
                return ("op", op_id, "ok", prior[1])
            if epoch < self.epoch:
                # routed under a superseded table: the key may live
                # elsewhere now -- client must re-route under the new one
                return self._record_fence(op_id, attempt, "stale")
            if epoch > self.epoch:
                # client saw the new table before this shard's mig_begin
                # was ordered; retrying is safe, the bump is coming
                return self._record_fence(op_id, attempt, "early")
            point = hash_key(key)
            for (mig_epoch, _src), arcs in self.in_flight.items():
                if mig_epoch == self.epoch and arcs_contain(arcs, point):
                    # the key is ours under this epoch but still in
                    # transit; applying now would race the install
                    return self._record_fence(op_id, attempt, "wait")
            for (mig_epoch, _dst), sealed in self.outbox.items():
                if mig_epoch == self.epoch \
                        and arcs_contain(sealed[0], point):
                    # sealed out of this shard -- only a misrouting
                    # client lands here, but fencing must stay total
                    return self._record_fence(op_id, attempt, "moved")
            result = KVStore.apply(self, origin, sub)
            self._record_op(op_id, key, result)
            return ("op", op_id, "ok", result)
        if op == "mig_begin" and len(command) == 4:
            _, epoch, out_moves, in_moves = command
            self.applied += 1
            if epoch <= self.epoch:
                return ("mig", epoch, "duplicate")
            # tokens of the superseded migration have served their dedup
            # purpose once a newer epoch begins
            self.installed = {t for t in self.installed if t[0] >= epoch}
            for dst, arcs in out_moves:
                arcs = tuple(tuple(a) for a in arcs)
                items = tuple(sorted(
                    ((k, v) for k, v in self.data.items()
                     if arcs_contain(arcs, hash_key(k))), key=repr))
                for k, _v in items:
                    del self.data[k]
                records = tuple(sorted(
                    ((oid, kr) for oid, kr in self.op_results.items()
                     if arcs_contain(arcs, hash_key(kr[0]))), key=repr))
                for oid, _kr in records:
                    del self.op_results[oid]
                self.outbox[(epoch, dst)] = (arcs, items, records)
            for src, arcs in in_moves:
                self.in_flight[(epoch, src)] = tuple(tuple(a) for a in arcs)
            self.epoch = epoch
            return ("mig", epoch, "begun")
        if op == "mig_install" and len(command) == 5:
            _, epoch, src, items, records = command
            self.applied += 1
            token = (epoch, src)
            if token in self.installed:
                return ("mig", epoch, "duplicate")
            if token not in self.in_flight:
                # a late install for an arc this machine never registered
                # (e.g. replayed after a newer mig_begin): refusing keeps
                # the conservation invariant -- never apply blind
                return ("mig", epoch, "unexpected")
            for k, v in items:
                self.data[k] = v
            for oid, kr in records:
                self._record_op(oid, kr[0], kr[1])
            del self.in_flight[token]
            self.installed.add(token)
            return ("mig", epoch, "installed")
        if op == "mig_retire" and len(command) == 3:
            _, epoch, dst = command
            self.applied += 1
            if self.outbox.pop((epoch, dst), None) is None:
                return ("mig", epoch, "duplicate")
            return ("mig", epoch, "retired")
        if op == "xfer_prepare" and len(command) == 4:
            _, txid, key, amount = command
            self.applied += 1
            if txid in self.pending or txid in self.finished:
                return ("xfer", txid, "duplicate")
            balance = self.data.get(key, 0)
            if (not isinstance(balance, int) or not isinstance(amount, int)
                    or amount < 0 or balance < amount):
                self.finished[txid] = "aborted"
                return ("xfer", txid, "aborted")
            self.data[key] = balance - amount
            self.pending[txid] = (key, amount)
            return ("xfer", txid, "prepared")
        if op == "xfer_credit" and len(command) == 4:
            _, txid, key, amount = command
            self.applied += 1
            if txid in self.finished:
                return ("xfer", txid, "duplicate")
            base = self.data.get(key, 0)
            if isinstance(base, int) and isinstance(amount, int):
                self.data[key] = base + amount
            self.finished[txid] = "credited"
            return ("xfer", txid, "credited")
        if op == "xfer_commit" and len(command) == 2:
            _, txid = command
            self.applied += 1
            if self.finished.get(txid) in ("committed", "aborted"):
                return ("xfer", txid, "duplicate")
            self.pending.pop(txid, None)
            self.finished[txid] = "committed"
            return ("xfer", txid, "committed")
        if op == "xfer_abort" and len(command) == 2:
            _, txid = command
            self.applied += 1
            if self.finished.get(txid) in ("committed", "aborted"):
                return ("xfer", txid, "duplicate")
            parked = self.pending.pop(txid, None)
            if parked is not None:
                key, amount = parked
                self.data[key] = self.data.get(key, 0) + amount
            self.finished[txid] = "aborted"
            return ("xfer", txid, "aborted")
        return super().apply(origin, command)

    def digest(self):
        canon = (tuple(sorted(self.data.items(), key=repr)),
                 tuple(sorted(self.pending.items(), key=repr)),
                 tuple(sorted(self.finished.items(), key=repr)),
                 self.epoch,
                 tuple(sorted(self.outbox.items(), key=repr)),
                 tuple(sorted(self.in_flight.items(), key=repr)),
                 tuple(sorted(self.installed, key=repr)),
                 tuple(sorted(self.op_results.items(), key=repr)))
        return hashlib.sha256(repr(canon).encode("utf-8")).hexdigest()[:16]

    def state_sizes(self):
        """Per-table entry counts for bounded-state checking."""
        return {"data": len(self.data), "pending": len(self.pending),
                "finished": len(self.finished), "outbox": len(self.outbox),
                "in_flight": len(self.in_flight),
                "installed": len(self.installed),
                "op_results": len(self.op_results),
                "fence_log": len(self.fence_log)}


class Applied:
    """One shard's completion signal: ``version`` moves whenever a replica
    of the shard applies a command or installs a snapshot.  Clients learn
    outcomes by reading replica state; this tells them *when* to read, so
    a wait costs an integer compare per scheduler event (nothing at all on
    asyncio), not a scan of the shard's machines after every event."""

    __slots__ = ("version", "waiters")

    def __init__(self):
        self.version = 0
        self.waiters = []       # callables, each woken by the next bump

    def bump(self):
        self.version += 1
        if self.waiters:        # awaiting net clients, reshard coordinators
            woken, self.waiters = self.waiters, []
            for wake in woken:
                wake()

    def gate(self, check):
        """``check`` as a ``run_until`` predicate that re-evaluates it
        only after the version moved (and once on entry)."""
        seen = None

        def predicate():
            nonlocal seen
            if seen == self.version:
                return False
            seen = self.version
            return check()
        return predicate


class ShardReplica(Replica):
    """A Replica whose snapshots carry the transfer AND migration tables,
    so a member rejoining mid-transfer or mid-migration (state transfer
    after a view change) resumes with the same epoch/outbox/dedup state
    its peers have.  ``applied`` is the shard's shared :class:`Applied`
    signal, bumped after every change to this replica's machine."""

    def __init__(self, endpoint, machine=None, epoch=0, applied=None):
        self.applied = applied or Applied()
        super().__init__(endpoint,
                         machine=machine or ShardedKVStore(epoch=epoch))

    def _on_cast(self, event):
        super()._on_cast(event)
        self.applied.bump()

    def _snapshot(self):
        m = self.machine
        if isinstance(m, ShardedKVStore):
            return ("skv2", tuple(sorted(m.data.items(), key=repr)),
                    tuple(sorted(m.pending.items(), key=repr)),
                    tuple(sorted(m.finished.items(), key=repr)), m.applied,
                    m.epoch,
                    tuple(sorted(m.outbox.items(), key=repr)),
                    tuple(sorted(m.in_flight.items(), key=repr)),
                    tuple(sorted(m.installed, key=repr)),
                    tuple(sorted(m.op_results.items(), key=repr)),
                    tuple(m._op_order),
                    tuple(sorted(m.fence_log.items(), key=repr)),
                    tuple(m._fence_order),
                    tuple(sorted(m.fenced.items())))
        return super()._snapshot()

    def _install_snapshot(self, snapshot):
        m = self.machine
        if (isinstance(snapshot, tuple) and len(snapshot) == 14
                and snapshot[0] == "skv2" and isinstance(m, ShardedKVStore)):
            m.data = dict(snapshot[1])
            m.pending = dict(snapshot[2])
            m.finished = dict(snapshot[3])
            m.applied = snapshot[4]
            m.epoch = snapshot[5]
            m.outbox = dict(snapshot[6])
            m.in_flight = dict(snapshot[7])
            m.installed = set(snapshot[8])
            m.op_results = dict(snapshot[9])
            m._op_order = deque(snapshot[10])
            m.fence_log = dict(snapshot[11])
            m._fence_order = deque(snapshot[12])
            m.fenced = dict(snapshot[13])
        else:
            super()._install_snapshot(snapshot)
        self.applied.bump()


class TransferCoordinator:
    """Drives one cross-shard transfer through its phases.

    The coordinator is a *client*: it submits commands through any live
    replica of the relevant shard and watches replica state to learn the
    ordered outcome.  Timeouts (e.g. the submitting member crashed and
    the shard is mid-view-change) are handled by resubmitting the SAME
    command -- same txid -- through another live replica; idempotency in
    :class:`ShardedKVStore` makes the retry safe whether or not the
    first submission survived the flush.
    """

    def __init__(self, rsm, phase_timeout=3.0, attempts=4):
        self.rsm = rsm                 # the ShardedRSM: replicas + signals
        self.manager = rsm.manager
        self.phase_timeout = phase_timeout
        self.attempts = attempts
        self.retries = 0

    # ------------------------------------------------------------------
    def _phase(self, shard, command, done):
        """Submit ``command`` on ``shard`` until ``done(machine)`` holds on
        some live replica; resubmits with the same txid on timeout."""
        for _attempt in range(self.attempts):
            submitter = self.rsm.live_replica(shard)
            if submitter is None:
                return False
            submitter.submit(command)
            ok = self.manager.run_until(self.rsm.applied[shard].gate(
                lambda: any(done(m) for m in self.rsm.machines(shard))),
                timeout=self.phase_timeout)
            if ok:
                return True
            self.retries += 1
        return False

    # ------------------------------------------------------------------
    def transfer(self, txid, src_key, dst_key, amount):
        """Run the whole protocol; returns the outcome string.

        ``"committed"``  -- debited on the source shard, credited on the
        destination; ``"aborted"`` -- no net effect (insufficient funds,
        or the credit could not be ordered and the debit was refunded);
        ``"failed"`` -- a phase could not complete within the retry
        budget (e.g. a shard lost its quorum); the parked debit, if any,
        is still refundable by resubmitting ``xfer_abort`` later.
        """
        src_shard = self.manager.route(src_key)
        dst_shard = self.manager.route(dst_key)
        if src_shard == dst_shard:
            # the degenerate same-shard case is one ordered command pair
            ok = self._phase(
                src_shard, ("xfer_prepare", txid, src_key, amount),
                lambda m: txid in m.pending or txid in m.finished)
            if not ok:
                return "failed"
            if self._outcome(src_shard, txid) == "aborted":
                return "aborted"
            self._phase(src_shard, ("xfer_credit", txid, dst_key, amount),
                        lambda m: m.finished.get(txid) is not None)
            ok = self._phase(src_shard, ("xfer_commit", txid),
                             lambda m: m.finished.get(txid) == "committed")
            return "committed" if ok else "failed"
        ok = self._phase(src_shard, ("xfer_prepare", txid, src_key, amount),
                         lambda m: txid in m.pending or txid in m.finished)
        if not ok:
            return "failed"
        if self._outcome(src_shard, txid) == "aborted":
            return "aborted"
        ok = self._phase(dst_shard, ("xfer_credit", txid, dst_key, amount),
                         lambda m: m.finished.get(txid) == "credited")
        if not ok:
            # destination unreachable: refund the parked debit
            refunded = self._phase(
                src_shard, ("xfer_abort", txid),
                lambda m: m.finished.get(txid) == "aborted")
            return "aborted" if refunded else "failed"
        ok = self._phase(src_shard, ("xfer_commit", txid),
                         lambda m: m.finished.get(txid) == "committed")
        return "committed" if ok else "failed"

    def _outcome(self, shard, txid):
        for machine in self.rsm.machines(shard):
            if txid in machine.pending:
                return "prepared"
            outcome = machine.finished.get(txid)
            if outcome is not None:
                return outcome
        return None


class ShardedRSM:
    """The whole service: one :class:`ShardReplica` per endpoint, key
    routing, and cross-shard transfers -- the object the quickstart and
    the benchmarks drive."""

    def __init__(self, manager, phase_timeout=3.0):
        self.manager = manager
        epoch = manager.directory.epoch
        self.applied = {shard: Applied() for shard in manager.groups}
        # each shard's dict stays in node-id order (here and in rebind)
        self.replicas = {
            shard: {node_id: ShardReplica(endpoint, epoch=epoch,
                                          applied=self.applied[shard])
                    for node_id, endpoint in sorted(group.endpoints.items())}
            for shard, group in manager.groups.items()}
        self.coordinator = TransferCoordinator(self,
                                               phase_timeout=phase_timeout)
        self._txid_seq = 0
        self._client_seq = 0

    # ------------------------------------------------------------------
    def live_replica(self, shard):
        """The first live replica of ``shard``, or None."""
        for replica in self.replicas[shard].values():
            if not replica.endpoint.process.stopped:
                return replica
        return None

    def machines(self, shard):
        """The live replicas' machines of one shard."""
        return [replica.machine for replica in self.replicas[shard].values()
                if not replica.endpoint.process.stopped]

    def rebind(self):
        """Re-attach replicas to endpoints replaced by a restart.

        ``Group.restart`` builds a fresh process + endpoint for the new
        incarnation; the old replica stays bound to the dead endpoint and
        reads as stopped forever.  Rebinding gives the newcomer a
        replica (with the state installer the snapshot merge needs) so it
        rejoins the service, not just the group.
        """
        rebound = 0
        for shard, group in self.manager.groups.items():
            replicas = self.replicas[shard]
            known = len(replicas)
            for node_id, endpoint in group.endpoints.items():
                replica = replicas.get(node_id)
                if replica is None or replica.endpoint is not endpoint:
                    replicas[node_id] = ShardReplica(
                        endpoint, applied=self.applied[shard])
                    rebound += 1
            if len(replicas) > known:   # a new id: restore node-id order
                self.replicas[shard] = dict(sorted(replicas.items()))
        return rebound

    def client(self, name=None, timeout=2.0, attempts=12):
        """An epoch-aware :class:`ShardClient` on this service."""
        if name is None:
            self._client_seq += 1
            name = "client-%d" % self._client_seq
        return ShardClient(self, name=name, timeout=timeout,
                           attempts=attempts)

    def submit(self, key, command, size=32):
        """Order a single-key command on the shard owning ``key``."""
        shard = self.manager.route(key)
        replica = self.live_replica(shard)
        if replica is None:
            raise RuntimeError("shard %r has no live replica" % (shard,))
        return replica.submit(command, size=size)

    def get(self, key):
        """Read ``key`` from the most advanced live replica of its shard
        (local read -- the RSM's agreed state, not a linearizable quorum
        read; any replica that completed an op for a client has applied
        at least as much, so a caller reads its own writes)."""
        shard = self.manager.route(key)
        machines = self.machines(shard)
        if not machines:
            raise RuntimeError("shard %r has no live replica" % (shard,))
        return max(machines, key=lambda m: m.applied).data.get(key)

    def transfer(self, src_key, dst_key, amount, txid=None):
        if txid is None:
            self._txid_seq += 1
            txid = ("tx", self._txid_seq, repr(src_key), repr(dst_key))
        return self.coordinator.transfer(txid, src_key, dst_key, amount)

    def shard_digests(self, shard):
        """Per-replica state digests of one shard (divergence check)."""
        return {node_id: replica.state_digest()
                for node_id, replica in self.replicas[shard].items()
                if not replica.endpoint.process.stopped}


def op_outcome(machines, op_id, token):
    """One op attempt's verdict as the shard's replicas record it:
    ``("ok", result)``, a fence ``(reason, epoch)``, or None so far."""
    for machine in machines:
        record = machine.op_results.get(op_id)
        if record is not None:
            return ("ok", record[1])
        fence = machine.fence_log.get(token)
        if fence is not None:
            return fence
    return None


def fence_cleared(machines, reason, epoch, key):
    """Whether what fenced an op ``early``/``wait`` has lifted: some live
    machine reached the op's epoch and (``wait``) none of that epoch's
    in-flight arcs still holds the key.  No other apply is worth a retry."""
    point = hash_key(key)
    return any(m.epoch >= epoch and not (reason == "wait" and any(
        e == epoch and arcs_contain(arcs, point)
        for (e, _src), arcs in m.in_flight.items())) for m in machines)


class ShardClient:
    """An epoch-stamping client with the re-route-and-retry path.

    The client caches a directory epoch (possibly stale -- that is the
    point), stamps it into every op envelope, and reacts to the machine's
    fencing verdicts:

    * ``ok``    -- done; the recorded result is returned;
    * ``stale`` / ``moved`` -- refresh the cached epoch from the
      directory and re-route: the key's shard changed under us;
    * ``early`` / ``wait``  -- the migration is mid-flight; run the plane
      until that fence lifts and resubmit the SAME ``op_id`` (``op_results``
      makes the retry exactly-once even if the fenced attempt and the
      retry both survive reordering or a view change).

    Outcomes are observed through replica state (``op_results`` /
    ``fence_log``), the same watch-the-machine pattern the transfer
    coordinator uses, so a mid-flight view change at the serving shard
    only costs a timeout + resubmit.
    """

    def __init__(self, rsm, name="client", timeout=2.0, attempts=12):
        self.rsm = rsm
        self.manager = rsm.manager
        self.name = name
        self.timeout = timeout
        self.attempts = attempts
        self.epoch = self.manager.directory.epoch
        self._seq = 0
        self.retries = 0
        self.fences = {"stale": 0, "early": 0, "wait": 0, "moved": 0}

    def refresh(self):
        """Re-read the directory's current epoch (the re-route half)."""
        self.epoch = self.manager.directory.epoch
        return self.epoch

    # ------------------------------------------------------------------
    def op(self, key, sub, op_id=None, timeout=None, attempts=None):
        """Run one fenced op to completion; ``(status, result)``.

        ``status`` is ``"ok"`` (applied exactly once; ``result`` is the
        machine's return value) or ``"failed"`` (retry budget exhausted,
        e.g. the owning shard lost its quorum for the whole window).
        """
        if op_id is None:
            self._seq += 1
            op_id = (self.name, self._seq)
        timeout = self.timeout if timeout is None else timeout
        attempts = self.attempts if attempts is None else attempts
        attempt = 0
        for _try in range(attempts):
            attempt += 1
            if not self.manager.directory.has_epoch(self.epoch):
                self.refresh()   # our table was retired under us
            epoch = self.epoch
            shard = self.manager.route(key, epoch=epoch)
            replica = self.rsm.live_replica(shard)
            if replica is None:
                self.manager.run(0.25)   # shard mid-recovery; come back
                continue
            token = (op_id, attempt)
            replica.submit(("op", op_id, attempt, epoch, key, sub))
            seen = self.manager.run_until(self.rsm.applied[shard].gate(
                lambda: self._outcome(shard, op_id, token) is not None),
                timeout=timeout)
            if not seen:
                self.retries += 1
                continue   # resubmit the SAME op_id under a new attempt
            reason, payload = self._outcome(shard, op_id, token)
            if reason == "ok":
                return ("ok", payload)
            self.fences[reason] = self.fences.get(reason, 0) + 1
            if reason in ("stale", "moved"):
                self.refresh()
            else:   # early / wait: resume when that fence lifts (<= 0.1 s)
                self.manager.run_until(self.rsm.applied[shard].gate(
                    lambda: fence_cleared(self.rsm.machines(shard), reason,
                                          epoch, key)), timeout=0.1)
        return ("failed", None)

    def _outcome(self, shard, op_id, token):
        return op_outcome(self.rsm.machines(shard), op_id, token)

    # -- grammar conveniences ------------------------------------------
    def set(self, key, value, **kw):
        return self.op(key, ("set", key, value), **kw)

    def incr(self, key, delta=1, **kw):
        return self.op(key, ("incr", key, delta), **kw)

    def delete(self, key, **kw):
        return self.op(key, ("del", key), **kw)

    def get(self, key):
        """Read through the CURRENT table (refreshes the cached epoch)."""
        self.refresh()
        return self.rsm.get(key)
