"""Live resharding: migrate key ownership from epoch e to epoch e+1.

The coordinator is a *client* of the shard groups, exactly like the
cross-shard :class:`~repro.shard.rsm.TransferCoordinator`: every protocol
step is an ordinary totally-ordered command on ONE shard, observed
through replica state and resubmitted verbatim on timeout.  Nothing here
needs its own consensus -- the paper's ordering + view-change machinery
is the substrate, which is the whole point of building reconfiguration
on a group-communication stack.

The epoch lifecycle (see docs/SHARDING.md for the failure matrix):

1. ``start()`` installs the epoch ``e+1`` ring into the directory and
   computes :func:`~repro.shard.directory.ring_diff` -- the exact arcs
   whose owner changes.  Clients may already route under ``e+1``; shards
   still at ``e`` fence those ops ``early`` (retried), so no window is
   unserved and none is double-served.
2. ``mig_begin`` is ordered on EVERY shard: each machine deterministically
   seals its outgoing arcs' keys (and their dedup records) into an
   outbox, registers the arcs it is owed as in-flight, and bumps its
   epoch.  From this point ops on moving keys fence (``stale`` at the
   old owner, ``wait`` at the new one) -- the fences ARE the lock.
3. Per ``(src, dst)`` pair: the coordinator reads the sealed payload off
   any live source replica (every replica sealed identically -- same
   command, same position in the total order) and orders ``mig_install``
   on the destination.  Install is idempotent by the ``(epoch, src)``
   token, so crashes and view changes are handled by blind resubmission.
4. After the install is acked, ``mig_retire`` on the source drops the
   outbox copy, and once every pair is retired the old epoch's table is
   retired from the directory.  Keys are in exactly one of source data /
   source outbox / destination data at every ordered point -- the
   key-conservation invariant the chaos campaign asserts.

Every step is one :meth:`poll`: inspect machine state, (re)submit what the
pacing allows, never block.  Given the shards' ``Applied`` signals it polls
itself -- after an apply, and at its resubmit deadline -- so a migration
costs its commands; without them (chaos: faults BETWEEN steps) it is stepped.
"""

from __future__ import annotations

from repro.shard.directory import ring_diff


class ReshardCoordinator:
    """Drives one ``epoch -> epoch + 1`` migration over a ShardManager."""

    def __init__(self, manager, replicas, applied=None, phase_timeout=3.0):
        self.manager = manager
        self.replicas = replicas       # {shard: {node_id: ShardReplica}}
        self.applied = applied         # {shard: Applied}; None: hand-stepped
        self.phase_timeout = phase_timeout
        self.state = "idle"            # idle -> migrating -> done
        self.epoch = None
        self.old_epoch = None
        self.arcs = ()
        self.pairs = {}                # (src, dst) -> arcs
        self.pair_phase = {}           # (src, dst) -> seal|install|retire|done
        self.pair_payload = {}         # (src, dst) -> (items, records)
        self.begin_cmds = {}           # shard -> mig_begin command
        self.begun = set()
        self.resubmits = 0
        self._last_submit = {}         # submission key -> sim time
        self._due = float("inf")       # earliest resubmit, as of last poll
        self._wake = self._deadline = None     # pending: bump, resubmit
        self.metrics = {}              # per-epoch migration metrics

    # ------------------------------------------------------------------
    # starting / resuming
    # ------------------------------------------------------------------
    def start(self, shards=None, ring_slots=None):
        """Install epoch ``e+1`` and begin migrating; returns the epoch.

        ``shards`` / ``ring_slots`` default to the current ring's values;
        at least one must change (same ring twice would be a no-op
        migration, almost certainly a caller bug).  ``shards`` may grow
        up to the number of built groups (scale-out onto spare groups)
        or shrink to 1 (drain-down).
        """
        if self.state == "migrating":
            raise RuntimeError("a migration is already in flight")
        directory = self.manager.directory
        old_ring = directory.ring()
        if shards is None:
            shards = old_ring.shards
        if ring_slots is None:
            ring_slots = old_ring.ring_slots
        if shards > len(self.manager.groups):
            raise ValueError(
                "cannot reshard to %d shards: only %d groups are built"
                % (shards, len(self.manager.groups)))
        if (shards, ring_slots) == (old_ring.shards, old_ring.ring_slots):
            raise ValueError("reshard target equals the current ring")
        self.old_epoch = directory.epoch
        self.epoch = self.old_epoch + 1
        directory.install_epoch(self.epoch, shards, ring_slots=ring_slots)
        return self._begin()

    def resume(self):
        """Adopt an in-flight migration (e.g. after a coordinator crash).

        Rebuilds the plan from the directory's two newest epochs; the
        per-pair phases then re-derive themselves from machine state in
        :meth:`poll` -- already-installed pairs are recognized by their
        ``installed`` token, already-retired ones by the absent outbox.
        """
        directory = self.manager.directory
        epochs = directory.epochs()
        if len(epochs) < 2:
            raise RuntimeError("no migration in flight to resume")
        self.old_epoch, self.epoch = epochs[-2], epochs[-1]
        return self._begin()

    def _begin(self):
        """Plan ``old_epoch -> epoch`` off the directory and start polling."""
        directory = self.manager.directory
        old_ring, new_ring = directory.ring(self.old_epoch), directory.ring()
        self.arcs = ring_diff(old_ring, new_ring)
        out_moves = {}    # src -> {dst: [arc, ...]}
        in_moves = {}     # dst -> {src: [arc, ...]}
        self.pairs = {}
        for lo, hi, src, dst in self.arcs:
            out_moves.setdefault(src, {}).setdefault(dst, []).append((lo, hi))
            in_moves.setdefault(dst, {}).setdefault(src, []).append((lo, hi))
            self.pairs.setdefault((src, dst), [])
            self.pairs[(src, dst)].append((lo, hi))
        self.pairs = {pair: tuple(arcs)
                      for pair, arcs in sorted(self.pairs.items())}
        self.pair_phase = {pair: "seal" for pair in self.pairs}
        self.pair_payload = {}
        # EVERY shard gets a begin (even move-free ones): the epoch bump
        # is what turns clients' "early" fences into served ops
        self.begin_cmds = {}
        for shard in sorted(self.manager.groups):
            outs = tuple(sorted(
                (dst, tuple(arcs))
                for dst, arcs in out_moves.get(shard, {}).items()))
            ins = tuple(sorted(
                (src, tuple(arcs))
                for src, arcs in in_moves.get(shard, {}).items()))
            self.begin_cmds[shard] = ("mig_begin", self.epoch, outs, ins)
        self.begun = set()
        self._last_submit = {}
        self.metrics = {
            "epoch": self.epoch, "from_shards": old_ring.shards,
            "to_shards": new_ring.shards, "arcs": len(self.arcs),
            "pairs": len(self.pairs), "keys_moved": 0,
            "started_at": self.manager.sim.now, "finished_at": None,
        }
        self.state = "migrating"
        self._advance()         # the first poll; subscribes if it can
        return self.epoch

    # ------------------------------------------------------------------
    # machine observation
    # ------------------------------------------------------------------
    def _machines(self, shard):
        # both planes keep each shard's replica dict in node-id order
        for replica in self.replicas[shard].values():
            if not replica.endpoint.process.stopped:
                yield replica.machine

    def _any(self, shard, pred):
        return any(pred(m) for m in self._machines(shard))

    def _submit(self, shard, command, tag):
        """Paced submission: resubmit ``command`` through the first live
        replica at most once per ``phase_timeout``."""
        now = self.manager.sim.now
        last = self._last_submit.get(tag)
        if last is None or now >= last + self.phase_timeout:
            for replica in self.replicas[shard].values():
                if not replica.endpoint.process.stopped:
                    if last is not None:
                        self.resubmits += 1
                    replica.submit(command)
                    self._last_submit[tag] = now
                    break
            last = now      # (no live replica: look again a timeout on)
        self._due = min(self._due, last + self.phase_timeout)

    def _advance(self):
        """One poll, then (given the signals) wait for the next reason to
        poll: any shard's next ``Applied`` bump, or the earliest resubmit
        coming due -- armed only while a command is outstanding."""
        self.stop()
        self.poll()
        if self.applied is not None and self.state == "migrating":
            for signal in self.applied.values():
                signal.waiters.append(self._bumped)
            if self._due < float("inf"):
                self._deadline = self.manager.sim.schedule_at(
                    self._due, self._advance)

    def _bumped(self):
        # called from inside a replica's apply: never poll re-entrantly,
        # and coalesce an instant's bumps into ONE event
        if self._wake is None:
            self._wake = self.manager.sim.schedule(0.0, self._advance)

    def stop(self):
        """Unsubscribe and disarm: what "the coordinator crashed" means
        (the migration stays adoptable by a fresh one's :meth:`resume`)."""
        for signal in (self.applied or {}).values():
            if self._bumped in signal.waiters:
                signal.waiters.remove(self._bumped)
        for timer in (self._wake, self._deadline):
            if timer is not None:
                timer.cancel()
        self._wake = self._deadline = None

    # ------------------------------------------------------------------
    # the state machine
    # ------------------------------------------------------------------
    def poll(self):
        """Advance the migration as far as machine state allows.

        Cheap, idempotent, never blocking: chaos drivers call this
        between fault ops, the coordinator itself on each ``Applied``
        bump.  Returns the coordinator state.
        """
        if self.state != "migrating":
            return self.state
        epoch = self.epoch
        self._due = float("inf")
        for shard, command in self.begin_cmds.items():
            if shard in self.begun:
                continue
            if self._any(shard, lambda m: m.epoch >= epoch):
                self.begun.add(shard)
            else:
                self._submit(shard, command, ("begin", shard))
        for pair, arcs in self.pairs.items():
            src, dst = pair
            phase = self.pair_phase[pair]
            if phase == "done":
                continue
            if phase == "seal":
                if src not in self.begun:
                    continue
                # resume shortcut: a pair whose install already landed is
                # past sealing no matter what the outbox says
                if self._any(dst, lambda m: (epoch, src) in m.installed):
                    self.pair_phase[pair] = phase = "retire"
                else:
                    payload = None
                    for machine in self._machines(src):
                        if machine.epoch >= epoch:
                            payload = machine.outbox.get((epoch, dst))
                            if payload is not None:
                                break
                    if payload is None:
                        continue   # only lagging replicas visible; wait
                    self.pair_payload[pair] = (payload[1], payload[2])
                    self.metrics["keys_moved"] += len(payload[1])
                    self.pair_phase[pair] = phase = "install"
            if phase == "install":
                if self._any(dst, lambda m: (epoch, src) in m.installed):
                    self.pair_phase[pair] = phase = "retire"
                elif dst in self.begun:
                    items, records = self.pair_payload[pair]
                    self._submit(
                        dst, ("mig_install", epoch, src, items, records),
                        ("install", pair))
                else:
                    continue   # install before begin would be refused
            if phase == "retire":
                gone = self._any(
                    src, lambda m: (m.epoch >= epoch
                                    and (epoch, dst) not in m.outbox))
                if gone:
                    self.pair_phase[pair] = "done"
                else:
                    self._submit(src, ("mig_retire", epoch, dst),
                                 ("retire", pair))
        if len(self.begun) == len(self.begin_cmds) and all(
                phase == "done" for phase in self.pair_phase.values()):
            directory = self.manager.directory
            if directory.has_epoch(self.old_epoch):
                directory.retire_epoch(self.old_epoch)
            self.metrics["finished_at"] = self.manager.sim.now
            self.metrics["resubmits"] = self.resubmits
            self.metrics["fencing"] = self.fencing_totals()
            self.state = "done"
        return self.state

    def run(self, timeout=60.0):
        """Advance the plane until done or ``timeout`` sim-seconds.

        Returns True when the migration completed.  On False the
        migration is NOT rolled back -- it stays resumable: call ``run``
        again (e.g. after the chaos plan heals the network).
        """
        if self.applied is None:
            raise RuntimeError("a hand-stepped coordinator has no run()")
        self.manager.run_until(lambda: self.state != "migrating", timeout)
        return self.state == "done"

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def keys_in_flight(self):
        """Keys sealed out of their source but not yet acked installed."""
        return sum(len(self.pair_payload[pair][0])
                   for pair, phase in self.pair_phase.items()
                   if phase == "install" and pair in self.pair_payload)

    def fencing_totals(self):
        """Fencing drops per reason, summed across shards.

        Per shard the count is the max over live replicas: every replica
        applies the same fences at the same ordered points, so max is the
        converged per-shard value (not inflated by the replication
        factor).
        """
        totals = {}
        for shard in self.replicas:
            per_shard = {}
            for machine in self._machines(shard):
                for reason, count in machine.fenced.items():
                    per_shard[reason] = max(per_shard.get(reason, 0), count)
            for reason, count in per_shard.items():
                totals[reason] = totals.get(reason, 0) + count
        return totals

    def migration_metrics(self):
        """The per-epoch migration metrics dict (live gauges included)."""
        metrics = dict(self.metrics)
        metrics["state"] = self.state
        metrics["keys_in_flight"] = self.keys_in_flight()
        metrics["pairs_done"] = sum(
            1 for phase in self.pair_phase.values() if phase == "done")
        if "fencing" not in metrics:
            metrics["fencing"] = self.fencing_totals()
            metrics["resubmits"] = self.resubmits
        return metrics

    def __repr__(self):
        return "ReshardCoordinator(state={}, epoch={}, pairs={})".format(
            self.state, self.epoch, len(self.pairs))
