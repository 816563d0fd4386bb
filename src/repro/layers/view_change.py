"""The view change of paper section 3.4 as a machine without I/O.

::

    IDLE --start--> CONSENSUS       vector consensus on the suspicions
    CONSENSUS --decided--> SYNC     wedge app stream, exchange SYNC reports
    SYNC --all reported--> CUT      agreed cut; recover gaps, deliver to it
    CUT --app flushed--> AWAIT_VIEW new coordinator uniformly broadcasts
                                    the new view
    AWAIT_VIEW --UB delivered + verified--> install
    IDLE --merge offer--> JOINING   wedge; reports ride the cross-check
                                    echoes; cut and app flush; install the
                                    offer once every member flushed

Byzantine defences at each step:

* the suspicion vector is agreed via :class:`VectorConsensus` so a
  Byzantine minority can never evict a correct member on its own;
* the new coordinator is *locally computable* (rank rotation), so every
  member knows who must produce the view and registers a fuzzy-mute
  expectation against it;
* the new-view message travels by Byzantine uniform broadcast, and members
  verify its content against what they can compute themselves before
  echoing (a coordinator sending a wrong view -- the paper's CoordBadView
  scenario -- is caught here and the change re-runs without it);
* a member withholds its uniform-broadcast echo until every message it
  knows of from the terminating view is deliverable locally (the flush
  rule of section 3.4.4), so installing members agree on delivered sets.

Inputs are peer messages (:meth:`ViewChange.on_message`), the regroup
timer, and local signals: suspicions updated, cut complete, app flushed,
stability changed.  The machine flushes the reliable layer's
:class:`repro.layers.reliable.StreamMachine` itself: it wedges it, reads
its ``stream_state`` for the SYNC report and sets the agreed cut on it.
Outputs go through the ``host``, the port it shares with that machine
(``send``, ``arm``, ``now``, ``count``; the membership layer in a stack,
``tests/machines.py`` beside the explorer): mute expectations, blocking,
the ordering freeze, the app flush and one install.  Everything one
attempt owns lives in one :class:`Attempt`; begin, restart, epoch join,
abort and install each replace it whole (:meth:`ViewChange._replace`).
"""

from __future__ import annotations

from functools import partial

from repro.broadcast.uniform import UniformBroadcast
from repro.consensus.vector import VectorConsensus
from repro.core import message as mk
from repro.core.view import View, ViewId, choose_coordinator

IDLE = "idle"
CONSENSUS = "consensus"
SYNC = "sync"
CUT = "cut"
AWAIT_VIEW = "await-view"
JOINING = "joining"

#: per-sender stash bounds: SYNC reports for this many epochs, and
#: uniform-broadcast messages that arrive before our flush completes
SYNC_STASH_EPOCHS = 4
UB_STASH_PER_SENDER = 8


def _natural(value):
    """A sequence number or watermark: a non-negative int, not a bool."""
    return type(value) is int and value >= 0


def parse_report(wire_report, ord_k):
    """A SYNC report off the wire as ``{origin: top}``, or None unless it
    and the ``(started, decided)`` watermarks are well formed."""
    try:
        report = {origin: top for origin, top in wire_report}
    except (TypeError, ValueError):
        return None
    if (not all(map(_natural, report.values())) or type(ord_k) is not tuple
            or len(ord_k) != 2 or not all(map(_natural, ord_k))):
        return None
    return report


class Attempt:
    """Everything one view-change attempt owns."""

    def __init__(self, suspected):
        self.suspected = suspected    # evidence the attempt started from
        self.consensus = None         # None in regroup mode
        self.survivors = None
        self.new_coord = None
        self.undecidable = False      # survivors below an ordering quorum
        self.sync_sent = None         # our frozen (wire report, ord_k)
        self.sync_reports = {}
        self.sync_ord_k = {}
        self.sync_stash = []          # (origin, epoch, report, ord_k)
        self.sync_nudged = set()      # laggards we re-sent our report to
        self.cut = None
        self.ub = None
        self.ub_ready = False
        self.ub_stash = []            # (sender, (instance_id, proto))
        self.watching = False         # subscribed to stability updates
        self.expectations = []
        self.reentered = False        # begun by a peer's regroup re-entry
        self.flushed = False          # a join flush delivered its cut


class ViewChange:
    """One node's view-change machine; see the module docstring."""

    def __init__(self, host, streams, config, me):
        self.host = host
        self.streams = streams
        self.config = config
        self.me = me
        self.state = IDLE
        self.epoch = 0
        self.attempt = Attempt(frozenset())
        # the last regroup timer armed, for stop(); it outlives its attempt
        # and its view (ROADMAP 6 pins that, for the one golden re-record)
        self.regroup_timer = None
        # the highest view counter we ever proposed or installed; a view
        # we CREATE later takes a larger one, or an aborted attempt and a
        # later singleton fallback could bind two memberships to one vid
        self.counter_floor = 0

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _to(self, state):
        """The one writer of ``state``."""
        self.state = state

    def _replace(self, state, epoch=None, suspected=frozenset(), carry=False):
        """End the current attempt and start ``state``'s record whole; with
        ``carry`` it inherits the stashed SYNC reports and UB messages for
        its epoch or later."""
        old = self.attempt
        for exp in old.expectations:
            exp.cancel()
        if old.watching:
            self.host.stability.unsubscribe(self.on_stability)
        if epoch is not None:
            self.epoch = epoch
        new = self.attempt = Attempt(suspected)
        if carry:
            new.sync_stash = [e for e in old.sync_stash
                              if e[1] >= self.epoch]
            new.ub_stash = [e for e in old.ub_stash
                            if e[1][0][2] >= self.epoch]
        self._to(state)

    def on_view(self):
        """A view was installed.  Epochs restart at 0: instance ids are
        scoped by vid, and a common baseline lines up members that joined
        by different merge paths (regroup mode cannot reconcile them)."""
        self._replace(IDLE, 0)

    def joining(self):
        """The host cross-checks a merged view offered to us.  Meanwhile
        our view is flushed among all its members, as a change that fails
        no one flushes it: wedged now, with the SYNC report returned here
        riding the host's cross-check echo; :meth:`join_reports` fixes the
        cut once every member's echo is in."""
        if self.state == JOINING:
            return self.attempt.sync_sent
        self._replace(JOINING)
        att = self.attempt
        att.survivors = list(self.host.view.mbrs)
        self.host.block()
        self.streams.wedge()
        report = self.streams.stream_state()
        att.sync_sent = (tuple(sorted(report.items(), key=repr)),
                         self.host.wedge(False))
        return att.sync_sent

    def join_reports(self, reports):
        """Every member echoed the offer with its report, ``{member:
        (report, ord_k)}``: fix the cut as :meth:`_maybe_finish_sync`
        does, deliver to it and finish the app backlog; then the host
        says so to every member, and installs the offer once every member
        has (:meth:`join_done`)."""
        att = self.attempt
        if self.state != JOINING or att.cut is not None:
            return
        att.cut = cut = {origin: 0 for origin in self.host.view.mbrs}
        for report, _ord_k in reports.values():
            for origin, top in report.items():
                if origin in cut and top > cut[origin]:
                    cut[origin] = top
        k_star = max(ord_k[0] for _report, ord_k in reports.values())
        self.streams.set_cut(cut, att.survivors, partial(
            self.host.flush_app, k_star, partial(self._join_flushed, att),
            False))

    def _join_flushed(self, att):
        if self.attempt is att and self.state == JOINING:
            att.flushed = True
            self.host.join_flushed()

    def join_done(self, offered):
        """Every member delivered the cut and flushed its app backlog, so
        no one needs anything more of our view: install ``offered``."""
        if self.state == JOINING and self.attempt.flushed:
            self.install(offered)

    def stop(self):
        # crash semantics: a dead node's regroup retry must not fire
        if self.regroup_timer is not None:
            self.regroup_timer.cancel()
            self.regroup_timer = None
        for exp in self.attempt.expectations:
            exp.cancel()
        self.attempt.expectations = []

    def _expect(self, member, tag, timeout):
        self.attempt.expectations.append(
            self.host.mute.expect(member, tag, timeout))

    def misbehaved(self, member, reason):
        if self.config.byzantine and member != self.me:
            self.host.verbose.illegal(member, reason)

    def state_sizes(self):
        att = self.attempt
        return {"sync_reports": len(att.sync_reports),
                "sync_pending": len(att.sync_stash),
                "ub_pending": len(att.ub_stash)}

    def snapshot(self):
        return dict(self.state_sizes(), state=self.state, epoch=self.epoch)

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    def on_message(self, sender, kind, payload):
        handler = {mk.KIND_CONSENSUS: self._on_consensus,
                   mk.KIND_SYNC: self._on_sync}.get(kind, self._on_ub)
        handler(sender, payload)

    def start(self, suspected):
        """Local evidence (or a merge) asks for a view change."""
        if self.state == IDLE:
            self._begin(suspected)

    def on_suspicions(self, suspected):
        att = self.attempt
        if att.consensus is not None:
            att.consensus.notify_suspicion_change()
        if self.state == CONSENSUS:
            fresh = set(suspected) - att.suspected
            if fresh and len(set(suspected) | self.host.leavers) > self.host.f:
                # the consensus floor of n - f responders is no longer
                # reachable; restart, which routes into regroup mode
                self._restart()
        elif (self.state in (SYNC, CUT, AWAIT_VIEW)
              and set(att.survivors) & set(suspected) - att.suspected):
            # a survivor (possibly the new coordinator) failed during the
            # flush: re-run the agreement with the new evidence
            self._restart()

    # ------------------------------------------------------------------
    # phase 1: consensus on the suspicion vector
    # ------------------------------------------------------------------
    def _begin(self, suspected, reentered=False):
        host = self.host
        if host.view.n == 1 and host.joiners is None:
            return  # nothing to decide in a singleton view
        host.count("view_changes_started")
        self._replace(CONSENSUS, self.epoch + 1, set(suspected) | host.leavers,
                      carry=True)
        self.attempt.reentered = reentered
        host.block()
        self._start_agreement()

    def _evidence(self):
        return set(self.host.suspected()) | self.host.leavers

    def _join(self, epoch, first):
        self._replace(CONSENSUS, epoch, self._evidence(), carry=True)
        self.host.block()
        self._start_agreement(first)

    def _restart(self, epoch=None, report=None):
        self._replace(CONSENSUS, epoch or self.epoch + 1, self._evidence(),
                      carry=True)
        if report is not None:
            self._stash_report(report)
        self._start_agreement()

    def _start_agreement(self, first=None):
        """Choose how to agree on the failed set.

        The vector consensus needs n - f connected correct members; with
        more than f suspected (a partition, a mass crash) it would never
        terminate.  The paper leaves this open (section 3.4.5); we fall
        back to *regroup* mode: survivors converge on the suspicion set by
        slander exchange and go straight to the flush -- the verified
        uniform broadcast of the new view still keeps a wrong membership
        from installing.
        """
        host, att = self.host, self.attempt
        if len(att.suspected) > host.f:
            # one heartbeat of grace so slanders equalize suspicion sets
            self.regroup_timer = host.arm(self.config.heartbeat_interval,
                                          self._regroup_fire, self.epoch)
            return
        view = host.view
        instance_id = ("vc", view.vid.key(), self.epoch)
        att.consensus = VectorConsensus(
            instance_id, list(view.mbrs), self.me, host.f,
            tuple(1 if m in att.suspected else 0 for m in view.mbrs),
            partial(self._bcast, mk.KIND_CONSENSUS, instance_id,
                    12 + view.n),
            is_suspected=host.suspects, on_decide=self._decided,
            on_misbehavior=self.misbehaved,
            coordinator_seed=view.vid.key(), on_round=self._on_round)
        att.consensus.start()
        if first is not None:
            att.consensus.on_message(*first)

    def _bcast(self, kind, instance_id, size, payload):
        self.host.send(kind, (instance_id, payload), size)

    def _on_round(self, rnd, awaited):
        for member in awaited:
            if member != self.me:
                self._expect(member, "consensus",
                            self.config.consensus_msg_timeout)

    def _regroup_fire(self, epoch):
        if epoch != self.epoch or self.state != CONSENSUS:
            return
        suspected = self.attempt.suspected = self._evidence()
        self._decided(tuple(1 if m in suspected else 0
                            for m in self.host.view.mbrs))

    def _on_consensus(self, sender, payload):
        if not isinstance(payload, tuple) or len(payload) != 2:
            self.misbehaved(sender, "membership:bad-consensus")
            return
        instance_id, proto = payload
        if (not isinstance(instance_id, tuple) or len(instance_id) != 3
                or instance_id[0] != "vc"):
            self.misbehaved(sender, "membership:bad-instance")
            return
        self.host.mute.fulfil(sender, "consensus")
        _tag, vid_key, epoch = instance_id
        if (vid_key != self.host.view.vid.key() or not isinstance(epoch, int)
                or epoch < 1 or epoch > self.epoch + 64):
            return
        consensus = self.attempt.consensus
        if epoch > self.epoch:
            # another member detected failures (or a later attempt) first:
            # join its consensus epoch with our own local evidence
            self._join(epoch, (sender, proto))
        elif consensus is not None and instance_id == consensus.instance_id:
            consensus.on_message(sender, proto)
        elif (epoch == self.epoch and consensus is None
              and not self.attempt.reentered):
            # a peer runs consensus at our epoch while we are idle or in
            # regroup mode: start the next attempt.  One begun this way
            # out of regroup mode does not do it again, so a flooding
            # member cannot re-arm the regroup timer once per message.
            self._begin(self.host.suspected(),
                        reentered=self.state not in (IDLE, JOINING))

    # ------------------------------------------------------------------
    # phase 2: flush (sync + cut)
    # ------------------------------------------------------------------
    def _decided(self, vector):
        host = self.host
        view = host.view
        failed = {view.mbrs[k] for k, bit in enumerate(vector) if bit == 1}
        if not failed and host.joiners is None:
            # nothing to change after all; resume normal operation
            self._replace(IDLE)
            host.aborted()
            return
        if self.me in failed:
            self.fall_back()  # the group agreed to exclude us
            return
        att = self.attempt
        survivors = att.survivors = [m for m in view.mbrs if m not in failed]
        att.new_coord = choose_coordinator(view.vid.counter, survivors)
        self._to(SYNC)
        # regroup territory: with fewer than n - f survivors no ordering
        # quorum can complete; the host freezes ordering so the
        # watermarks we report stay true
        att.undecidable = len(survivors) < view.n - host.f
        self.streams.wedge()
        report = self.streams.stream_state()
        ord_k = host.wedge(att.undecidable)
        att.sync_sent = (tuple(sorted(report.items(), key=repr)), ord_k)
        self._send_report()
        att.sync_reports[self.me] = dict(report)
        att.sync_ord_k = {self.me: ord_k}
        # fold in reports that arrived ahead of our decision
        pending, att.sync_stash = att.sync_stash, []
        for origin, epoch, peer_report, peer_ord_k in pending:
            if (epoch == self.epoch and origin in survivors
                    and origin not in att.sync_reports):
                att.sync_reports[origin] = peer_report
                att.sync_ord_k[origin] = peer_ord_k
        for member in survivors:
            if member != self.me and member not in att.sync_reports:
                self._expect(member, "sync", self.config.consensus_msg_timeout)
        self._maybe_finish_sync()

    def _send_report(self):
        wire_report, ord_k = self.attempt.sync_sent
        self.host.send(mk.KIND_SYNC, ("report", self.epoch, wire_report, ord_k),
                       8 + 6 * len(wire_report))

    def _stash_report(self, entry):
        """Keep a peer's report for a later decision: the first per
        (sender, epoch), at most ``SYNC_STASH_EPOCHS`` epochs per sender,
        and none from an epoch already behind us."""
        stash = self.attempt.sync_stash
        epochs = [e[1] for e in stash if e[0] == entry[0]]
        if (entry[1] >= self.epoch and entry[1] not in epochs
                and len(epochs) < SYNC_STASH_EPOCHS):
            stash.append(entry)

    def _on_sync(self, sender, payload):
        if (not isinstance(payload, tuple) or len(payload) != 4
                or payload[0] != "report"):
            self.misbehaved(sender, "membership:bad-sync")
            return
        _tag, epoch, wire_report, ord_k = payload
        self.host.mute.fulfil(sender, "sync")
        att = self.attempt
        if sender in att.sync_reports and epoch == self.epoch:
            return
        report = parse_report(wire_report, ord_k)
        if report is None or type(epoch) is not int:
            self.misbehaved(sender, "membership:bad-sync-body")
            return
        entry = (sender, epoch, report, ord_k)
        if self.state not in (SYNC, CUT, AWAIT_VIEW):
            # a report racing ahead of our own decision arrives exactly
            # once: dropping it would wedge the flush once we decide
            self._stash_report(entry)
            return
        if epoch != self.epoch:
            # Regroup mode runs no consensus, so _join never reconciles
            # epochs; without the rules below, members whose attempt
            # counters diverged flush forever at different epochs (the
            # post-merge leave wedge the conformance workload exposed).
            if att.consensus is not None:
                return  # consensus traffic will reconcile
            if self.epoch < epoch <= self.epoch + 64:
                # a peer is flushing ahead of us: adopt its epoch (the
                # report is folded in once we re-enter SYNC)
                self._restart(epoch, entry)
            elif epoch < self.epoch and sender not in att.sync_nudged:
                # a laggard flushing at a stale epoch: repeat our own
                # report once so it can adopt the current epoch
                att.sync_nudged.add(sender)
                if att.sync_sent is not None:
                    self._send_report()
            return
        att.sync_reports[sender] = report
        att.sync_ord_k[sender] = ord_k
        if self.state == SYNC:
            self._maybe_finish_sync()

    def _maybe_finish_sync(self):
        att = self.attempt
        if self.state != SYNC or any(m not in att.sync_reports
                                     for m in att.survivors):
            return
        cut = {origin: 0 for origin in self.host.view.mbrs}
        for member in att.survivors:
            for origin, top in att.sync_reports[member].items():
                if origin in cut and top > cut[origin]:
                    cut[origin] = top
        att.cut = cut
        self._to(CUT)
        if att.new_coord != self.me:
            self._expect(att.new_coord, "newview", self.config.newview_timeout)
        self.streams.set_cut(cut, att.survivors, self.on_cut_complete)

    def on_cut_complete(self):
        if self.state != CUT:
            return
        att = self.attempt
        index = 1 if att.undecidable else 0
        k_star = max((att.sync_ord_k.get(m, (0, 0))[index]
                      for m in att.survivors), default=0)
        # the app layers (total ordering / uniform delivery) finish their
        # agreed backlog now that every member holds exactly the cut; only
        # then may we echo the new view (paper section 3.4.4)
        self.host.flush_app(k_star, partial(self.on_app_flushed, self.epoch),
                            att.undecidable)

    def on_app_flushed(self, epoch):
        if self.state != CUT or epoch != self.epoch:
            return
        att = self.attempt
        self._to(AWAIT_VIEW)
        att.ub_ready = True
        pending, att.ub_stash = att.ub_stash, []
        for sender, payload in pending:
            self._feed_ub(sender, payload)
        if self.me == self.attempt.new_coord:
            self._try_send_view()

    # ------------------------------------------------------------------
    # phase 3: uniform broadcast of the new view
    # ------------------------------------------------------------------
    def _proposed_view(self):
        view, joining = self.host.view, self.host.joiners
        att = self.attempt
        joiners = ()
        counter = view.vid.counter + 1
        if joining is not None:
            joiners = tuple(sorted(joining.mbrs, key=repr))
            counter = max(counter, joining.vid.counter + 1)
        members = tuple(att.survivors) + joiners
        if att.new_coord == self.me:
            # only the creator can collide with its own past proposals
            counter = max(counter, self.counter_floor + 1)
        f = self.config.resilience(len(members))
        return View(ViewId(counter, att.new_coord), members,
                    coordinator=att.new_coord, f=f,
                    underprovisioned=(f == 0 and self.config.byzantine))

    def _try_send_view(self):
        att, stability = self.attempt, self.host.stability
        if self.state != AWAIT_VIEW:
            return
        if not stability.all_stable(att.cut, att.survivors):
            if not att.watching:
                att.watching = True
                stability.subscribe(self.on_stability)
            return
        # the cut went stable: the send below is one-shot per change, so
        # this change's registration is spent
        if att.watching:
            stability.unsubscribe(self.on_stability)
        att.watching = False
        proposed = self._proposed_view()
        # the vid is about to go on the wire bound to this membership:
        # nothing this node creates later may reuse the counter
        self.counter_floor = max(self.counter_floor, proposed.vid.counter)
        value = (proposed.to_wire(), tuple(sorted(att.cut.items(), key=repr)))
        ub = self._ub_instance()
        if ub is None:
            # view too small for the agreement protocol: send the view as a
            # plain broadcast (underprovisioned mode, DESIGN.md deviation 5)
            self._bcast(mk.KIND_UB, ("nv", self.host.view.vid.key(),
                                     self.epoch),
                        24 + 8 * len(att.survivors), ("ub-plain", value))
            self._delivered(value)
        else:
            ub.originate(value)

    def on_stability(self):
        if self.state == AWAIT_VIEW and self.attempt.watching:
            self._try_send_view()

    def _ub_instance(self):
        att = self.attempt
        if att.ub is not None:
            return att.ub
        instance_id = ("nv", self.host.view.vid.key(), self.epoch)
        bcast = partial(self._bcast, mk.KIND_UB, instance_id,
                        24 + 8 * len(att.survivors))
        # n too small for the broadcast at this f: retry at f=0, and
        # below even that (tiny views) fall back to plain delivery
        for f in (self.host.f, 0) if self.host.f else (0,):
            try:
                att.ub = UniformBroadcast(
                    instance_id, list(att.survivors), self.me, f,
                    att.new_coord, bcast, on_deliver=self._delivered,
                    on_misbehavior=self.misbehaved)
                break
            except ValueError:
                pass
        return att.ub

    def _on_ub(self, sender, payload):
        if not isinstance(payload, tuple) or len(payload) != 2:
            self.misbehaved(sender, "membership:bad-ub")
            return
        instance_id = payload[0]
        if (not isinstance(instance_id, tuple) or len(instance_id) != 3
                or instance_id[0] != "nv"
                or instance_id[1] != self.host.view.vid.key()):
            return
        att = self.attempt
        if att.ub_ready:
            self._feed_ub(sender, payload)
        elif (isinstance(instance_id[2], int) and instance_id[2] >= self.epoch
              and sum(1 for s, _p in att.ub_stash if s == sender)
              < UB_STASH_PER_SENDER):
            att.ub_stash.append((sender, payload))

    def _feed_ub(self, sender, payload):
        instance_id, proto = payload
        att, host = self.attempt, self.host
        if instance_id[2] != self.epoch or self.state != AWAIT_VIEW:
            return
        if not isinstance(proto, tuple) or len(proto) != 2:
            self.misbehaved(sender, "membership:bad-ub-proto")
            return
        if proto[0] == "ub-plain":
            # underprovisioned fallback: accept the coordinator's word
            if sender == att.new_coord and att.ub is None:
                self._delivered(proto[1])
            return
        if proto[0] == "ub-initial":
            host.mute.fulfil(att.new_coord, "newview")
            if not self._verify(proto[1]):
                # the coordinator sent a wrong view (CoordBadView): do not
                # echo it, suspect the coordinator, and re-run the change
                host.verbose.illegal(att.new_coord,
                                     "membership:bad-view-content")
                host.suspect(att.new_coord, "bad-view")
                return
        ub = self._ub_instance()
        if ub is not None:
            ub.on_message(sender, proto)

    def _verify(self, value):
        if not isinstance(value, tuple) or len(value) != 2:
            return False
        view_wire, cut_wire = value
        try:
            proposed = View.from_wire(view_wire)
            cut = {origin: int(top) for origin, top in cut_wire}
        except (TypeError, ValueError):
            return False
        att = self.attempt
        return (proposed.mbrs == self._proposed_view().mbrs
                and proposed.coordinator == att.new_coord
                and proposed.vid.counter >= self.host.view.vid.counter + 1
                and proposed.vid.creator == att.new_coord
                and cut == att.cut)

    def _delivered(self, value):
        if self.state != AWAIT_VIEW:
            return
        if not self._verify(value):
            # can only happen if >= quorum echoed a bad view, which needs
            # more than f Byzantine members; still never install it
            self.host.suspect(self.attempt.new_coord, "bad-view-delivered")
            return
        new_view = View.from_wire(value[0])
        joiners = [m for m in new_view.mbrs if m not in self.host.view.mbrs]
        self.install(new_view)
        if joiners and new_view.coordinator == self.me:
            for joiner in joiners:
                self.host.send(mk.KIND_NEWVIEW, ("joined", new_view.to_wire()),
                               24 + 8 * new_view.n, dest=joiner)

    def install(self, new_view):
        self.counter_floor = max(self.counter_floor, new_view.vid.counter)
        self.host.install(new_view)

    def leave_for(self, new_view):
        """Install ``new_view``, which no member of our view but us enters,
        without a flush: our own casts still held below the application
        are delivered first, as no one else delivers them after us."""
        self.host.release_own()
        self.install(new_view)

    def fall_back(self):
        """Install a singleton view, its counter past all we ever proposed
        or installed (Def 2.1 item 2); gossip merges us back."""
        view = self.host.view
        self.leave_for(View(ViewId(max(view.vid.counter,
                                       self.counter_floor) + 1,
                                   self.me),
                            (self.me,), coordinator=self.me, f=0,
                            underprovisioned=True))
