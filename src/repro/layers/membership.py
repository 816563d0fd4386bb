"""Byzantine membership maintenance (paper section 3.4).

The view change itself -- consensus on the suspicion vector, the flush,
the uniform broadcast of the new view -- is
:class:`repro.layers.view_change.ViewChange`, a machine without I/O that
flushes the reliable layer's stream machine directly.  This layer is its
host: it turns messages, timers and the stack's services into the
machine's inputs and outputs, and keeps what lives beside a change.

Merging (section 3.4.2): all nodes listen to coordinator gossip.  The
side with the *smaller* view identifier requests a merge; the target
coordinator announces the joiners to its own members (so the eventual view
is verifiable by everyone) and runs a normal view change that appends
them.  Joiners receive the installed view by direct message, cross-check
it among themselves, flush their own terminating view, and install.
"""

from __future__ import annotations

import hashlib

from repro.core import message as mk
from repro.core.message import Message
from repro.core.view import View
from repro.layers.base import Layer
from repro.layers.heartbeat import stack_fingerprint
from repro.layers.view_change import IDLE, JOINING, ViewChange, parse_report


def _digest(obj):
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:16]


class MembershipLayer(Layer):
    """Coordinator-driven Byzantine view management."""

    name = "membership"

    def __init__(self):
        super().__init__()
        self.machine = None
        self.leavers = set()
        self.joiners = None            # foreign View whose members join us
        self._merge_requested_at = {}
        self._merge_inflight = None    # (target coordinator, request time)
        self._rejoin_requested_at = -1e9
        self._join_offer = None        # (view, digest) received as a joiner
        self._join_echoes = {}
        self._join_done = {}           # member -> digest it flushed for
        self._join_timer = None        # fallback for a stalled join
        # measurement hooks used by the benchmarks
        self.view_changes = 0
        self.change_started_at = None
        self.last_change_duration = None
        self.leaving = False

    def attach(self, stack):
        super().attach(stack)
        process = stack.process  # services the machine uses as they are
        self.stability = process.stability
        self.mute = process.mute_detector
        self.verbose = process.verbose_detector
        self.machine = ViewChange(self, process.reliable.streams,
                                  self.config, self.me)

    def snapshot(self):
        """The view change and the merge/join state around it."""
        joiners = self.joiners
        return dict(self.machine.snapshot(), leaving=self.leaving,
                    merge_inflight=list(self._merge_inflight or ()) or None,
                    pending_joiners=(list(joiners.mbrs)
                                     if joiners is not None else None),
                    join_offer=self._join_offer is not None)

    def state_sizes(self):
        return dict(self.machine.state_sizes(),
                    join_echoes=len(self._join_echoes),
                    merge_requests=len(self._merge_requested_at))

    # ------------------------------------------------------------------
    # the machine's host
    # ------------------------------------------------------------------
    @property
    def f(self):
        return self.process.f

    def suspects(self, member):
        return self.process.suspicion.suspects(member)

    def suspected(self):
        return self.process.suspicion.suspected_set()

    def suspect(self, member, reason):
        self.process.suspicion.suspect_locally(member, reason=reason)

    def block(self):
        if self.change_started_at is None:
            self.change_started_at = self.sim.now
        self.stack.blocked = True
        self.stack.control("view-change-started")

    def aborted(self):
        self._cancel_join_timer()
        self.change_started_at = None
        self.stack.blocked = False
        self.stack.control("view-change-aborted")

    def wedge(self, undecidable):
        """The ordering half of the wedge (the machine wedged the streams):
        its (started, decided) watermarks."""
        return self.process.ordering_freeze(undecidable)

    def flush_app(self, k_star, on_done, undecidable):
        self.process.flush_app(k_star, on_done, undecidable=undecidable)

    def release_own(self):
        self.process.release_own()

    def install(self, new_view):
        started = self.change_started_at
        self.view_changes += 1
        self.count("view_changes")
        if started is not None:
            self.last_change_duration = self.sim.now - started
            self.observe("view_change_seconds", self.last_change_duration)
        self.change_started_at = None
        self.process.install_view(new_view)

    # ------------------------------------------------------------------
    # control and message planes
    # ------------------------------------------------------------------
    def on_view(self, view):
        self._cancel_join_timer()
        self.machine.on_view()
        self.leavers.clear()
        self.joiners = None
        self._join_offer = None
        self._join_echoes = {}
        self._join_done = {}
        self._merge_requested_at.clear()
        self._merge_inflight = None
        self._rejoin_requested_at = -1e9

    def _cancel_join_timer(self):
        if self._join_timer is not None:
            self._join_timer.cancel()
            self._join_timer = None

    def stop(self):
        self._cancel_join_timer()
        self.machine.stop()

    def _on_peer_misbehavior(self, member, reason):
        self.machine.misbehaved(member, reason)

    def on_control(self, event, data):
        if event == "start-view-change":
            self.machine.start(data.get("suspected", set()))
        elif event == "suspicions-updated":
            self.machine.on_suspicions(data.get("suspected", set()))
        elif event == "foreign-gossip":
            self._on_foreign_gossip(data["src"], data["view"],
                                    data["fingerprint"])

    def handle_up(self, msg):
        kind = msg.kind
        if kind in (mk.KIND_CONSENSUS, mk.KIND_SYNC, mk.KIND_UB):
            payload = msg.payload
            if (kind == mk.KIND_SYNC and isinstance(payload, tuple)
                    and payload[:1] == ("nv-echo",)):
                self._on_join_echo(msg)
            elif (kind == mk.KIND_SYNC and isinstance(payload, tuple)
                    and payload[:1] == ("nv-done",)):
                self._on_join_done(msg)
            else:
                self.machine.on_message(msg.origin, kind, payload)
        elif kind == mk.KIND_LEAVE:
            self._on_leave(msg)
        elif kind == mk.KIND_MERGE:
            payload = msg.payload
            if isinstance(payload, tuple) and payload[:1] == ("rejoin",):
                self._on_rejoin_request(msg)
            else:
                self._on_merge_request(msg)
        elif kind == mk.KIND_MANNOUNCE:
            self._on_merge_announce(msg)
        elif kind == mk.KIND_NEWVIEW:
            self._on_join_offer(msg)
        else:
            self.send_up(msg)

    # ------------------------------------------------------------------
    # leave
    # ------------------------------------------------------------------
    def _on_leave(self, msg):
        leaver = msg.origin
        if (leaver == self.me or leaver not in self.view.mbrs
                or leaver in self.leavers):
            return
        self.leavers.add(leaver)
        self.process.suspicion.adopt(leaver, reason="leave")

    def announce_leave(self):
        """Called by the endpoint: politely announce departure."""
        self.leaving = True
        self.send(mk.KIND_LEAVE, ("leave",), 6)

    # ------------------------------------------------------------------
    # merge (section 3.4.2)
    # ------------------------------------------------------------------
    def _on_foreign_gossip(self, src, foreign, fingerprint):
        view = self.view
        if fingerprint != stack_fingerprint(self.config):
            return
        if (self.me in foreign.mbrs
                and foreign.vid.key() > view.vid.key()
                and all(m in foreign.mbrs for m in view.mbrs)
                and self.machine.state == IDLE and not self.leaving):
            # A newer view still names us: its final view message never
            # reached us (a dropped datagram), and the merge path cannot
            # heal this -- the views are not disjoint -- so ask the
            # coordinator to resend the offer: one unicast round trip,
            # re-verified by _on_join_offer, no extra view change.
            now = self.sim.now
            if now - self._rejoin_requested_at < self.config.gossip_interval:
                return
            self._rejoin_requested_at = now
            self.count("rejoin_requests")
            self.send(mk.KIND_MERGE, ("rejoin",), 8, dest=foreign.coordinator)
            return
        if set(foreign.mbrs) & set(view.mbrs):
            return  # not disjoint: stale gossip about an ancestor view
        if self.machine.state != IDLE or self.leaving:
            return
        if foreign.vid.key() > view.vid.key():
            # we are the smaller side: our coordinator must request a merge
            if view.coordinator == self.me:
                inflight = self._merge_inflight
                now = self.sim.now
                if (inflight is not None
                        and now - inflight[1] < 6 * self.config.gossip_interval
                        and inflight[0] != foreign.coordinator):
                    return  # one courtship at a time: avoids split joins
                last = self._merge_requested_at.get(foreign.coordinator, -1e9)
                if now - last < self.config.gossip_interval:
                    return
                # re-requests to the same target must NOT refresh the
                # courtship start: an unresponsive (crashed-after-gossip,
                # leaving, or Byzantine) coordinator would otherwise pin
                # us forever and starve every other merge candidate
                if inflight is None or inflight[0] != foreign.coordinator:
                    self._merge_inflight = (foreign.coordinator, now)
                self._merge_requested_at[foreign.coordinator] = now
                self.send(mk.KIND_MERGE, ("request", view.to_wire()),
                          24 + 8 * view.n, dest=foreign.coordinator)
            else:
                # expect our coordinator to pursue the merge; if no new view
                # arrives, the coordinator gains mute fuzziness
                self.mute.expect(view.coordinator, "merge-progress",
                                 6 * self.config.gossip_interval)

    def _on_rejoin_request(self, msg):
        """A member missed our view install (a lost NEWVIEW) and saw the
        view in gossip.  Resending is idempotent and touches no change
        state; the requester re-runs the full joiner-side verification."""
        view = self.view
        if (self.me != view.coordinator or msg.origin == self.me
                or msg.origin not in view.mbrs):
            return
        self.count("rejoin_resends")
        self.send(mk.KIND_NEWVIEW, ("joined", view.to_wire()),
                  24 + 8 * view.n, dest=msg.origin)

    def _on_merge_request(self, msg):
        payload = msg.payload
        if (not isinstance(payload, tuple) or len(payload) != 2
                or payload[0] != "request"):
            self._on_peer_misbehavior(msg.origin, "membership:bad-merge")
            return
        try:
            foreign = View.from_wire(payload[1])
        except (TypeError, ValueError):
            self._on_peer_misbehavior(msg.origin, "membership:bad-merge-view")
            return
        view = self.view
        if (self.me != view.coordinator or self.machine.state != IDLE
                or self.leaving or msg.origin != foreign.coordinator
                or set(foreign.mbrs) & set(view.mbrs)
                or not foreign.vid.key() < view.vid.key()):
            return
        self.joiners = foreign
        self.send(mk.KIND_MANNOUNCE, ("announce", payload[1]),
                  24 + 8 * foreign.n)
        self.machine.start(self.suspected())

    def _on_merge_announce(self, msg):
        payload = msg.payload
        if (not isinstance(payload, tuple) or len(payload) != 2
                or payload[0] != "announce"):
            self._on_peer_misbehavior(msg.origin, "membership:bad-announce")
            return
        if msg.origin != self.view.coordinator:
            self._on_peer_misbehavior(msg.origin, "membership:announce-usurper")
            return
        try:
            foreign = View.from_wire(payload[1])
        except (TypeError, ValueError):
            self._on_peer_misbehavior(msg.origin, "membership:bad-announce")
            return
        if set(foreign.mbrs) & set(self.view.mbrs):
            return
        if self.joiners is None:
            self.joiners = foreign
            self.mute.fulfil(self.view.coordinator, "merge-progress")

    # ------------------------------------------------------------------
    # joiner side: receive and cross-check the merged view
    # ------------------------------------------------------------------
    def _on_join_offer(self, msg):
        payload = msg.payload
        if (not isinstance(payload, tuple) or len(payload) != 2
                or payload[0] != "joined"):
            return
        try:
            offered = View.from_wire(payload[1])
        except (TypeError, ValueError):
            return
        view = self.view
        # the target may not drop any of our members
        if (self.me not in offered
                or not all(member in offered for member in view.mbrs)
                or not offered.vid.key() > view.vid.key()
                or msg.sender not in offered.mbrs):
            return
        digest = _digest(payload[1])
        self._join_offer = (offered, digest)
        self.mute.fulfil(view.coordinator, "merge-progress")
        if view.n == 1:
            self.machine.leave_for(offered)
            return
        # cross-check among our old members: a two-faced target coordinator
        # must not split us across different "merged" views.  The echo
        # carries our report for the flush of the view we leave
        wire_report, ord_k = self.machine.joining()
        self.send(mk.KIND_SYNC, ("nv-echo", digest, payload[1], wire_report,
                                 ord_k), 24 + 6 * len(wire_report))
        self._join_echoes[self.me] = (digest, dict(wire_report), ord_k)
        # a co-member that moved on without us (it suspected us, or raced
        # into a different merge) will never echo; without an escape we
        # would wait forever in JOINING while our stale membership blocks
        # every future merge's disjointness guard
        self._cancel_join_timer()
        self._join_timer = self.arm(self.config.newview_timeout,
                                    self._join_fallback)
        self._maybe_finish_join()

    def _join_fallback(self):
        """The cross-check never completed: abandon the join for a fresh
        singleton view, which gossip merges back into whatever group
        exists now (the twin of the machine's excluded-member fallback)."""
        self._join_timer = None
        if self.machine.state != JOINING or self._join_offer is None:
            return
        self.count("join_fallbacks")
        self.machine.fall_back()

    def _on_join_echo(self, msg):
        payload = msg.payload
        if len(payload) != 5:
            return
        _tag, digest, view_wire, wire_report, ord_k = payload
        if msg.origin in self._join_echoes:
            if self._join_echoes[msg.origin][0] != digest:
                self._on_peer_misbehavior(msg.origin, "membership:join-equiv")
            return
        report = parse_report(wire_report, ord_k)
        if report is None:
            self._on_peer_misbehavior(msg.origin, "membership:bad-sync-body")
            return
        self._join_echoes[msg.origin] = (digest, report, ord_k)
        if self._join_offer is None:
            # adopt the offer relayed by a peer member (we may have missed
            # the unicast); full verification still applies
            relayed = Message(mk.KIND_NEWVIEW, msg.origin, self.view.vid,
                              ("joined", view_wire), dest=self.me)
            relayed.sender = msg.sender
            self._on_join_offer(relayed)
            return
        self._maybe_finish_join()

    def _maybe_finish_join(self):
        if self._join_offer is None:
            return
        offered, digest = self._join_offer
        echoes, members = self._join_echoes, self.view.mbrs
        if all(echoes.get(member, (None,))[0] == digest for member in members):
            self.machine.join_reports(
                {member: echoes[member][1:] for member in members})
        if all(self._join_done.get(member) == digest for member in members):
            self.machine.join_done(offered)

    def join_flushed(self):
        """Our flush of the view we leave is done: tell every member."""
        digest = self._join_offer[1]
        self._join_done[self.me] = digest
        self.send(mk.KIND_SYNC, ("nv-done", digest), 24)
        self._maybe_finish_join()

    def _on_join_done(self, msg):
        payload = msg.payload
        if len(payload) == 2 and msg.origin not in self._join_done:
            self._join_done[msg.origin] = payload[1]
            self._maybe_finish_join()
