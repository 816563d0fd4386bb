"""Byzantine fault injection (paper section 2.2 and Table 1 scenarios).

A behavior attaches to a :class:`repro.core.process.GroupProcess` and
deviates from the protocol through two hook points:

* ``filter_outgoing(dst, msg)`` -- called by the bottom layer for every
  datagram about to leave the node; the behavior may drop it (mute),
  alter it (two-faced / corruption), or pass it through;
* ``start()`` -- a scheduling hook for active attacks (flooding slanders,
  sending forged traffic).

Because the network prevents impersonation and the key manager never
releases another node's keys, behaviors model exactly the adversary of the
paper: arbitrary deviation *by a signed identity*.

The classes mirror Table 1, plus the active attackers that the chaos
plane's mid-run ``byzantine_at`` op switches on (equivocation on the
*control* plane, slander floods aimed at one victim, and replay storms of
stale traffic):

==================  ====================================================
ByzLeave            announces leave, then vanishes
MuteNode            stops sending anything at a chosen time
MuteCoordinator     goes mute only while it is the coordinator
VerboseNode         slanders everyone, all the time
BadViewCoordinator  sends a wrong new-view message when coordinator
TwoFacedCaster      casts different payloads to different receivers
Equivocator         per-receiver conflicting votes/views (control plane)
TargetedSlanderer   floods slanders against one chosen correct victim
ReplayStorm         replays recorded traffic in bursts, stale vids and
                    spoofed incarnation headers included
==================  ====================================================
"""

from __future__ import annotations

from zlib import crc32

from repro.core import message as mk
from repro.core.message import Message
from repro.layers.reliable import ARCHIVED_LEN


class ByzantineBehavior:
    """Base: a well-behaved 'behavior' (passes everything through)."""

    def __init__(self):
        self.process = None

    def install(self, process):
        self.process = process

    def start(self):
        """Called when the process starts; schedule active attacks here."""

    def filter_outgoing(self, dst, msg):
        """Return ``msg`` (possibly altered) or ``None`` to drop it."""
        return msg

    # convenience -------------------------------------------------------
    @property
    def sim(self):
        return self.process.sim

    @property
    def me(self):
        return self.process.node_id


class MuteNode(ByzantineBehavior):
    """Stops sending *everything* at ``mute_at`` (heartbeats included).

    This is the paper's ByzMuteNode scenario: the node keeps running (it
    still receives), but emits nothing -- indistinguishable, to others,
    from a crash, and detected by the fuzzy mute detector.
    """

    def __init__(self, mute_at=0.0):
        super().__init__()
        self.mute_at = mute_at
        self.muted = False

    def start(self):
        self.sim.schedule(self.mute_at, self._go_mute)

    def _go_mute(self):
        self.muted = True
        # gossip bypasses the bottom layer; silence it too
        self.process.gossip = lambda payload, size=64: None

    def filter_outgoing(self, dst, msg):
        if self.muted:
            return None
        return msg


class MuteCoordinator(MuteNode):
    """Mute only while holding the coordinator role (ByzMuteCoord).

    The damage profile differs from a plain mute node: the group loses its
    gossip announcements and its view generator, so detection rides on the
    coordinator-specific expectations.
    """

    def filter_outgoing(self, dst, msg):
        if self.muted and self.process.view.coordinator == self.me:
            return None
        return msg

    def _go_mute(self):
        self.muted = True
        original_gossip = self.process.gossip

        def gossip(payload, size=64):
            if self.process.view.coordinator != self.me:
                original_gossip(payload, size)
        self.process.gossip = gossip


class VerboseNode(ByzantineBehavior):
    """Slanders every other member, continuously (ByzVerboseNode).

    The attack tries to force needless view changes; the slander rate
    bound in the suspicion layer turns the flood into verbose fuzziness
    against the attacker itself.
    """

    def __init__(self, start_at=0.0, interval=0.002):
        super().__init__()
        self.start_at = start_at
        self.interval = interval
        self.slanders_sent = 0

    def start(self):
        self.sim.schedule(self.start_at, self._flood)

    def _flood(self):
        process = self.process
        if process.stopped:
            return
        view = process.view
        for target in view.mbrs:
            if target == self.me:
                continue
            slander = Message(mk.KIND_SLANDER, self.me, view.vid,
                              (target, "byz"), payload_size=12)
            process.membership.send_down(slander)
            self.slanders_sent += 1
        self.sim.schedule(self.interval, self._flood)


class BadViewCoordinator(ByzantineBehavior):
    """Sends a *wrong* new-view message when it is the view generator
    (CoordBadView): the membership list is truncated.

    Correct members verify the view content against their own computation
    before echoing, refuse it, suspect the coordinator, and re-run the
    view change without it.
    """

    def __init__(self):
        super().__init__()
        self.corrupted = 0

    def filter_outgoing(self, dst, msg):
        if msg.kind != mk.KIND_UB:
            return msg
        payload = msg.payload
        if (not isinstance(payload, tuple) or len(payload) != 2
                or not isinstance(payload[1], tuple)):
            return msg
        instance_id, proto = payload
        if proto[0] not in ("ub-initial", "br-initial", "ub-plain"):
            return msg
        value = proto[1]
        if not isinstance(value, tuple) or len(value) != 2:
            return msg
        view_wire, cut_wire = value
        if not isinstance(view_wire, tuple) or len(view_wire) != 6:
            return msg
        tag, vid_wire, mbrs, coordinator, f, under = view_wire
        bad_mbrs = tuple(m for m in mbrs if m != dst) or mbrs
        bad_view = (tag, vid_wire, bad_mbrs, coordinator, f, under)
        self.corrupted += 1
        out = msg.clone_for(dst)
        out.payload = (instance_id, (proto[0], (bad_view, cut_wire)))
        return out


class TwoFacedCaster(ByzantineBehavior):
    """Sends different versions of the "same" cast to different receivers.

    Plain reliable delivery cannot notice this; uniform delivery / total
    ordering must ensure all correct members agree on one version.
    """

    def __init__(self, alter=None):
        super().__init__()
        self.alter = alter or (lambda payload, dst: ("evil", payload, dst))
        self.forged = 0

    def filter_outgoing(self, dst, msg):
        if msg.kind != mk.KIND_CAST:
            return msg
        # re-sign the altered copy: signing our *own* message is allowed
        out = msg.clone_for(dst)
        out.payload = self.alter(msg.payload, dst)
        process = self.process
        receivers = tuple(m for m in process.view.mbrs if m != self.me)
        signature, _cost, _bytes = process.auth.sign(
            self.me, receivers, out)
        out.signature = signature
        self.forged += 1
        return out


class ForgedRetransmitter(ByzantineBehavior):
    """Serves NAKs with *altered* message contents.

    The inner signature no longer matches, so receivers reject the
    retransmission and mark this node as verbose-faulty.
    """

    def __init__(self):
        super().__init__()
        self.forged = 0

    def filter_outgoing(self, dst, msg):
        if msg.kind != mk.KIND_RETRANS:
            return msg
        wire = msg.payload
        if not isinstance(wire, tuple) or len(wire) != ARCHIVED_LEN:
            return msg
        (kind, origin, vid, stream, seq, payload, size, signature,
         msg_id) = wire
        if origin == self.me:
            return msg  # altering own messages is TwoFacedCaster's job
        out = msg.clone_for(dst)
        out.payload = (kind, origin, vid, stream, seq,
                       ("tampered", payload), size, signature, msg_id)
        # re-sign the outer wrapper so only the inner check can catch it
        process = self.process
        new_sig, _cost, _bytes = process.auth.sign(self.me, (dst,), out)
        out.signature = new_sig
        self.forged += 1
        return out


class SlowNode(ByzantineBehavior):
    """Not Byzantine, just *slow*: delays every outgoing datagram.

    The motivating case for fuzzy membership (paper section 3.1): a slow
    node must neither stall the group (fuzzy flow control skips it) nor be
    evicted too eagerly (the aging keeps its fuzziness oscillating below
    the suspicion threshold when the delay is moderate).
    """

    def __init__(self, delay=0.01, start_at=0.0):
        super().__init__()
        self.delay = delay
        self.start_at = start_at
        self.started = False
        self.delayed = 0

    def start(self):
        self.sim.schedule(self.start_at, self._go)

    def _go(self):
        self.started = True

    def filter_outgoing(self, dst, msg):
        if not self.started:
            return msg
        # re-send the copy later through the raw network, bypassing the
        # (already charged) bottom-layer path
        process = self.process
        size = msg.wire_size(6 * len(msg.headers), 0)
        self.delayed += 1
        self.sim.schedule(self.delay,
                          lambda: process.network.send(process.node_id, dst,
                                                       size, msg))
        return None


class Equivocator(ByzantineBehavior):
    """Per-receiver conflicting *control-plane* payloads (votes, views).

    Where :class:`TwoFacedCaster` two-faces application casts, this one
    equivocates on the agreement traffic itself: uniform-broadcast and
    consensus messages are altered for half of the receivers (split by a
    deterministic hash of the destination), each copy re-signed -- the
    strongest adversary Definitions 2.1/2.2 must survive, since a split
    initial vote is exactly what the echo quorums exist to mask.
    """

    def __init__(self, kinds=(mk.KIND_UB, mk.KIND_CONSENSUS, mk.KIND_ORDER),
                 start_at=0.0):
        super().__init__()
        self.kinds = tuple(kinds)
        self.start_at = start_at
        self.armed = start_at <= 0.0
        self.equivocations = 0

    def start(self):
        if not self.armed:
            self.sim.schedule(self.start_at, self._arm)

    def _arm(self):
        self.armed = True

    def filter_outgoing(self, dst, msg):
        if not self.armed or msg.kind not in self.kinds:
            return msg
        payload = msg.payload
        # uniform-broadcast / consensus envelopes are (instance_id, inner);
        # ordering envelopes are ("ord", k, inner) -- equivocate on both,
        # which under a window of two attacks both in-flight instances
        if not isinstance(payload, tuple) or len(payload) not in (2, 3):
            return msg
        if crc32(repr(dst).encode("utf-8")) & 1 == 0:
            return msg   # this half of the group sees the honest copy
        inner = payload[-1]
        out = msg.clone_for(dst)
        out.payload = payload[:-1] + (("equiv", inner, dst),)
        process = self.process
        receivers = tuple(m for m in process.view.mbrs if m != self.me)
        signature, _cost, _bytes = process.auth.sign(
            self.me, receivers, out)
        out.signature = signature
        self.equivocations += 1
        return out


class TargetedSlanderer(ByzantineBehavior):
    """Floods slanders against ONE chosen correct victim (slander storm).

    Unlike :class:`VerboseNode` (which slanders everyone and trips the
    rate bound on itself), the targeted flood concentrates on a single
    member, probing the f+1 adoption threshold: one Byzantine slanderer
    must never be able to evict a correct node, no matter the volume.
    """

    def __init__(self, target=None, start_at=0.02, interval=0.004):
        super().__init__()
        self.target = target
        self.start_at = start_at
        self.interval = interval
        self.slanders_sent = 0

    def start(self):
        self.sim.schedule(self.start_at, self._flood)

    def _victim(self):
        if self.target is not None and self.target in self.process.view.mbrs:
            return self.target
        others = sorted((m for m in self.process.view.mbrs if m != self.me),
                        key=repr)
        return others[0] if others else None

    def _flood(self):
        process = self.process
        if process.stopped:
            return
        victim = self._victim()
        if victim is not None:
            slander = Message(mk.KIND_SLANDER, self.me, process.view.vid,
                              (victim, "byz-flood"), payload_size=12)
            process.membership.send_down(slander)
            self.slanders_sent += 1
        self.sim.schedule(self.interval, self._flood)


class ReplayStorm(ByzantineBehavior):
    """Records ALL outgoing traffic and replays it in bursts.

    The repeated-operation adversary of the self-stabilizing repeated-BRB
    literature: old messages (stale seqs, stale view ids, optionally a
    spoofed ``inc`` transport header) arrive over and over.  The stack
    must absorb the storm with *bounded* state -- duplicate stream seqs
    die in the reliable layer, stale vids at the bottom layer's view
    filter, spoofed incarnations in the per-peer incarnation table -- and
    none of those tables may grow without bound while it rages (the
    BoundedStateChecker's concern).

    ``spoof_incarnation`` replays copies claiming incarnation + 1: peers
    bump their incarnation table and start dropping the node's *honest*
    traffic as stale, so the storm node effectively silences itself and
    must be evicted like a mute -- burning one's own identity is within
    the adversary's rights, harming others is not.
    """

    def __init__(self, start_at=0.05, interval=0.02, burst=8, keep=64,
                 spoof_incarnation=False):
        super().__init__()
        self.start_at = start_at
        self.interval = interval
        self.burst = burst
        self.keep = keep
        self.spoof_incarnation = spoof_incarnation
        self._tape = []
        self._cursor = 0
        self.replayed = 0

    def start(self):
        self.sim.schedule(self.start_at, self._storm)

    def filter_outgoing(self, dst, msg):
        if len(self._tape) < self.keep:
            self._tape.append((dst, msg))
        return msg

    def _storm(self):
        process = self.process
        if process.stopped:
            return
        for _ in range(min(self.burst, len(self._tape))):
            dst, msg = self._tape[self._cursor % len(self._tape)]
            self._cursor += 1
            out = msg
            if self.spoof_incarnation:
                out = msg.clone_for(dst)
                out.pop_header("inc", 0)
                out.push_header("inc", process.incarnation + 1)
            size = out.wire_size(6 * len(out.headers), 0)
            process.network.send(process.node_id, dst, size, out)
            self.replayed += 1
        self.sim.schedule(self.interval, self._storm)


class Replayer(ByzantineBehavior):
    """Records its own outgoing traffic and replays stale copies later.

    Replayed stream messages are exact duplicates (same seq): the reliable
    layer must absorb them without duplicate delivery; replayed messages
    from an old view must die at the bottom layer's view-id filter.
    """

    def __init__(self, replay_every=0.05, keep=50):
        super().__init__()
        self.replay_every = replay_every
        self.keep = keep
        self._tape = []
        self.replayed = 0

    def start(self):
        self.sim.schedule(self.replay_every, self._replay)

    def filter_outgoing(self, dst, msg):
        if len(self._tape) < self.keep and msg.kind == "cast":
            self._tape.append((dst, msg))
        return msg

    def _replay(self):
        process = self.process
        if process.stopped:
            return
        if self._tape:
            dst, msg = self._tape[self.sim.rng.randrange(len(self._tape))
                                  if hasattr(self.sim, "rng") else 0]
            size = msg.wire_size(6 * len(msg.headers), 0)
            process.network.send(process.node_id, dst, size, msg)
            self.replayed += 1
        self.sim.schedule(self.replay_every, self._replay)
