"""Bottom layer: network attach, one-shot signing, and message filtering.

This is the only place cryptography happens (paper section 1.2): every
outgoing message is signed exactly once, every incoming datagram verified
exactly once.  Filtering of bad messages -- corrupt (signature mismatch),
impersonated (claimed origin differs from the true network source), or
sent in a different view -- also happens here, so no higher layer ever
sees them (paper section 3.3).

The layer also charges the node's CPU for per-datagram processing and for
cryptographic work, which is what makes the simulated throughput finite
and lets the benchmarks reproduce the paper's crypto cost measurements.
On a real clock a charge completes at once: the host has already paid
for the work (runtime/clock.py).
"""

from __future__ import annotations

from repro.core import message as mkinds
from repro.layers.base import Layer
from repro.runtime.wire import WireError

#: kinds a node may accept from outside its current view
CROSS_VIEW_KINDS = frozenset({mkinds.KIND_MERGE, mkinds.KIND_NEWVIEW})

#: modelled per-header wire overhead, bytes
HEADER_BYTES = 6

#: signature rejections from one transmitter, in one view, after which
#: the bottom layer reports it to the suspicion layer
CORRUPTION_SUSPECT_THRESHOLD = 4


class BottomLayer(Layer):
    """The lowest micro-protocol layer; talks to the simulated network."""

    name = "bottom"

    def __init__(self):
        super().__init__()
        self.messages_signed = 0
        self.datagrams_in = 0
        self.dropped_bad_signature = 0
        self.dropped_wrong_view = 0
        self.dropped_wrong_group = 0
        self.dropped_impersonation = 0
        self.dropped_stale_incarnation = 0
        self.dropped_undecodable = 0
        self.dropped_unencodable = 0
        # crash-recovery: highest incarnation seen per transmitter.  Kept
        # across views on purpose -- a reincarnated peer's number must not
        # reset when the membership changes, or the dead incarnation's
        # stragglers would be accepted again.
        self._peer_inc = {}
        # corruption-triggered suspicion: consecutive signature rejections
        # per transmitter since the last view change
        self._sig_strikes = {}
        self._cpu_queue = None

    def state_sizes(self):
        return {
            "peer_inc": len(self._peer_inc),
            "sig_strikes": len(self._sig_strikes),
        }

    def attach(self, stack):
        super().attach(stack)
        # every event this layer schedules fires at a Cpu.charge deadline,
        # and those are non-decreasing per node -- so the whole CPU backlog
        # rides one serial queue and the global heap holds at most one
        # entry per node instead of one per queued datagram
        # (docs/PERFORMANCE.md, "The CPU path")
        self._cpu_queue = self.sim.serial_queue()
        # fixed at process construction; cached off the per-message path
        self._group_id = getattr(self.process, "group_id", None)
        self._encodes = getattr(self.process.network, "encodes", False)
        # the receive charge: per datagram, and per message in it
        self._per_in = 0.0
        if self.config.byzantine:
            self._per_in += self.config.host.byz_check_cpu
            if self.config.crypto != "none":
                self._per_in += (self.process.auth.costs.sym_verify
                                 if self.config.crypto == "sym"
                                 else self.process.auth.costs.pub_verify)
        self._in_cost = self.config.host.recv_cpu + self._per_in

    # ------------------------------------------------------------------
    # downward: sign once, charge CPU, transmit per destination
    # ------------------------------------------------------------------
    def handle_down(self, msg):
        process = self.process
        if msg.dest is not None:
            receivers = (msg.dest,)
        else:
            receivers = tuple(m for m in self.view.mbrs if m != self.me)
        if not receivers:
            return
        group = self._group_id
        if group is not None and msg.group != group:
            # multi-group envelope: stamped before signing so the shard id
            # is covered by the signature -- a datagram replayed into a
            # different shard fails verification, not just the filter below
            msg.group = group
            msg._signed = msg._auth_cache = None
        try:
            signature, sign_cost, sig_bytes = process.auth.sign(
                self.me, receivers, msg)
            if self._encodes and len(receivers) > 1:
                msg.signed_block()    # one block for the fan-out's frames
        except WireError:
            # what no frame can carry: a Byzantine payload this member
            # relays (its own pass wire.check_payload at submit)
            self.dropped_unencodable += 1
            self.count("drop_unencodable")
            return
        msg.signature = signature
        self.messages_signed += 1
        self.count("messages_signed")
        self.observe("sign_cpu", sign_cost)
        if process.incarnation:
            # transport metadata, pushed AFTER signing and left out of
            # the signed block (so it keeps the memoized digest): archived
            # copies retransmitted by third parties (which reconstruct
            # only the signed headers) still verify.  It defends against
            # *stale* messages, not active forgery -- the impersonation check
            # already makes the network source authoritative.  First-boot
            # processes (incarnation 0) push nothing, so wire sizes and
            # seed-pinned timings are unchanged unless a restart happened.
            msg.push_header("inc", process.incarnation)
        host = self.config.host
        per_datagram = host.send_cpu
        if self.config.byzantine:
            per_datagram += host.byz_check_cpu
        total_cpu = sign_cost + per_datagram * len(receivers)
        size = msg.wire_size(HEADER_BYTES * len(msg.headers), sig_bytes)
        done = process.cpu.charge(total_cpu)
        self.sim.schedule_serial(self._cpu_queue, done,
                                 self._transmit, msg, receivers, size)

    def _transmit(self, msg, receivers, size):
        process = self.process
        behavior = process.behavior
        for dst in receivers:
            out = msg.clone_for(dst)
            if behavior is not None:
                out = behavior.filter_outgoing(dst, out)
                if out is None:
                    continue
            process.network.send(self.me, dst, size, out)

    # ------------------------------------------------------------------
    # upward: charge CPU, verify once, filter, pass up
    # ------------------------------------------------------------------
    def on_datagram(self, src, msg):
        """Raw datagram arrival (called by the owning process): one
        ``Message``, or a tuple of them -- the sub-frames of one coalesced
        UDP datagram, which the transport hands over whole."""
        self.datagrams_in += 1
        if type(msg) is tuple:
            # one per-datagram charge and one callback for the batch
            cost = self.config.host.recv_cpu + self._per_in * len(msg)
            done = self.process.cpu.charge(cost)
            self.sim.schedule_serial(self._cpu_queue, done,
                                     self._process_batch_in, src, msg)
            return
        done = self.process.cpu.charge(self._in_cost)
        self.sim.schedule_serial(self._cpu_queue, done,
                                 self._process_in, src, msg)

    def _process_batch_in(self, src, batch):
        process_in = self._process_in
        for msg in batch:
            process_in(src, msg)

    def _process_in(self, src, msg):
        process = self.process
        if process.stopped:
            return
        try:
            hash(src)
        except TypeError:
            # a claimed source no table can be keyed by names no node
            self.count("drop_bad_source")
            return
        # popped before verification so the remaining headers match the
        # signed content (the header is unsigned transport metadata)
        inc = msg.pop_header("inc", 0)
        if self.config.byzantine:
            # impersonation check: the claimed transmitter must be the true
            # network source (the paper assumes nodes cannot impersonate,
            # realized by cryptography / private lines -- section 2.2)
            if msg.sender != src:
                self.dropped_impersonation += 1
                self.count("drop_impersonation")
                process.verbose_detector.illegal(src, "bottom:impersonation")
                return
            ok, _cost = process.auth.verify(
                self.me, msg.origin if msg.sender == msg.origin else msg.sender,
                msg, msg.signature)
            if not ok:
                # a corrupt or forged message: its digest does not fit its
                # content; drop it before it reaches any layer
                self.dropped_bad_signature += 1
                self.count("drop_bad_signature")
                process.verbose_detector.illegal(src, "bottom:bad-signature")
                self._sig_strike(src)
                return
        if msg.group != self._group_id:
            # a message for another shard on the shared transport (or a
            # cross-shard replay): never let it reach this group's layers
            self.dropped_wrong_group += 1
            self.count("drop_wrong_group")
            return
        if type(inc) is not int or inc < 0:
            # the header is unsigned: anything but a non-negative int
            # ("x", None, a tuple) would raise in the comparison below, or
            # (1.5, True) be adopted as the peer's incarnation
            self.count("drop_bad_inc")
            if self.config.byzantine:
                process.verbose_detector.illegal(src, "bottom:bad-inc")
            return
        known = self._peer_inc.get(src, 0)
        if inc != known:
            if inc < known:
                # a straggler from a dead incarnation of a restarted peer:
                # reject it here so it cannot replay into the fresh stack
                self.dropped_stale_incarnation += 1
                self.count("drop_stale_incarnation")
                return
            self._peer_inc[src] = inc
        if (msg.view_id != process.view.vid
                and msg.kind not in CROSS_VIEW_KINDS):
            self.dropped_wrong_view += 1
            self.count("drop_wrong_view")
            return
        process.note_heard_from(src)
        self.send_up(msg)

    def note_undecodable(self, src):
        """An arriving datagram failed wire decoding (real-network runtime:
        truncated, bit-flipped, or garbage bytes).  The simulator never
        produces these -- its payloads are structured objects -- but on the
        wire they are exactly the corruption the signature check would have
        caught one step later, so they feed the same evidence trail: the
        verbose detector's illegal count and the corruption-strike path
        toward ``CORRUPTION_SUSPECT_THRESHOLD``.  ``src`` is the claimed
        frame source when the header survived, else None (unattributable
        noise is counted but suspects nobody)."""
        if self.process.stopped:
            return
        self.dropped_undecodable += 1
        self.count("drop_undecodable")
        if src is not None and src in self.view.mbrs:
            self.process.verbose_detector.illegal(src, "bottom:undecodable")
            self._sig_strike(src)

    def _sig_strike(self, src):
        """Corruption-triggered suspicion: enough signature rejections from
        one transmitter are evidence its link (or the node itself) is
        feeding us garbage -- report it to the suspicion layer, which
        slanders so the group can agree to route around it."""
        strikes = self._sig_strikes.get(src, 0) + 1
        self._sig_strikes[src] = strikes
        if strikes == CORRUPTION_SUSPECT_THRESHOLD:
            self.count("corruption_suspicions")
            self.process.suspicion.suspect_locally(
                src, reason="bottom:corruption")

    def on_view(self, view):
        # strikes are per-view evidence; the incarnation table is NOT
        # reset (see __init__)
        self._sig_strikes.clear()
