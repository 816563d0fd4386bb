"""Reliable FIFO delivery with NAK-based retransmission (paper section 3.3).

Every broadcast kind is carried on one of two per-origin FIFO streams:

* the **app** stream (``"a"``): application casts -- subject to the flush
  protocol's wedge/cut at view changes;
* the **ctl** stream (``"c"``): protocol traffic (consensus, uniform
  broadcast, slander, sync, ...) -- never wedged, because the view-change
  protocols themselves must keep flowing while the view is wedged.

Point-to-point sends use per-pair streams (``"p"``).

The receive side is :class:`StreamMachine`, a machine without I/O with
one record per (origin, stream).  Loss recovery is receiver-driven: the
record's ceiling is raised by a buffered message past a hole, a peer's ack
entry above our top (capped at ``top + flow_window``) and the agreed cut,
inclusive.  One backed-off timer asks while anything up to the ceiling is
missing; ack and cut evidence also ask at once, once per
``retrans_timeout``.  Round 0 asks the origin while it is in scope (the
attempt's survivors while a cut is set, else the view), later rounds
rotate over in-scope holders.  Any holder retransmits the *original*
message with its *original bottom-layer signature*, which the receiver
verifies -- the one place the paper needs cryptography above raw sends
(section 1.2).

Acknowledgements ride the heartbeat tick (DESIGN section 4): its one
message is an ack while this member's delivered vector moved or is not
yet known stable at every view member, else the idle heartbeat, which
carries the same vector (so a lost final ack is repaired).  The flush
does not wait for that cadence: a completed cut is acked at once.  The
ack tick sends no acks; it is the probe slot, which asks the peer silent
for longer than any loss-free gap and answers a probe from the next
tick: no tick signs more than one message.

The layer feeds the fuzzy detectors: acknowledgements that could not
correspond to any sent message, malformed stream headers and NAKs, and NAK
or probe floods are verbose failures; persistent ack laggards are handled
by the stability tracker.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from zlib import crc32

from repro.core import message as mk
from repro.core.message import Message, is_cast_id
from repro.layers.base import Layer

#: kinds that bypass reliability entirely
UNRELIABLE_KINDS = frozenset({
    mk.KIND_ACK, mk.KIND_NAK, mk.KIND_RETRANS, mk.KIND_HEARTBEAT,
    mk.KIND_MERGE, mk.KIND_NEWVIEW,
})

#: broadcast kinds carried on the app stream (wedged during view changes)
APP_STREAM_KINDS = frozenset({mk.KIND_CAST})

STREAM_APP = "a"
STREAM_CTL = "c"
STREAM_P2P = "p"

#: an archived message -- the payload of a KIND_RETRANS -- is the tuple
#: (kind, origin, vid, stream, seq, payload, size, signature, msg_id)
#: built by ``ReliableLayer._archive_copy``
ARCHIVED_LEN = 9

#: the most sequence numbers one NAK lists; a correct member lists at most
#: this many, strictly increasing, and any other NAK is refused
NAK_MAX = 64


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


class _Record:
    """One (origin, stream): the delivery cursor ``next_seq``, the
    ``buffer`` past it and ``top``, the delivered plus contiguous buffered
    prefix; and the repair record: ``ceiling`` the highest number known to
    exist, ``timer`` the one repair timer, ``round`` its expiries since
    the stream last delivered, ``asked_at`` when evidence last asked."""

    __slots__ = ("next_seq", "buffer", "top", "ceiling", "timer", "round",
                 "asked_at")

    def __init__(self):
        self.next_seq, self.buffer, self.top, self.ceiling = 1, {}, 0, 0
        self.timer, self.round, self.asked_at = None, 0, float("-inf")


class StreamMachine:
    """The receive side of the reliable layer, without I/O.

    Inputs: :meth:`accept`, :meth:`ask` (ack evidence), :meth:`set_cut`
    (cut evidence, from the view change), :meth:`wedge`, the repair
    timer's expiry and :meth:`clear`.  Outputs go through ``host``, the
    port every machine without I/O shares (``send``, ``arm``, ``now``,
    ``count``; see :class:`repro.layers.base.Layer`), plus this machine's
    own: ``admit(origin, stream, seq, msg)``, ``opened(origin, stream)``,
    ``deliver(msg)`` (``send_up`` on unacknowledged p2p streams),
    ``drained(origin, stream, top)``, ``ack()`` (broadcast the delivered
    vector now, once the agreed cut is delivered) and the queries ``view``,
    ``acked_seq(member, origin, stream)`` and ``sent(stream)``.  Every
    write of repair fields, cut, scope and wedge goes through :meth:`_to`;
    only ``_record`` adds a record, and only ``accept`` and the drain move
    ``next_seq``, ``buffer`` and ``top``."""

    def __init__(self, host, config, me):
        self.host, self.config, self.me = host, config, me
        self.records = {}
        self.naks_sent = 0
        self.clear()

    def _to(self, target, **fields):
        """The one writer of repair and flush state: ``target`` is a record
        or the machine itself."""
        for name, value in fields.items():
            setattr(target, name, value)

    def clear(self):
        """Cancel every repair timer and drop all receive state (a view
        was installed, or the process stopped)."""
        for rec in self.records.values():
            if rec.timer is not None:
                rec.timer.cancel()
                self._to(rec, timer=None)
        self._to(self, records={}, cut=None, scope=None, wedged=False,
                 on_cut=None)
        # NAK-storm suppression: a global budget per retrans_timeout window
        self.window_start, self.window_naks = -1.0, 0

    def _record(self, origin, stream):
        rec = self.records.get((origin, stream))
        if rec is None:
            rec = self.records[(origin, stream)] = _Record()
            self.host.opened(origin, stream)
        return rec

    def accept(self, origin, stream, seq, msg):
        """Buffer ``msg`` as number ``seq`` of the stream unless the host
        refuses it, and deliver what is in order; False for a duplicate."""
        rec = self._record(origin, stream)
        buffer = rec.buffer
        if seq < rec.next_seq or seq in buffer:
            return False
        if not self.host.admit(origin, stream, seq, msg):
            return True
        buffer[seq] = msg
        top = rec.top
        if seq == top + 1:
            top = seq
            while top + 1 in buffer:
                top += 1
            rec.top = top
        self._drain(origin, stream, rec, seq)
        return True

    def _drain(self, origin, stream, rec, ceiling=0):
        host = self.host
        deliver = host.send_up if stream == STREAM_P2P else host.deliver
        buffer = rec.buffer
        first = rec.next_seq
        while rec.next_seq in buffer:
            seq = rec.next_seq
            if stream == STREAM_APP and (
                    seq > self.cut.get(origin, 0) if self.cut is not None
                    else self.wedged):
                break
            rec.next_seq = seq + 1
            deliver(buffer.pop(seq))
            if self.records.get((origin, stream)) is not rec:
                return  # that delivery installed a view: rec is detached
        if rec.next_seq != first and rec.round:
            self._to(rec, round=0)
        top = rec.top
        if rec.timer is not None or rec.ceiling > top or ceiling > top:
            self._repair(origin, stream, rec, ceiling)  # else a no-op
        if stream == STREAM_P2P:
            return
        host.drained(origin, stream, rec.top)
        if (self.cut is not None and self.on_cut is not None
                and self.cut_complete(self.cut)):
            callback = self.on_cut
            self._to(self, on_cut=None)
            host.ack()  # the flush's stability wait needs my vector now
            callback()

    # ------------------------------------------------------------------
    # loss recovery: one repair record per (origin, stream)
    # ------------------------------------------------------------------
    def ask(self, origin, stream, ceiling):
        """Ack evidence: ``ceiling`` exists; ask for the holes at once."""
        self._repair(origin, stream, self._record(origin, stream), ceiling,
                     ask=True)

    def _repair(self, origin, stream, rec, ceiling=0, ask=False):
        """Raise the ceiling (``top + 1`` is the first hole: a ceiling at
        or below ``top`` says nothing); ask at once on ``ask``, once per
        ``retrans_timeout``, without raising the round; keep the timer
        armed exactly while something up to the ceiling is missing."""
        if ceiling > rec.ceiling and ceiling > rec.top:
            self._to(rec, ceiling=ceiling)
        if self._limit(origin, stream, rec) <= rec.top:
            if rec.timer is not None:
                rec.timer.cancel()
                self._to(rec, timer=None)
            return
        now = self.host.now()
        if ask and now - rec.asked_at >= self.config.retrans_timeout:
            self._to(rec, asked_at=now)
            self._send_nak(origin, stream, rec)
        if rec.timer is None:
            self._to(rec, timer=self.host.arm(
                self._retrans_delay(origin, stream, rec.round),
                self._repair_expired, origin, stream, rec))

    def _repair_expired(self, origin, stream, rec):
        self._to(rec, timer=None)
        if self._limit(origin, stream, rec) > rec.top:
            self._send_nak(origin, stream, rec)
            self._to(rec, round=rec.round + 1)
            self._repair(origin, stream, rec)

    def _limit(self, origin, stream, rec):
        """The ceiling, clipped to the cut (inclusive) on a cut app stream."""
        if stream == STREAM_APP and self.cut is not None:
            return min(rec.ceiling, self.cut.get(origin, 0))
        return rec.ceiling

    def _retrans_delay(self, origin, stream, nak_round):
        """Each round doubles the base timeout up to ``retrans_backoff_max``;
        the jitter decorrelates the receivers of one lost broadcast without
        a simulator RNG draw: a pure hash of (receiver, origin, stream,
        round)."""
        config = self.config
        delay = config.retrans_timeout * (1 << min(nak_round, 8))
        if delay > config.retrans_backoff_max:
            delay = config.retrans_backoff_max
        jitter = config.retrans_jitter
        if jitter:
            salt = crc32(repr((self.me, origin, stream, nak_round))
                         .encode("utf-8"))
            delay *= 1.0 + jitter * (salt & 0x3FF) / 1024.0
        return delay

    def _target(self, origin, stream, first, nak_round):
        """Round 0 asks the origin while it is in scope, p2p always; later
        rounds rotate over in-scope holders of ``first``, so an origin that
        ignores one member's NAKs cannot starve it.  None if no one is."""
        scope = self.host.view.mbrs if self.scope is None else self.scope
        if stream == STREAM_P2P or (nak_round == 0 and origin in scope):
            return origin
        acked_seq = self.host.acked_seq
        holders = [member for member in scope if member != self.me
                   and acked_seq(member, origin, stream) >= first]
        if holders:
            return holders[nak_round % len(holders)]
        return origin if origin in scope else None

    def _send_nak(self, origin, stream, rec):
        first = rec.top + 1
        target = self._target(origin, stream, first, rec.round)
        if target is None or target == self.me:
            return
        # NAK-storm suppression: when every repair timer fires at once the
        # repair traffic can drown the repairs; suppressed asks are retried
        # by the (backed-off) repair timers, so recovery still converges
        budget = self.config.nak_window_budget
        if budget:
            now = self.host.now()
            if now - self.window_start >= self.config.retrans_timeout:
                self.window_start, self.window_naks = now, 0
            if self.window_naks >= budget:
                self.host.count("naks_suppressed")
                return
            self.window_naks += 1
        last, buffer = self._limit(origin, stream, rec), rec.buffer
        holes = (seq for seq in range(first, last + 1) if seq not in buffer)
        seqs = tuple(islice(holes, NAK_MAX))
        self.naks_sent += 1
        self.host.count("naks_sent")
        self.host.send(mk.KIND_NAK, (origin, stream, seqs), 8 + 4 * len(seqs),
                       dest=target)

    # ------------------------------------------------------------------
    # flush support (wedge / cut), driven by the view change
    # ------------------------------------------------------------------
    def wedge(self):
        """Stop delivering new app-stream messages (view change started)."""
        self._to(self, wedged=True)

    def stream_state(self):
        """Per-origin contiguously-received app-stream maxima (for SYNC)."""
        state = {origin: rec.top for (origin, stream), rec
                 in self.records.items() if stream == STREAM_APP}
        state[self.me] = self.host.sent(STREAM_APP)
        return state

    def set_cut(self, cut, survivors, on_complete=None):
        """Fix the agreed app-stream cut and the attempt's ``survivors``,
        the only members repair asks from now on; deliver up to the cut
        and repair what is missing up to it, inclusive.  Once it is all
        delivered, the host acks at once and ``on_complete`` runs."""
        self._to(self, cut=dict(cut), scope=survivors, on_cut=None)
        for origin, last in self.cut.items():
            if origin == self.me:
                continue
            if last > 0 or (origin, STREAM_APP) in self.records:
                rec = self._record(origin, STREAM_APP)
                # a new scope: its first ask goes out now, from round 0
                self._to(rec, asked_at=float("-inf"), round=0)
                self._drain(origin, STREAM_APP, rec)
                self._repair(origin, STREAM_APP, rec, last, ask=True)
        if on_complete is not None and self.cut_complete(self.cut):
            self.host.ack()
            on_complete()
        else:
            self._to(self, on_cut=on_complete)

    def release(self, origin):
        """Deliver ``origin``'s buffered in-order app messages past the
        wedge (the member leaves the view; see ``GroupProcess.release_own``)."""
        rec = self.records.get((origin, STREAM_APP))
        while rec is not None and rec.next_seq in rec.buffer:
            seq = rec.next_seq
            rec.next_seq = seq + 1
            self.host.deliver(rec.buffer.pop(seq))
            if self.records.get((origin, STREAM_APP)) is not rec:
                return

    def cut_complete(self, cut):
        """Have we *delivered* every app message up to the cut?"""
        for origin, last in cut.items():
            rec = self.records.get((origin, STREAM_APP))
            if origin != self.me and (rec.next_seq - 1 if rec else 0) < last:
                return False
        return True


class ReliableLayer(Layer):
    """Reliable FIFO broadcast + point-to-point delivery."""

    name = "reliable"

    def __init__(self):
        super().__init__()
        self._reset_state()
        self.retransmissions_served = 0
        self.duplicates = 0
        self.archive_trimmed = 0

    def attach(self, stack):
        super().attach(stack)
        self.streams = StreamMachine(self, self.config, self.me)

    def _reset_state(self):
        self._out_seq = {STREAM_APP: 0, STREAM_CTL: 0}
        self._p2p_out = {}
        self._archive = defaultdict(dict)   # (origin, stream) -> {seq: wire}
        self._trimmed = {}      # (origin, stream) -> floor trimmed up to
        self._since_ack = 0
        self._ack_sent = None    # the vector my last ack carried
        self._ack_stable = None  # the last vector found stable everywhere
        self._probed = False     # a peer probed me since my last tick
        # delivered-vector bookkeeping, built lazily
        self._dv_map = None     # (origin, stream) -> entry, or None (unbuilt)
        self._dv_tuple = None   # the sorted vector, until the next change
        self._dv_changed = {}   # key -> latest changed entry since last flush
        self._ack_seen = {}     # sender -> last fully-processed ack vector
        self._ack_dirty = {}    # sender -> last evidence scan found a gap

    def state_sizes(self):
        records = self.streams.records
        return {"in_streams": len(records),
                "stash": sum(len(rec.buffer) for rec in records.values()),
                "archive": self.archive_size, "p2p_out": len(self._p2p_out),
                "ack_seen": len(self._ack_seen)}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        config = self.config
        self._ack_timer = self.sim.schedule(config.ack_interval,
                                            self._ack_tick)
        if config.byzantine:
            # a correct member probes a silent peer once per ack tick at
            # most and is silenced by the first answer; twice is verbose
            self.process.verbose_detector.set_rate_bound(
                "rel:probe", window=config.mute_timeout,
                max_count=2 * int(config.mute_timeout / config.ack_interval))
            if config.nak_window_budget:
                # a correct member emits at most its budget per window,
                # and two of its windows can straddle one of ours
                self.process.verbose_detector.set_rate_bound(
                    "rel:nak", window=config.retrans_timeout,
                    max_count=2 * config.nak_window_budget)

    def stop(self):
        if getattr(self, "_ack_timer", None) is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        # crash semantics: repair timers re-arm themselves while a stream
        # has holes -- a dead node must not keep NAKing
        self.streams.clear()

    def on_view(self, view):
        self.streams.clear()
        self._reset_state()
        self.process.stability.reset(view)

    # ------------------------------------------------------------------
    # the stream machine's host port
    # ------------------------------------------------------------------
    def admit(self, origin, stream, seq, msg):
        if msg.msg_id is not None and not is_cast_id(msg.msg_id, origin):
            # cast ids are admitted here and nowhere else: no layer above
            # holds a cast under an id its origin did not mint
            if self.config.byzantine and origin != self.me:
                self.process.verbose_detector.illegal(
                    msg.sender, "rel:forged-id")
            return False
        if origin != self.me and stream != STREAM_P2P:
            self._archive_copy(msg, stream, seq)
        return True

    def opened(self, origin, stream):
        # a fresh stream contributes a 0-entry to the ack vector even
        # before anything is delivered; p2p streams are not acknowledged
        if stream != STREAM_P2P:
            self._dv_set(origin, stream, 0)

    def deliver(self, msg):
        self._since_ack += 1
        self.send_up(msg)

    def drained(self, origin, stream, top):
        self._dv_set(origin, stream, top)
        if self._since_ack >= self.config.ack_every:
            self._broadcast_ack(self._delivered_vector())
        # the ack table keeps per-(origin, stream) maxima and the vector
        # entries are monotone, so feeding only the entries that changed
        # since the last drain yields the table the full vector would;
        # on_ack still runs (and notifies listeners) once per drain
        if self._dv_map is None:
            self._dv_build()
        changed = self._dv_changed
        if changed:
            self._dv_changed = {}
        self.process.stability.on_ack(self.me, tuple(changed.values()))

    def ack(self):
        # the flush ack, skipped when my last ack carried this vector:
        # the heartbeat tick repairs a lost one
        vector = self._delivered_vector()
        if vector != self._ack_sent:
            self._broadcast_ack(vector)

    def acked_seq(self, member, origin, stream):
        return self.process.stability.acked_seq(member, origin, stream)

    def sent(self, stream):
        return self._out_seq[stream]

    # ------------------------------------------------------------------
    # downward path
    # ------------------------------------------------------------------
    def handle_down(self, msg):
        if msg.kind in UNRELIABLE_KINDS:
            self.send_down(msg)
            return
        if msg.dest is None:
            stream = STREAM_APP if msg.kind in APP_STREAM_KINDS else STREAM_CTL
            self._out_seq[stream] += 1
            seq = self._out_seq[stream]
            self._dv_set(self.me, stream, seq)
            msg.push_header("rel", (stream, seq))
            self.send_down(msg)
            # archived once signed: a holder serves it under this signature
            self._archive_copy(msg, stream, seq)
            # self-delivery: a node receives its own broadcasts, in order
            self.sim.schedule(0.0, self._accept_own, msg.clone_for(self.me),
                              stream, seq)
        else:
            seq = self._p2p_out.get(msg.dest, 0) + 1
            self._p2p_out[msg.dest] = seq
            msg.push_header("rel", (STREAM_P2P, seq))
            self.send_down(msg)
            self._archive_copy(msg, STREAM_P2P + repr(msg.dest), seq)

    # ------------------------------------------------------------------
    # upward path
    # ------------------------------------------------------------------
    def handle_up(self, msg):
        kind = msg.kind
        if kind == mk.KIND_ACK:
            self._on_ack(msg)
        elif kind == mk.KIND_HEARTBEAT:
            self._on_beacon(msg)
        elif kind == mk.KIND_NAK:
            self._on_nak(msg)
        elif kind == mk.KIND_RETRANS:
            self._on_retrans(msg)
        elif kind in UNRELIABLE_KINDS:
            self.send_up(msg)
        elif msg.sender != msg.origin:
            # only a KIND_RETRANS may carry another member's message: the
            # bottom layer verified this one under the sender's key
            if self.config.byzantine:
                self.process.verbose_detector.illegal(
                    msg.sender, "rel:spoofed-origin")
        else:
            header = msg.pop_header("rel")
            if (not isinstance(header, tuple) or len(header) != 2
                    or not isinstance(header[1], int) or header[1] < 1):
                if self.config.byzantine:
                    self.process.verbose_detector.illegal(
                        msg.sender, "rel:malformed-header")
                return
            stream, seq = header
            if stream in (STREAM_APP, STREAM_CTL, STREAM_P2P):
                self._accept_stream(msg.origin, msg, stream, seq)
            elif self.config.byzantine:
                self.process.verbose_detector.illegal(
                    msg.sender, "rel:unknown-stream")

    def _accept_own(self, msg, stream, seq):
        # a view installed since the send cleared my streams and restarted
        # their numbering: like any peer's copy of an old view's message
        # (the bottom layer drops those), mine is no longer this view's
        if msg.view_id == self.view.vid:
            self._accept_stream(self.me, msg, stream, seq)

    def _accept_stream(self, origin, msg, stream, seq):
        if self.process.stopped:
            return  # a pre-crash self-delivery event racing the stop
        if stream == STREAM_P2P and (msg.dest != self.me
                                     or msg.msg_id is not None):
            return  # not mine, or under a cast id: only broadcasts carry one
        if not self.streams.accept(origin, stream, seq, msg):
            self.duplicates += 1

    # ------------------------------------------------------------------
    # acknowledgements
    # ------------------------------------------------------------------
    def _delivered_vector(self):
        """My ack vector, sorted by entry repr: one ``(origin, stream,
        top)`` per peer's in-stream -- ``top`` also counts the contiguous
        buffered-but-undeliverable prefix, so the flush can account for
        wedged messages I hold -- and my own two streams at their sent
        seq (see :meth:`_dv_set`).  Sorted when an ack or heartbeat leaves
        and memoized until an entry moves, so an unchanged vector is the
        same object, holding the same entries, that the receivers'
        identity diff in :meth:`_on_ack` keys off."""
        if self._dv_map is None:
            self._dv_build()
        vector = self._dv_tuple
        if vector is None:
            vector = self._dv_tuple = tuple(
                sorted(self._dv_map.values(), key=repr))
        return vector

    def _dv_build(self):
        self._dv_map = {}
        self._dv_changed = {}
        for (origin, stream), rec in self.streams.records.items():
            if stream != STREAM_P2P:
                self._dv_set(origin, stream, rec.top)
        for stream in (STREAM_APP, STREAM_CTL):
            self._dv_set(self.me, stream, self._out_seq[stream])

    def _dv_set(self, origin, stream, cum):
        """One entry per (origin, stream), at the highest count known: a
        stream's top only grows within a view, and my own streams' sent
        seq bounds their delivered top from above (DESIGN section 4)."""
        if self._dv_map is None:
            return  # unbuilt; built lazily on first use
        key = (origin, stream)
        entry = self._dv_map.get(key)
        if entry is not None and entry[2] >= cum:
            return
        self._dv_map[key] = self._dv_changed[key] = (origin, stream, cum)
        self._dv_tuple = None

    def _ack_tick(self):
        # the probe slot (DESIGN section 4), no acks: one signed message
        # at most, the answer if a peer probed me, else a due probe
        if self._probed:
            self._probed = False
            self.send_down(self._heartbeat(self._delivered_vector()))
        else:
            probe = self._probe()
            if probe is not None:
                self.send_down(probe)
        self._ack_timer = self.sim.schedule(self.config.ack_interval,
                                            self._ack_tick)

    def _probe(self):
        """Thinned idle traffic leaves the mute detector few datagrams to
        lose, so the peer silent longest past the worst loss-free gap (two
        heartbeat intervals and an ack tick of slack) is asked directly."""
        horizon = (self.sim.now - 2 * self.config.heartbeat_interval
                   - self.config.ack_interval)
        last_heard = self.process.last_heard
        peer = min((member for member in self.view.mbrs if member != self.me),
                   key=last_heard, default=None)
        if peer is None or last_heard(peer) >= horizon:
            return None
        self.count("probes_sent")
        probe = self._heartbeat(self._delivered_vector(), peer)
        probe.push_header("rel", "probe")
        return probe

    def _unstable(self, vector):
        """Is some entry of ``vector`` above what a view member acked?"""
        if vector == self._ack_stable:
            return False  # rows only grow within a view
        acked_seq = self.process.stability.acked_seq
        for member in self.view.mbrs:
            if member != self.me:
                for origin, stream, cum in vector:
                    if acked_seq(member, origin, stream) < cum:
                        return True
        self._ack_stable = vector
        return False

    def _heartbeat(self, vector, dest=None):
        """A heartbeat carrying ``vector``: the beacon, or a probe."""
        return Message(mk.KIND_HEARTBEAT, self.me, self.view.vid, vector,
                       payload_size=4 + 6 * len(vector), dest=dest)

    def beacon(self):
        """The heartbeat tick's one message: an ack, sent here (None),
        while my vector moved since the last one sent or is not yet known
        stable at some view member; else the heartbeat to send."""
        vector = self._delivered_vector()
        if vector != self._ack_sent or self._unstable(vector):
            self._broadcast_ack(vector)
            return None
        return self._heartbeat(vector)

    def _on_beacon(self, msg):
        """A heartbeat is an ack (it repairs a lost final one); one with
        my header on it is a probe, answered from my next ack tick."""
        if msg.pop_header("rel") is not None:
            if (self.config.byzantine and self.process.verbose_detector
                    .observe(msg.sender, "rel:probe")):
                self.count("probes_dropped")
                return
            self._probed = True
        self._on_ack(msg)

    def _broadcast_ack(self, vector):
        self._since_ack = 0
        self._ack_sent = vector
        self.count("acks_sent")
        self.send(mk.KIND_ACK, vector, 6 * len(vector))

    def _on_ack(self, msg):
        vector = msg.payload
        if not isinstance(vector, tuple):
            if self.config.byzantine:
                self.process.verbose_detector.illegal(msg.sender, "rel:bad-ack")
            return
        # Receive-side ack diffing: senders memoize their vector and its
        # entry tuples, so in the simulator repeats arrive as the *same
        # objects*.  An identical vector already validated and merged; only
        # the notify and, while dirty, the evidence scan run.  Otherwise
        # only entries that differ from the one at the same position of
        # the sender's previous vector take the full path: by identity,
        # then by value, since a vector decoded off the wire is fresh
        # however little moved (a shift re-passes legal, merged entries:
        # time, never a verdict).  _ack_dirty: the last scan of this
        # sender's vector found an entry above our tops; tops only grow
        # within a view, so a clean entry stays clean and only a dirty
        # vector is rescanned.
        prev = self._ack_seen.get(msg.sender)
        if vector is prev:
            self.process.stability.on_ack(msg.sender, ())
            if self._ack_dirty.get(msg.sender):
                self._ack_dirty[msg.sender] = self._ack_evidence(vector)
            return
        if prev is not None:
            # equal by value is the same only with an int origin and count:
            # 3.0 == 3, but a float ceiling would reach range() in the
            # repair, and set({1}) == frozenset({1}), but a set origin is
            # unhashable in _ack_evidence
            kept = len(prev)
            entries = tuple(
                entry for index, entry in enumerate(vector)
                if index >= kept or not (
                    entry is prev[index] or entry == prev[index]
                    and type(entry[0]) is int and type(entry[2]) is int))
        else:
            entries = vector
        for entry in entries:
            if (not isinstance(entry, tuple) or len(entry) != 3
                    or entry[1] not in (STREAM_APP, STREAM_CTL)
                    or not isinstance(entry[2], int) or entry[2] < 0
                    or not _hashable(entry[0])):
                if self.config.byzantine:
                    self.process.verbose_detector.illegal(
                        msg.sender, "rel:bad-ack-entry")
                return
            origin, stream, cum = entry
            # verbose: an ack for more than we ever sent (out_seq only
            # grows, so entries validated earlier stay legal)
            if (origin == self.me and stream in self._out_seq
                    and cum > self._out_seq[stream]
                    and self.config.byzantine):
                self.process.verbose_detector.illegal(
                    msg.sender, "rel:ack-for-unsent")
                return
        self._ack_seen[msg.sender] = vector
        self.process.stability.on_ack(msg.sender, entries)
        dirty = self._ack_dirty.get(msg.sender)
        self._ack_dirty[msg.sender] = self._ack_evidence(
            vector if dirty else entries)

    def _ack_evidence(self, vector):
        """Ask off peers' ack vectors, existence proofs for the last
        message of a burst, which no later message reveals.  True if any
        entry was ahead of our tops, even a throttled one (the ack-diff
        memo in _on_ack keys off this)."""
        dirty = False
        records = self.streams.records
        for origin, stream, cum in vector:
            if stream not in (STREAM_APP, STREAM_CTL) or origin == self.me:
                continue
            rec = records.get((origin, stream))
            top = rec.top if rec is not None else 0
            if cum <= top or origin not in self.view.mbrs:
                continue
            dirty = True
            # bound the chase: a lying ack cannot make us request unbounded
            # ranges the origin never sent
            self.streams.ask(origin, stream,
                             min(cum, top + self.config.flow_window))
        return dirty

    # ------------------------------------------------------------------
    # retransmission service
    # ------------------------------------------------------------------
    def _on_nak(self, msg):
        if self.config.byzantine:
            if self.process.verbose_detector.observe(msg.sender, "rel:nak"):
                return
        payload = msg.payload
        seqs = (payload[2] if isinstance(payload, tuple) and len(payload) == 3
                else None)
        if (not isinstance(seqs, tuple) or not 0 < len(seqs) <= NAK_MAX
                or not all(isinstance(seq, int) for seq in seqs)
                or any(a >= b for a, b in zip(seqs, seqs[1:]))):
            # a correct member lists 1..NAK_MAX strictly increasing seqs
            if self.config.byzantine:
                self.process.verbose_detector.illegal(msg.sender, "rel:bad-nak")
            return
        origin, stream = payload[0], payload[1]
        if stream == STREAM_P2P:
            # p2p streams are per-pair; only the origin holds the copy,
            # filed under the requester's pair key
            stream = STREAM_P2P + repr(msg.sender)
        archived = self._archive.get((origin, stream), {})
        for seq in seqs:
            wire = archived.get(seq)
            if wire is None:
                continue
            self.retransmissions_served += 1
            self.count("retransmissions_served")
            self.send(mk.KIND_RETRANS, wire, wire[6] + 24, dest=msg.sender)

    def _on_retrans(self, msg):
        wire = msg.payload
        if not isinstance(wire, tuple) or len(wire) != ARCHIVED_LEN:
            if self.config.byzantine:
                self.process.verbose_detector.illegal(
                    msg.sender, "rel:bad-retrans")
            return
        (kind, origin, vid_wire, stream, seq, payload, size, signature,
         msg_id) = wire
        if not isinstance(seq, int):
            return
        if isinstance(stream, str) and stream.startswith(STREAM_P2P):
            if msg.sender != origin:
                # only the origin holds a p2p copy: anyone else forged it
                if self.config.byzantine:
                    self.process.verbose_detector.illegal(
                        msg.sender, "rel:forged-retrans")
                return
            inner = Message(kind, origin, self.view.vid, payload, size,
                            dest=self.me, msg_id=msg_id)
            inner.sender = origin
            self._accept_stream(origin, inner, STREAM_P2P, seq)
            return
        if stream not in (STREAM_APP, STREAM_CTL):
            return
        # the bottom layer refused every other group's traffic, so the
        # origin signed under this process's group
        inner = Message(kind, origin, self.view.vid, payload, size,
                        msg_id=msg_id, group=self.process.group_id)
        inner.push_header("rel", (stream, seq))
        inner.signature = signature
        if (msg.sender != origin and self.config.byzantine
                and self.config.crypto != "none"):
            # third-party retransmission: verify the ORIGIN's signature over
            # the reconstructed content -- p must prove it is q's message
            # (the rebuilt message's digest matches the origin's iff the
            # content does)
            ok, cost = self.process.auth.verify(self.me, origin, inner,
                                                signature)
            self.process.cpu.charge(cost)
            if not ok:
                self.process.verbose_detector.illegal(
                    msg.sender, "rel:forged-retrans")
                return
        inner.pop_header("rel")
        inner.sender = origin
        self._accept_stream(origin, inner, stream, seq)

    # ------------------------------------------------------------------
    # archiving
    # ------------------------------------------------------------------
    def _archive_copy(self, msg, stream, seq):
        """The origin builds the record once, after signing, and it rides
        the message (``_archived``); a holder files the same tuple only if
        every field matches its own copy, and builds its own otherwise."""
        vid = msg.view_id.to_wire() if msg.view_id is not None else None
        record = msg._archived
        if (record is None or record[5] is not msg.payload
                or record[7] is not msg.signature or record[4] != seq
                or record[3] != stream or record[0] != msg.kind
                or record[1] != msg.origin or record[2] != vid
                or record[6] != msg.payload_size or record[8] != msg.msg_id):
            record = msg._archived = (
                msg.kind, msg.origin, vid, stream, seq, msg.payload,
                msg.payload_size, msg.signature, msg.msg_id)
        self._archive[(msg.origin, stream)][seq] = record

    def trim_archive(self):
        """Buffer management (paper section 3.1): messages acknowledged
        by every view member are dropped from the retransmission archive.
        Called periodically by the stability tracker.  A fuzzy member is
        not skipped, as flow control may skip it: a member silent for a
        while is exactly one that may still lack what the others hold, and
        it is served until the view change excludes it or it catches up.
        Per stream only the seqs above the floor trimmed last time are
        popped: exact, as the floor never exceeds my own ack, my top, so
        no seq at or below it is archived again."""
        stability, members = self.process.stability, self.view.mbrs
        for (origin, stream), copies in self._archive.items():
            if stream not in (STREAM_APP, STREAM_CTL):
                continue  # p2p acks are not tracked; keep those copies
            floor = stability.min_ack(origin, stream, members,
                                      ignore_fuzzy=False)
            last = self._trimmed.get((origin, stream), 0)
            if floor > last:
                self._trimmed[(origin, stream)] = floor
                for seq in range(last + 1, floor + 1):
                    if copies.pop(seq, None) is not None:
                        self.archive_trimmed += 1

    @property
    def archive_size(self):
        return sum(len(copies) for copies in self._archive.values())
