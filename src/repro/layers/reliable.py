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
count above our top (capped at ``top + flow_window``) and the agreed cut,
inclusive.  One backed-off timer asks while anything up to the ceiling is
missing; ack and cut evidence also ask at once, once per
``retrans_timeout``.  Round 0 asks the origin while it is in scope (the
attempt's survivors while a cut is set, else the view), later rounds
rotate over in-scope holders.  Any holder retransmits the *original*
message with its *original bottom-layer signature*, which the receiver
verifies -- the one place the paper needs cryptography above raw sends
(section 1.2).

Acknowledgements ride the heartbeat tick (DESIGN section 4): its one
message is an ack while this member's ack row moved or is not yet known
stable at every view member, else the idle heartbeat, which carries the
same row (so a lost final ack is repaired).  The row is one ``bytes``
value per view: two fixed-width counts (app, ctl) per member, in the
column order :func:`ack_layout` derives from the view.  The counts, as a
list, are this member's row of the ack matrix, whose rows all follow that
order (:mod:`repro.layers.stability`).  The flush does not wait for that
cadence: a completed cut is acked at once.  The ack tick sends no acks; it
is the probe slot, which asks the peer silent for longer than any
loss-free gap and answers a probe from the next tick: no tick signs more
than one message.

The layer feeds the fuzzy detectors: acknowledgements that could not
correspond to any sent message, malformed ack rows, stream headers and
NAKs, and NAK or probe floods are verbose failures; persistent ack
laggards are handled by the stability tracker.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from itertools import compress, islice
from operator import lt, ne
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

#: deliveries since the last ack after which a member acks at once,
#: without waiting for the heartbeat tick
ACK_EVERY = 512

#: hardening against loss storms: repeated repair rounds back off
#: exponentially up to this ceiling (seconds), each stretched by up to
#: ``RETRANS_JITTER`` of itself to decorrelate the receivers of one loss
RETRANS_BACKOFF_MAX = 0.32
RETRANS_JITTER = 0.25

#: NAKs one member may emit per ``retrans_timeout`` window
NAK_WINDOW_BUDGET = 64


def ack_layout(mbrs):
    """The ack row of a view of ``mbrs``: its columns, one (member, stream)
    per member and acknowledged stream sorted by repr (members in repr
    order, app before ctl: the order ack evidence asks in), and its codec,
    one unsigned 32-bit big-endian count per column (a count past it
    raises, as the top layer does at 2**CAST_COUNTER_BITS casts)."""
    columns = tuple(sorted(((member, stream) for member in mbrs
                            for stream in (STREAM_APP, STREAM_CTL)), key=repr))
    return columns, struct.Struct("!%dI" % len(columns))


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
    ``drained(origin, stream, top)``, ``ack()`` (broadcast the ack row
    now, once the agreed cut is delivered) and the queries ``view``,
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
            host.ack()  # the flush's stability wait needs my row now
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
        """Each round doubles the base timeout up to ``RETRANS_BACKOFF_MAX``;
        the jitter decorrelates the receivers of one lost broadcast without
        a simulator RNG draw: a pure hash of (receiver, origin, stream,
        round)."""
        delay = min(self.config.retrans_timeout * (1 << min(nak_round, 8)),
                    RETRANS_BACKOFF_MAX)
        salt = crc32(repr((self.me, origin, stream, nak_round))
                     .encode("utf-8"))
        return delay * (1.0 + RETRANS_JITTER * (salt & 0x3FF) / 1024.0)

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
        now = self.host.now()
        if now - self.window_start >= self.config.retrans_timeout:
            self.window_start, self.window_naks = now, 0
        if self.window_naks >= NAK_WINDOW_BUDGET:
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
        self.retransmissions_served = 0
        self.duplicates = 0
        self.archive_trimmed = 0

    def attach(self, stack):
        super().attach(stack)
        self.streams = StreamMachine(self, self.config, self.me)
        self._reset_state(self.view)

    def _reset_state(self, view):
        self._out_seq = {STREAM_APP: 0, STREAM_CTL: 0}
        self._p2p_out = {}
        self._archive = defaultdict(dict)   # (origin, stream) -> {seq: wire}
        self._trimmed = {}      # (origin, stream) -> floor trimmed up to
        self._since_ack = 0
        self._ack_sent = None    # the row my last ack carried
        self._ack_stable = None  # the last row found stable everywhere
        self._probed = False     # a peer probed me since my last tick
        # the ack row: one count per column, packed when it leaves
        self._columns, self._codec = ack_layout(view.mbrs)
        self._column = {column: i for i, column in enumerate(self._columns)}
        self._counts = [0] * len(self._columns)
        self._row = None        # the packed counts, until one moves
        self._acked_streams = 2  # my two and every in-stream opened
        self._own = [(s, self._column[self.me, s]) for s in self._out_seq]
        self._ack_seen = {}     # sender -> last row taken
        self.process.stability.bind(self._column, self._counts)
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
            # a correct member emits at most its budget per window, and
            # two of its windows can straddle one of ours
            self.process.verbose_detector.set_rate_bound(
                "rel:nak", window=config.retrans_timeout,
                max_count=2 * NAK_WINDOW_BUDGET)

    def stop(self):
        if getattr(self, "_ack_timer", None) is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        # crash semantics: repair timers re-arm themselves while a stream
        # has holes -- a dead node must not keep NAKing
        self.streams.clear()

    def on_view(self, view):
        self.streams.clear()
        self._reset_state(view)
        self.process.stability.reset(view)

    # ------------------------------------------------------------------
    # the stream machine's host port
    # ------------------------------------------------------------------
    def admit(self, origin, stream, seq, msg):
        if msg.msg_id is not None and not is_cast_id(msg.msg_id, origin):
            # cast ids are admitted here and nowhere else: no layer above
            # holds a cast under an id its origin did not mint
            if origin != self.me:
                self._illegal(msg.sender, "rel:forged-id")
            return False
        if origin != self.me and stream != STREAM_P2P:
            self._archive_copy(msg, stream, seq)
        return True

    def opened(self, origin, stream):
        # a peer's fresh app or ctl stream is acknowledged, at 0, before
        # anything is delivered: it moves the row; p2p streams are not
        if origin != self.me and (origin, stream) in self._column:
            self._acked_streams += 1
            self._row = None

    def deliver(self, msg):
        self._since_ack += 1
        self.send_up(msg)

    def drained(self, origin, stream, top):
        self._count(origin, stream, top)
        if self._since_ack >= ACK_EVERY:
            self._broadcast_ack(self._delivered_row())
        # my row of the ack matrix moved in place
        self.process.stability.notify()

    def ack(self):
        # the flush ack, skipped when my last ack carried this row: the
        # heartbeat tick repairs a lost one
        row = self._delivered_row()
        if row is not self._ack_sent:
            self._broadcast_ack(row)

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
            self._count(self.me, stream, seq)
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
            self._illegal(msg.sender, "rel:spoofed-origin")
        else:
            header = msg.pop_header("rel")
            if (not isinstance(header, tuple) or len(header) != 2
                    or not isinstance(header[1], int) or header[1] < 1):
                self._illegal(msg.sender, "rel:malformed-header")
                return
            stream, seq = header
            if stream in (STREAM_APP, STREAM_CTL, STREAM_P2P):
                self._accept_stream(msg.origin, msg, stream, seq)
            else:
                self._illegal(msg.sender, "rel:unknown-stream")

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
    def _delivered_row(self):
        """My ack row: each in-stream's top -- which also counts the
        contiguous buffered-but-undeliverable prefix, so the flush can
        account for wedged messages I hold -- and my own streams' sent
        seq.  Packed when an ack or heartbeat leaves and memoized until a
        count moves or an in-stream opens: a new object is a moved row."""
        row = self._row
        if row is None:
            row = self._row = self._codec.pack(*self._counts)
        return row

    def _count(self, origin, stream, cum):
        """Raise one column to ``cum``: a stream's top only grows within a
        view, and my own streams' sent seq bounds their delivered top from
        above (DESIGN section 4)."""
        index = self._column.get((origin, stream))
        if index is not None and self._counts[index] < cum:
            self._counts[index] = cum
            self._row = None

    def _ack_tick(self):
        # the probe slot (DESIGN section 4), no acks: one signed message
        # at most, the answer if a peer probed me, else a due probe
        if self._probed:
            self._probed = False
            self.send_down(self._heartbeat(self._delivered_row()))
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
        probe = self._heartbeat(self._delivered_row(), peer)
        probe.push_header("rel", "probe")
        return probe

    def _unstable(self, row):
        """Is some count of ``row`` above what a view member acked?"""
        if row == self._ack_stable:
            return False  # counts only grow within a view
        acked, counts = self.process.stability.row, self._counts
        for member in self.view.mbrs:
            if member != self.me and any(map(lt, acked(member), counts)):
                return True
        self._ack_stable = row
        return False

    def _heartbeat(self, row, dest=None):
        """A heartbeat carrying ``row``: the beacon, or a probe."""
        return Message(mk.KIND_HEARTBEAT, self.me, self.view.vid, row,
                       payload_size=4 + 6 * self._acked_streams, dest=dest)

    def beacon(self):
        """The heartbeat tick's one message: an ack, sent here (None),
        while my row moved since the last one sent or is not yet known
        stable at some view member; else the heartbeat to send."""
        row = self._delivered_row()
        if row is not self._ack_sent or self._unstable(row):
            self._broadcast_ack(row)
            return None
        return self._heartbeat(row)

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

    def _broadcast_ack(self, row):
        self._since_ack = 0
        self._ack_sent = row
        self.count("acks_sent")
        self.send(mk.KIND_ACK, row, 6 * self._acked_streams)

    def _on_ack(self, msg):
        """A peer's ack row: the columns that moved since that peer's last
        row raise its row of the ack matrix and feed the ack evidence."""
        row, sender = msg.payload, msg.sender
        if type(row) is not bytes or len(row) != self._codec.size:
            self._illegal(sender, "rel:bad-ack")
            return
        prev, counts, moved = self._ack_seen.get(sender), None, ()
        if row != prev:
            counts = self._codec.unpack(row)
            if self.config.byzantine and any(
                    counts[i] > self._out_seq[s] for s, i in self._own):
                self._illegal(sender, "rel:ack-for-unsent")
                return
            was = self._codec.unpack(prev or bytes(len(row)))
            moved = list(compress(range(len(counts)), map(ne, counts, was)))
            self._ack_seen[sender] = row
        self.process.stability.raise_row(sender, counts, moved)
        # rescan a dirty row (its last scan found a count above our tops)
        # whole: tops only grow within a view, so a clean one stays clean
        if self._ack_dirty.get(sender):
            self._ack_dirty[sender] = self._ack_evidence(
                self._codec.unpack(row), range(len(self._columns)))
        elif moved:
            self._ack_dirty[sender] = self._ack_evidence(counts, moved)

    def _ack_evidence(self, counts, indices):
        """Ask off peers' ack rows, existence proofs for the last message
        of a burst, which no later message reveals, at column ``indices``.
        True if any count was ahead of our tops, even a throttled one."""
        dirty = False
        records, columns = self.streams.records, self._columns
        for index in indices:
            origin, stream = columns[index]
            if origin == self.me:
                continue
            cum = counts[index]
            rec = records.get((origin, stream))
            top = rec.top if rec is not None else 0
            if cum <= top:
                continue
            dirty = True
            # bound the chase: a lying ack cannot make us request unbounded
            # ranges the origin never sent
            self.streams.ask(origin, stream,
                             min(cum, top + self.config.flow_window))
        return dirty

    def _illegal(self, sender, tag):
        if self.config.byzantine:
            self.process.verbose_detector.illegal(sender, tag)

    # ------------------------------------------------------------------
    # retransmission service
    # ------------------------------------------------------------------
    def _on_nak(self, msg):
        if self.config.byzantine:
            if self.process.verbose_detector.observe(msg.sender, "rel:nak"):
                return
        payload = msg.payload
        origin, stream, seqs = (payload if isinstance(payload, tuple)
                                and len(payload) == 3 else (None,) * 3)
        # a correct member names a view member's stream (``in`` compares
        # without hashing) and lists 1..NAK_MAX strictly increasing seqs
        if (origin not in self.view.mbrs
                or stream not in (STREAM_APP, STREAM_CTL, STREAM_P2P)
                or not isinstance(seqs, tuple) or not 0 < len(seqs) <= NAK_MAX
                or not all(isinstance(seq, int) for seq in seqs)
                or any(a >= b for a, b in zip(seqs, seqs[1:]))):
            self._illegal(msg.sender, "rel:bad-nak")
            return
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
        if (not isinstance(wire, tuple) or len(wire) != ARCHIVED_LEN
                or wire[1] not in self.view.mbrs):
            # only a view member's message is archived; its origin is
            # checked before any table is keyed by it
            self._illegal(msg.sender, "rel:bad-retrans")
            return
        (kind, origin, vid_wire, stream, seq, payload, size, signature,
         msg_id) = wire
        if not isinstance(seq, int):
            return
        if isinstance(stream, str) and stream.startswith(STREAM_P2P):
            if msg.sender != origin:
                # only the origin holds a p2p copy: anyone else forged it
                self._illegal(msg.sender, "rel:forged-retrans")
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
                self._illegal(msg.sender, "rel:forged-retrans")
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
