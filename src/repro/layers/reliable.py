"""Reliable FIFO delivery with NAK-based retransmission (paper section 3.3).

Every broadcast kind is carried on one of two per-origin FIFO streams:

* the **app** stream (``"a"``): application casts -- subject to the flush
  protocol's wedge/cut at view changes;
* the **ctl** stream (``"c"``): protocol traffic (consensus, uniform
  broadcast, slander, sync, ...) -- never wedged, because the view-change
  protocols themselves must keep flowing while the view is wedged.

Point-to-point sends use per-pair streams (``"p"``).

Loss recovery is receiver-driven: one repair record per (origin, stream)
whose ceiling is raised by a buffered message past a hole, a peer's ack
entry above our top (capped at ``top + flow_window``) and the agreed cut,
inclusive.  One backed-off timer asks while anything up to the ceiling is
missing; ack and cut evidence also ask at once, once per
``retrans_timeout``.  The round (timer expiries since the stream last
delivered) picks the target: round 0 asks the origin while it is in scope
(the attempt's survivors while a cut is set, else the view), later rounds
rotate over the in-scope members whose acked prefix covers the first hole.
Any holder retransmits the *original* message with its *original
bottom-layer signature*, which the receiver verifies -- the one place the
paper needs cryptography above raw sends (section 1.2).

Acknowledgements are sent on demand (DESIGN section 4): the ack tick
broadcasts only while this member's delivered vector moved or is not yet
known stable at every view member, the heartbeat carries the same vector
(so a lost final ack is repaired), and a tick with nothing to send probes
the peer silent for longer than any loss-free gap, which answers from its
next tick: no tick signs more than one message.

The layer feeds the fuzzy detectors: acknowledgements that could not
correspond to any sent message, malformed stream headers, and NAK or
probe floods are verbose failures; persistent ack laggards are handled
by the stability tracker.
"""

from __future__ import annotations

from bisect import bisect_left
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


class _InStream:
    """Receive side of one FIFO stream from one origin, and its repair
    record: ``ceiling`` is the highest number known to exist, ``timer``
    the one repair timer, ``round`` its expiries since the stream last
    delivered, ``asked_at`` when evidence last asked at once."""

    __slots__ = ("next_seq", "buffer", "ceiling", "timer", "round",
                 "asked_at")

    def __init__(self):
        self.next_seq = 1
        self.buffer = {}
        self.ceiling = 0
        self.timer = None
        self.round = 0
        self.asked_at = float("-inf")

    @property
    def delivered(self):
        return self.next_seq - 1


class ReliableLayer(Layer):
    """Reliable FIFO broadcast + point-to-point delivery."""

    name = "reliable"

    def __init__(self):
        super().__init__()
        self._reset_state()
        self.retransmissions_served = 0
        self.naks_sent = 0
        self.naks_suppressed = 0
        self.duplicates = 0
        self.archive_trimmed = 0

    def _reset_state(self):
        self._out_seq = {STREAM_APP: 0, STREAM_CTL: 0}
        self._p2p_out = {}
        self._in_streams = {}   # (origin, stream) -> _InStream
        self._archive = {}      # (origin, stream, seq) -> archived wire tuple
        self._since_ack = 0
        self._ack_sent = None    # the vector my last ack carried
        self._ack_sent_at = float("-inf")   # when it left, if broadcast
        self._ack_stable = None  # the last vector found stable everywhere
        self._probed = False     # a peer probed me since my last tick
        # incremental delivered-vector bookkeeping (built lazily because
        # self.me is unknown before the layer is attached): the entries of
        # _delivered_vector() kept sorted by repr at all times, updated
        # only for streams that actually changed
        self._dv_map = None     # map key -> current entry, or None (unbuilt)
        self._dv_keys = []      # sorted reprs of entries (parallel list)
        self._dv_entries = []   # entries, sorted by repr
        self._dv_tuple = None   # memoized tuple(self._dv_entries)
        self._dv_changed = {}   # key -> latest changed entry since last flush
        self._wedged = False
        self._cut = None        # {origin: seq} ceiling on the app stream
        self._cut_callback = None
        self._scope = None      # who repair may ask while a cut is set
        self._ack_seen = {}     # sender -> last fully-processed ack vector
        self._ack_dirty = {}    # sender -> last evidence scan found a gap
        # NAK-storm suppression: per-window global NAK budget
        self._nak_window_start = -1.0
        self._naks_in_window = 0

    def state_sizes(self):
        return {
            "in_streams": len(self._in_streams),
            "stash": sum(len(s.buffer) for s in self._in_streams.values()),
            "archive": len(self._archive),
            "p2p_out": len(self._p2p_out),
            "ack_seen": len(self._ack_seen),
        }

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
        self._cancel_repairs()

    def on_view(self, view):
        self._cancel_repairs()
        self._reset_state()
        self.process.stability.reset(view)

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
            self._dv_refresh_out(stream)
            msg.push_header("rel", (stream, seq))
            self.send_down(msg)
            # archived once signed: a holder serves it under this signature
            self._archive_copy(msg, stream, seq)
            # self-delivery: a node receives its own broadcasts, in order
            own = msg.clone_for(self.me)
            self.sim.schedule(0.0, self._accept_stream, self.me, own,
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
            if stream == STREAM_P2P:
                self._accept_p2p(msg, seq)
            elif stream in (STREAM_APP, STREAM_CTL):
                self._accept_stream(msg.origin, msg, stream, seq)
            elif self.config.byzantine:
                self.process.verbose_detector.illegal(
                    msg.sender, "rel:unknown-stream")

    # ------------------------------------------------------------------
    # stream acceptance and in-order delivery
    # ------------------------------------------------------------------
    def _accept_stream(self, origin, msg, stream, seq):
        if self.process.stopped:
            return  # a pre-crash self-delivery event racing the stop
        state = self._in_stream(origin, stream)
        if seq < state.next_seq or seq in state.buffer:
            self.duplicates += 1
            return
        if msg.origin != origin:
            return
        if msg.msg_id is not None and not is_cast_id(msg.msg_id, origin):
            # cast ids are admitted here and nowhere else: no layer above
            # holds a cast under an id its origin did not mint
            if self.config.byzantine and origin != self.me:
                self.process.verbose_detector.illegal(
                    msg.sender, "rel:forged-id")
            return
        state.buffer[seq] = msg
        if origin != self.me:
            self._archive_copy(msg, stream, seq)
        self._drain(origin, stream, state, seq)

    def _in_stream(self, origin, stream):
        state = self._in_streams.get((origin, stream))
        if state is None:
            state = self._in_streams[(origin, stream)] = _InStream()
            # a fresh stream contributes a 0-entry to the ack vector even
            # before anything is delivered
            self._dv_refresh_stream(origin, stream, state)
        return state

    def _drain(self, origin, stream, state, ceiling=0):
        first = state.next_seq
        while state.next_seq in state.buffer:
            seq = state.next_seq
            if (stream == STREAM_APP
                    and not self._may_deliver_app(origin, seq)):
                break
            msg = state.buffer.pop(seq)
            state.next_seq = seq + 1
            self._since_ack += 1
            self.send_up(msg)
        if state.next_seq != first:
            state.round = 0
        self._repair(origin, stream, state, ceiling)
        self._dv_refresh_stream(origin, stream, state)
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
        if self._cut is not None and self._cut_callback is not None:
            if self.cut_complete(self._cut):
                callback, self._cut_callback = self._cut_callback, None
                callback()

    def _may_deliver_app(self, origin, seq):
        if self._cut is not None:
            return seq <= self._cut.get(origin, 0)
        return not self._wedged

    def _accept_p2p(self, msg, seq):
        if msg.dest != self.me or msg.msg_id is not None:
            return  # not mine, or under a cast id: only broadcasts carry one
        state = self._in_stream(msg.origin, STREAM_P2P)
        if seq < state.next_seq or seq in state.buffer:
            self.duplicates += 1
            return
        state.buffer[seq] = msg
        while state.next_seq in state.buffer:
            self.send_up(state.buffer.pop(state.next_seq))
            state.next_seq += 1
            state.round = 0
        self._repair(msg.origin, STREAM_P2P, state, seq)

    # ------------------------------------------------------------------
    # acknowledgements
    # ------------------------------------------------------------------
    def _delivered_vector(self):
        """My ack vector, sorted by entry repr: one ``(origin, stream,
        top)`` per in-stream -- ``top`` also counts the contiguous
        buffered-but-undeliverable prefix, so the flush can account for
        wedged messages I hold -- plus my own two out-streams."""
        if self._dv_map is None:
            self._dv_build()
        vector = self._dv_tuple
        if vector is None:
            vector = self._dv_tuple = tuple(self._dv_entries)
        return vector

    # ------------------------------------------------------------------
    # incremental delivered-vector maintenance: rebuilding and
    # repr-sorting the whole vector on every drain profiled as the single
    # hottest non-crypto call in the fig5 workloads.  Instead the entries
    # live in a repr-sorted parallel list pair and only the one entry
    # whose stream actually moved is touched.  Entries with equal repr
    # are equal tuples (origins are ints/strings here), so which
    # duplicate gets removed is irrelevant.
    # ------------------------------------------------------------------
    def _dv_build(self):
        self._dv_map = {}
        self._dv_keys = []
        self._dv_entries = []
        self._dv_changed = {}
        for (origin, stream), state in self._in_streams.items():
            self._dv_refresh_stream(origin, stream, state)
        self._dv_refresh_out(STREAM_APP)
        self._dv_refresh_out(STREAM_CTL)

    def _dv_set(self, key, entry):
        old = self._dv_map.get(key)
        if old == entry:
            return
        keys = self._dv_keys
        entries = self._dv_entries
        if old is not None:
            # NB: repr-order is not stable under counter increments
            # ("... 10)" sorts before "... 9)"), so entries must be
            # re-inserted at their new position, never updated in place
            pos = bisect_left(keys, repr(old))
            del keys[pos]
            del entries[pos]
        text = repr(entry)
        pos = bisect_left(keys, text)
        keys.insert(pos, text)
        entries.insert(pos, entry)
        self._dv_map[key] = entry
        self._dv_tuple = None
        self._dv_changed[key] = entry

    def _dv_refresh_stream(self, origin, stream, state):
        if self._dv_map is None:
            return  # unbuilt; built lazily on first use
        if stream != STREAM_APP and stream != STREAM_CTL:
            return  # p2p streams are not acknowledged
        top = state.next_seq - 1
        buffer = state.buffer
        if buffer:
            while top + 1 in buffer:
                top += 1
        self._dv_set(("in", origin, stream), (origin, stream, top))

    def _dv_refresh_out(self, stream):
        if self._dv_map is None:
            return
        self._dv_set(("out", stream),
                     (self.me, stream, self._out_seq[stream]))

    def _ack_tick(self):
        # one signed message per tick, as when the ack was periodic (DESIGN
        # section 4): the answer if a peer probed me; else an ack, due only
        # while my vector moved since the one I last sent or something I
        # hold is not yet known stable at some view member -- so a crashed,
        # mute, under-acking or probing member keeps this at one message
        # per tick until the view change, never more; else one probe
        vector = self._delivered_vector()
        if self._probed:
            self._probed = False
            self.send_down(self._heartbeat(vector))
        elif vector != self._ack_sent or self._unstable(vector):
            self._broadcast_ack(vector)
        else:
            probe = self._probe(vector)
            if probe is not None:
                self.send_down(probe)
        self._ack_timer = self.sim.schedule(self.config.ack_interval,
                                            self._ack_tick)

    def _probe(self, vector):
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
        probe = self._heartbeat(vector, peer)
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
        """The heartbeat tick's one message: a heartbeat carrying my
        vector or, while a broadcast ack that left within the last
        ``heartbeat_interval`` stands in for it, a probe if one is due."""
        vector = self._delivered_vector()
        if self.sim.now - self._ack_sent_at < self.config.heartbeat_interval:
            return self._probe(vector)
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
        self._ack_sent_at = self.sim.now
        self.count("acks_sent")
        self.send_down(Message(mk.KIND_ACK, self.me, self.view.vid, vector,
                               payload_size=6 * len(vector)))

    def _on_ack(self, msg):
        vector = msg.payload
        if not isinstance(vector, tuple):
            if self.config.byzantine:
                self.process.verbose_detector.illegal(msg.sender, "rel:bad-ack")
            return
        # Receive-side ack diffing.  Senders memoize their delivered vector
        # and its entry tuples (_dv_entries reuses unchanged entry objects
        # across rebuilds), so in the simulator the repeats arrive as the
        # *same objects*.  Three levels:
        # * identical vector object: it already validated (validation is
        #   pure in the vector) and merged (max-merge idempotent); only the
        #   listener notify and, while dirty, the evidence scan still run;
        # * same-sender update: entries present (by identity) in the
        #   previously-accepted vector are already validated/merged --
        #   only the changed entries take the full path.  _ack_seen keeps
        #   the previous vector alive, so an id() collision with its
        #   entries is impossible;
        # * first ack from a sender (or a real-network decode, which always
        #   produces fresh tuples): every entry takes the full path.
        # The evidence scan is skippable only when provably a no-op:
        # _ack_dirty records whether the last scan of this sender's vector
        # found any entry ahead of our stream tops.  Tops only grow within
        # a view (delivered + contiguous buffered prefix), so a clean entry
        # stays clean forever; a dirty vector keeps full scans until one
        # comes back clean.
        prev = self._ack_seen.get(msg.sender)
        if vector is prev:
            self.process.stability.on_ack(msg.sender, ())
            if self._ack_dirty.get(msg.sender):
                self._ack_dirty[msg.sender] = self._ack_evidence(vector)
            return
        if prev is not None:
            prev_ids = set(map(id, prev))
            entries = tuple(entry for entry in vector
                            if id(entry) not in prev_ids)
        else:
            entries = vector
        for entry in entries:
            if (not isinstance(entry, tuple) or len(entry) != 3
                    or not isinstance(entry[2], int) or entry[2] < 0):
                if self.config.byzantine:
                    self.process.verbose_detector.illegal(
                        msg.sender, "rel:bad-ack-entry")
                return
            origin, stream, cum = entry
            # verbose check: acknowledging our own stream beyond what we
            # ever sent is a message a correct process could never send
            # (out_seq only grows, so entries validated with an earlier
            # vector cannot become illegal and are safe to skip above)
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
        """Raise repair ceilings off peers' ack vectors, existence proofs
        for the last message of a burst, which no later message reveals.
        Returns True if any entry was ahead of our stream tops -- even a
        throttled one, which must stay eligible on a later scan (the
        ack-diff memo in _on_ack keys off this)."""
        dirty = False
        # the incremental delivered-vector map already holds each
        # in-stream's top (delivered + buffered prefix), refreshed by
        # every _drain -- reuse it instead of rescanning the buffer per
        # ack entry (the scan made each ack O(members x window))
        if self._dv_map is None:
            self._dv_build()
        dv_map = self._dv_map
        for origin, stream, cum in vector:
            if stream not in (STREAM_APP, STREAM_CTL) or origin == self.me:
                continue
            entry = dv_map.get(("in", origin, stream))
            top = entry[2] if entry is not None else 0
            if cum <= top or origin not in self.view.mbrs:
                continue
            dirty = True
            # bound the chase: a lying ack cannot make us request unbounded
            # ranges the origin never sent
            self._repair(origin, stream, self._in_stream(origin, stream),
                         min(cum, top + self.config.flow_window), ask=True)
        return dirty

    # ------------------------------------------------------------------
    # loss recovery: one repair record per (origin, stream)
    # ------------------------------------------------------------------
    def _repair(self, origin, stream, state, ceiling=0, ask=False):
        """Raise the ceiling; ask at once on ``ask`` (ack or cut evidence,
        once per ``retrans_timeout``, without raising the round); keep the
        timer armed exactly while something up to the ceiling is missing."""
        if ceiling > state.ceiling:
            state.ceiling = ceiling
        holes = self._holes(origin, stream, state)
        if not holes:
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
            return
        now = self.sim.now
        if ask and now - state.asked_at >= self.config.retrans_timeout:
            state.asked_at = now
            self._send_nak(origin, stream, holes, state.round)
        if state.timer is None:
            state.timer = self.sim.schedule(
                self._retrans_delay(origin, stream, state.round),
                self._repair_expired, origin, stream, state)

    def _repair_expired(self, origin, stream, state):
        state.timer = None
        holes = self._holes(origin, stream, state)
        if holes:
            self._send_nak(origin, stream, holes, state.round)
            state.round += 1
            self._repair(origin, stream, state)

    def _top(self, origin, stream, state):
        """The ceiling, clipped to the cut (inclusive) on a cut app stream."""
        if stream == STREAM_APP and self._cut is not None:
            return min(state.ceiling, self._cut.get(origin, 0))
        return state.ceiling

    def _holes(self, origin, stream, state):
        return [seq for seq in range(state.next_seq,
                                     self._top(origin, stream, state) + 1)
                if seq not in state.buffer]

    def _cancel_repairs(self):
        for state in self._in_streams.values():
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None

    def _retrans_delay(self, origin, stream, nak_round):
        """Bounded exponential backoff + jitter: each round doubles the
        base timeout up to ``retrans_backoff_max``, so a dead or partitioned
        target is not asked at full rate forever.  The jitter decorrelates
        the receivers of one lost broadcast without consuming simulator RNG
        draws (which would shift every seeded history): it is a pure hash
        of (receiver, origin, stream, round)."""
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
        scope = self.view.mbrs if self._scope is None else self._scope
        if stream == STREAM_P2P or (nak_round == 0 and origin in scope):
            return origin
        acked_seq = self.process.stability.acked_seq
        holders = [member for member in scope if member != self.me
                   and acked_seq(member, origin, stream) >= first]
        if holders:
            return holders[nak_round % len(holders)]
        return origin if origin in scope else None

    def _send_nak(self, origin, stream, missing, nak_round):
        target = self._target(origin, stream, missing[0], nak_round)
        if target is None or target == self.me:
            return
        # NAK-storm suppression: under heavy loss (or a chaos corruption
        # campaign) every repair timer fires at once and the repair traffic
        # can drown the repairs themselves.  Cap the NAKs this node emits
        # per retrans_timeout window; suppressed requests are retried by
        # the (backed-off) repair timers, so recovery still converges.
        budget = self.config.nak_window_budget
        if budget:
            now = self.sim.now
            if now - self._nak_window_start >= self.config.retrans_timeout:
                self._nak_window_start = now
                self._naks_in_window = 0
            if self._naks_in_window >= budget:
                self.naks_suppressed += 1
                self.count("naks_suppressed")
                return
            self._naks_in_window += 1
        self.naks_sent += 1
        self.count("naks_sent")
        payload = (origin, stream, tuple(missing[:64]))
        nak = Message(mk.KIND_NAK, self.me, self.view.vid, payload,
                      payload_size=8 + 4 * len(payload[2]), dest=target)
        self.send_down(nak)

    def _on_nak(self, msg):
        if self.config.byzantine:
            if self.process.verbose_detector.observe(msg.sender, "rel:nak"):
                return
        payload = msg.payload
        if (not isinstance(payload, tuple) or len(payload) != 3
                or not isinstance(payload[2], tuple)):
            if self.config.byzantine:
                self.process.verbose_detector.illegal(msg.sender, "rel:bad-nak")
            return
        origin, stream, seqs = payload
        for seq in seqs:
            if not isinstance(seq, int):
                continue
            if stream == STREAM_P2P:
                # p2p streams are per-pair; only the origin holds the copy,
                # filed under the requester's pair key
                wire = self._archive.get(
                    (origin, STREAM_P2P + repr(msg.sender), seq))
            else:
                wire = self._archive.get((origin, stream, seq))
            if wire is None:
                continue
            self.retransmissions_served += 1
            self.count("retransmissions_served")
            retrans = Message(mk.KIND_RETRANS, self.me, self.view.vid, wire,
                              payload_size=wire[6] + 24, dest=msg.sender)
            self.send_down(retrans)

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
            self._accept_p2p(inner, seq)
            return
        if stream not in (STREAM_APP, STREAM_CTL):
            return
        inner = Message(kind, origin, self.view.vid, payload, size,
                        msg_id=msg_id)
        inner.push_header("rel", (stream, seq))
        inner.signature = signature
        if (msg.sender != origin and self.config.byzantine
                and self.config.crypto != "none"):
            # third-party retransmission: verify the ORIGIN's signature over
            # the reconstructed content -- p must prove it is q's message.
            # auth_token() recomputes the digest over the reconstruction,
            # which matches the origin's memoized digest iff the content does
            ok, cost = self.process.auth.verify(
                self.me, origin, inner.auth_token(), signature)
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
        vid = msg.view_id.to_wire() if msg.view_id is not None else None
        self._archive[(msg.origin, stream, seq)] = (
            msg.kind, msg.origin, vid, stream, seq, msg.payload,
            msg.payload_size, msg.signature, msg.msg_id)

    def trim_archive(self):
        """Buffer management (paper section 3.1): messages acknowledged
        by every low-fuzziness member are dropped from the retransmission
        archive.  Called periodically by the stability tracker."""
        stability = self.process.stability
        members = self.view.mbrs
        floors = {}
        removed = []
        for key in self._archive:
            origin, stream, seq = key
            if stream not in (STREAM_APP, STREAM_CTL):
                continue  # p2p acks are not tracked; keep those copies
            group = (origin, stream)
            if group not in floors:
                floors[group] = stability.min_ack(origin, stream, members,
                                                  ignore_fuzzy=True)
            if seq <= floors[group]:
                removed.append(key)
        for key in removed:
            del self._archive[key]
        self.archive_trimmed += len(removed)

    @property
    def archive_size(self):
        return len(self._archive)

    # ------------------------------------------------------------------
    # flush support (wedge / cut), driven by the membership layer
    # ------------------------------------------------------------------
    def wedge(self):
        """Stop delivering new app-stream messages (view change started)."""
        self._wedged = True

    def stream_state(self):
        """Per-origin contiguously-received app-stream maxima (for SYNC)."""
        state = {}
        for (origin, stream), in_stream in self._in_streams.items():
            if stream != STREAM_APP:
                continue
            top = in_stream.delivered
            while top + 1 in in_stream.buffer:
                top += 1
            state[origin] = top
        state[self.me] = self._out_seq[STREAM_APP]
        return state

    def set_cut(self, cut, survivors, on_complete=None):
        """Fix the agreed app-stream cut and the attempt's ``survivors``,
        the only members repair asks from now on; deliver up to the cut
        and repair what is missing up to it, inclusive."""
        self._cut = dict(cut)
        self._scope = survivors
        self._cut_callback = None
        for origin, last in self._cut.items():
            if origin == self.me:
                continue
            state = self._in_streams.get((origin, STREAM_APP))
            if state is None and last > 0:
                state = self._in_stream(origin, STREAM_APP)
            if state is not None:
                # a new scope: its first ask goes out now, from round 0
                state.asked_at, state.round = float("-inf"), 0
                self._drain(origin, STREAM_APP, state)
                self._repair(origin, STREAM_APP, state, last, ask=True)
        if on_complete is not None and self.cut_complete(self._cut):
            on_complete()
        else:
            self._cut_callback = on_complete

    def cut_complete(self, cut):
        """Have we *delivered* every app message up to the cut?"""
        for origin, last in cut.items():
            if origin == self.me:
                continue
            state = self._in_streams.get((origin, STREAM_APP))
            delivered = state.delivered if state else 0
            if delivered < last:
                return False
        return True
