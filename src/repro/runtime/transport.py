"""Asyncio UDP transport: real datagrams behind the ``network`` seam.

One :class:`AsyncioTransport` serves one node (one OS process): it binds
a UDP socket on localhost and implements the exact surface the stack
uses on :class:`repro.sim.network.Network` -- ``attach``, ``send``,
``gossip_cast``, ``crash``, ``detach`` plus the datagram counters.  It
hosts exactly the node it is bound to: ``attach`` refuses any other,
and every frame it emits names that node as its source.

The socket is a plain non-blocking one, with no asyncio
``DatagramTransport`` in between (docs/PERFORMANCE.md, "Real sockets pay
real costs only"):

* **one wakeup, every queued datagram** -- one ``loop.add_reader``
  callback drains the socket, handing each datagram to
  ``_on_datagram`` in the same callback, up to :data:`DRAIN_BOUND` per
  wakeup so the loop's timers keep their turn under a flood.  It stops
  early when the socket runs dry or a delivery closed the transport; an
  ``OSError`` from ``recvfrom`` counts ``socket_errors`` and the drain
  goes on;
* **send is ``sendto``** -- nothing is buffered below the coalescer: a
  ``sendto`` that would block (a full socket buffer) or fails drops the
  datagram and counts it in ``datagrams_dropped`` and ``socket_errors``;
  the stack's repair path resends what it needs, as it would after a
  loss on the wire.

The **gossip bus** stands in for the paper's IP multicast: a gossip
frame is fanned out to every address in the static address book, member
or not, which reproduces the discovery property the merge protocol
depends on (any process on the LAN hears any coordinator's view
announcement).  On a localhost cluster the address book IS the LAN.
Several groups may share that bus (repro.shard): gossip from a
group-tagged node travels in a ``("grp", group_id, payload)`` envelope
and is delivered only to a node of the same group, so one shard's view
announcements never feed another shard's merge machinery.  An untagged
node's datagrams carry the payload bare.

Wire-path aggregation (docs/PERFORMANCE.md, "The wire path"):

* **datagram coalescing** -- outgoing protocol frames are buffered per
  peer address and flushed as one ``FRAME_BATCH`` datagram when the byte
  budget :data:`WIRE_MTU` fills or at the end of the current event-loop
  burst (a ``call_soon`` armed on the first buffered frame runs after
  every callback that was ready this iteration -- so a saturating burst
  aggregates, while a lone heartbeat leaves within the same loop turn).
  Anything already pending to a peer rides the same flush, which is how
  ack rows produced while draining a received batch piggyback onto
  datagrams being emitted anyway.
* **encode-once fan-out** -- a ``Message`` frame copies the signed block
  its message memoized when signed (or, under NoCrypto, before its
  fan-out: :attr:`AsyncioTransport.encodes`), shared by every
  ``clone_for`` sibling, and encodes only its unsigned tail;
  ``encode_cache_hits`` counts those frames.
* **batch receive drain** -- an arriving batch is fully decoded and
  handed to the stack as one plain tuple of its ``Message`` bodies, in
  wire order, so the bottom layer charges one per-datagram cost and the
  scheduler runs one callback for the whole batch.

Undecodable datagrams (truncated, bit-flipped, garbage) are counted and
reported through :attr:`on_undecodable` -- per *sub-frame* for batches,
so one corrupt sub-frame feeds corruption suspicion without discarding
its siblings; node wiring points that at
:meth:`repro.layers.bottom.BottomLayer.note_undecodable`
(docs/ROBUSTNESS.md).  A datagram frame's body must be one ``Message``:
any other value that decodes is refused the same way, so a tuple the
stack receives is always a batch.  A datagram whose claimed source is
unhashable names no node: it is refused before any lookup, in
``bad_sources``.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import sys

from repro.core.message import Message
from repro.runtime.wire import (
    FRAME_BATCH,
    FRAME_DATAGRAM,
    FRAME_GOSSIP,
    SUBFRAME_OVERHEAD,
    WireError,
    decode_datagram,
    encode_value_into,
    frame_prefix,
)

#: payloads above this encoded size cannot travel in one UDP datagram
MAX_DATAGRAM_BYTES = 65000

#: the coalescer's byte budget per datagram (below MAX_DATAGRAM_BYTES); the
#: simulator never reads it, so it moves no simulated result
WIRE_MTU = 16000

#: datagrams one readiness callback takes off the socket before it
#: returns to the loop (timers and other sockets wait at most this many)
DRAIN_BOUND = 64

#: ``recvfrom`` buffer: any UDP datagram arrives whole (a stranger's
#: oversize one too -- the codec rejects it, nothing truncates it)
RECV_BYTES = 65536

_pack_u32 = struct.Struct("!I").pack


class _DestBuffer:
    """Pending coalesced sub-frames for one peer address."""

    __slots__ = ("addr", "buf", "frames")

    def __init__(self, addr):
        self.addr = addr
        self.buf = bytearray()   # concatenated sub-frames, reused across flushes
        self.frames = 0


class AsyncioTransport:
    """Real UDP sockets for one node of a localhost cluster."""

    #: the bottom layer encodes a broadcast's block before its fan-out
    encodes = True

    def __init__(self, node_id, addresses, loop=None):
        """``addresses``: {node_id: (host, port)} for the whole cluster,
        including this node (its own entry is the bind address)."""
        self.node_id = node_id
        self.addresses = dict(addresses)
        self._loop = loop or asyncio.get_event_loop()
        self._udp = None          # the bound non-blocking socket once open
        self._reading = False     # the socket's reader is on the loop
        # the hosted node (set by attach)
        self._deliver = None
        self._gossip_deliver = None
        self.group = None
        self.closed = False
        self.crashed = False
        # coalescer state
        self._dest_bufs = {}          # addr -> _DestBuffer
        self._burst_flush_armed = False
        self._scratch = bytearray()   # reusable body-encode buffer
        # every frame names this node: its three prefixes are built once
        self._prefixes = {frame_type: frame_prefix(frame_type, node_id)
                          for frame_type in (FRAME_DATAGRAM, FRAME_GOSSIP,
                                             FRAME_BATCH)}
        self._single_overhead = len(self._prefixes[FRAME_DATAGRAM]) + 4
        self._batch_overhead = len(self._prefixes[FRAME_BATCH]) + 4
        # counters mirroring repro.sim.network.Network; datagrams_* count
        # wire datagrams, frames_* count logical protocol frames
        self.datagrams_sent = 0
        self.datagrams_dropped = 0
        self.datagrams_delivered = 0
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.gossips_sent = 0
        self.gossips_delivered = 0
        self.gossip_drops = 0
        self.undecodable = 0
        self.encode_failures = 0
        self.encode_cache_hits = 0
        self.oversize_drops = 0
        self.socket_errors = 0
        self.bad_sources = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.flush_reasons = {"size": 0, "burst": 0, "final": 0}
        self._oversize_warned = set()
        # hooks
        self.observer = None          # ObservabilityPlane, or None
        self.on_undecodable = None    # callback(src_or_None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def open(self):
        """Bind the UDP socket on this node's address-book entry and put
        its reader on the loop."""
        host, port = self.addresses[self.node_id]
        # the address book holds literal addresses: resolved in place,
        # no resolver thread
        family, kind, proto, _name, addr = socket.getaddrinfo(
            host, port, type=socket.SOCK_DGRAM)[0]
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.bind(addr)
        except OSError:
            sock.close()
            raise
        self._udp = sock
        self._loop.add_reader(sock.fileno(), self._on_readable)
        self._reading = True
        return self

    def close(self):
        """Release the socket; further sends and deliveries are dropped.

        A *graceful* close drains pending coalescer buffers first; a
        crash (:meth:`crash`) drops them.
        """
        if self.closed:
            return
        if not self.crashed:
            self.flush_pending(reason="final")
        self.closed = True
        self._drop_pending()
        udp, self._udp = self._udp, None
        if udp is not None:
            if self._reading:
                self._loop.remove_reader(udp.fileno())
            udp.close()

    # ------------------------------------------------------------------
    # the Network surface the stack uses
    # ------------------------------------------------------------------
    def attach(self, node_id, deliver, gossip_deliver=None, group=None):
        """Host ``node_id``, which must be the node this transport is
        bound to; ``group`` scopes its gossip, with the same contract as
        :meth:`repro.sim.network.Network.attach`."""
        if node_id != self.node_id:
            raise ValueError("transport bound to node %r cannot host node %r"
                             % (self.node_id, node_id))
        self._deliver = deliver
        self._gossip_deliver = gossip_deliver
        self.group = group

    def detach(self, node_id):
        self.close()

    def crash(self, node_id):
        """Crash semantics: silence the node, drop its pending coalescer
        buffers and release the socket."""
        self.crashed = True
        self._drop_pending()
        self.close()

    def send(self, src, dst, size_bytes, payload):
        """Unicast one protocol frame from the hosted node (``size_bytes``
        is the *modelled* size; the wire carries the encoded frame,
        possibly coalesced into a batch datagram with other frames to the
        same peer)."""
        if self.closed or self.crashed:
            self.datagrams_dropped += 1
            return
        addr = self.addresses.get(dst)
        if addr is None:
            self.datagrams_dropped += 1
            return
        body = self._encode_body(payload)
        if body is None:
            return
        if self._single_overhead + len(body) > MAX_DATAGRAM_BYTES:
            self._drop_oversize(payload, self._single_overhead + len(body))
            return
        if self.observer is not None:
            self.observer.on_datagram_sent(
                src, dst, SUBFRAME_OVERHEAD + len(body), payload)
        self._enqueue(addr, body)

    def gossip_cast(self, src, size_bytes, payload):
        """Fan one gossip frame out to every other address on the bus.

        The frame is encoded once for the whole fan-out.  The sent
        counter reflects *reachability*: it increments only when at
        least one per-address transmit succeeded, and every failed
        address is accounted in ``gossip_drops``.  A group-tagged node
        wraps the payload in its ``("grp", group, payload)`` envelope.
        """
        if self.closed or self.crashed:
            return
        group = self.group
        body = self._encode_body(payload if group is None
                                 else ("grp", group, payload))
        if body is None:
            return
        data = b"".join((self._prefixes[FRAME_GOSSIP],
                         _pack_u32(len(body)), body))
        if len(data) > MAX_DATAGRAM_BYTES:
            self._drop_oversize(payload, len(data))
            return
        sent_any = False
        for node_id, addr in self.addresses.items():
            if node_id == self.node_id:
                continue
            if self._transmit(data, addr):
                sent_any = True
            else:
                self.gossip_drops += 1
        if sent_any:
            self.gossips_sent += 1
            if self.observer is not None:
                self.observer.on_gossip_sent(src, len(data))

    # ------------------------------------------------------------------
    # reusable encode buffer
    # ------------------------------------------------------------------
    def _encode_body(self, payload):
        """Encoded body bytes of one protocol payload, or None on failure.
        A ``Message`` brings its signed block from its memo."""
        scratch = self._scratch
        del scratch[:]
        try:
            if type(payload) is Message and payload._signed is not None:
                self.encode_cache_hits += 1
            encode_value_into(payload, scratch)
        except WireError:
            self.encode_failures += 1
            return None
        return bytes(scratch)

    # ------------------------------------------------------------------
    # the coalescer
    # ------------------------------------------------------------------
    def _enqueue(self, addr, body):
        dest = self._dest_bufs.get(addr)
        if dest is None:
            dest = self._dest_bufs[addr] = _DestBuffer(addr)
        batch_overhead = self._batch_overhead
        sub_len = SUBFRAME_OVERHEAD + len(body)
        # budget split: a frame that would overflow the batch flushes what
        # is pending first and starts a fresh datagram -- never dropped
        if (dest.frames
                and batch_overhead + len(dest.buf) + sub_len > WIRE_MTU):
            self._flush_dest(dest, "size")
        buf = dest.buf
        buf.append(FRAME_DATAGRAM)
        buf += _pack_u32(len(body))
        buf += body
        dest.frames += 1
        if batch_overhead + len(buf) >= WIRE_MTU:
            self._flush_dest(dest, "size")
            return
        if not self._burst_flush_armed:
            # end-of-burst flush: runs after every callback that was
            # already ready this event-loop iteration, so frames produced
            # by the same burst coalesce but nothing waits on a timer
            self._burst_flush_armed = True
            self._loop.call_soon(self._on_burst_flush)

    def _on_burst_flush(self):
        self._burst_flush_armed = False
        self.flush_pending(reason="burst")

    def flush_pending(self, reason="burst"):
        """Emit every pending coalescer buffer now (end-of-burst hook;
        also called by the node runner before its final counter snapshot)."""
        if self.closed or self.crashed:
            return
        for dest in self._dest_bufs.values():
            if dest.frames:
                self._flush_dest(dest, reason)

    def _flush_dest(self, dest, reason):
        count = dest.frames
        if not count:
            return
        buf = dest.buf
        if count == 1:
            # a lone frame travels as a plain (non-batch) datagram: the
            # sub-frame framing is stripped, saving the batch overhead
            data = b"".join((self._prefixes[FRAME_DATAGRAM],
                             bytes(buf[1:])))
        else:
            data = b"".join((self._prefixes[FRAME_BATCH],
                             _pack_u32(count), buf))
        if self._transmit(data, dest.addr):
            self.datagrams_sent += 1
            self.frames_sent += count
            self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
            observer = self.observer
            if observer is not None:
                hook = getattr(observer, "on_coalesce_flush", None)
                if hook is not None:
                    hook(self.node_id, reason, count, len(data))
        else:
            self.frames_dropped += count
        del buf[:]                # reuse the bytearray across flushes
        dest.frames = 0

    def _drop_pending(self):
        for dest in self._dest_bufs.values():
            del dest.buf[:]
            dest.frames = 0

    def _drop_oversize(self, payload, size):
        """An encoded frame exceeds the hard datagram ceiling: surface it
        (metric + one stderr line per kind) instead of a silent vanish."""
        self.oversize_drops += 1
        kind = getattr(payload, "kind", None)
        if kind is None and isinstance(payload, tuple) and payload:
            kind = payload[0]
        observer = self.observer
        if observer is not None:
            hook = getattr(observer, "on_oversize_drop", None)
            if hook is not None:
                hook(self.node_id, kind)
        if kind not in self._oversize_warned:
            self._oversize_warned.add(kind)
            print("repro.runtime: node %r dropping oversize frame kind=%r: "
                  "%d encoded bytes > %d-byte datagram ceiling"
                  % (self.node_id, kind, size, MAX_DATAGRAM_BYTES),
                  file=sys.stderr)

    # ------------------------------------------------------------------
    def _transmit(self, data, addr):
        try:
            self._udp.sendto(data, addr)
        except (OSError, AttributeError):
            self.socket_errors += 1
            self.datagrams_dropped += 1
            return False
        self.bytes_out += len(data)
        return True

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_readable(self):
        """The socket is readable: deliver what it holds, up to
        :data:`DRAIN_BOUND` datagrams (the loop calls back while more
        remain)."""
        recvfrom = self._udp.recvfrom
        for _ in range(DRAIN_BOUND):
            try:
                data, addr = recvfrom(RECV_BYTES)
            except BlockingIOError:
                return
            except OSError:
                self.socket_errors += 1
                continue
            # looked up per datagram: an instrumented transport wraps it
            self._on_datagram(data, addr)
            if self.closed:
                return

    def _on_datagram(self, data, addr):
        if self.closed or self.crashed:
            return
        self.bytes_in += len(data)
        # hand the codec a view so its offset walk never copies the
        # datagram; escaping values are materialized inside the decoder
        frames, errors = decode_datagram(memoryview(data))
        if errors:
            # per-sub-frame attribution: one corrupt sub-frame strikes
            # its source without discarding decodable siblings
            self.undecodable += len(errors)
            if self.on_undecodable is not None:
                for err in errors:
                    self.on_undecodable(err.src)
        if not frames:
            return
        src = frames[0][1]        # one claimed source per datagram
        try:
            hash(src)
        except TypeError:
            self.bad_sources += len(frames)
            return
        delivered_any = False
        batch = []                # the protocol payloads, in wire order
        for frame_type, _src, payload in frames:
            if frame_type == FRAME_GOSSIP:
                group = None
                if (isinstance(payload, tuple) and len(payload) == 3
                        and payload[0] == "grp"):
                    group, payload = payload[1], payload[2]
                if (self._gossip_deliver is None or src == self.node_id
                        or group != self.group):
                    continue
                self.gossips_delivered += 1
                delivered_any = True
                if self.observer is not None:
                    self.observer.on_gossip_delivered(self.node_id, src)
                self._gossip_deliver(src, payload)
                continue
            if self._deliver is None:
                continue
            if type(payload) is not Message:
                # decodable, but no protocol datagram
                self.undecodable += 1
                if self.on_undecodable is not None:
                    self.on_undecodable(src)
                continue
            delivered_any = True
            self.frames_delivered += 1
            if self.observer is not None:
                self.observer.on_datagram_delivered(self.node_id, src,
                                                    payload)
            batch.append(payload)
        if batch:
            # all sub-frames of one datagram enter the stack at once
            self._deliver(src, batch[0] if len(batch) == 1 else tuple(batch))
        if delivered_any:
            self.datagrams_delivered += 1

    # ------------------------------------------------------------------
    def counters(self):
        """Snapshot of the transport counters (for reports/benchmarks)."""
        snapshot = {
            "datagrams_sent": self.datagrams_sent,
            "datagrams_dropped": self.datagrams_dropped,
            "datagrams_delivered": self.datagrams_delivered,
            "frames_sent": self.frames_sent,
            "frames_delivered": self.frames_delivered,
            "frames_dropped": self.frames_dropped,
            "gossips_sent": self.gossips_sent,
            "gossips_delivered": self.gossips_delivered,
            "gossip_drops": self.gossip_drops,
            "undecodable": self.undecodable,
            "encode_failures": self.encode_failures,
            "encode_cache_hits": self.encode_cache_hits,
            "oversize_drops": self.oversize_drops,
            "socket_errors": self.socket_errors,
            "bad_sources": self.bad_sources,
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
        }
        for reason, count in self.flush_reasons.items():
            snapshot["flush_" + reason] = count
        return snapshot
