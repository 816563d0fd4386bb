"""Asyncio UDP transport: real datagrams behind the ``network`` seam.

One :class:`AsyncioTransport` serves one node (one OS process): it binds
a UDP socket on localhost and implements the exact surface the stack
uses on :class:`repro.sim.network.Network` -- ``attach``, ``send``,
``gossip_cast``, ``crash``, ``detach`` plus the datagram counters.

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

Wire-path aggregation (docs/PERFORMANCE.md, "The wire path"):

* **datagram coalescing** -- outgoing protocol frames are buffered per
  destination and flushed as one ``FRAME_BATCH`` datagram when the byte
  budget fills (``StackConfig.wire_mtu``, capped by
  :data:`MAX_DATAGRAM_BYTES`) or at the end of the current event-loop
  burst (a ``call_soon`` armed on the first buffered frame runs after
  every callback that was ready this iteration -- so a saturating burst
  aggregates, while a lone heartbeat leaves within the same loop turn).
  Anything already pending to a peer rides the same flush, which is how
  ack vectors produced while draining a received batch piggyback onto
  datagrams being emitted anyway.
* **encode-once fan-out** -- the destination-independent prefix of an
  encoded ``Message`` is cached across ``clone_for`` siblings
  (:meth:`Message.wire_shares_body`), so an n-1-receiver broadcast
  serializes the shared body once; scratch/output buffers are reused
  ``bytearray`` objects, not per-frame allocations.
* **batch receive drain** -- an arriving batch is fully decoded and
  handed to the stack as one ``("pack", ...)`` container, so the bottom
  layer charges one per-datagram cost and the scheduler runs one
  callback for the whole batch (the same contract the simulator's pack
  queues already have).

Undecodable datagrams (truncated, bit-flipped, garbage) are counted and
reported through :attr:`on_undecodable` -- per *sub-frame* for batches,
so one corrupt sub-frame feeds corruption suspicion without discarding
its siblings; node wiring points that at
:meth:`repro.layers.bottom.BottomLayer.note_undecodable`
(docs/ROBUSTNESS.md).

Shard multiplexing (repro.shard): one transport -- one socket -- can
host SEVERAL attached processes (ports), one per group, when their
address-book entries share this transport's bind address.  Outgoing
frames carry their own source id (per-source frame prefixes and
coalescer buffers); incoming protocol frames are routed to the hosting
port by ``msg.dest``; gossip from a group-tagged port travels in a
``("grp", group_id, payload)`` envelope and is delivered only to ports
of the same group, so one shard's view announcements can never feed
another shard's merge machinery.  A single un-tagged port (the classic
one-node-one-process deployment) sees byte-identical datagrams to the
pre-shard wire format.
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
    encode_frame,
    encode_message_prefix,
    encode_message_tail_into,
    encode_value_into,
    frame_prefix,
)

#: payloads above this encoded size cannot travel in one UDP datagram
MAX_DATAGRAM_BYTES = 65000

#: unconfigured-transport default; :meth:`AsyncioTransport.configure`
#: overrides it from StackConfig.packing_policy(wire=True)
DEFAULT_COALESCE_BYTES = 16000

#: datagrams one readiness callback takes off the socket before it
#: returns to the loop (timers and other sockets wait at most this many)
DRAIN_BOUND = 64

#: ``recvfrom`` buffer: any UDP datagram arrives whole (a stranger's
#: oversize one too -- the codec rejects it, nothing truncates it)
RECV_BYTES = 65536

_pack_u32 = struct.Struct("!I").pack


class _DestBuffer:
    """Pending coalesced sub-frames for one (source, destination) pair.

    Keyed by source too because a batch datagram names ONE source for
    all its sub-frames -- two co-hosted shard ports sending to the same
    peer address must not share a batch.
    """

    __slots__ = ("src", "dst", "addr", "buf", "frames")

    def __init__(self, src, dst, addr):
        self.src = src
        self.dst = dst
        self.addr = addr
        self.buf = bytearray()   # concatenated sub-frames, reused across flushes
        self.frames = 0


class _Port:
    """One attached process on this transport (one group's member)."""

    __slots__ = ("node_id", "deliver", "gossip_deliver", "group",
                 "crashed", "on_undecodable")

    def __init__(self, node_id, deliver, gossip_deliver, group):
        self.node_id = node_id
        self.deliver = deliver
        self.gossip_deliver = gossip_deliver
        self.group = group
        self.crashed = False
        self.on_undecodable = None


class AsyncioTransport:
    """Real UDP sockets for one node of a localhost cluster."""

    def __init__(self, node_id, addresses, loop=None):
        """``addresses``: {node_id: (host, port)} for the whole cluster,
        including this node (its own entry is the bind address)."""
        self.node_id = node_id
        self.addresses = dict(addresses)
        self._loop = loop or asyncio.get_event_loop()
        self._udp = None          # the bound non-blocking socket once open
        self._reading = False     # the socket's reader is on the loop
        #: node_id -> _Port; several hosted processes share this socket
        #: when their address-book entries equal the bind address
        self._ports = {}
        self.closed = False
        self.crashed = False
        # coalescing policy (reconfigured from StackConfig by the runtime)
        self.coalescing = True
        self.coalesce_max_bytes = DEFAULT_COALESCE_BYTES
        # coalescer state
        self._dest_bufs = {}          # (src, addr) -> _DestBuffer
        self._burst_flush_armed = False
        # encode-once fan-out: (representative clone, shared prefix bytes)
        self._body_cache = None
        self._scratch = bytearray()   # reusable body-encode buffer
        # precomputed frame prefixes keyed by source node id (a hosted
        # shard port sends under its OWN id, not the bind node's)
        self._prefixes = {}
        self._src_prefixes(node_id)
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
        self.misrouted = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.flush_reasons = {"size": 0, "burst": 0, "final": 0}
        self._oversize_warned = set()
        # hooks
        self.observer = None          # ObservabilityPlane, or None
        self.on_undecodable = None    # transport-wide callback(src_or_None)

    def _src_prefixes(self, src):
        """``(prefix_map, single_overhead, batch_overhead)`` for one
        source id, cached (prefix length varies with the encoded id)."""
        entry = self._prefixes.get(src)
        if entry is None:
            prefixes = {
                FRAME_DATAGRAM: frame_prefix(FRAME_DATAGRAM, src),
                FRAME_GOSSIP: frame_prefix(FRAME_GOSSIP, src),
                FRAME_BATCH: frame_prefix(FRAME_BATCH, src),
            }
            entry = (prefixes,
                     len(prefixes[FRAME_DATAGRAM]) + 4,
                     len(prefixes[FRAME_BATCH]) + 4)
            self._prefixes[src] = entry
        return entry

    def _live_ports(self):
        return [port for port in self._ports.values() if not port.crashed]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def configure(self, config):
        """Adopt the stack's shared packing policy for the coalescer."""
        self.coalescing = bool(getattr(config, "wire_coalesce", True))
        self.coalesce_max_bytes = min(int(config.packing_policy(wire=True)),
                                      MAX_DATAGRAM_BYTES)

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
        crash (:meth:`crash`) drops them, matching the simulator's
        crash semantics for pack queues.
        """
        if self.closed:
            return
        if not self.crashed:
            self.flush_pending(reason="final")
        self.closed = True
        self._drop_pending()
        self._body_cache = None
        udp, self._udp = self._udp, None
        if udp is not None:
            if self._reading:
                self._loop.remove_reader(udp.fileno())
            udp.close()

    # ------------------------------------------------------------------
    # the Network surface the stack uses
    # ------------------------------------------------------------------
    def attach(self, node_id, deliver, gossip_deliver=None, group=None):
        """Host ``node_id`` on this socket.

        Any node whose address-book entry equals this transport's bind
        address may attach (that is what lets one OS process run several
        shard members over one socket); ``group`` tags the port for
        gossip scoping and rides the same contract as
        :meth:`repro.sim.network.Network.attach`.
        """
        if self.addresses.get(node_id) != self.addresses[self.node_id]:
            raise ValueError("transport bound at %r cannot host node %r "
                             "(address-book entry differs)"
                             % (self.addresses[self.node_id], node_id))
        self._ports[node_id] = _Port(node_id, deliver, gossip_deliver, group)

    def detach(self, node_id):
        self._ports.pop(node_id, None)
        if not self._ports:
            self.close()

    def crash(self, node_id):
        """Crash semantics: silence the node and drop its pending
        coalescer buffers; the socket is released once every hosted
        port has crashed (a co-hosted shard member keeps it open)."""
        port = self._ports.get(node_id)
        if port is not None:
            port.crashed = True
            self._drop_pending(src=node_id)
        if port is None or not self._live_ports():
            self.crashed = True
            self._drop_pending()
            self.close()

    def send(self, src, dst, size_bytes, payload):
        """Unicast one protocol frame (``size_bytes`` is the *modelled*
        size; the wire carries the encoded frame, possibly coalesced
        into a batch datagram with other frames to the same peer)."""
        if self.closed or self.crashed:
            self.datagrams_dropped += 1
            return
        port = self._ports.get(src)
        if port is not None and port.crashed:
            self.datagrams_dropped += 1
            return
        addr = self.addresses.get(dst)
        if addr is None:
            self.datagrams_dropped += 1
            return
        if port is None and src != self.node_id:
            # exotic caller (the stack always sends as itself): keep the
            # faithful-source wire contract via the uncached slow path
            self._send_single(FRAME_DATAGRAM, src, payload, addr)
            return
        prefixes, single_overhead, _ = self._src_prefixes(src)
        body = self._encode_body(payload)
        if body is None:
            return
        if single_overhead + len(body) > MAX_DATAGRAM_BYTES:
            self._drop_oversize(payload, single_overhead + len(body))
            return
        if self.observer is not None:
            self.observer.on_datagram_sent(
                src, dst, SUBFRAME_OVERHEAD + len(body), payload)
        if not self.coalescing:
            data = b"".join((prefixes[FRAME_DATAGRAM],
                             _pack_u32(len(body)), body))
            if self._transmit(data, addr):
                self.datagrams_sent += 1
                self.frames_sent += 1
            else:
                self.frames_dropped += 1
            return
        self._enqueue(FRAME_DATAGRAM, src, dst, addr, body)

    def gossip_cast(self, src, size_bytes, payload):
        """Fan one gossip frame out to every address on the bus.

        The frame is encoded once for the whole fan-out.  The sent
        counter reflects *reachability*: it increments only when at
        least one per-address transmit succeeded, and every failed
        address is accounted in ``gossip_drops``.

        A group-tagged source wraps the payload in a ``("grp", group,
        payload)`` envelope; receivers deliver it only to same-group
        ports.  An un-tagged source (the classic deployment) sends the
        payload bare -- byte-identical to the pre-shard wire format.
        Shared addresses are deduplicated so a socket hosting several
        ports receives one copy, not one per hosted node.
        """
        if self.closed or self.crashed:
            return
        port = self._ports.get(src)
        if port is not None and port.crashed:
            return
        group = port.group if port is not None else None
        wire_payload = payload if group is None else ("grp", group, payload)
        try:
            if port is not None or src == self.node_id:
                body = self._encode_gossip_body(wire_payload)
                prefixes = self._src_prefixes(src)[0]
                data = b"".join((prefixes[FRAME_GOSSIP],
                                 _pack_u32(len(body)), body))
            else:
                data = encode_frame(FRAME_GOSSIP, src, wire_payload)
        except WireError:
            self.encode_failures += 1
            return
        if len(data) > MAX_DATAGRAM_BYTES:
            self._drop_oversize(payload, len(data))
            return
        sent_any = False
        seen_addrs = set()
        for node_id, addr in self.addresses.items():
            if node_id == src or addr in seen_addrs:
                continue
            seen_addrs.add(addr)
            if self._transmit(data, addr):
                sent_any = True
            else:
                self.gossip_drops += 1
        if sent_any:
            self.gossips_sent += 1
            if self.observer is not None:
                self.observer.on_gossip_sent(src, len(data))

    # ------------------------------------------------------------------
    # encode-once body cache + reusable buffers
    # ------------------------------------------------------------------
    def _encode_body(self, payload):
        """Encoded body bytes of one protocol payload, or None on failure.

        For ``Message`` payloads the destination-independent prefix is
        cached across the back-to-back ``clone_for`` siblings of one
        broadcast fan-out; only the (dest, msg_id) tail is re-encoded
        per receiver.
        """
        scratch = self._scratch
        del scratch[:]
        try:
            if type(payload) is Message:
                cached = self._body_cache
                if cached is not None and payload.wire_shares_body(cached[0]):
                    self.encode_cache_hits += 1
                else:
                    cached = (payload, encode_message_prefix(payload))
                    self._body_cache = cached
                scratch += cached[1]
                encode_message_tail_into(payload, scratch)
            else:
                encode_value_into(payload, scratch)
        except WireError:
            self.encode_failures += 1
            return None
        return bytes(scratch)

    def _encode_gossip_body(self, payload):
        scratch = self._scratch
        del scratch[:]
        encode_value_into(payload, scratch)
        return bytes(scratch)

    def _send_single(self, frame_type, src, payload, addr):
        try:
            data = encode_frame(frame_type, src, payload)
        except WireError:
            self.encode_failures += 1
            return
        if len(data) > MAX_DATAGRAM_BYTES:
            self._drop_oversize(payload, len(data))
            return
        if self._transmit(data, addr):
            self.datagrams_sent += 1
            self.frames_sent += 1
        else:
            self.frames_dropped += 1

    # ------------------------------------------------------------------
    # the coalescer
    # ------------------------------------------------------------------
    def _enqueue(self, frame_type, src, dst, addr, body):
        key = (src, addr)
        dest = self._dest_bufs.get(key)
        if dest is None:
            dest = self._dest_bufs[key] = _DestBuffer(src, dst, addr)
        batch_overhead = self._src_prefixes(src)[2]
        sub_len = SUBFRAME_OVERHEAD + len(body)
        # budget split: a frame that would overflow the pack flushes what
        # is pending first and starts a fresh datagram -- never dropped
        if (dest.frames
                and batch_overhead + len(dest.buf) + sub_len
                > self.coalesce_max_bytes):
            self._flush_dest(dest, "size")
        buf = dest.buf
        buf.append(frame_type)
        buf += _pack_u32(len(body))
        buf += body
        dest.frames += 1
        if batch_overhead + len(buf) >= self.coalesce_max_bytes:
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
        prefixes = self._src_prefixes(dest.src)[0]
        if count == 1:
            # a lone frame travels as a plain (non-batch) datagram: the
            # sub-frame framing is stripped, saving the batch overhead
            frame_type = buf[0]
            data = b"".join((prefixes[frame_type],
                             bytes(buf[1:])))
        else:
            data = b"".join((prefixes[FRAME_BATCH],
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

    def _drop_pending(self, src=None):
        for dest in self._dest_bufs.values():
            if src is not None and dest.src != src:
                continue
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
    def _route_port(self, payload):
        """The hosted port a protocol frame is addressed to.

        Routing key is ``msg.dest`` (every stack payload is a Message or
        a ``("pack", ...)`` container of same-dest Messages).  A payload
        with no readable dest falls back to the lone live port -- the
        classic one-process deployment and raw-payload tests -- and is
        counted ``misrouted`` when several ports could claim it.
        """
        dest = getattr(payload, "dest", None)
        if (dest is None and isinstance(payload, tuple)
                and len(payload) == 2 and payload[0] == "pack"
                and payload[1]):
            dest = getattr(payload[1][0], "dest", None)
        port = self._ports.get(dest) if dest is not None else None
        if port is not None:
            return None if port.crashed else port
        live = self._live_ports()
        if len(live) == 1:
            return live[0]
        self.misrouted += 1
        return None

    def _report_undecodable(self, src):
        callback = self.on_undecodable
        if callback is not None:
            callback(src)
        for port in self._live_ports():
            if port.on_undecodable is not None:
                port.on_undecodable(src)

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
            for err in errors:
                self._report_undecodable(err.src)
        if not frames:
            return
        delivered_any = False
        batch_src = None
        batch_port = None
        batch = None            # accumulated payloads, same (src, port)
        for frame_type, src, payload in frames:
            if frame_type == FRAME_GOSSIP:
                group = None
                inner = payload
                if (isinstance(payload, tuple) and len(payload) == 3
                        and payload[0] == "grp"):
                    group, inner = payload[1], payload[2]
                for port in self._live_ports():
                    if (port.gossip_deliver is None or port.node_id == src
                            or port.group != group):
                        continue
                    self.gossips_delivered += 1
                    delivered_any = True
                    if self.observer is not None:
                        self.observer.on_gossip_delivered(port.node_id, src)
                    port.gossip_deliver(src, inner)
                continue
            port = self._route_port(payload)
            if port is None or port.deliver is None:
                continue
            delivered_any = True
            self.frames_delivered += 1
            if self.observer is not None:
                self.observer.on_datagram_delivered(port.node_id, src,
                                                    payload)
            if batch is not None and (src != batch_src
                                      or port is not batch_port):
                self._deliver_batch(batch_port, batch_src, batch)
                batch = None
            if batch is None:
                batch_src, batch_port, batch = src, port, []
            batch.append(payload)
        if batch is not None:
            self._deliver_batch(batch_port, batch_src, batch)
        if delivered_any:
            self.datagrams_delivered += 1

    def _deliver_batch(self, port, src, payloads):
        """Drain all sub-frames from one source into the stack at once.

        A multi-frame batch enters the bottom layer as one ``("pack",
        (msg, ...))`` container -- one per-datagram CPU charge and one
        scheduler callback for the whole batch, the same contract the
        simulator's pack queues have.  Payloads that are themselves pack
        containers are flattened in wire order.
        """
        if len(payloads) == 1:
            port.deliver(src, payloads[0])
            return
        msgs = []
        for payload in payloads:
            if (isinstance(payload, tuple) and len(payload) == 2
                    and payload[0] == "pack"
                    and isinstance(payload[1], tuple)):
                msgs.extend(payload[1])
            else:
                msgs.append(payload)
        port.deliver(src, ("pack", tuple(msgs)))

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
            "misrouted": self.misrouted,
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
        }
        for reason, count in self.flush_reasons.items():
            snapshot["flush_" + reason] = count
        return snapshot
