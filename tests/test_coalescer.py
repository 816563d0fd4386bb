"""Unit tests for the transport's wire-path aggregation (socket-free).

The datagram coalescer, the encode-once fan-out cache, and the
batch-receive drain live in :class:`repro.runtime.transport
.AsyncioTransport` but are pure buffer/callback logic: these tests drive
them with a fake event loop and a recording fake UDP endpoint -- no
sockets, no asyncio loop, tier-1 safe.

Covered contracts:

* frames to one destination coalesce into one FRAME_BATCH datagram at
  the end-of-burst flush; a lone frame travels as a plain v1-layout
  frame (no batch overhead);
* the byte budget splits, never drops: an overflowing batch is flushed
  and the frame starts a fresh datagram;
* oversize frames (over the hard datagram ceiling) are dropped loudly:
  counter, observer hook, one stderr line per frame kind;
* clone_for fan-out copies the signed block its message memoized when
  signed (one encode for the broadcast) and the emitted bytes are
  identical to encoding each clone from scratch;
* gossip_cast counts a send only if >=1 transmit succeeded and accounts
  per-address failures (the counter-drift fix);
* a received batch enters the stack as ONE plain tuple of its messages,
  and a corrupt sub-frame -- or one whose body decodes to anything but a
  ``Message`` -- feeds ``on_undecodable`` for that sub-frame only while
  siblings deliver; a tuple of messages is no frame body at all;
* a datagram whose claimed source is unhashable is refused whole and
  counted in ``bad_sources``; a frame with an unhashable ``dest`` still
  reaches the one node the transport hosts (the stack refuses it);
* the transport hosts only the node it is bound to; a group-tagged
  node's gossip travels in a ``("grp", group, payload)`` envelope and
  reaches same-group nodes only, and an untagged node's datagrams keep
  their bytes (pinned);
* crash drops pending buffers, graceful close flushes them;
* the socket reader drains every queued datagram in one callback, up to
  its per-wakeup bound; a ``recvfrom`` error is counted and skipped, a
  delivery that closes the transport ends the drain, and a ``sendto``
  that would block is a counted drop;
* on an AsyncioClock a bottom-layer send reaches the transport inside
  ``handle_down``, and the datagram reaches the reliable layer inside
  the transport's receive call, without a loop hop or a timer.
"""

from __future__ import annotations

import pytest

from tests.helpers import count_digests

from repro.core.message import Message
from repro.core.view import ViewId
from repro.runtime import transport as transport_module
from repro.runtime.transport import (
    DRAIN_BOUND,
    MAX_DATAGRAM_BYTES,
    AsyncioTransport,
)
from repro.runtime.wire import (
    FRAME_BATCH,
    FRAME_DATAGRAM,
    FRAME_GOSSIP,
    decode_datagram,
    decode_frame,
    encode_batch,
    encode_frame,
    encode_value,
    frame_prefix,
)


class FakeTimer:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeLoop:
    """Collects call_soon callbacks; drain() runs them (one 'iteration')."""

    def __init__(self):
        self.ready = []

    def call_soon(self, callback, *args):
        self.ready.append((callback, args))

    def drain(self):
        ready, self.ready = self.ready, []
        for callback, args in ready:
            callback(*args)


class FakeUdp:
    """Recording sendto endpoint; per-address failure injection."""

    def __init__(self):
        self.sent = []        # (data, addr)
        self.fail_addrs = set()

    def sendto(self, data, addr):
        if addr in self.fail_addrs:
            raise OSError("injected")
        self.sent.append((bytes(data), addr))

    def close(self):
        pass


ADDRS = {0: ("127.0.0.1", 40000), 1: ("127.0.0.1", 40001),
         2: ("127.0.0.1", 40002), 3: ("127.0.0.1", 40003)}


def make_transport(node_id=0):
    transport = AsyncioTransport(node_id, ADDRS, loop=FakeLoop())
    transport._udp = FakeUdp()
    return transport


def msg(kind="cast", origin=0, payload=("data", 1), dest=None, msg_id=None):
    m = Message(kind, origin, ViewId(1, 0), payload, payload_size=16,
                dest=dest, msg_id=msg_id)
    m.signature = ("sig", origin)
    return m


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------
def test_burst_coalesces_into_one_batch_datagram():
    t = make_transport()
    for k in range(5):
        t.send(0, 1, 100, msg(msg_id=("m", k)))
    assert t._udp.sent == []          # nothing on the wire mid-burst
    t._loop.drain()                   # end-of-burst flush
    assert len(t._udp.sent) == 1
    data, addr = t._udp.sent[0]
    assert addr == ADDRS[1]
    assert data[3] == FRAME_BATCH
    frames, errors = decode_datagram(data)
    assert errors == []
    assert [f[2].msg_id for f in frames] == [("m", k) for k in range(5)]
    assert t.datagrams_sent == 1
    assert t.frames_sent == 5
    assert t.flush_reasons["burst"] == 1


def test_lone_frame_travels_as_plain_frame():
    t = make_transport()
    t.send(0, 1, 100, msg(msg_id=("solo",)))
    t._loop.drain()
    assert len(t._udp.sent) == 1
    data, _addr = t._udp.sent[0]
    assert data[3] == FRAME_DATAGRAM      # batch overhead stripped
    frame_type, src, payload = decode_frame(data)
    assert (frame_type, src) == (FRAME_DATAGRAM, 0)
    assert payload.msg_id == ("solo",)


def test_destinations_get_separate_datagrams():
    t = make_transport()
    t.send(0, 1, 100, msg(msg_id=("a",)))
    t.send(0, 2, 100, msg(msg_id=("b",)))
    t._loop.drain()
    assert sorted(addr for _d, addr in t._udp.sent) \
        == sorted((ADDRS[1], ADDRS[2]))


def test_size_budget_splits_instead_of_dropping(monkeypatch):
    monkeypatch.setattr(transport_module, "WIRE_MTU", 600)
    t = make_transport()
    for k in range(6):
        t.send(0, 1, 100, msg(payload=("blob", "x" * 100, k)))
    t._loop.drain()
    assert len(t._udp.sent) >= 2          # split across datagrams...
    total = []
    for data, _addr in t._udp.sent:
        frames, errors = decode_datagram(data)
        assert errors == []
        total.extend(f[2].payload[2] for f in frames)
    assert total == list(range(6))        # ...nothing dropped, in order
    assert t.flush_reasons["size"] >= 1
    assert t.frames_sent == 6


def test_oversize_frame_dropped_loudly(capsys):
    t = make_transport()
    calls = []

    class Obs:
        def on_oversize_drop(self, node, kind):
            calls.append((node, kind))

        def on_datagram_sent(self, *a):
            pass

    t.observer = Obs()
    t.send(0, 1, 100, msg(kind="frag", payload=("x" * (MAX_DATAGRAM_BYTES))))
    t._loop.drain()
    assert t._udp.sent == []
    assert t.oversize_drops == 1
    assert calls == [(0, "frag")]
    err = capsys.readouterr().err
    assert "oversize" in err and "frag" in err
    # warn once per kind: a second drop is counted but not re-printed
    t.send(0, 1, 100, msg(kind="frag", payload=("y" * (MAX_DATAGRAM_BYTES))))
    assert t.oversize_drops == 2
    assert "frag" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# encode-once fan-out
# ----------------------------------------------------------------------
def test_fanout_hits_encode_cache_with_identical_bytes(monkeypatch):
    encodes = count_digests(monkeypatch)
    t = make_transport()
    base = msg(msg_id=("bcast",))
    base.signed_block()                   # signing fills the memo
    clones = [base.clone_for(dst) for dst in (1, 2, 3)]
    clones[2].push_header("inc", 7)       # unsigned: keeps the block
    for clone in clones:
        t.send(0, clone.dest, 100, clone)
    assert t.encode_cache_hits == 3 and len(encodes) == 1
    t._loop.drain()
    for (data, _addr), clone in zip(t._udp.sent, clones):
        frames, errors = decode_datagram(data)
        assert errors == []
        # memo-assembled bytes == from-scratch encoding of the clone
        fresh = clone.clone_for(clone.dest)
        fresh._signed = None
        assert data.endswith(encode_value(fresh))
        decoded = frames[0][2]
        assert decoded.signed_block() == base.signed_block()
        assert decoded.wire_tail() == clone.wire_tail()
    assert decoded.header("inc") == 7


def test_diverged_clone_misses_cache():
    t = make_transport()
    base = msg(msg_id=("bcast",))
    base.signed_block()
    first = base.clone_for(1)
    second = base.clone_for(2)
    second.push_header("frag", (0, 1))    # COW divergence, signed
    t.send(0, 1, 100, first)
    t.send(0, 2, 100, second)
    assert t.encode_cache_hits == 1
    t._loop.drain()
    frames, _ = decode_datagram(t._udp.sent[1][0])
    assert frames[0][2].header("frag") == (0, 1)
    assert frames[0][2].signed_block() != base.signed_block()


# ----------------------------------------------------------------------
# gossip accounting (the counter-drift fix)
# ----------------------------------------------------------------------
def test_gossip_cast_not_counted_when_every_transmit_fails():
    t = make_transport()
    t._udp.fail_addrs = set(ADDRS.values())
    t.gossip_cast(0, 64, ("announce", 1))
    assert t.gossips_sent == 0
    assert t.gossip_drops == len(ADDRS) - 1


def test_gossip_cast_counts_partial_fanout_once():
    t = make_transport()
    t._udp.fail_addrs = {ADDRS[2]}
    t.gossip_cast(0, 64, ("announce", 2))
    assert t.gossips_sent == 1            # reached someone
    assert t.gossip_drops == 1            # the failed address accounted
    assert len(t._udp.sent) == len(ADDRS) - 2


# ----------------------------------------------------------------------
# receive-side batch drain
# ----------------------------------------------------------------------
def collect_deliveries(t):
    inbox = []
    t.attach(t.node_id, lambda src, payload: inbox.append((src, payload)))
    return inbox


def test_batch_delivered_as_one_tuple_of_messages():
    receiver = make_transport(node_id=1)
    inbox = collect_deliveries(receiver)
    sender = make_transport(node_id=0)
    for k in range(3):
        sender.send(0, 1, 100, msg(msg_id=("m", k)))
    sender._loop.drain()
    receiver._on_datagram(sender._udp.sent[0][0], ADDRS[0])
    assert len(inbox) == 1                # ONE deliver call for the batch
    src, payload = inbox[0]
    assert src == 0
    assert type(payload) is tuple
    assert [m.msg_id for m in payload] == [("m", k) for k in range(3)]
    assert receiver.datagrams_delivered == 1
    assert receiver.frames_delivered == 3


def test_a_tuple_of_messages_is_refused_at_encode():
    # the one batching mechanism is the coalescer: a message travels only
    # as a frame's own body, so a tuple the stack receives is a batch
    receiver = make_transport(node_id=1)
    inbox = collect_deliveries(receiver)
    sender = make_transport(node_id=0)
    sender.send(0, 1, 100, (msg(msg_id=("p", 0)), msg(msg_id=("p", 1))))
    assert sender.encode_failures == 1
    sender.send(0, 1, 100, msg(msg_id=("q",)))
    sender._loop.drain()
    receiver._on_datagram(sender._udp.sent[0][0], ADDRS[0])
    (_src, payload), = inbox
    assert payload.msg_id == ("q",)


def _raw_datagram(*bodies):
    """One datagram from source 0 carrying the given encoded bodies: a
    plain frame for one, else a batch (bodies the encoder would refuse
    can still arrive from a stranger on the port)."""
    if len(bodies) == 1:
        return (frame_prefix(FRAME_DATAGRAM, 0)
                + len(bodies[0]).to_bytes(4, "big") + bodies[0])
    out = frame_prefix(FRAME_BATCH, 0) + len(bodies).to_bytes(4, "big")
    for body in bodies:
        out += bytes([FRAME_DATAGRAM]) + len(body).to_bytes(4, "big") + body
    return out


#: the bottom layer's retired ("pack", (msg,)) container, as a peer on
#: the old wire would have encoded it
_OLD_PACK = (b"\x62" + encode_value("pack") + b"\x61"
             + encode_value(msg(msg_id=("p",))))


@pytest.mark.parametrize("body", [
    encode_value(7), encode_value(("x",)), encode_value([1, 2]), _OLD_PACK,
], ids=["int", "tuple", "list", "old-pack"])
def test_a_body_that_is_no_message_is_undecodable(body):
    receiver = make_transport(node_id=1)
    inbox = collect_deliveries(receiver)
    strikes = []
    receiver.on_undecodable = strikes.append
    siblings = [encode_value(msg(msg_id=("m", k))) for k in range(2)]
    receiver._on_datagram(_raw_datagram(siblings[0], body, siblings[1]),
                          ADDRS[0])
    assert strikes == [0] and receiver.undecodable == 1
    (_src, payload), = inbox              # the siblings still deliver
    assert [m.msg_id for m in payload] == [("m", 0), ("m", 1)]
    assert receiver.frames_delivered == 2
    # alone, it delivers nothing
    receiver._on_datagram(_raw_datagram(body), ADDRS[0])
    assert strikes == [0, 0] and receiver.undecodable == 2
    assert len(inbox) == 1 and receiver.datagrams_delivered == 1
    if body is _OLD_PACK:
        # the codec itself refuses the old container
        frames, errors = decode_datagram(_raw_datagram(body))
        assert frames == [] and "nested" in str(errors[0])


def test_corrupt_subframe_strikes_source_and_spares_siblings():
    receiver = make_transport(node_id=1)
    inbox = collect_deliveries(receiver)
    strikes = []
    receiver.on_undecodable = strikes.append
    sender = make_transport(node_id=0)
    for k in range(3):
        sender.send(0, 1, 100, msg(msg_id=("m", k)))
    sender._loop.drain()
    data = bytearray(sender._udp.sent[0][0])
    # smash the LAST sub-frame's value tag (offset of its body start)
    bodies = [encode_value(msg(msg_id=("m", k))) for k in range(3)]
    data[len(data) - len(bodies[2])] = 0xFF
    receiver._on_datagram(bytes(data), ADDRS[0])
    assert strikes == [0]                 # attributed to the claimed source
    assert receiver.undecodable == 1
    (_src, payload), = inbox              # siblings still delivered...
    assert [m.msg_id for m in payload] == [("m", 0), ("m", 1)]
    assert receiver.frames_delivered == 2


def test_single_frame_delivers_unwrapped():
    receiver = make_transport(node_id=1)
    inbox = collect_deliveries(receiver)
    frame = encode_frame(FRAME_DATAGRAM, 0, msg(msg_id=("one",)))
    receiver._on_datagram(frame, ADDRS[0])
    (src, payload), = inbox
    assert src == 0 and payload.msg_id == ("one",)


# ----------------------------------------------------------------------
# the socket reader: one wakeup drains what is queued
# ----------------------------------------------------------------------
class ScriptedSocket(FakeUdp):
    """A socket whose ``recvfrom`` replays a script: each entry is a
    ``(data, addr)`` datagram or an exception to raise; past the end it
    would block."""

    def __init__(self, script):
        super().__init__()
        self.script = list(script)
        self.reads = 0

    def recvfrom(self, bufsize):
        self.reads += 1
        if not self.script:
            raise BlockingIOError()
        entry = self.script.pop(0)
        if isinstance(entry, BaseException):
            raise entry
        return entry


def reader_transport(script):
    t = make_transport(node_id=1)
    t._udp = ScriptedSocket(script)
    return t, collect_deliveries(t)


def datagram(k):
    return (encode_frame(FRAME_DATAGRAM, 0, msg(msg_id=("r", k))), ADDRS[0])


def test_reader_drains_past_a_socket_error_in_one_callback():
    t, inbox = reader_transport([datagram(0), OSError("injected"),
                                 datagram(1), BlockingIOError(),
                                 datagram(2)])
    seen = []
    on_datagram = t._on_datagram

    def wrapped(data, addr):              # how an instrumented run wraps it
        seen.append(addr)
        on_datagram(data, addr)

    t._on_datagram = wrapped
    t._on_readable()
    assert [p.msg_id for _s, p in inbox] == [("r", 0), ("r", 1)]
    assert seen == [ADDRS[0], ADDRS[0]]
    assert t.socket_errors == 1
    assert t._udp.reads == 4              # stopped at the would-block


def test_reader_yields_to_the_loop_after_its_bound():
    t, inbox = reader_transport([datagram(k) for k in range(DRAIN_BOUND + 5)])
    t._on_readable()
    assert len(inbox) == DRAIN_BOUND
    t._on_readable()
    assert len(inbox) == DRAIN_BOUND + 5
    assert [p.msg_id[1] for _s, p in inbox] == list(range(DRAIN_BOUND + 5))


def test_reader_stops_when_a_delivery_closes_the_transport():
    t = make_transport(node_id=1)
    sock = t._udp = ScriptedSocket([datagram(0), datagram(1)])
    inbox = []

    def deliver(src, payload):
        inbox.append(payload)
        t.close()

    t.attach(1, deliver)
    t._on_readable()
    assert len(inbox) == 1
    assert sock.reads == 1 and len(sock.script) == 1


def test_sendto_that_would_block_is_a_counted_drop():
    t = make_transport()

    def would_block(data, addr):
        raise BlockingIOError()

    t._udp.sendto = would_block
    t.send(0, 1, 100, msg())
    t.flush_pending()
    assert t.datagrams_dropped == 1 and t.socket_errors == 1
    assert t.frames_dropped == 1 and t.datagrams_sent == 0


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_crash_drops_pending_close_flushes():
    t = make_transport()
    t.send(0, 1, 100, msg())
    t.crash(0)
    assert t._udp is None or t._udp.sent == []
    assert t.datagrams_sent == 0          # crash semantics: buffer dropped

    t2 = make_transport()
    t2.send(0, 1, 100, msg(msg_id=("late",)))
    udp = t2._udp
    t2.close()                            # graceful: drains first
    assert len(udp.sent) == 1
    assert t2.flush_reasons["final"] == 1


def test_send_after_close_is_counted_dropped():
    t = make_transport()
    t.close()
    t.send(0, 1, 100, msg())
    assert t.datagrams_dropped == 1


# ----------------------------------------------------------------------
# the hop between the stack and the socket
# ----------------------------------------------------------------------
class HopLoop(FakeLoop):
    """FakeLoop with a frozen ``time()`` and a ``call_at`` that only
    records: a timer never fires, so whatever crosses a hop here crossed
    it on the ready queue."""

    def __init__(self):
        super().__init__()
        self.timers = []

    def time(self):
        return 100.0

    def call_at(self, when, callback, *args):
        handle = FakeTimer()
        self.timers.append((when, callback, args, handle))
        return handle

    def run_ready(self):
        while self.ready:
            self.drain()


def test_hop_to_socket_and_back_takes_no_timer():
    """On an AsyncioClock a bottom-layer send reaches ``transport.send``
    inside ``handle_down``, and the datagram it becomes reaches the
    reliable layer inside ``_on_datagram``, with no ``call_at`` and no
    ready-queue hop on the way: real clocks pay no modelled CPU, so the
    work a charge guards runs inline (a timer would wait out a selector
    quantum, a ``call_soon`` costs a loop handle)."""
    from repro.core.config import StackConfig
    from repro.crypto.keys import KeyManager
    from repro.runtime.backend_asyncio import AsyncioRuntime
    loop = HopLoop()
    keys = KeyManager()
    processes = {}
    for node in (0, 1):
        runtime = AsyncioRuntime(node, ADDRS, seed=node, loop=loop)
        runtime.transport._udp = FakeUdp()
        processes[node] = runtime.spawn_process(
            StackConfig.byz(crypto="sym"), keys=keys,
            initial_view=runtime.initial_view(ADDRS, established=True))
    sender, receiver = processes[1], processes[0]
    timers_before = len(loop.timers)

    sends = []
    send = sender.network.send

    def recorded_send(src, dst, size_bytes, payload):
        sends.append(len(loop.timers))
        send(src, dst, size_bytes, payload)

    sender.network.send = recorded_send
    arrivals = []
    receiver.bottom.send_up = lambda m: arrivals.append(
        (m.payload, len(loop.timers)))

    sender.bottom.handle_down(Message("cast", 1, sender.view.vid, ("hop",),
                                      payload_size=16, dest=0))
    assert sends == [timers_before]       # before the loop ran anything
    loop.run_ready()
    (data, addr), = sender.network._udp.sent
    assert addr == ADDRS[0]
    receiver.network._on_datagram(data, ADDRS[1])
    assert arrivals == [(("hop",), timers_before)]
    assert loop.ready == []


# ----------------------------------------------------------------------
# one node per transport; gossip scoped by group
# ----------------------------------------------------------------------
def test_attach_refuses_any_other_node():
    t = make_transport(node_id=2)
    with pytest.raises(ValueError):
        t.attach(1, lambda s, p: None)
    t.attach(2, lambda s, p: None)


def test_group_gossip_reaches_its_own_group_only():
    heard = {}

    def node(node_id, group):
        t = make_transport(node_id=node_id)
        heard[node_id] = []
        t.attach(node_id, None,
                 lambda src, p, node_id=node_id: heard[node_id].append(
                     (src, p)),
                 group=group)
        return t

    sender = node(0, 1)
    receivers = [node(1, 1), node(2, 2), node(3, None)]
    sender.gossip_cast(0, 64, ("announce", 7))
    datagrams = {addr: data for data, addr in sender._udp.sent}
    assert sorted(datagrams) == [ADDRS[1], ADDRS[2], ADDRS[3]]
    frame_type, src, payload = decode_frame(datagrams[ADDRS[1]])
    assert (frame_type, src) == (FRAME_GOSSIP, 0)
    assert payload == ("grp", 1, ("announce", 7))
    for receiver in receivers:
        receiver._on_datagram(datagrams[ADDRS[receiver.node_id]], ADDRS[0])
    assert heard == {0: [], 1: [(0, ("announce", 7))], 2: [], 3: []}
    assert [r.gossips_delivered for r in receivers] == [1, 0, 0]
    # untagged gossip reaches no tagged node either
    bare = receivers[2]
    bare.gossip_cast(3, 64, ("announce", 8))
    receivers[0]._on_datagram(bare._udp.sent[0][0], ADDRS[3])
    assert heard[1] == [(0, ("announce", 7))]


def test_an_untagged_node_keeps_its_datagram_bytes():
    """Byte pins of an untagged node's gossip and coalesced frames
    (re-recorded at WIRE_VERSION 5, where only the version byte moved)."""
    import hashlib
    t = make_transport()
    t.attach(0, lambda s, p: None, lambda s, p: None)
    t.gossip_cast(0, 64, ("announce", 1, ("view", 3)))
    assert [addr for _data, addr in t._udp.sent] \
        == [ADDRS[1], ADDRS[2], ADDRS[3]]
    assert {data.hex() for data, _addr in t._udp.sent} == {
        "4a42050280000000126328616e6e6f756e63658162247669657783"}
    del t._udp.sent[:]
    for k in range(2):
        t.send(0, 1, 100, msg(msg_id=("m", k)))
    t.send(0, 2, 100, msg(msg_id=("solo",)))
    t._loop.drain()
    assert hashlib.sha256(b"".join(
        data for data, _addr in t._udp.sent)).hexdigest() \
        == "d0a01e56730c1da2fdcd80e485f779fa8238d7913071364de2f4eb0975f02c14"


# ----------------------------------------------------------------------
# a claimed source that cannot key a table
# ----------------------------------------------------------------------
@pytest.mark.parametrize("src", [[1], (1, [2])], ids=["list", "nested"])
def test_an_unhashable_frame_source_is_refused_and_counted(src):
    t = make_transport()
    delivered = []
    t.attach(0, lambda s, p: delivered.append(p),
             lambda s, p: delivered.append(p))
    forged = msg(origin=src, dest=0, msg_id=(src, 1))
    forged.signature = {0: b"0123456789"}
    t._on_datagram(encode_frame(FRAME_DATAGRAM, src, forged), ADDRS[1])
    t._on_datagram(encode_batch(src, [(FRAME_DATAGRAM, forged),
                                      (FRAME_GOSSIP, ("gossip",))]),
                   ADDRS[1])
    assert delivered == [] and t.bad_sources == 3
    assert t.counters()["bad_sources"] == 3
    # an unhashable dest routes nothing: the frame reaches the one
    # hosted node, whose stack refuses it
    forged.dest = [0]
    t._on_datagram(encode_frame(FRAME_DATAGRAM, 1, forged), ADDRS[1])
    assert [p.dest for p in delivered] == [[0]]
    assert t.frames_delivered == 1 and t.bad_sources == 3
