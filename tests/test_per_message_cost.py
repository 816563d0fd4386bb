"""What a message pays for on the common path, and what the receiver
refuses before it pays anything (docs/PERFORMANCE.md, "Memoized canonical
encoding + digest MACs", "One ack row per view", "Archive trimmed per
stream", "Once per cast").

* the digest a MAC scheme signs is computed only when a scheme reads it:
  never under NoCrypto, once per signed message under SymCrypto, also for
  a restarted member, whose unsigned ``inc`` header keeps the memo;
* the checker's content digest and the archive record are computed once
  per cast and shared by its receivers; a copy a Byzantine member altered
  inherits neither, and a message decoded from the wire carries none;
* on real sockets a broadcast encodes its signed block once, for the MAC
  and every frame, and a receiver hashes the block it received without
  encoding anything;
* the ack row is packed when an ack or heartbeat leaves, decodes to the
  triples rebuilt from the stream records, and off the wire is one
  ``bytes`` value;
* the retransmission archive is trimmed per stream up to the stability
  floor, and what is above the floor is still served;
* a malformed ``inc`` transport header is refused before any comparison,
  and an unhashable claimed source before any table lookup.
"""

import sys

import pytest

from tests.helpers import (acknowledged, count_content_digests,
                           count_digests, count_hashes, make_group,
                           row_entries, tagged_detector)

from repro import Group, StackConfig
from repro.apps.ring import RingDemo
from repro.byzantine.behaviors import (BadViewCoordinator, Equivocator,
                                       ForgedRetransmitter, TwoFacedCaster)
from repro.core import message as mk
from repro.core.history import content_digest
from repro.core.message import Message
from repro.core.properties import check_content_agreement
from repro.layers.reliable import STREAM_APP, STREAM_CTL, STREAM_P2P
from repro.layers.stability import FUZZY_FLOW_THRESHOLD
from repro.runtime.wire import (FRAME_DATAGRAM, decode_datagram, decode_value,
                                encode_frame, encode_value)
from repro.sim.network import NetworkConfig


def cast_and_settle(crypto):
    group = make_group(5, seed=4, crypto=crypto)
    for k in range(20):
        group.endpoints[k % 5].cast(("m", k))
    group.endpoints[1].send(2, ("p2p",))
    group.run(0.3)
    assert all(p.top.delivered == 20 for p in group.processes.values())
    return group


def test_a_nocrypto_run_computes_no_digest(monkeypatch):
    digests = count_digests(monkeypatch)
    group = cast_and_settle("none")
    assert sum(p.bottom.messages_signed
               for p in group.processes.values()) > 50
    assert digests == []


def test_a_sym_run_computes_one_digest_per_signed_message(monkeypatch):
    digests = count_digests(monkeypatch)
    group = cast_and_settle("sym")
    signed = sum(p.bottom.messages_signed for p in group.processes.values())
    # the receivers of a broadcast verify against the sender's memo
    assert len(digests) == signed
    assert [msg.kind for msg in digests].count(mk.KIND_CAST) == 20


def test_a_restarted_member_costs_one_digest_per_signed_message(monkeypatch):
    group = make_group(4, seed=7, crypto="sym")
    group.run(0.3)
    group.crash(3)
    assert group.run_until(lambda: all(
        3 not in p.view.mbrs for node, p in group.processes.items()
        if node != 3), timeout=5.0)
    group.restart(3)
    assert group.run_until(lambda: all(
        len(p.view.mbrs) == 4 for p in group.processes.values()),
        timeout=8.0)
    group.run(0.3)
    restarted = group.processes[3]
    assert restarted.incarnation == 1
    signed = restarted.bottom.messages_signed
    digests = count_digests(monkeypatch)
    for k in range(10):
        group.endpoints[3].cast(("again", k))
    group.run(0.3)
    signed = restarted.bottom.messages_signed - signed
    assert signed > 20
    # the receivers verify against the signer's memo: the ``inc`` header
    # it pushed after signing, and they pop before verifying, is not part
    # of the authenticated content (four digests a message before)
    assert sum(msg.sender == 3 for msg in digests) == signed


# ----------------------------------------------------------------------
# the ack row, packed when it leaves
# ----------------------------------------------------------------------
def reference_entries(reliable):
    """The row's triples rebuilt from the stream records: every view
    member's acknowledged in-stream at its top (0 while never opened) and
    my two out-streams at their counters, sorted by repr of (origin,
    stream) -- one entry per column."""
    counts = {(origin, stream): rec.top for (origin, stream), rec
              in reliable.streams.records.items()
              if stream != STREAM_P2P and origin != reliable.me}
    counts.update({(reliable.me, stream): reliable._out_seq[stream]
                   for stream in (STREAM_APP, STREAM_CTL)})
    columns = sorted(((member, stream) for member in reliable.view.mbrs
                      for stream in (STREAM_APP, STREAM_CTL)), key=repr)
    return tuple(column + (counts.get(column, 0),) for column in columns)


def test_every_ack_and_heartbeat_carries_the_sorted_reference_vector():
    group = Group.bootstrap(12, config=StackConfig.byz(), seed=5,
                            net_config=NetworkConfig(drop_prob=0.05))
    checked = []
    for process in group.processes.values():
        # the layer above the bottom: every ack and heartbeat passes it
        above = process.stack.layers[1]
        send_down = above.send_down

        def checking(msg, process=process, send_down=send_down):
            if msg.kind in (mk.KIND_ACK, mk.KIND_HEARTBEAT):
                reliable = process.reliable
                assert row_entries(reliable.view.mbrs, msg.payload) \
                    == reference_entries(reliable)
                assert msg.payload is reliable._delivered_row()
                assert msg.payload_size == 6 * acknowledged(reliable) + (
                    4 if msg.kind == mk.KIND_HEARTBEAT else 0)
                checked.append(msg.kind)
            send_down(msg)
        above.send_down = checking
    for k in range(60):
        group.endpoints[1 + k % 3].cast(("m", k))
        if k < 9:
            group.endpoints[0].cast(("own", k))
        group.run(0.004)
    group.run(0.5)
    assert checked.count(mk.KIND_ACK) > 100
    assert checked.count(mk.KIND_HEARTBEAT) > 12
    assert sum(p.reliable.streams.naks_sent
               for p in group.processes.values()) > 0
    # my own stream across 9 -> 10 is one column, at the sent seq: the
    # tenth cast is counted out before its self-delivery event runs
    reliable = group.processes[0].reliable
    mbrs = reliable.view.mbrs
    assert reliable._out_seq[STREAM_APP] == 9
    assert reliable.streams.records[(0, STREAM_APP)].top == 9
    row = reliable._delivered_row()
    assert row_entries(mbrs, row) == reference_entries(reliable)
    group.endpoints[0].cast(("own", 9))
    moved = reliable._delivered_row()
    assert moved is not row
    assert row_entries(mbrs, moved) == reference_entries(reliable)
    assert (0, STREAM_APP, 10) in row_entries(mbrs, moved)
    group.run(0.05)
    assert row_entries(mbrs, reliable._delivered_row()) \
        == reference_entries(reliable)
    group.stop()


def test_an_unchanged_row_is_the_same_object():
    group = make_group(4, seed=2)
    group.endpoints[1].cast("x")
    group.run(0.2)
    reliable = group.processes[0].reliable
    row = reliable._delivered_row()
    assert reliable._delivered_row() is row
    group.endpoints[2].cast("y")
    group.run(0.2)
    moved = reliable._delivered_row()
    assert moved is not row and moved != row
    assert reliable._delivered_row() is moved
    # an in-stream opened at 0 leaves the bytes as they are, but the row
    # moved: it is a new object, and the next beacon is an ack
    assert (3, STREAM_CTL) not in reliable.streams.records
    size = acknowledged(reliable)
    reliable.streams.ask(3, STREAM_CTL, 0)
    opened = reliable._delivered_row()
    assert opened == moved and opened is not moved
    assert acknowledged(reliable) == size + 1
    reliable._ack_sent = moved
    assert reliable.beacon() is None


def count_decoded_values(monkeypatch):
    """Every value the wire decoder produces: each ``_decode`` call, but
    the one an ``_items`` loop makes for an item it counts itself, and
    every item an ``_items`` loop reads (small ints are read inline)."""
    from repro.runtime import wire
    tally = [0]
    decode, items = wire._decode, wire._items

    def counting_decode(*args):
        if sys._getframe(1).f_code is not items.__code__:
            tally[0] += 1
        return decode(*args)

    def counting_items(data, offset, depth, end, count):
        tally[0] += count
        return items(data, offset, depth, end, count)
    monkeypatch.setattr(wire, "_decode", counting_decode)
    monkeypatch.setattr(wire, "_items", counting_items)
    return tally


#: the values one n=4 ack datagram decodes to: the frame's source, the
#: message, its twelve fields, the view id's two and the row (the sorted
#: vector of (origin, stream, count) triples took 33 for the payload alone)
ACK_DATAGRAM_VALUES = 16


def test_an_ack_decodes_its_row_as_one_bytes_value(monkeypatch):
    group = make_group(4, seed=2)
    for k in range(200):                 # counts past the small-int tag
        group.endpoints[k % 4].cast(("m", k))
    group.run(0.3)
    reliable = group.processes[0].reliable
    row = reliable._delivered_row()
    assert [cum for _origin, stream, cum in row_entries(reliable.view.mbrs,
                                                         row)
            if stream == STREAM_APP] == [50] * 4
    ack = Message(mk.KIND_ACK, 0, reliable.view.vid, row,
                  payload_size=6 * acknowledged(reliable))
    data = encode_frame(FRAME_DATAGRAM, 0, ack)
    values = count_decoded_values(monkeypatch)
    frames, errors = decode_datagram(memoryview(data))
    assert errors == []
    payload = frames[0][2].payload
    assert type(payload) is bytes and payload == row
    assert len(payload) == 4 * 2 * 4
    assert values[0] <= ACK_DATAGRAM_VALUES


# ----------------------------------------------------------------------
# the archive, trimmed per stream
# ----------------------------------------------------------------------
def test_a_trim_drops_copies_at_or_below_the_floor_and_keeps_the_rest():
    group = make_group(4, seed=9)
    for k in range(5):
        group.endpoints[0].cast(("stable", k))
    group.run(0.3)                          # acked everywhere, trimmed
    holder, asker = group.processes[1], group.processes[3]
    for k in range(5):
        group.endpoints[0].cast(("fresh", k))
    group.run(0.002)                        # delivered, not yet acked
    holder.reliable.trim_archive()
    floor = holder.stability.min_ack(0, STREAM_APP, holder.view.mbrs)
    assert floor == 5
    copies = holder.reliable._archive[(0, STREAM_APP)]
    assert sorted(copies) == [6, 7, 8, 9, 10]
    assert holder.reliable.archive_trimmed > 0
    served = holder.reliable.retransmissions_served
    asker.reliable.send_down(Message(
        mk.KIND_NAK, 3, asker.view.vid, (0, STREAM_APP, (4, 5, 6, 7)),
        dest=1))
    group.run(0.001)
    assert holder.reliable.retransmissions_served == served + 2
    group.run(0.5)                          # acked: the rest goes too
    assert not holder.reliable._archive[(0, STREAM_APP)]


def test_a_trim_waits_for_a_fuzzy_member_that_lacks_the_copies():
    # a member silent for a while may be exactly the one still missing
    # what the others hold: the trim must not skip it as flow control may
    group = make_group(4, seed=9)
    holder = group.processes[1]
    group.crash(3)                          # never acks from here on
    for k in range(3):
        group.endpoints[0].cast(("held", k))
    group.run(0.045)                        # acked by all but member 3
    assert holder.view.n == 4
    holder.mute_levels.raise_level(3, FUZZY_FLOW_THRESHOLD + 1.0)
    assert holder.stability.min_ack(0, STREAM_APP, holder.view.mbrs,
                                    ignore_fuzzy=True) == 3
    holder.reliable.trim_archive()
    assert sorted(holder.reliable._archive[(0, STREAM_APP)]) == [1, 2, 3]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="reliable p2p sends are never acked, so the "
                          "origin's archive keeps every copy for the view")
def test_point_to_point_archive_stays_bounded():
    group = make_group(3, seed=1)
    sender = group.processes[0].reliable
    sizes = []
    for _round in range(5):
        for k in range(40):
            group.endpoints[0].send(1, ("p2p", k))
        group.run(0.3)
        sizes.append(sender.archive_size)
    assert group.endpoints[1].events
    assert max(sizes) <= 40, sizes


# ----------------------------------------------------------------------
# the unsigned incarnation header
# ----------------------------------------------------------------------
@pytest.mark.parametrize("crypto", ["none", "sym"])
@pytest.mark.parametrize("inc", ["x", None, (1,), 1.5, True, -1],
                         ids=["str", "none", "tuple", "float", "bool",
                              "negative"])
def test_a_malformed_inc_header_is_refused_before_any_comparison(crypto,
                                                                 inc):
    group = make_group(4, seed=3, crypto=crypto)
    group.run(0.05)
    process, peer = group.processes[0], group.processes[1]
    msg = Message(mk.KIND_CAST, 1, process.view.vid, ("x",), 16,
                  msg_id=(1, 1))
    msg.push_header("rel", ("a", 1))
    msg.signature, _cost, _bytes = peer.auth.sign(1, (0, 2, 3), msg)
    msg.push_header("inc", inc)         # transport metadata, unsigned
    tags = tagged_detector(process)
    delivered = process.top.delivered
    process.bottom._process_in(1, msg)
    assert tags == ["bottom:bad-inc"]
    assert 1 not in process.bottom._peer_inc
    group.run(0.05)
    assert process.top.delivered == delivered
    # the same message with a well-formed header is accepted
    msg.pop_header("inc")
    msg.push_header("inc", 1)
    process.bottom._process_in(1, msg)
    assert process.bottom._peer_inc[1] == 1
    group.run(0.05)
    assert process.top.delivered == delivered + 1


# ----------------------------------------------------------------------
# once per cast: the content digest and the archive record
# ----------------------------------------------------------------------
def test_a_ring_digests_each_cast_once_not_once_per_delivery(monkeypatch):
    digests = count_content_digests(monkeypatch)
    group = make_group(16, seed=7, crypto="sym")
    RingDemo(group, burst=4).start()
    group.run(0.1)
    casts = sum(len(p.history.cast_digests)
                for p in group.processes.values())
    delivered = sum(p.top.delivered for p in group.processes.values())
    assert casts > 100 and delivered > 12 * casts
    assert len(digests) == casts


def test_every_holder_archives_one_broadcast_as_the_same_tuple():
    group = make_group(5, seed=4, crypto="sym")
    group.endpoints[0].cast(("once", 0))
    group.run(0.002)                        # delivered, not yet trimmed
    records = [p.reliable._archive[(0, STREAM_APP)][1]
               for p in group.processes.values()]
    assert len(records) == 5
    assert all(record is records[0] for record in records)
    assert records[0][5] == ("once", 0)


@pytest.mark.parametrize("behavior,kind,payload", [
    (TwoFacedCaster, mk.KIND_CAST, ("m", 1)),
    (Equivocator, mk.KIND_UB, ("inst", ("ub-initial", "v"))),
    (BadViewCoordinator, mk.KIND_UB,
     ("inst", ("ub-initial", (("view", ("vid", 1, 0), (0, 1, 2, 3), 0, 0,
                                False), ())))),
    (ForgedRetransmitter, mk.KIND_RETRANS,
     (mk.KIND_CAST, 1, ("vid", 1, 0), STREAM_APP, 1, ("m",), 16, b"s",
      (1, 1))),
], ids=["two-faced", "equivocator", "bad-view", "forged-retrans"])
def test_an_altered_copy_inherits_no_digest_and_no_record(behavior, kind,
                                                          payload):
    group = make_group(4, seed=3, crypto="sym", behaviors={0: behavior()})
    process = group.processes[0]
    msg = Message(kind, 0, process.view.vid, payload, 16)
    msg.signature, _cost, _bytes = process.auth.sign(0, (1, 2, 3), msg)
    msg._digest, msg._archived = "digest", ("record",)
    out = process.behavior.filter_outgoing(1, msg)
    assert out is not msg and out.payload != payload
    assert out._digest is None and out._archived is None
    # an unaltered fan-out copy shares both
    same = msg.clone_for(2)
    assert same._digest == "digest" and same._archived == ("record",)


def test_two_faced_receivers_record_their_own_digests_and_are_flagged():
    group = make_group(5, seed=4, crypto="sym",
                       behaviors={0: TwoFacedCaster()})
    msg_id = group.endpoints[0].cast(("two-faced", 1))
    group.run(0.002)
    origin_record = group.processes[0].reliable._archive[(0, STREAM_APP)][1]
    assert origin_record[5] == ("two-faced", 1)
    for node in (1, 2, 3, 4):
        record = group.processes[node].reliable._archive[(0, STREAM_APP)][1]
        assert record[5] == ("evil", ("two-faced", 1), node)
    group.run(0.3)
    for node in (1, 2, 3, 4):
        process = group.processes[node]
        assert process.history.delivery_digests()[msg_id] == content_digest(
            ("evil", ("two-faced", 1), node))
    violations = check_content_agreement(group.execution())
    assert violations and all(repr(msg_id) in v for v in violations)


def test_a_message_decoded_from_the_wire_starts_with_empty_slots():
    group = make_group(4, seed=3, crypto="sym")
    process = group.processes[0]
    msg = Message(mk.KIND_CAST, 0, process.view.vid, ("m", 1), 16,
                  msg_id=(0, 1))
    msg._digest = content_digest(msg.payload)
    msg.signature, _cost, _bytes = process.auth.sign(0, (1, 2, 3), msg)
    process.reliable._archive_copy(msg, STREAM_APP, 1)
    assert msg._auth_cache is not None and msg._archived is not None
    decoded = decode_value(encode_value(msg))
    assert decoded.payload == msg.payload
    # the block is the bytes that arrived; the digest is the receiver's
    # own, taken when it verifies
    assert decoded._signed == msg._signed
    assert (decoded._auth_cache, decoded._digest,
            decoded._archived) == (None, None, None)


# ----------------------------------------------------------------------
# one encoding per message on real sockets
# ----------------------------------------------------------------------
def test_receivers_hash_the_blocks_they_received_and_encode_none(
        monkeypatch):
    group = make_group(4, seed=3, crypto="sym")
    process, receiver = group.processes[0], group.processes[1]
    datagrams = []
    for k in range(5):
        msg = Message(mk.KIND_CAST, 0, process.view.vid, ("m", k), 16,
                      msg_id=(0, k + 1))
        msg.push_header("rel", (STREAM_APP, k + 1))
        msg.signature, _cost, _bytes = process.auth.sign(0, (1, 2, 3), msg)
        datagrams.append(encode_frame(FRAME_DATAGRAM, 0, msg.clone_for(1)))
    encodes = count_digests(monkeypatch)
    hashes = count_hashes(monkeypatch)
    for data in datagrams:
        frames, errors = decode_datagram(memoryview(data))
        assert errors == []
        msg = frames[0][2]
        assert receiver.auth.verify(1, 0, msg, msg.signature)[0]
    assert encodes == [] and len(hashes) == len(datagrams)


@pytest.mark.parametrize("crypto", ["sym", "none"])
def test_a_broadcast_encodes_its_signed_block_once(monkeypatch, crypto):
    """The MAC and every frame of an n-1-receiver fan-out share one
    encoding of the signed fields; each receiver verifies the bytes it
    got with one digest and no encode.  Under NoCrypto no MAC reads the
    block, and the bottom layer encodes it once for the fan-out."""
    signs = crypto == "sym"
    from repro.crypto.keys import KeyManager
    from repro.runtime.backend_asyncio import AsyncioRuntime
    from tests.test_coalescer import ADDRS, FakeUdp, HopLoop
    loop, keys, processes = HopLoop(), KeyManager(), {}
    for node in ADDRS:
        runtime = AsyncioRuntime(node, ADDRS, seed=node, loop=loop)
        runtime.transport._udp = FakeUdp()
        processes[node] = runtime.spawn_process(
            StackConfig.byz(crypto=crypto), keys=keys,
            initial_view=runtime.initial_view(ADDRS, established=True))
    sender = processes[1]
    arrivals = []
    for node, process in processes.items():
        process.bottom.send_up = lambda m, node=node: arrivals.append(node)
    encodes = count_digests(monkeypatch)
    hashes = count_hashes(monkeypatch)
    sender.bottom.handle_down(Message(mk.KIND_CAST, 1, sender.view.vid,
                                      ("b",), payload_size=16))
    loop.run_ready()
    sent = sender.network._udp.sent
    assert len(sent) == 3 and len(encodes) == 1 and len(hashes) == signs
    assert sender.network.encode_cache_hits == 3
    by_addr = {addr: node for node, addr in ADDRS.items()}
    for data, addr in sent:
        processes[by_addr[addr]].network._on_datagram(data, ADDRS[1])
    assert sorted(arrivals) == [0, 2, 3]
    assert len(encodes) == 1 and len(hashes) == (1 + 3) * signs


# ----------------------------------------------------------------------
# a claimed source that cannot key a table
# ----------------------------------------------------------------------
@pytest.mark.parametrize("src", [[1], (1, [2])], ids=["list", "nested"])
def test_an_unhashable_source_is_refused_before_any_lookup(src):
    group = make_group(4, seed=3, crypto="sym")
    group.run(0.05)
    process = group.processes[0]
    msg = Message(mk.KIND_CAST, src, process.view.vid, ("x",), 16,
                  msg_id=(src, 1))
    msg.signature = {0: b"0123456789"}
    tags = tagged_detector(process)
    delivered = process.top.delivered
    process.bottom._process_in(src, msg)
    assert tags == []
    group.run(0.05)
    assert process.top.delivered == delivered


def test_a_p2p_message_with_an_unhashable_dest_is_not_delivered():
    """Nothing below the stack routes by ``dest`` (one transport hosts one
    node), so a point-to-point message whose unsigned ``dest`` is
    rewritten in flight reaches its receiver's stack: the reliable layer
    compares it with its own id and drops it, raising nothing."""
    from repro.core.history import EV_SEND_DELIVER
    group = make_group(4, seed=3, crypto="sym")
    group.run(0.05)
    port = group.network._ports[1]
    deliver = port.deliver
    rewritten = []

    def rewrite(m):
        if isinstance(m, Message) and m.kind == mk.KIND_SEND:
            m = m.clone_for([1])
            rewritten.append(m)
        return m

    port.deliver = lambda src, payload: deliver(src, rewrite(payload))
    tags = tagged_detector(group.processes[1])
    group.endpoints[0].send(1, ("p2p", 1))
    group.endpoints[0].send(2, ("p2p", 2))
    group.run(0.1)
    assert len(rewritten) == 1 and tags == []

    def sends_delivered(node):
        return [e for e in group.processes[node].history.events
                if e[0] == EV_SEND_DELIVER]
    assert sends_delivered(1) == []
    assert len(sends_delivered(2)) == 1


# ----------------------------------------------------------------------
# a payload no codec path can carry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("payload", [bytearray(b"x"), ("k", object())],
                         ids=["bytearray", "object"])
def test_an_unencodable_payload_is_refused_at_submit(payload):
    from repro.runtime.wire import WireError
    group = make_group(4, seed=3, crypto="sym")
    top = group.processes[0].top
    with pytest.raises(WireError):
        group.endpoints[0].cast(payload)
    with pytest.raises(WireError):
        group.endpoints[0].send(1, payload)
    # nothing was consumed: the next cast takes the first id
    assert top._cast_counter == 0
    assert group.endpoints[0].cast(("ok",)) == (0, 1)
    group.run(0.1)
    assert all(p.top.delivered == 1 for p in group.processes.values())


def test_a_relayed_unencodable_message_is_a_counted_drop():
    group = make_group(4, seed=3, crypto="sym")
    bottom = group.processes[0].bottom
    signed = bottom.messages_signed
    bottom.handle_down(Message(mk.KIND_RETRANS, 0, bottom.view.vid,
                               ("r", bytearray(b"x")), 16, dest=1))
    assert bottom.dropped_unencodable == 1
    assert bottom.messages_signed == signed
