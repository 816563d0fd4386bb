"""What a message pays for on the common path, and what the receiver
refuses before it pays anything (docs/PERFORMANCE.md, "Memoized canonical
encoding + digest MACs", "Ack vector sorted when it leaves", "Archive
trimmed per stream").

* the digest a MAC scheme signs is computed only when a scheme reads it:
  never under NoCrypto, once per signed message under SymCrypto;
* the ack vector is sorted when an ack or heartbeat leaves, and equals the
  repr-sorted vector rebuilt from the stream records;
* the retransmission archive is trimmed per stream up to the stability
  floor, and what is above the floor is still served;
* a malformed ``inc`` transport header is refused before any comparison.
"""

import pytest

from tests.helpers import make_group, tagged_detector

from repro import Group, StackConfig
from repro.core import message as mk
from repro.core.message import Message
from repro.layers.reliable import STREAM_APP, STREAM_CTL, STREAM_P2P
from repro.sim.network import NetworkConfig


def count_digests(monkeypatch):
    """Count every canonical encoding computed (one per digest)."""
    calls = []
    encode = Message.canonical_bytes

    def counted(self):
        calls.append(self.kind)
        return encode(self)
    monkeypatch.setattr(Message, "canonical_bytes", counted)
    return calls


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
    assert digests.count(mk.KIND_CAST) == 20


# ----------------------------------------------------------------------
# the ack vector, sorted when it leaves
# ----------------------------------------------------------------------
def reference_vector(reliable):
    """The vector rebuilt from the stream records: every acknowledged
    in-stream's top and my two out-streams' counters, sorted by repr."""
    entries = [(origin, stream, rec.top) for (origin, stream), rec
               in reliable.streams.records.items() if stream != STREAM_P2P]
    entries += [(reliable.me, stream, reliable._out_seq[stream])
                for stream in (STREAM_APP, STREAM_CTL)]
    return tuple(sorted(entries, key=repr))


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
                assert msg.payload == reference_vector(reliable)
                assert msg.payload == reliable._delivered_vector()
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
    # my own in/out pair across 9 -> 10: the tenth cast is counted out
    # before its self-delivery event runs, and "(0, 'a', 10)" sorts first
    reliable = group.processes[0].reliable
    assert reliable._out_seq[STREAM_APP] == 9
    assert reliable.streams.records[(0, STREAM_APP)].top == 9
    vector = reliable._delivered_vector()
    assert vector == reference_vector(reliable)
    group.endpoints[0].cast(("own", 9))
    moved = reliable._delivered_vector()
    assert moved is not vector
    assert moved == reference_vector(reliable)
    assert moved.index((0, STREAM_APP, 10)) < moved.index((0, STREAM_APP, 9))
    group.run(0.05)
    assert reliable._delivered_vector() == reference_vector(reliable)
    assert (0, STREAM_APP, 9) not in reliable._delivered_vector()
    group.stop()


def test_an_unchanged_vector_is_the_same_object_with_the_same_entries():
    group = make_group(4, seed=2)
    group.endpoints[1].cast("x")
    group.run(0.2)
    reliable = group.processes[0].reliable
    vector = reliable._delivered_vector()
    assert reliable._delivered_vector() is vector
    group.endpoints[2].cast("y")
    group.run(0.2)
    moved = reliable._delivered_vector()
    assert moved is not vector
    unmoved = [entry for entry in vector if entry in moved]
    assert unmoved and all(any(entry is other for other in moved)
                           for entry in unmoved)


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
