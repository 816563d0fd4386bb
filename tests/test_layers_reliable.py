"""Tests for reliable FIFO delivery, loss recovery, and retransmission."""

import pytest

from tests.helpers import (cast_ids, cast_payloads, make_group,
                           tagged_detector)
from tests.stubs import stub_for

from repro import Group, StackConfig
from repro.apps.ring import RingDemo
from repro.byzantine.behaviors import ByzantineBehavior
from repro.core import message as mk
from repro.core.message import Message
from repro.layers.reliable import ReliableLayer
from repro.sim.network import NetworkConfig


def lossy_group(n, drop_prob, seed=0, **config_kw):
    config = StackConfig.byz(**config_kw)
    return Group.bootstrap(n, config=config, seed=seed,
                           net_config=NetworkConfig(drop_prob=drop_prob))


def test_fifo_order_preserved_per_sender():
    group = make_group(5, seed=1)
    for k in range(20):
        group.endpoints[0].cast(("m", k))
    group.run(0.5)
    for node in range(1, 5):
        payloads = [p for p in cast_payloads(group.endpoints[node])
                    if p[0] == "m"]
        assert payloads == [("m", k) for k in range(20)]


def test_sender_delivers_its_own_casts():
    group = make_group(4, seed=2)
    group.endpoints[1].cast("own")
    group.run(0.2)
    assert "own" in cast_payloads(group.endpoints[1])


def test_loss_recovered_by_retransmission():
    group = lossy_group(5, drop_prob=0.15, seed=3)
    for k in range(30):
        group.endpoints[0].cast(("m", k))
    group.run(1.5)
    for node in range(5):
        payloads = [p for p in cast_payloads(group.endpoints[node])
                    if isinstance(p, tuple) and p[0] == "m"]
        assert payloads == [("m", k) for k in range(30)], "node %d" % node
    naks = sum(p.reliable.streams.naks_sent for p in group.processes.values())
    assert naks > 0  # recovery actually exercised


def test_heavy_loss_interleaved_senders():
    group = lossy_group(4, drop_prob=0.25, seed=4)
    for k in range(10):
        for node in range(4):
            group.endpoints[node].cast((node, k))
    group.run(3.0)
    for node in range(4):
        payloads = cast_payloads(group.endpoints[node])
        for sender in range(4):
            from_sender = [p for p in payloads if p[0] == sender]
            assert from_sender == [(sender, k) for k in range(10)]


def test_reordering_does_not_break_fifo():
    config = StackConfig.byz()
    group = Group.bootstrap(4, config=config, seed=5,
                            net_config=NetworkConfig(reorder_prob=0.3))
    for k in range(25):
        group.endpoints[2].cast(("r", k))
    group.run(2.0)
    for node in range(4):
        payloads = [p for p in cast_payloads(group.endpoints[node])
                    if p[0] == "r"]
        assert payloads == [("r", k) for k in range(25)]


def test_duplicates_are_suppressed():
    config = StackConfig.byz()
    group = Group.bootstrap(4, config=config, seed=6,
                            net_config=NetworkConfig(duplicate_prob=0.5))
    for k in range(15):
        group.endpoints[0].cast(("d", k))
    group.run(1.0)
    for node in range(1, 4):
        payloads = [p for p in cast_payloads(group.endpoints[node])
                    if p[0] == "d"]
        assert payloads == [("d", k) for k in range(15)]
    assert any(p.reliable.duplicates > 0 for p in group.processes.values())


def test_point_to_point_send_fifo():
    group = make_group(4, seed=7)
    for k in range(12):
        group.endpoints[0].send(3, ("p2p", k))
    group.run(0.3)
    deliveries = [e.payload for e in group.endpoints[3].events
                  if type(e).__name__ == "SendDeliver"]
    assert deliveries == [("p2p", k) for k in range(12)]
    # nobody else saw them
    for node in (1, 2):
        assert not [e for e in group.endpoints[node].events
                    if type(e).__name__ == "SendDeliver"]


def test_point_to_point_loss_recovery():
    group = lossy_group(3, drop_prob=0.3, seed=8)
    for k in range(20):
        group.endpoints[0].send(1, ("pp", k))
    group.run(2.0)
    deliveries = [e.payload for e in group.endpoints[1].events
                  if type(e).__name__ == "SendDeliver"]
    assert deliveries == [("pp", k) for k in range(20)]


def test_acks_trim_nothing_but_track_progress():
    group = make_group(4, seed=9)
    group.endpoints[0].cast("x")
    group.run(0.3)
    tracker = group.processes[1].stability
    # everyone acked message 1 of node 0's app stream
    assert tracker.min_ack(0, "a", group.processes[1].view.mbrs) >= 1


def test_third_party_retransmission_with_sym_crypto():
    # drop enough traffic that repeat NAKs rotate to third parties; with
    # sym crypto the inner signature must verify
    config = StackConfig.byz(crypto="sym", retrans_timeout=0.02)
    group = Group.bootstrap(5, config=config, seed=10,
                            net_config=NetworkConfig(drop_prob=0.3))
    for k in range(20):
        group.endpoints[0].cast(("t", k))
    group.run(3.0)
    for node in range(5):
        payloads = [p for p in cast_payloads(group.endpoints[node])
                    if p[0] == "t"]
        assert payloads == [("t", k) for k in range(20)], "node %d" % node


def test_forged_retransmission_rejected():
    from repro.byzantine.behaviors import ForgedRetransmitter
    config = StackConfig.byz(crypto="sym", retrans_timeout=0.02)
    behaviors = {2: ForgedRetransmitter()}
    group = Group.bootstrap(5, config=config, seed=11, behaviors=behaviors,
                            net_config=NetworkConfig(drop_prob=0.25))
    tags = [tagged_detector(group.processes[node]) for node in (0, 1, 3, 4)]
    # the origin stays up, but its answers to NAKs are lost until the
    # forger has answered one: repair past round 0 goes to holders
    group.network.chaos = LoseRetransmissionsFrom(0)
    for k in range(15):
        group.endpoints[0].cast(("f", k))
    group.run_until(lambda: behaviors[2].forged > 0, timeout=1.0)
    group.network.chaos = None
    group.run(3.0)
    # the attack fired, and a receiver refused the origin's signature over
    # the tampered contents
    assert behaviors[2].forged > 0
    assert any("rel:forged-retrans" in seen for seen in tags)
    # despite the forger, every correct node gets the true contents in order
    for node in (0, 1, 3, 4):
        payloads = [p for p in cast_payloads(group.endpoints[node])
                    if isinstance(p, tuple) and p[0] == "f"]
        assert payloads == [("f", k) for k in range(15)], "node %d" % node


class LoseRetransmissionsFrom:
    """Network chaos filter: lose every retransmission one member sends."""

    def __init__(self, src):
        self.src = src

    def filter(self, src, dst, payload):
        return payload, 0, (src == self.src
                            and payload.kind == mk.KIND_RETRANS)


class Withholder(ByzantineBehavior):
    """An origin that withholds its second cast from ``victim`` and
    answers none of the victim's NAKs, while heartbeating as usual."""

    def __init__(self, victim):
        super().__init__()
        self.victim, self.casts, self.refused = victim, 0, 0

    def filter_outgoing(self, dst, msg):
        if dst != self.victim:
            return msg
        if msg.kind == mk.KIND_RETRANS:
            self.refused += 1
            return None
        if msg.kind == mk.KIND_CAST:
            self.casts += 1
            if self.casts == 2:
                return None
        return msg


@pytest.mark.parametrize("crypto", ["sym", "pub"])
def test_a_cast_its_origin_withholds_is_repaired_by_a_holder(crypto):
    """Any holder retransmits (section 3.3): a member the origin starves
    of one cast, and whose NAKs it ignores, gets the cast from another
    holder within the view, and FIFO delivery behind it goes on."""
    origin = Withholder(victim=2)
    group = make_group(5, seed=23, crypto=crypto, behaviors={0: origin})
    group.run(0.05)
    victim = group.processes[2]
    vid, tags = victim.view.vid, tagged_detector(victim)
    for k in range(4):
        group.endpoints[0].cast(("w", k))
    assert group.run_until(
        lambda: cast_payloads(group.endpoints[2]) == [("w", k)
                                                      for k in range(4)],
        timeout=1.0)
    # the origin was asked and stayed silent; a holder answered, under
    # the origin's signature, and no view change was needed
    assert origin.casts >= 2 and origin.refused > 0
    assert sum(group.processes[node].reliable.retransmissions_served
               for node in (1, 3, 4)) > 0
    assert "rel:forged-retrans" not in tags
    assert victim.view.vid == vid


class DropOnce:
    """Network chaos filter: drop the first transmission of one cast on
    one link."""

    def __init__(self, src, dst, msg_id):
        self.link, self.msg_id, self.dropped = (src, dst), msg_id, 0

    def filter(self, src, dst, payload):
        if ((src, dst) == self.link and not self.dropped
                and payload.kind == mk.KIND_CAST
                and payload.msg_id == self.msg_id):
            self.dropped += 1
            return payload, 0, True
        return payload, 0, False


@pytest.mark.parametrize("crypto", ["sym", "pub"])
def test_a_cast_recovered_from_its_origin_verifies_from_a_third_party(crypto):
    """The origin archives its casts signed, so a member that recovered
    one from the origin serves it on under the origin's signature."""
    group = make_group(4, seed=21, crypto=crypto)
    group.run(0.05)
    holder, asker = group.processes[1], group.processes[2]
    holder.reliable.trim_archive = lambda: None     # keep what it holds
    ids = [group.endpoints[0].cast(("r", k)) for k in range(3)]
    group.network.chaos = DropOnce(0, 1, ids[1])
    assert group.run_until(lambda: holder.top.delivered >= 3, timeout=1.0)
    assert group.network.chaos.dropped == 1
    tags = tagged_detector(asker)
    served, duplicates = (holder.reliable.retransmissions_served,
                          asker.reliable.duplicates)
    # member 2 asks member 1, a third party, for the cast it recovered
    asker.reliable.send_down(Message(
        mk.KIND_NAK, 2, asker.view.vid, (0, "a", (2,)), dest=1))
    group.run(0.05)
    assert holder.reliable.retransmissions_served == served + 1
    # it passed the origin-signature check and landed as a duplicate
    assert "rel:forged-retrans" not in tags
    assert asker.reliable.duplicates == duplicates + 1


@pytest.mark.parametrize("crypto", ["sym", "pub"])
def test_a_p2p_retransmission_from_a_non_origin_is_refused(crypto):
    """Only the origin holds a point-to-point copy: a retransmission of
    one from anyone else is forged, whatever it carries."""
    group = make_group(4, seed=22, crypto=crypto)
    group.run(0.05)
    victim, forger = group.processes[1], group.processes[3]
    tags = tagged_detector(victim)
    wire = (mk.KIND_SEND, 0, None, "p", 1, "forged", 16, None, None)
    forger.reliable.send_down(Message(
        mk.KIND_RETRANS, 3, forger.view.vid, wire, dest=1))
    group.run(0.05)
    assert not [e for e in group.endpoints[1].events
                if type(e).__name__ == "SendDeliver"]
    assert "rel:forged-retrans" in tags
    # the real first p2p message from 0 still delivers
    group.endpoints[0].send(1, "real")
    group.run(0.05)
    assert [e.payload for e in group.endpoints[1].events
            if type(e).__name__ == "SendDeliver"] == ["real"]


def test_repair_asks_for_the_cuts_last_message():
    """The cut is an inclusive ceiling: with cut 10, seq 10 missing and 11
    buffered, both the ask at the cut and the timer's ask name 10."""
    process = stub_for(ReliableLayer())
    process.layer.streams.wedge()
    for seq in list(range(1, 10)) + [11]:
        msg = Message(mk.KIND_CAST, 1, process.view.vid, ("c", seq))
        msg.push_header("rel", ("a", seq))
        msg.sender = 1
        process.feed_up(msg)

    def naks():
        sent = [m.payload for m in process.below.received_down
                if m.kind == mk.KIND_NAK]
        process.below.received_down.clear()
        return sent

    naks()
    process.layer.streams.set_cut({1: 10}, [0, 1, 2, 3])
    assert naks() == [(1, "a", (10,))]
    process.run(process.config.retrans_backoff_max)
    sent = naks()
    assert sent and set(sent) == {(1, "a", (10,))}


def test_stream_state_reports_own_and_peer_progress():
    group = make_group(3, seed=12)
    group.endpoints[0].cast("a")
    group.endpoints[0].cast("b")
    group.endpoints[1].cast("c")
    group.run(0.2)
    state = group.processes[2].reliable.streams.stream_state()
    assert state[0] == 2
    assert state[1] == 1
    assert state[2] == 0  # node 2 sent nothing


def test_nak_flood_is_a_verbose_failure_and_stops_being_served():
    """``start()`` registers the bound (twice the emitter's own budget per
    window): a member listing the same sequence number over and over is
    served up to the bound, then raises its level instead."""
    group = make_group(5, seed=13)
    group.endpoints[0].cast("wanted")
    group.run(0.002)            # delivered, not yet stable: still archived
    victim, flooder = group.processes[0], group.processes[3]
    bound = 2 * victim.config.nak_window_budget
    served = victim.reliable.retransmissions_served
    for _ in range(3 * bound):
        flooder.reliable.send_down(Message(
            mk.KIND_NAK, 3, flooder.view.vid, (0, "a", (1,)), dest=0))
    group.run(victim.config.retrans_timeout / 2.0)
    assert victim.reliable.retransmissions_served - served == bound
    assert victim.verbose_levels.level(3) > 0
    assert all(p.verbose_levels.level(3) == 0
               for node, p in group.processes.items() if node != 0)


def test_lossy_ring_stays_under_the_nak_bound():
    """The Ring demo at saturation under 5 % loss, n=16 (the ledger's
    ``ring_loss_n16`` shape): plenty of NAKs, nobody's level moves."""
    group = lossy_group(16, drop_prob=0.05, seed=7, crypto="sym")
    RingDemo(group, burst=16, msg_size=16).start()
    group.run(0.4)
    processes = group.processes.values()
    assert sum(p.reliable.streams.naks_sent for p in processes) > 100
    assert all(p.verbose_detector.violations == 0 for p in processes)
    assert all(p.verbose_levels.level(m) == 0
               for p in processes for m in group.processes)


@pytest.mark.parametrize("seqs", [
    tuple(range(1, 11)) * 100,      # one NAK, each seq a hundred times
    tuple(range(1, 66)),            # past the NAK_MAX a correct member lists
    (2, 1), (1, 1), (), (1, "2")])
def test_a_malformed_nak_is_refused_and_serves_nothing(seqs):
    """A correct member lists 1..NAK_MAX strictly increasing seqs; one NAK
    that repeats them would otherwise be served once per listing."""
    group = make_group(5, seed=13)
    for k in range(10):
        group.endpoints[0].cast(("wanted", k))
    group.run(0.002)            # delivered, not yet stable: still archived
    victim, asker = group.processes[0], group.processes[3]
    assert all(seq in victim.reliable._archive[(0, "a")]
               for seq in range(1, 11))
    tags = tagged_detector(victim)
    served = victim.reliable.retransmissions_served
    asker.reliable.send_down(Message(
        mk.KIND_NAK, 3, asker.view.vid, (0, "a", seqs), dest=0))
    group.run(victim.config.retrans_timeout / 2.0)
    assert victim.reliable.retransmissions_served == served
    assert tags == ["rel:bad-nak"]
    asker.reliable.send_down(Message(
        mk.KIND_NAK, 3, asker.view.vid, (0, "a", tuple(range(1, 11))),
        dest=0))
    group.run(victim.config.retrans_timeout / 2.0)
    assert victim.reliable.retransmissions_served == served + 10
