"""The cast id (``repro.core.message``): one shape, signed with its
message, admitted by the reliable layer only from the member that minted
it -- and what a Byzantine member could do while none of that held."""

import pytest

from tests.helpers import cast_ids, make_group, tagged_detector

from repro.byzantine.behaviors import ByzantineBehavior
from repro.core import message as mk
from repro.core.message import Message
from repro.core.properties import check_virtual_synchrony
from repro.layers.ordering import batch_entries

#: the delivery disciplines an id travels through above the reliable layer,
#: as StackConfig.byz keywords
FIFO, CLASSIC, UNIFORM = {}, {"total_order": True}, {"uniform_delivery": True}


def deliveries(endpoint, payload):
    """(origin, msg_id) of every CastDeliver of ``payload`` at an endpoint."""
    return [(e.origin, e.msg_id) for e in endpoint.events
            if type(e).__name__ == "CastDeliver" and e.payload == payload]


# ----------------------------------------------------------------------
# the definition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("msg_id", [
    None, 7, "id", (), (3,), (3, 4, 1), (3, "4"), (3, None), (3, 0),
    (3, -2), (3, True), (3, 2.0), [3, 4]])
def test_what_is_not_a_cast_id(msg_id):
    assert not mk.is_cast_id(msg_id)
    assert batch_entries(((msg_id, "payload", 16),)) == []


def test_a_cast_id_is_an_origin_and_a_positive_int():
    assert mk.is_cast_id((3, 1)) and mk.is_cast_id(("node", 5 << 32))
    assert mk.is_cast_id((3, 1), 3) and not mk.is_cast_id((3, 1), 4)
    # no origin stands for "any origin": a forged None is still compared
    assert not mk.is_cast_id((3, 1), None)


def test_sort_key_is_per_origin_then_numeric():
    ids = [(2, 1), (1, 10), (1, 2), (1, (1 << 32) + 1)]
    assert sorted(ids, key=mk.batch_sort_key) == [
        (1, 2), (1, 10), (1, (1 << 32) + 1), (2, 1)]


def test_batch_entries_keeps_the_well_formed_ones_in_order():
    good = [((1, 2), "b", 16), ((0, 1), ("a",), 0)]
    bad = [7, (), ((0, 1), "x"), ((0, 1), "x", -1), ((0, 1), "x", True),
           ((0, 1), "x", "16"), ((0, 1, 7), "x", 16), ((0, True), "x", 16),
           ((0, -5), "x", 16)]
    assert batch_entries(tuple(bad[:4] + good[:1] + bad[4:] + good[1:])) \
        == good
    assert batch_entries(None) == [] and batch_entries(7) == []
    assert batch_entries(()) == []


def test_the_id_is_inside_the_signature():
    def token(msg_id):
        return Message(mk.KIND_CAST, 1, None, ("x",), 16,
                       msg_id=msg_id).auth_token()
    assert token((1, 1)) != token((1, 7))
    # id-less protocol traffic is encoded as it always was
    assert Message(mk.KIND_ACK, 1, None, ()).auth_content() == (
        mk.KIND_ACK, "1", None, (), "()")


def test_a_restarted_member_mints_the_same_shape():
    group = make_group(4, seed=11)
    group.run(0.1)
    group.crash(1)
    group.run(0.01)
    endpoint = group.restart(1)
    first, second = endpoint.cast("a"), endpoint.cast("b")
    assert first == (1, (1 << 32) + 1) and second == (1, (1 << 32) + 2)
    assert mk.is_cast_id(first, 1)
    group.stop()


@pytest.mark.parametrize("fast", [False, True], ids=["classic", "fast"])
def test_the_counter_bound_is_enforced(fast):
    """``k < 2**32``: a member three casts short of the bound delivers its
    next two casts everywhere, and the third raises before anything is
    minted, recorded or sent."""
    group = make_group(4, seed=4, total_order=True, ordering_fast_path=fast)
    group.run(0.05)
    top = group.processes[2].top
    top._cast_counter = (1 << mk.CAST_COUNTER_BITS) - 3
    last = [group.endpoints[2].cast(("near", k)) for k in (1, 2)]
    assert last == [(2, (1 << 32) - 2), (2, (1 << 32) - 1)]
    assert group.run_until(
        lambda: all(deliveries(group.endpoints[node], ("near", 2))
                    for node in range(4)), timeout=5.0)
    for node in range(4):
        assert [deliveries(group.endpoints[node], ("near", k))
                for k in (1, 2)] == [[(2, last[0])], [(2, last[1])]]
    sent = top.casts_sent
    with pytest.raises(OverflowError):
        group.endpoints[2].cast(("past",))
    assert top._cast_counter == (1 << 32) - 1 and top.casts_sent == sent
    assert (2, 1 << 32) not in group.processes[2].history.cast_digests
    group.stop()


def test_a_restart_past_the_last_incarnation_is_refused():
    group = make_group(4, seed=11)
    group.run(0.05)
    group.crash(1)
    group.processes[1].incarnation = mk.MAX_INCARNATION
    with pytest.raises(OverflowError):
        group.restart(1)
    assert group.processes[1].incarnation == mk.MAX_INCARNATION
    group.stop()


# ----------------------------------------------------------------------
# forged ids
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fast", [False, True], ids=["classic", "fast"])
def test_a_three_field_id_raises_nowhere(fast):
    """One cast with an id of the retired ``(node, k, incarnation)`` shape
    from member 0: nobody's ordering layer may raise on it, and the group
    keeps ordering honest casts."""
    group = make_group(5, seed=3, total_order=True, ordering_fast_path=fast,
                       behaviors={0: ByzantineBehavior()})
    group.run(0.05)
    sender = group.processes[0]
    sender.ordering.send_down(Message(
        mk.KIND_CAST, 0, sender.view.vid, ("forged",), 16, msg_id=(0, 1, 7)))
    group.run(0.05)
    honest = group.endpoints[1].cast(("honest",))
    assert group.run_until(
        lambda: all(deliveries(group.endpoints[node], ("honest",))
                    for node in range(1, 5)), timeout=5.0)
    for node in range(1, 5):
        assert deliveries(group.endpoints[node], ("honest",)) == [(1, honest)]
        assert deliveries(group.endpoints[node], ("forged",)) == []
    assert check_virtual_synchrony(group.execution()) == []
    group.stop()


@pytest.mark.parametrize("config_kw,dest", [
    (FIFO, None), (FIFO, 2), (CLASSIC, None), (UNIFORM, None), (UNIFORM, 2),
], ids=["fifo", "fifo-p2p", "classic", "uniform", "uniform-p2p"])
def test_a_squatted_id_costs_its_owner_nothing(config_kw, dest):
    """Byzantine member 0 casts under ``(1, 1)`` before correct member 1
    has cast anything -- to everyone, or point-to-point to member 2 alone;
    member 1's own first cast must still reach every correct member, once,
    as member 1's.

    The assertions are on the *payload*: ``check_virtual_synchrony`` keys
    casts and deliveries on the id, so it sees "``(1, 1)`` was cast by 1
    and delivered everywhere" whichever of the two messages was delivered
    -- it is blind to a squatted id (docs/ROBUSTNESS.md) and is only the
    second line here, for the FIFO row's double delivery."""
    group = make_group(5, seed=4, behaviors={0: ByzantineBehavior()},
                       **config_kw)
    group.run(0.05)
    squatter = group.processes[0]
    squatter.ordering.send_down(Message(
        mk.KIND_CAST, 0, squatter.view.vid, ("squat",), 16, dest=dest,
        msg_id=(1, 1)))
    group.run(0.05)
    assert group.endpoints[1].cast(("honest",)) == (1, 1)
    group.run_until(
        lambda: all(deliveries(group.endpoints[node], ("honest",))
                    for node in range(1, 5)), timeout=5.0)
    for node in range(1, 5):
        assert deliveries(group.endpoints[node], ("honest",)) == [(1, (1, 1))]
        assert deliveries(group.endpoints[node], ("squat",)) == []
        assert cast_ids(group.endpoints[node]) == [(1, 1)]
    assert check_virtual_synchrony(group.execution()) == []
    group.stop()


@pytest.mark.parametrize("crypto", ["sym", "pub"])
@pytest.mark.parametrize("config_kw,dest", [
    (FIFO, None), (CLASSIC, None), (UNIFORM, None), (FIFO, 2),
], ids=["fifo", "classic", "uniform", "p2p"])
def test_a_spoofed_origin_is_dropped(config_kw, dest, crypto):
    """Byzantine member 0 transmits, under its own signature, a message
    claiming origin 1 on member 1's first stream slot: a cast ``(1, 1)``
    to everyone, or a send to member 2.  Only a retransmission may carry
    another member's message, so the spoof is reported and delivered
    nowhere, and member 1's own first message everywhere it was
    addressed."""
    group = make_group(5, seed=4, behaviors={0: ByzantineBehavior()},
                       crypto=crypto, **config_kw)
    group.run(0.05)
    spoofer = group.processes[0]
    kind = mk.KIND_CAST if dest is None else mk.KIND_SEND
    spoof = Message(kind, 1, spoofer.view.vid, ("spoof",), 16, dest=dest,
                    msg_id=(1, 1) if dest is None else None)
    spoof.push_header("rel", ("a", 1) if dest is None else ("p", 1))
    spoof.sender = 0
    tags = tagged_detector(group.processes[2])
    spoofer.reliable.send_down(spoof)
    group.run(0.05)
    assert tags == ["rel:spoofed-origin"]
    if dest is None:
        event, receivers = "CastDeliver", range(1, 5)
        assert group.endpoints[1].cast(("honest",)) == (1, 1)
    else:
        event, receivers = "SendDeliver", (dest,)
        group.endpoints[1].send(dest, ("honest",))

    def delivered(node, payload):
        return [e.origin for e in group.endpoints[node].events
                if type(e).__name__ == event and e.payload == payload]
    group.run_until(lambda: all(delivered(node, ("honest",))
                                for node in receivers), timeout=2.0)
    for node in range(1, 5):
        assert delivered(node, ("spoof",)) == []
        assert delivered(node, ("honest",)) == ([1] if node in receivers
                                                else [])
    assert check_virtual_synchrony(group.execution()) == []
    group.stop()


def test_a_forged_id_is_reported_and_not_buffered():
    group = make_group(4, seed=2)
    group.run(0.05)
    process = group.processes[3]
    tags = tagged_detector(process)
    forged = Message(mk.KIND_CAST, 2, process.view.vid, ("squat",), 16,
                     msg_id=(1, 1))
    forged.push_header("rel", ("a", 1))
    forged.sender = 2
    process.reliable.handle_up(forged)
    assert tags == ["rel:forged-id"]
    assert process.verbose_levels.level(2) > 0
    assert not process.reliable.streams.records[(2, "a")].buffer
    assert process.top.delivered == 0
    group.stop()


# ----------------------------------------------------------------------
# a third party re-labels a correct member's cast
# ----------------------------------------------------------------------
class _CutLink:
    """``Network.chaos`` filter: every datagram from ``src`` to ``dst``
    is lost."""

    def __init__(self, src, dst):
        self.link = (src, dst)

    def filter(self, src, dst, payload):
        return payload, 0, (src, dst) == self.link


def test_a_relabelled_retransmission_is_rejected():
    """Member 3 misses member 1's cast; member 2 retransmits it with the
    ninth field of the archived tuple changed from ``(1, 1)`` to
    ``(1, 7)``.  The origin's signature covers the id, so the copy is a
    forgery -- and the untouched tuple from the same relayer is not."""
    group = make_group(4, seed=6, crypto="sym")
    group.run(0.05)
    group.network.chaos = _CutLink(1, 3)
    assert group.endpoints[1].cast(("x",)) == (1, 1)
    group.run(0.002)
    victim = group.processes[3]
    assert victim.top.delivered == 0
    wire = group.processes[2].reliable._archive[(1, "a", 1)]
    assert wire[8] == (1, 1)
    tags = tagged_detector(victim)

    def retransmit(wire):
        msg = Message(mk.KIND_RETRANS, 2, victim.view.vid, wire,
                      payload_size=wire[6] + 24, dest=3)
        msg.sender = 2
        victim.reliable.handle_up(msg)

    retransmit(wire[:8] + ((1, 7),))
    assert tags == ["rel:forged-retrans"]
    stream = victim.reliable.streams.records.get((1, "a"))
    assert stream is None or not stream.buffer
    assert victim.top.delivered == 0

    retransmit(wire)
    assert tags == ["rel:forged-retrans"]
    assert cast_ids(group.endpoints[3]) == [(1, 1)]
    group.stop()
