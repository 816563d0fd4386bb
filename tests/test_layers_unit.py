"""True unit tests of individual layers using the stub harness.

The integration tests exercise the full stack; these poke single layers
with hand-crafted (including malformed and hostile) messages and observe
exactly what they emit -- edge cases that whole-cluster runs rarely hit.
"""

import pytest

from tests.helpers import ack_row, tagged_detector
from tests.stubs import StubProcess, stub_for

from repro.core import message as mk
from repro.core.message import Message
from repro.layers.flow import FlowLayer
from repro.layers.fragment import FragmentLayer
from repro.layers.reliable import NAK_WINDOW_BUDGET, ReliableLayer, ack_layout
from repro.layers.suspicion import SuspicionLayer


def make_cast(process, origin, payload="x", size=16, msg_id=None):
    return Message(mk.KIND_CAST, origin, process.view.vid, payload, size,
                   msg_id=msg_id)


# ----------------------------------------------------------------------
# reliable layer
# ----------------------------------------------------------------------
def stream_msg(process, origin, seq, payload="x", stream="a"):
    msg = make_cast(process, origin, payload)
    msg.push_header("rel", (stream, seq))
    msg.sender = origin
    return msg


def test_reliable_out_of_order_buffered_then_drained():
    process = stub_for(ReliableLayer())
    process.feed_up(stream_msg(process, 1, 2, "second"))
    assert process.above.received_up == []
    process.feed_up(stream_msg(process, 1, 1, "first"))
    payloads = [m.payload for m in process.above.received_up]
    assert payloads == ["first", "second"]


def test_reliable_malformed_header_flagged():
    process = stub_for(ReliableLayer())
    msg = make_cast(process, 1)
    msg.push_header("rel", "not-a-tuple")
    msg.sender = 1
    process.feed_up(msg)
    assert process.verbose_detector.violations == 1
    assert process.above.received_up == []


def test_reliable_nonpositive_seq_flagged():
    process = stub_for(ReliableLayer())
    msg = make_cast(process, 1)
    msg.push_header("rel", ("a", 0))
    msg.sender = 1
    process.feed_up(msg)
    assert process.verbose_detector.violations == 1


def test_reliable_unknown_stream_flagged():
    process = stub_for(ReliableLayer())
    msg = make_cast(process, 1)
    msg.push_header("rel", ("z", 1))
    msg.sender = 1
    process.feed_up(msg)
    assert process.verbose_detector.violations == 1


def ack_from(process, sender, row):
    msg = Message(mk.KIND_ACK, sender, process.view.vid, row)
    msg.sender = sender
    process.feed_up(msg)


def test_reliable_ack_for_unsent_flagged():
    process = stub_for(ReliableLayer())
    # we never sent 42 app messages
    ack_from(process, 1, ack_row(process.view.mbrs, {(0, "a"): 42}))
    assert process.verbose_detector.violations == 1
    assert process.stability.acked_seq(1, 0, "a") == 0


def test_reliable_bad_ack_row_flagged():
    process = stub_for(ReliableLayer())
    tags = tagged_detector(process)
    row = ack_row(process.view.mbrs, {(1, "a"): 1})
    for bad in (row[:-1], row + b"\0", b"", bytearray(row),
                ((1, "a", 1),)):
        ack_from(process, 1, bad)
    assert tags == ["rel:bad-ack"] * 5
    assert process.stability.acked_seq(1, 1, "a") == 0


def test_reliable_copied_ack_row_passes_only_changed_columns():
    # a row decoded off the wire is a fresh bytes object every time: the
    # diff must key off its bytes and columns, not identity
    process = stub_for(ReliableLayer())
    mbrs = process.view.mbrs
    columns = process.layer._columns
    fed = []
    raise_row = process.stability.raise_row

    def recording(member, counts, moved):
        fed.append(tuple(columns[i] + (counts[i],) for i in moved))
        raise_row(member, counts, moved)
    process.stability.raise_row = recording

    first = ack_row(mbrs, {(1, "a"): 3, (1, "c"): 9, (2, "c"): 4})
    ack_from(process, 1, first)
    copied = bytes(bytearray(first))
    assert copied == first and copied is not first
    ack_from(process, 1, copied)
    ack_from(process, 1, ack_row(mbrs, {(1, "a"): 4, (1, "c"): 9,
                                        (2, "c"): 5}))
    ack_from(process, 1, ack_row(mbrs, {(1, "a"): 4, (1, "c"): 9,
                                        (2, "c"): 5, (3, "a"): 1}))
    assert fed == [((1, "a", 3), (1, "c", 9), (2, "c", 4)), (),
                   ((1, "a", 4), (2, "c", 5)), ((3, "a", 1),)]
    assert process.stability.acked_seq(1, 2, "c") == 5
    assert process.verbose_detector.violations == 0


def test_reliable_nak_for_archived_message_served():
    process = stub_for(ReliableLayer())
    cast = make_cast(process, 0, "mine", msg_id=(0, 1))
    process.feed_down(cast)  # we sent it: archived
    nak = Message(mk.KIND_NAK, 2, process.view.vid, (0, "a", (1,)), dest=0)
    nak.sender = 2
    process.feed_up(nak)
    retrans = [m for m in process.below.received_down
               if m.kind == mk.KIND_RETRANS]
    assert len(retrans) == 1
    assert retrans[0].dest == 2
    assert retrans[0].payload[5] == "mine"  # archived payload travels


def test_reliable_nak_flood_rate_limited():
    process = stub_for(ReliableLayer())     # start() sets the bound
    process.feed_down(make_cast(process, 0, "mine", msg_id=(0, 1)))
    bound = 2 * NAK_WINDOW_BUDGET
    for _ in range(bound + 6):
        nak = Message(mk.KIND_NAK, 2, process.view.vid, (0, "a", (1,)),
                      dest=0)
        nak.sender = 2
        process.feed_up(nak)
    assert process.verbose_levels.level(2) > 0
    # within the bound every NAK is served; past it, none
    assert process.layer.retransmissions_served == bound


@pytest.mark.parametrize("payload", [
    ([1], "a", (1,)), (1, ["a"], (1,)), (1, {}, (1,)), (9, "a", (1,)),
    (1, "z", (1,)),
])
def test_reliable_nak_for_no_members_stream_flagged(payload):
    # an unhashable origin or stream would raise in the archive lookup
    process = stub_for(ReliableLayer())
    tags = tagged_detector(process)
    nak = Message(mk.KIND_NAK, 2, process.view.vid, payload, dest=0)
    nak.sender = 2
    process.feed_up(nak)
    assert tags == ["rel:bad-nak"]
    assert process.layer.retransmissions_served == 0


def test_reliable_wedge_blocks_app_but_not_ctl():
    process = stub_for(ReliableLayer())
    process.layer.streams.wedge()
    process.feed_up(stream_msg(process, 1, 1, "app-blocked", stream="a"))
    ctl = Message(mk.KIND_CONSENSUS, 1, process.view.vid, ("x",))
    ctl.push_header("rel", ("c", 1))
    ctl.sender = 1
    process.feed_up(ctl)
    kinds = [m.kind for m in process.above.received_up]
    assert mk.KIND_CONSENSUS in kinds
    assert mk.KIND_CAST not in kinds


def test_reliable_cut_releases_exactly_up_to_cut():
    process = stub_for(ReliableLayer())
    process.layer.streams.wedge()
    for seq in (1, 2, 3):
        process.feed_up(stream_msg(process, 1, seq, ("m", seq)))
    done = []
    process.layer.streams.set_cut({1: 2}, [0, 1],
                                  on_complete=lambda: done.append(True))
    payloads = [m.payload for m in process.above.received_up]
    assert payloads == [("m", 1), ("m", 2)]  # seq 3 is beyond the cut
    assert done == [True]


# ----------------------------------------------------------------------
# fragment layer
# ----------------------------------------------------------------------
def test_fragment_bad_bounds_flagged():
    process = stub_for(FragmentLayer())
    msg = make_cast(process, 1)
    msg.push_header("frag", (5, 2, 100))  # index beyond count
    msg.sender = 1
    process.feed_up(msg)
    assert process.verbose_detector.violations == 1


def test_fragment_out_of_order_start_flagged():
    process = stub_for(FragmentLayer())
    msg = make_cast(process, 1)
    msg.push_header("frag", (1, 3, 4000))  # starts mid-message
    msg.sender = 1
    process.feed_up(msg)
    assert process.verbose_detector.violations == 1


def test_fragment_inconsistent_totals_reset_assembly():
    process = stub_for(FragmentLayer())
    first = make_cast(process, 1)
    first.push_header("frag", (0, 3, 4000))
    first.sender = 1
    process.feed_up(first)
    second = make_cast(process, 1)
    second.push_header("frag", (1, 4, 9999))  # count changed mid-flight
    second.sender = 1
    process.feed_up(second)
    assert process.verbose_detector.violations == 1
    assert process.above.received_up == []


def test_fragment_split_sizes_cover_total():
    process = stub_for(FragmentLayer())
    big = make_cast(process, 0, payload="big", size=3000)
    process.feed_down(big)
    frags = process.below.received_down
    assert len(frags) == 3  # ceil(3000/1400)
    assert sum(f.payload_size for f in frags) == 3000
    assert frags[-1].payload == "big"  # content rides the last fragment


# ----------------------------------------------------------------------
# flow layer
# ----------------------------------------------------------------------
def test_flow_passes_non_cast_traffic_untouched():
    process = stub_for(FlowLayer())
    ctl = Message(mk.KIND_CONSENSUS, 0, process.view.vid, ("x",))
    process.feed_down(ctl)
    assert process.below.received_down == [ctl]


def test_flow_window_closes_without_acks():
    config_kw = dict(flow_window=4)
    from repro.core.config import StackConfig
    process = StubProcess(FlowLayer(), config=StackConfig.byz(**config_kw))
    process.layer.start()
    for k in range(10):
        process.feed_down(make_cast(process, 0, ("w", k), msg_id=(0, k)))
    assert len(process.below.received_down) == 4
    assert process.layer.queued == 6
    # acks arrive: window reopens once every row of the matrix has 4
    columns, _codec = ack_layout(process.view.mbrs)
    column = {col: i for i, col in enumerate(columns)}
    own = [0] * len(columns)
    process.stability.bind(column, own)
    counts = [4 if col == (0, "a") else 0 for col in columns]
    for member in (1, 2, 3):
        process.stability.raise_row(member, counts, (column[0, "a"],))
    assert len(process.below.received_down) == 4
    own[column[0, "a"]] = 4    # my row is the reliable layer's, in place
    process.stability.notify()
    assert len(process.below.received_down) == 8


# ----------------------------------------------------------------------
# suspicion layer
# ----------------------------------------------------------------------
def test_suspicion_local_threshold_triggers_slander():
    process = stub_for(SuspicionLayer())
    process.mute_levels.raise_level(2, 3.0)  # at the default threshold
    slanders = [m for m in process.below.received_down
                if m.kind == mk.KIND_SLANDER]
    assert len(slanders) == 1
    assert slanders[0].payload[0] == 2
    assert process.layer.is_suspected(2)


def test_suspicion_settle_timer_fires_change():
    process = stub_for(SuspicionLayer())
    fired = []
    original = process.stack.control

    def control(event, **data):
        fired.append(event)
        original(event, **data)
    process.stack.control = control
    process.mute_levels.raise_level(3, 5.0)
    process.run(0.1)
    assert "start-view-change" in fired


def test_suspicion_coordinator_suspect_fires_immediately():
    process = stub_for(SuspicionLayer())
    fired = []
    original = process.stack.control

    def control(event, **data):
        fired.append(event)
        original(event, **data)
    process.stack.control = control
    coordinator = process.view.coordinator
    process.mute_levels.raise_level(coordinator, 5.0)
    assert "start-view-change" in fired  # no settle delay


def test_suspicion_malformed_slander_flagged():
    process = stub_for(SuspicionLayer())
    bad = Message(mk.KIND_SLANDER, 1, process.view.vid, "garbage")
    bad.sender = 1
    process.feed_up(bad)
    assert process.verbose_detector.violations == 1


# ----------------------------------------------------------------------
# uniform delivery layer
# ----------------------------------------------------------------------
def uniform_stub():
    from repro.core.config import StackConfig
    from repro.layers.uniform_delivery import UniformDeliveryLayer
    process = StubProcess(UniformDeliveryLayer(),
                          members=tuple(range(8)),
                          config=StackConfig.byz(uniform_delivery=True))
    process.layer.start()
    return process


def test_uniform_holds_cast_until_agreement():
    process = uniform_stub()
    cast = make_cast(process, 1, ("u", 1), msg_id=(1, 1))
    process.feed_up(cast)
    assert process.above.received_up == []  # held: agreement pending
    # the quorum's echoes arrive (digest of OUR copy)
    from repro.core.history import content_digest
    digest = content_digest(("u", 1))
    for sender in (2, 3, 4, 5, 6, 7):
        msg = Message("udeliv", sender, process.view.vid,
                      ("ub", (1, 1), ("ub-echo", digest)))
        msg.sender = sender
        process.feed_up(msg)
    assert [m.payload for m in process.above.received_up] == [("u", 1)]


def test_uniform_flush_timeout_drops_unresolved():
    process = uniform_stub()
    cast = make_cast(process, 1, ("stuck", 1), msg_id=(1, 1))
    process.feed_up(cast)
    done = []
    process.layer.flush(lambda: done.append(True))
    assert not done  # agreement still pending
    process.run(1.0)  # flush timeout expires
    assert done == [True]
    assert process.layer.dropped_unresolved == 1
    assert process.above.received_up == []


def test_uniform_serves_fetch_for_pending_copy():
    process = uniform_stub()
    cast = make_cast(process, 1, ("content", 9), msg_id=(1, 1))
    process.feed_up(cast)
    fetch = Message("udeliv", 3, process.view.vid, ("fetch", (1, 1), None),
                    dest=0)
    fetch.sender = 3
    process.feed_up(fetch)
    copies = [m for m in process.below.received_down
              if m.kind == "udeliv" and m.payload[0] == "copy"]
    assert len(copies) == 1
    assert copies[0].dest == 3
    assert copies[0].payload[2][0] == ("content", 9)


def test_uniform_garbage_proto_flagged():
    process = uniform_stub()
    bad = Message("udeliv", 2, process.view.vid, "garbage")
    bad.sender = 2
    process.feed_up(bad)
    assert process.verbose_detector.violations == 1
