"""Tests for application events and per-process statistics."""

from tests.helpers import make_group

from repro.core.events import CastDeliver, SendDeliver, ViewEvent
from repro.core.view import View, ViewId


def test_event_reprs_are_informative():
    view = View(ViewId(1, 0), (0, 1))
    assert "vid(1;0)" in repr(ViewEvent(0.5, view))
    assert "from=3" in repr(CastDeliver(0.5, 3, "p", ViewId(1, 0)))
    assert "from=2" in repr(SendDeliver(0.5, 2, "p", ViewId(1, 0)))


def test_events_carry_msg_ids_and_view_ids():
    group = make_group(3, seed=1)
    msg_id = group.endpoints[0].cast("x")
    group.run(0.2)
    deliveries = [e for e in group.endpoints[1].events
                  if type(e).__name__ == "CastDeliver"]
    assert deliveries[0].msg_id == msg_id
    assert deliveries[0].view_id == group.processes[1].view.vid
    assert deliveries[0].time <= group.sim.now


def test_per_layer_counters_accumulate():
    group = make_group(4, seed=2)
    for k in range(20):
        group.endpoints[0].cast(("c", k))
    group.run(0.5)
    p = group.processes[1]
    assert p.bottom.datagrams_in > 20
    assert p.bottom.messages_signed > 0       # acks/heartbeats at least
    assert p.top.delivered >= 20
    assert p.cpu.busy_accum > 0
    sender = group.processes[0]
    assert sender.top.casts_sent == 20


def test_signature_drop_counters_with_sym_crypto():
    from repro.core import message as mk
    from repro.core.message import Message
    group = make_group(4, seed=3, crypto="sym")
    group.run(0.05)
    process = group.processes[0]
    # inject a datagram with a junk signature straight into the bottom
    forged = Message(mk.KIND_CAST, 2, process.view.vid, "evil", 16,
                     msg_id=(2, 1))
    forged.push_header("rel", ("a", 1))
    forged.signature = {"not": "a mac"}
    forged.sender = 2
    before = process.bottom.dropped_bad_signature
    process.bottom._process_in(2, forged)
    assert process.bottom.dropped_bad_signature == before + 1
    # and the sender got flagged
    assert process.verbose_levels.level(2) > 0


def test_wrong_view_filter_counter():
    from repro.core import message as mk
    from repro.core.message import Message
    group = make_group(4, seed=4)
    group.run(0.05)
    process = group.processes[0]
    stale = Message(mk.KIND_CAST, 1, ViewId(99, 1), "old", 16)
    stale.push_header("rel", ("a", 1))
    stale.sender = 1
    before = process.bottom.dropped_wrong_view
    process.bottom._process_in(1, stale)
    assert process.bottom.dropped_wrong_view == before + 1


def test_impersonation_filter_counter():
    from repro.core import message as mk
    from repro.core.message import Message
    group = make_group(4, seed=5)
    group.run(0.05)
    process = group.processes[0]
    spoofed = Message(mk.KIND_CAST, 3, process.view.vid, "spoof", 16)
    spoofed.sender = 3          # claims to be 3...
    before = process.bottom.dropped_impersonation
    process.bottom._process_in(2, spoofed)   # ...but arrives from 2
    assert process.bottom.dropped_impersonation == before + 1
