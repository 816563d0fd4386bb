"""Unit-ish tests for flow control, fragmentation, stability, heartbeat,
suspicion, and the gossip machinery -- exercised through small clusters."""

from tests.helpers import cast_payloads, make_group

from repro import Group, StackConfig
from repro.core import message as mk


# ----------------------------------------------------------------------
# flow control
# ----------------------------------------------------------------------
def test_flow_window_queues_excess_casts():
    group = make_group(4, seed=1, flow_window=8, ack_interval=0.05)
    for k in range(50):
        group.endpoints[0].cast(("w", k))
    flow = group.processes[0].stack.layer("flow")
    assert flow.queued > 0       # window smaller than the burst
    assert flow.stalls > 0
    group.run(1.0)
    assert flow.queued == 0      # acks drained the queue
    for node in range(1, 4):
        payloads = [p for p in cast_payloads(group.endpoints[node])
                    if p[0] == "w"]
        assert payloads == [("w", k) for k in range(50)]


def test_fuzzy_member_does_not_stall_window():
    # a member that stops acking gains fuzziness; the window must advance
    # anyway (the paper's flow-control optimization, section 3.1)
    group = make_group(5, seed=2, flow_window=8)
    group.run(0.05)
    # silence node 4 without telling anyone
    group.network.crash(4)
    sent = 0
    def pump():
        nonlocal sent
        if sent < 60:
            group.endpoints[0].cast(("f", sent))
            sent += 1
            group.sim.schedule(0.004, pump)
    pump()
    group.run(2.0)
    flow = group.processes[0].stack.layer("flow")
    delivered_at_1 = [p for p in cast_payloads(group.endpoints[1])
                      if isinstance(p, tuple) and p[0] == "f"]
    assert len(delivered_at_1) == 60   # never permanently stalled


# ----------------------------------------------------------------------
# fragmentation
# ----------------------------------------------------------------------
def test_large_cast_fragmented_and_reassembled():
    group = make_group(4, seed=3)
    group.endpoints[0].cast(("big", "x" * 10), size=5000)
    group.run(0.3)
    frag0 = group.processes[0].stack.layer("fragment")
    assert frag0.fragmented == 1
    for node in range(1, 4):
        payloads = cast_payloads(group.endpoints[node])
        assert ("big", "x" * 10) in payloads
        frag = group.processes[node].stack.layer("fragment")
        assert frag.reassembled == 1


def test_small_casts_bypass_fragmentation():
    group = make_group(4, seed=4)
    group.endpoints[0].cast("small", size=100)
    group.run(0.2)
    assert group.processes[0].stack.layer("fragment").fragmented == 0
    assert "small" in cast_payloads(group.endpoints[1])


def test_mixed_large_and_small_keep_fifo():
    group = make_group(4, seed=5)
    group.endpoints[0].cast(("a", 1), size=16)
    group.endpoints[0].cast(("b", 2), size=4000)
    group.endpoints[0].cast(("c", 3), size=16)
    group.run(0.3)
    for node in range(1, 4):
        seq = [p for p in cast_payloads(group.endpoints[node])
               if p[0] in ("a", "b", "c")]
        assert seq == [("a", 1), ("b", 2), ("c", 3)]


# ----------------------------------------------------------------------
# stability tracker
# ----------------------------------------------------------------------
def test_stability_all_stable_after_quiescence():
    group = make_group(4, seed=6)
    for k in range(5):
        group.endpoints[0].cast(("s", k))
    group.run(0.3)
    tracker = group.processes[0].stability
    cut = {0: 5, 1: 0, 2: 0, 3: 0}
    assert tracker.all_stable(cut, group.processes[0].view.mbrs)


def test_stability_not_stable_for_future_messages():
    group = make_group(4, seed=7)
    group.run(0.1)
    tracker = group.processes[0].stability
    assert not tracker.all_stable({0: 99}, group.processes[0].view.mbrs)


def test_laggard_gains_mute_fuzziness():
    group = make_group(4, seed=8, flow_window=4)
    group.run(0.05)
    group.network.crash(3)  # silent death: stops acking
    sent = 0
    def pump():
        nonlocal sent
        if sent < 40:
            group.endpoints[0].cast(("lag", sent))
            sent += 1
            group.sim.schedule(0.005, pump)
    pump()
    group.run(0.5)
    assert group.processes[0].mute_levels.level(3) > 0 or \
        3 not in group.processes[0].view.mbrs


# ----------------------------------------------------------------------
# heartbeat / gossip
# ----------------------------------------------------------------------
def test_silent_node_gains_mute_level():
    group = make_group(4, seed=9)
    group.run(0.05)
    group.network.crash(2)
    group.run(0.15)
    live = group.processes[0]
    assert (live.mute_levels.level(2) > 0
            or live.suspicion.is_suspected(2)
            or 2 not in live.view.mbrs)


def test_coordinator_gossips_and_members_track_it():
    group = make_group(4, seed=10)
    group.run(0.3)
    coord = group.processes[0].view.coordinator
    hb = group.processes[coord].stack.layer("heartbeat")
    assert hb.gossips_sent >= 4
    # non-coordinators did not announce
    for node, process in group.processes.items():
        if node != coord:
            assert process.stack.layer("heartbeat").gossips_sent == 0


def test_heartbeats_keep_idle_group_quiet():
    group = make_group(6, seed=11)
    group.run(1.0)  # no traffic at all: heartbeats must prevent suspicion
    assert all(p.membership.view_changes == 0
               for p in group.processes.values())
    assert all(p.view.n == 6 for p in group.processes.values())


# ----------------------------------------------------------------------
# suspicion layer
# ----------------------------------------------------------------------
def test_single_slander_insufficient_for_adoption():
    group = make_group(8, seed=12)  # f = 1 -> adoption needs 2 slanders
    group.run(0.05)
    process = group.processes[0]
    from repro.core.message import Message
    slander = Message(mk.KIND_SLANDER, 5, process.view.vid, (3, "fake"))
    slander.sender = 5
    process.suspicion.handle_up(slander)
    assert not process.suspicion.is_suspected(3)


def test_f_plus_one_slanders_adopt():
    group = make_group(8, seed=13)
    group.run(0.05)
    process = group.processes[0]
    from repro.core.message import Message
    for slanderer in (5, 6):
        slander = Message(mk.KIND_SLANDER, slanderer, process.view.vid,
                          (3, "mute"))
        slander.sender = slanderer
        process.suspicion.handle_up(slander)
    assert process.suspicion.is_suspected(3)


def test_slander_about_self_ignored():
    group = make_group(8, seed=14)
    group.run(0.05)
    process = group.processes[0]
    from repro.core.message import Message
    for slanderer in (5, 6):
        slander = Message(mk.KIND_SLANDER, slanderer, process.view.vid,
                          (slanderer, "weird"))
        slander.sender = slanderer
        process.suspicion.handle_up(slander)
    assert not process.suspicion.suspected_set()


def test_suspicion_cleared_on_new_view():
    group = make_group(6, seed=15)
    group.run(0.05)
    group.crash(5)
    group.run_until(lambda: all(p.view.n == 5 for p in group.processes.values()
                                if not p.stopped), timeout=4.0)
    for node, process in group.processes.items():
        if not process.stopped:
            assert not process.suspicion.suspected_set()
