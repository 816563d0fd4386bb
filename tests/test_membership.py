"""Integration tests for Byzantine membership maintenance (section 3.4)."""

import pytest

from tests.helpers import make_group, two_crashes_under_loss, view_events

from repro.core.view import choose_coordinator


def surviving(group, excluded):
    return [n for n in group.processes if n not in excluded]


def test_crash_is_excluded_from_next_view():
    group = make_group(8, seed=1)
    group.run(0.05)
    group.crash(5)
    ok = group.run_until(
        lambda: all(5 not in p.view.mbrs for n, p in group.processes.items()
                    if n != 5 and not p.stopped), timeout=4.0)
    assert ok
    view = group.common_view()
    assert view is not None and view.n == 7


def test_leave_is_excluded_quickly():
    group = make_group(8, seed=2)
    group.run(0.05)
    group.endpoints[3].leave()
    ok = group.run_until(
        lambda: all(3 not in p.view.mbrs for n, p in group.processes.items()
                    if n != 3), timeout=4.0)
    assert ok
    durations = [p.membership.last_change_duration
                 for n, p in group.processes.items() if n != 3]
    assert all(d is not None and d < 0.5 for d in durations)


def test_survivors_agree_on_view_and_coordinator():
    group = make_group(8, seed=3)
    group.run(0.05)
    group.crash(0)  # crash the initial... member 0
    group.run_until(
        lambda: all(0 not in p.view.mbrs for n, p in group.processes.items()
                    if n != 0 and not p.stopped), timeout=4.0)
    views = {p.view for n, p in group.processes.items() if n != 0}
    assert len(views) == 1
    view = views.pop()
    assert view.coordinator in view.mbrs
    assert view.coordinator == choose_coordinator(1, view.mbrs)


def test_two_simultaneous_crashes():
    group = make_group(10, seed=4)
    group.run(0.05)
    group.crash(7)
    group.crash(8)
    ok = group.run_until(
        lambda: all(p.view.n == 8 for n, p in group.processes.items()
                    if not p.stopped), timeout=5.0)
    assert ok
    view = group.common_view()
    assert set(view.mbrs) == set(surviving(group, {7, 8}))


def test_sequential_crashes_multiple_view_changes():
    group = make_group(9, seed=5)
    group.run(0.05)
    group.crash(1)
    group.run_until(lambda: all(p.view.n == 8 for p in group.processes.values()
                                if not p.stopped), timeout=4.0)
    group.crash(2)
    ok = group.run_until(lambda: all(p.view.n == 7 for p in group.processes.values()
                                     if not p.stopped), timeout=4.0)
    assert ok
    live_views = [p.view for p in group.processes.values() if not p.stopped]
    assert all(v.vid.counter >= 3 for v in live_views)


def test_view_change_does_not_lose_casts():
    group = make_group(6, seed=6)
    for k in range(10):
        group.endpoints[0].cast(("pre", k))
    group.run(0.05)
    group.crash(4)
    group.run_until(lambda: all(p.view.n == 5 for p in group.processes.values()
                                if not p.stopped), timeout=4.0)
    group.run(0.2)
    for node in (0, 1, 2, 3, 5):
        payloads = [e.payload for e in group.endpoints[node].events
                    if type(e).__name__ == "CastDeliver"
                    and isinstance(e.payload, tuple) and e.payload[0] == "pre"]
        assert payloads == [("pre", k) for k in range(10)], "node %d" % node


def test_casting_during_view_change_resumes_in_new_view():
    group = make_group(6, seed=7)
    group.run(0.05)
    group.crash(5)
    group.run(0.03)  # mid-change
    for k in range(5):
        group.endpoints[1].cast(("mid", k))
    group.run_until(lambda: all(p.view.n == 5 for p in group.processes.values()
                                if not p.stopped), timeout=4.0)
    group.run(0.5)
    for node in (0, 1, 2, 3, 4):
        payloads = [e.payload for e in group.endpoints[node].events
                    if type(e).__name__ == "CastDeliver"
                    and isinstance(e.payload, tuple) and e.payload[0] == "mid"]
        assert payloads == [("mid", k) for k in range(5)], "node %d" % node


def test_singleton_bootstrap_merges_to_full_group():
    group = make_group(4, seed=8, established=False)
    ok = group.run_until(
        lambda: all(p.view.n == 4 for p in group.processes.values())
        and len({p.view.vid for p in group.processes.values()}) == 1,
        timeout=10.0)
    assert ok


def test_partition_forms_two_views():
    group = make_group(6, seed=9)
    group.run(0.05)
    group.partition({0, 1, 2}, {3, 4, 5})
    ok = group.run_until(
        lambda: all(p.view.n == 3 for p in group.processes.values()),
        timeout=6.0)
    assert ok
    side_a = {group.processes[n].view for n in (0, 1, 2)}
    side_b = {group.processes[n].view for n in (3, 4, 5)}
    assert len(side_a) == 1 and len(side_b) == 1
    assert side_a != side_b


def test_heal_merges_partitions_back():
    group = make_group(6, seed=10)
    group.run(0.05)
    group.partition({0, 1, 2}, {3, 4, 5})
    group.run_until(lambda: all(p.view.n == 3 for p in group.processes.values()),
                    timeout=6.0)
    group.heal()
    ok = group.run_until(
        lambda: all(p.view.n == 6 for p in group.processes.values())
        and len({p.view.vid for p in group.processes.values()}) == 1,
        timeout=10.0)
    assert ok


def test_asymmetric_partition():
    group = make_group(8, seed=11)
    group.run(0.05)
    group.partition({0, 1, 2, 3, 4}, {5, 6, 7})
    ok = group.run_until(
        lambda: all(p.view.n == 5 for n, p in group.processes.items() if n < 5)
        and all(p.view.n == 3 for n, p in group.processes.items() if n >= 5),
        timeout=6.0)
    assert ok


def test_view_counter_monotonic_per_process():
    group = make_group(6, seed=12)
    group.run(0.05)
    group.crash(5)
    group.run_until(lambda: all(p.view.n == 5 for p in group.processes.values()
                                if not p.stopped), timeout=4.0)
    for node, endpoint in group.endpoints.items():
        vids = [e.view.vid for e in view_events(endpoint)]
        for earlier, later in zip(vids, vids[1:]):
            assert earlier < later


def test_blocked_casts_are_sent_in_next_view():
    group = make_group(6, seed=13)
    group.run(0.05)
    group.crash(5)
    # force a cast while the stack is (likely) blocked mid-change
    group.run(0.02)
    group.endpoints[0].cast(("blocked?", 0))
    group.run_until(lambda: all(p.view.n == 5 for p in group.processes.values()
                                if not p.stopped), timeout=4.0)
    group.run(0.5)
    for node in range(5):
        payloads = [e.payload for e in group.endpoints[node].events
                    if type(e).__name__ == "CastDeliver"
                    and e.payload == ("blocked?", 0)]
        assert payloads, "node %d never got the blocked cast" % node


def test_dynamic_join_via_add_node():
    group = make_group(6, seed=14)
    group.run(0.05)
    newcomer = group.add_node(6)
    ok = group.run_until(
        lambda: all(p.view.n == 7 for p in group.processes.values()),
        timeout=8.0)
    assert ok
    assert 6 in group.processes[0].view.mbrs
    # the newcomer participates: traffic flows both ways
    newcomer.cast("i-am-new")
    group.endpoints[0].cast("welcome")
    group.run(0.3)
    new_payloads = [e.payload for e in newcomer.events
                    if type(e).__name__ == "CastDeliver"]
    assert "welcome" in new_payloads and "i-am-new" in new_payloads


def test_two_sequential_joins():
    group = make_group(5, seed=15)
    group.run(0.05)
    group.add_node(5)
    group.run_until(lambda: all(p.view.n == 6
                                for p in group.processes.values()),
                    timeout=8.0)
    group.add_node(6)
    ok = group.run_until(lambda: all(p.view.n == 7
                                     for p in group.processes.values()),
                         timeout=8.0)
    assert ok
    assert set(group.processes[0].view.mbrs) == set(range(7))


def test_join_duplicate_id_rejected():
    group = make_group(3, seed=16)
    with pytest.raises(ValueError):
        group.add_node(0)


#: ROADMAP 1's r5 seeds that stuck a survivor in membership's cut state
#: while the reliable layer asked only the crashed origins for the cut:
#: every classic seed in 0-49 that did, and five fast seeds whose runs
#: were checker-clean; fast 1, 14, 25 and 40 broke per-origin FIFO while
#: the pipelined window's proposals left out what the instance in flight
#: covered; fast 13 lost a member's own casts (r3) until the deciding
#: coordinator stopped sending its coord
R5_CLASSIC_SEEDS = (2, 9, 17, 20, 22, 26, 28, 30, 32, 37, 41, 43)
R5_FAST_SEEDS = (1, 2, 4, 6, 10, 13, 14, 25, 40)
#: fast seeds that tripped r3: no adversary, n=8, f=1, yet a correct
#: member the others excluded never delivered its own view-1 casts, which
#: it still held in the ordering buffer when it installed its singleton
#: view (364 while acks had a tick of their own; 55, 1225 and 1469 once
#: they rode the heartbeat tick).  It now delivers them first
R5_FAST_R3_SEEDS = (55, 364, 1225, 1469)
#: seeds where the retransmission archive was trimmed past a member the
#: trim skipped while its mute level was high: classic 16, 381 and 771
#: stuck in r6, the re-merge wedge (members that installed a merged view
#: late sat at an older epoch, and the rest waited in ``sync`` for their
#: reports; each goes green with the trim alone), classic 696 split
#: between ``idle`` and
#: ``consensus``, and in fast 1701 the next coordinator never got a peer's
#: SYNC report.  The trim now waits for every view member
R5_CLASSIC_TRIM_SEEDS = (16, 381, 696, 771)
R5_FAST_TRIM_SEEDS = (1701,)


@pytest.mark.parametrize(
    "fast,seed",
    [(False, seed) for seed in R5_CLASSIC_SEEDS + R5_CLASSIC_TRIM_SEEDS]
    + [(True, seed) for seed in R5_FAST_SEEDS + R5_FAST_R3_SEEDS
       + R5_FAST_TRIM_SEEDS])
def test_two_crashes_under_loss_reach_a_stable_view(fast, seed):
    stuck, violations = two_crashes_under_loss(seed, fast=fast)
    assert stuck is None
    assert violations == []
