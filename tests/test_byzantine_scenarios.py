"""The paper's Table 1 attack scenarios, end to end.

Each test injects one Byzantine behavior and asserts the group detects it,
recovers into a correct new view, and the execution satisfies the safety
properties throughout.
"""

import pytest

from tests.helpers import cast_payloads, make_group, tagged_detector

from repro import Group, StackConfig
from repro.byzantine.behaviors import (BadViewCoordinator, ByzantineBehavior,
                                       MuteCoordinator, MuteNode,
                                       TwoFacedCaster, VerboseNode)
from repro.core import message as mk
from repro.core.message import Message
from repro.core.properties import (check_view_synchrony,
                                   check_virtual_synchrony)


def excluded_everywhere(group, target):
    return all(target not in p.view.mbrs
               for n, p in group.processes.items()
               if n != target and not p.stopped)


def background_traffic(group, nodes, count=5):
    for node in nodes:
        for k in range(count):
            group.endpoints[node].cast((node, k))


def test_byz_mute_node_detected_and_removed():
    behaviors = {4: MuteNode(mute_at=0.1)}
    group = make_group(8, seed=1, behaviors=behaviors)
    background_traffic(group, (0, 1))
    ok = group.run_until(lambda: excluded_everywhere(group, 4), timeout=5.0)
    assert ok
    assert not check_view_synchrony(group.execution())


def test_byz_mute_coordinator_detected_and_removed():
    # node 1 is the initial coordinator (rotation at counter=1 of 8 members)
    group_probe = make_group(8, seed=0)
    coord = group_probe.processes[0].view.coordinator
    behaviors = {coord: MuteCoordinator(mute_at=0.1)}
    group = make_group(8, seed=2, behaviors=behaviors)
    assert group.processes[0].view.coordinator == coord
    ok = group.run_until(lambda: excluded_everywhere(group, coord),
                         timeout=5.0)
    assert ok
    new_view = group.common_view()
    assert new_view is not None
    assert new_view.coordinator != coord
    assert not check_view_synchrony(group.execution())


def test_byz_verbose_node_detected_and_removed():
    behaviors = {6: VerboseNode(start_at=0.05, interval=0.002)}
    group = make_group(8, seed=3, behaviors=behaviors)
    ok = group.run_until(lambda: excluded_everywhere(group, 6), timeout=5.0)
    assert ok
    # the slander flood may not evict any correct member
    view = group.common_view()
    assert view is not None
    assert set(view.mbrs) == {0, 1, 2, 3, 4, 5, 7}
    assert not check_view_synchrony(group.execution())


def test_coord_bad_view_rejected_and_coordinator_replaced():
    # make the *next* coordinator Byzantine: crash one node to trigger a
    # view change, whose generator then sends a wrong view
    probe = make_group(8, seed=0)
    survivors = [m for m in probe.processes[0].view.mbrs if m != 7]
    from repro.core.view import choose_coordinator
    bad_gen = choose_coordinator(1, survivors)
    behaviors = {bad_gen: BadViewCoordinator()}
    group = make_group(8, seed=4, behaviors=behaviors)
    group.run(0.05)
    group.crash(7)
    ok = group.run_until(
        lambda: all(7 not in p.view.mbrs and bad_gen not in p.view.mbrs
                    for n, p in group.processes.items()
                    if n not in (7, bad_gen) and not p.stopped),
        timeout=6.0)
    assert ok
    assert behaviors[bad_gen].corrupted > 0  # the attack actually fired
    assert not check_view_synchrony(group.execution())


def test_two_faced_caster_with_uniform_delivery_content_agreement():
    behaviors = {2: TwoFacedCaster()}
    config_kw = dict(uniform_delivery=True)
    group = make_group(8, seed=5, behaviors=behaviors, **config_kw)
    group.endpoints[2].cast(("two-faced", 1))
    background_traffic(group, (0, 1), count=3)
    group.run(1.5)
    # all correct nodes that delivered the Byzantine cast saw ONE version
    digests = {}
    for node, process in group.processes.items():
        if node == 2:
            continue
        for ev in process.history.events:
            if ev[0] == "cast_deliver" and ev[3] == 2:
                digests.setdefault(ev[2], set()).add(ev[4])
    for msg_id, versions in digests.items():
        assert len(versions) == 1, "split delivery of %r" % (msg_id,)


def test_two_faced_caster_with_total_order_content_agreement():
    behaviors = {2: TwoFacedCaster()}
    group = make_group(8, seed=6, behaviors=behaviors, total_order=True)
    group.endpoints[2].cast(("two-faced", 1))
    background_traffic(group, (0, 1), count=3)
    group.run(1.5)
    digests = {}
    for node, process in group.processes.items():
        if node == 2:
            continue
        for ev in process.history.events:
            if ev[0] == "cast_deliver" and ev[3] == 2:
                digests.setdefault(ev[2], set()).add(ev[4])
    assert digests, "nothing from the two-faced sender was delivered"
    for msg_id, versions in digests.items():
        assert len(versions) == 1


def test_verbose_node_cannot_evict_correct_member():
    # the whole point of f+1 slander adoption: one Byzantine slanderer is
    # not enough to remove anyone
    behaviors = {5: VerboseNode(start_at=0.02, interval=0.004)}
    group = make_group(8, seed=7, behaviors=behaviors)
    group.run(1.0)
    for node, process in group.processes.items():
        if node == 5 or process.stopped:
            continue
        assert set(process.view.mbrs) >= {0, 1, 2, 3, 4, 6, 7}, \
            "correct member evicted at %r" % node


def test_recovery_durations_are_subsecond():
    behaviors = {4: MuteNode(mute_at=0.1)}
    group = make_group(12, seed=8, behaviors=behaviors)
    group.run_until(lambda: excluded_everywhere(group, 4), timeout=6.0)
    durations = [p.membership.last_change_duration
                 for n, p in group.processes.items()
                 if n != 4 and p.membership.last_change_duration]
    assert durations
    assert max(durations) < 0.5


def test_two_simultaneous_byzantine_attackers_at_f2():
    # n=14 tolerates f=2 (both protocol bounds); two concurrent attackers
    # with different behaviours must both be excluded and no correct
    # member harmed
    behaviors = {12: MuteNode(mute_at=0.1),
                 13: VerboseNode(start_at=0.1, interval=0.003)}
    group = make_group(14, seed=9, behaviors=behaviors)
    assert group.processes[0].f == 2
    ok = group.run_until(
        lambda: all(12 not in p.view.mbrs and 13 not in p.view.mbrs
                    for n, p in group.processes.items()
                    if n not in (12, 13) and not p.stopped),
        timeout=8.0)
    assert ok
    view = group.common_view()
    assert view is not None
    assert set(view.mbrs) == set(range(12))
    assert not check_view_synchrony(group.execution())


def test_slow_node_neither_stalls_nor_gets_evicted():
    from repro.byzantine.behaviors import SlowNode
    # moderate slowness: under the mute timeout, so aging keeps the node
    # below the suspicion threshold while fuzzy flow ignores its lag
    behaviors = {6: SlowNode(delay=0.01, start_at=0.05)}
    group = make_group(8, seed=10, behaviors=behaviors)
    group.byzantine_nodes = set()  # slow, not faulty: it must stay correct
    sent = {"n": 0}

    def pump():
        if sent["n"] < 200:
            group.endpoints[0].cast(("s", sent["n"]))
            sent["n"] += 1
            group.sim.schedule(0.002, pump)
    pump()
    group.run(1.5)
    # the slow node stays a member...
    assert all(6 in p.view.mbrs for p in group.processes.values()
               if not p.stopped)
    # ...and the fast nodes' delivery kept pace
    fast = [e for e in group.endpoints[1].events
            if type(e).__name__ == "CastDeliver"
            and isinstance(e.payload, tuple) and e.payload[0] == "s"]
    assert len(fast) == 200
    assert behaviors[6].delayed > 0


def test_replayed_duplicates_are_absorbed():
    from repro.byzantine.behaviors import Replayer
    behaviors = {3: Replayer(replay_every=0.01)}
    group = make_group(6, seed=11, behaviors=behaviors)
    for k in range(10):
        group.endpoints[3].cast(("r", k))
    group.run(1.0)
    assert behaviors[3].replayed > 10
    for node in (0, 1, 2, 4, 5):
        payloads = [e.payload for e in group.endpoints[node].events
                    if type(e).__name__ == "CastDeliver"
                    and isinstance(e.payload, tuple) and e.payload[0] == "r"]
        assert payloads == [("r", k) for k in range(10)], "node %d" % node


class MatrixAckFlooder(ByzantineBehavior):
    """Floods signed ``("matrix", rows)`` payloads -- the gossip ack
    dialect this stack no longer speaks -- claiming EVERY member's row is
    the attacker's own ack row (never above what an origin sent, so no
    ack-for-unsent check could fire); an ack is one ``bytes`` row, so each
    is refused as ``rel:bad-ack``."""

    def __init__(self, kind, start_at=0.0, interval=0.004):
        super().__init__()
        self.kind = kind
        self.start_at = start_at
        self.interval = interval
        self.sent = 0

    def start(self):
        self.sim.schedule(self.start_at, self._flood)

    def _flood(self):
        process = self.process
        if process.stopped:
            return
        row = process.reliable._delivered_row()
        rows = tuple((member, row) for member in process.view.mbrs)
        process.reliable.send_down(Message(
            self.kind, self.me, process.view.vid, ("matrix", rows),
            payload_size=8 + len(row) * len(rows)))
        self.sent += 1
        self.sim.schedule(self.interval, self._flood)


@pytest.mark.parametrize("kind", [mk.KIND_ACK, mk.KIND_HEARTBEAT])
def test_matrix_ack_flood_cannot_starve_a_deaf_member(kind):
    """One liar vouching for everybody's acks must not get a message a
    correct member still lacks trimmed from every archive: third-party
    rows are refused, so member 3 (deaf while member 0 casts) recovers
    all 20 by NAK once it hears again."""
    liar, deaf = 7, 3
    behaviors = {liar: MatrixAckFlooder(kind)}
    group = make_group(8, seed=12, behaviors=behaviors)
    correct = [n for n in group.processes if n != liar]
    moved, peak = [], dict.fromkeys(correct, 0.0)
    tags = tagged_detector(group.processes[0])

    def watch(process):
        on_ack = process.reliable._on_ack
        others = [m for m in process.view.mbrs if m != liar]

        def watched(msg):
            if msg.sender != liar:
                return on_ack(msg)
            acked_seq = process.stability.acked_seq
            before = [acked_seq(m, 0) for m in others]
            on_ack(msg)
            if [acked_seq(m, 0) for m in others] != before:
                moved.append((process.node_id, msg.payload))
            peak[process.node_id] = max(peak[process.node_id],
                                        process.verbose_levels.level(liar))
        process.reliable._on_ack = watched

    for node in correct:
        watch(group.processes[node])
    port = group.network._ports[deaf]
    deliver = port.deliver
    group.sim.schedule(0.05, setattr, port, "deliver", lambda src, data: None)
    group.sim.schedule(0.11, setattr, port, "deliver", deliver)
    for k in range(20):
        group.sim.schedule(0.05 + 0.002 * k, group.endpoints[0].cast,
                           ("m", k))
    group.run(3.0)
    assert behaviors[liar].sent > 10
    payloads = [p for p in cast_payloads(group.endpoints[deaf])
                if isinstance(p, tuple) and p[0] == "m"]
    assert payloads == [("m", k) for k in range(20)], \
        "member %d delivered %d/20, in %s" % (
            deaf, len(payloads), group.processes[deaf].view.vid)
    assert not moved, moved[:3]
    assert all(level > 0 for level in peak.values()), peak
    assert "rel:bad-ack" in tags
    assert check_virtual_synchrony(group.execution()) == []
