"""The quiescent control plane (DESIGN section 4, "the beacon contract").

Acks are sent on demand -- only while this member's delivered vector moved
since its last ack or something it holds is not yet known stable at some
view member -- and the heartbeat is the one idle beacon: it carries the
delivered vector (so it repairs a lost final ack), is suppressed while a
broadcast ack left within the last ``heartbeat_interval``, and a tick of
either timer with nothing else to send probes the peer silent longest past
the worst loss-free gap, which answers from its own next ack tick -- no
tick ever signs more than one message.  Counted from outside the layers,
through ``Network.observer`` (``DatagramLog``).
"""

import asyncio

import pytest

from tests.helpers import DatagramLog, is_probe, tagged_detector

from repro import Group, StackConfig
from repro.byzantine.behaviors import ByzantineBehavior
from repro.chaos import LinkFaults
from repro.core import message as mk
from repro.core.message import Message
from repro.sim.network import NetworkConfig

N = 8
SETTLE = 0.055      # past the first ack tick and off both tick grids


def boot(n=N, seed=0, behaviors=None, net_config=None, **config_kw):
    config_kw.setdefault("crypto", "sym")
    group = Group.bootstrap(n, config=StackConfig.byz(**config_kw),
                            seed=seed, behaviors=behaviors,
                            net_config=net_config)
    return group, DatagramLog(group)


def idle_datagrams(group, seconds):
    """What an idle group sends in ``seconds``: heartbeats, nothing else."""
    n = group.processes[0].view.n
    return n * (n - 1) * round(seconds / group.config.heartbeat_interval)


def broadcast_times(log, kind, src, **where):
    """The distinct instants ``src`` handed a ``kind`` broadcast down."""
    return sorted({row[0] for row in log.select(kind, src=src, **where)
                   if not is_probe(row[3])})


def assert_every_tick(times, period):
    # send instants trail the tick by the CPU the node had queued
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps and all(gap == pytest.approx(period, abs=5e-4)
                        for gap in gaps), gaps


# ----------------------------------------------------------------------
# (a) idle: no acks, one vector-carrying heartbeat per interval
# ----------------------------------------------------------------------
def test_idle_group_sends_no_acks_and_one_vector_heartbeat_per_interval():
    group, log = boot()
    group.run(SETTLE)
    start = group.sim.now
    group.run(1.0)
    assert log.count(mk.KIND_ACK, since=start) == 0
    assert log.count(since=start) == idle_datagrams(group, 1.0)
    for node, process in group.processes.items():
        vector = process.reliable._delivered_vector()
        beats = log.select(mk.KIND_HEARTBEAT, since=start, src=node)
        assert len(beats) == idle_datagrams(group, 1.0) // N
        for _t, _src, _dst, msg in beats:
            assert msg.payload is vector    # the receiver's memo hits
            assert msg.payload_size == 4 + 6 * len(vector)
    assert not log.probes()
    group.stop()


# ----------------------------------------------------------------------
# (b) loaded: acks every tick, no heartbeat, bounded silence
# ----------------------------------------------------------------------
def test_loaded_group_acks_every_tick_and_sends_no_heartbeat():
    group, log = boot()
    config = group.config
    group.run(SETTLE)
    start = group.sim.now
    for k in range(200):
        group.sim.schedule(0.003 * k, group.endpoints[k % N].cast,
                           ("load", k))
    group.run(0.6)
    # from the first ack that followed the first cast
    since, until = start + 2 * config.ack_interval, start + 0.597
    assert log.count(mk.KIND_HEARTBEAT, since=since, until=until) == 0
    for node in group.processes:
        assert_every_tick(broadcast_times(log, mk.KIND_ACK, node,
                                          since=since, until=until),
                          config.ack_interval)
    for link, times in log.arrivals.items():
        times = [t for t in times if t < until]
        worst = max(b - a for a, b in zip(times, times[1:]))
        assert worst < 2 * config.heartbeat_interval, (link, worst)
    assert not log.probes()
    group.stop()


# ----------------------------------------------------------------------
# (c) a lost FINAL ack is repaired by the next heartbeat; no ping-pong
# ----------------------------------------------------------------------
class DropFirst(LinkFaults):
    """A ``LinkFaults`` rule: the first ``kind`` datagram on one link."""

    def __init__(self, src, dst, kind):
        super().__init__()
        self.rule = (src, dst, kind)

    def filter(self, src, dst, payload):
        if not self.dropped and (src, dst, payload.kind) == self.rule:
            self.dropped += 1
            return payload, 0, True
        return super().filter(src, dst, payload)


def test_lost_final_ack_is_repaired_by_the_heartbeat_without_ping_pong():
    group, log = boot()
    config = group.config
    # a's ack will leave at the 72 ms tick, which is no heartbeat tick:
    # the next one (80 ms) is suppressed, the one after repairs
    group.run(0.062)
    a, b = 0, 1
    group.endpoints[a].cast("once")
    cast_at = group.sim.now
    group.network.chaos = DropFirst(a, b, mk.KIND_ACK)
    row = group.processes[b].stability

    assert group.run_until(lambda: row.acked_seq(a, a, "a") == 1,
                           timeout=1.0)
    repaired_at = group.sim.now
    assert group.network.chaos.dropped == 1
    # the dropped ack was a's last: it acked exactly once after the cast
    acks = broadcast_times(log, mk.KIND_ACK, a, since=cast_at)
    assert len(acks) == 1
    # ... and the repair came from a's first unsuppressed heartbeat, which
    # leaves within two heartbeat intervals of that ack (plus latency)
    assert repaired_at - acks[0] < 2 * config.heartbeat_interval + 0.001
    # b kept asking (a's row looked unstable) and a did not answer back
    assert len(broadcast_times(log, mk.KIND_ACK, b, since=cast_at)) > 1
    group.run(config.ack_interval)
    quiet = group.sim.now
    group.run(1.0)
    assert log.count(mk.KIND_ACK, since=quiet) == 0
    assert log.count(since=quiet) == idle_datagrams(group, 1.0)
    group.stop()


# ----------------------------------------------------------------------
# (d) trailing loss still repaired off an ack existence proof, as fast
# ----------------------------------------------------------------------
def test_trailing_loss_recovers_within_the_periodic_ack_time():
    group, log = boot()
    config = group.config
    group.run(SETTLE)
    victim = 1
    ids = [group.endpoints[0].cast(("burst", k)) for k in range(5)]
    cast_at = group.sim.now

    class DropLastCast:
        dropped = 0

        def filter(self, src, dst, payload):
            if (dst == victim and payload.kind == mk.KIND_CAST
                    and payload.msg_id == ids[-1] and not self.dropped):
                self.dropped += 1
                return payload, 0, True
            return payload, 0, False

    group.network.chaos = DropLastCast()
    assert group.run_until(
        lambda: group.processes[victim].top.delivered >= len(ids),
        timeout=1.0)
    assert group.network.chaos.dropped == 1
    # an ack's evidence opened the repair, not a later message
    streams = group.processes[victim].reliable.streams
    assert streams.records[(0, "a")].asked_at >= cast_at
    # the proof is the first ack after the burst: one ack tick, then a
    # NAK/retransmission round trip -- what periodic acks took as well
    assert group.sim.now - cast_at < config.ack_interval + 0.002
    group.stop()


# ----------------------------------------------------------------------
# (e) a crashed member: acks at ack_interval + probes until the view
# change, then quiet
# ----------------------------------------------------------------------
def test_crash_keeps_acks_and_probes_until_the_view_change_then_quiet():
    group, log = boot()
    config = group.config
    group.run(SETTLE)
    dead = N - 1
    group.crash(dead)
    crashed_at = group.sim.now
    group.endpoints[0].cast("never-acked-by-the-dead")
    survivors = [node for node in group.processes if node != dead]
    assert group.run_until(
        lambda: all(group.processes[node].view.n == N - 1
                    for node in survivors), timeout=2.0)
    installed_at = group.sim.now
    slanders = log.select(mk.KIND_SLANDER, since=crashed_at)
    assert slanders and all(row[3].payload[0] == dead for row in slanders)
    suspected_at = slanders[0][0]
    for node in survivors:
        # the dead member's row stays below the cast: an ack every tick
        assert_every_tick(broadcast_times(log, mk.KIND_ACK, node,
                                          since=crashed_at,
                                          until=suspected_at),
                          config.ack_interval)
    probes = log.probes(since=crashed_at)
    assert {row[1] for row in probes} == set(survivors)
    assert {row[2] for row in probes} == {dead}
    # silent for two heartbeat intervals and an ack tick before the first
    first = min(row[0] for row in probes)
    horizon = 2 * config.heartbeat_interval + config.ack_interval
    assert first - crashed_at > horizon - config.heartbeat_interval
    for node in survivors:
        # every ack tick is taken by the ack, so the probe rides the
        # heartbeat tick whose beacon that ack suppressed: neither timer
        # ever hands down more than one message per tick
        assert not broadcast_times(log, mk.KIND_HEARTBEAT, node,
                                   since=first, until=suspected_at)
        mine = [row for row in probes
                if row[1] == node and row[0] < suspected_at]
        assert 0 < len(mine) <= ((suspected_at - first)
                                 / config.heartbeat_interval + 1)
    # the new view: one first ack each, then only heartbeats
    group.run(SETTLE)
    quiet = group.sim.now
    group.run(1.0)
    assert log.count(mk.KIND_ACK, since=quiet) == 0
    assert not log.probes(since=quiet)
    assert log.count(since=quiet) == idle_datagrams(group, 1.0)
    assert installed_at - crashed_at < 0.25
    group.stop()


@pytest.mark.parametrize("dead,parent_install_s", [
    ((6, 7), 0.369), ((5, 6, 7), 0.332)])
def test_pub_crypto_crashes_cost_no_more_signatures_than_periodic_acks(
        dead, parent_install_s):
    """Every unicast is signed on its own and an RSA signature is 5 ms of
    a 12 ms tick: probing each silent peer from every tick on top of the
    ack outran the CPU (two crashes installed in 1.08 s against the
    periodic stack's 0.368 s, three never did).  One message per tick of
    either timer is the periodic stack's own budget."""
    group, log = boot(crypto="pub")
    config = group.config
    group.run(SETTLE)
    for node in dead:
        group.crash(node)
    crashed_at = group.sim.now
    group.endpoints[0].cast("never-acked-by-the-dead")
    survivors = [node for node in group.processes if node not in dead]
    assert group.run_until(
        lambda: all(group.processes[node].view.n == N - len(dead)
                    for node in survivors), timeout=2.0)
    assert group.sim.now - crashed_at <= parent_install_s
    suspected_at = log.select(mk.KIND_SLANDER, since=crashed_at)[0][0]
    window = suspected_at - crashed_at
    budget = window / config.ack_interval + window / config.heartbeat_interval
    for node in survivors:
        signed = (len(broadcast_times(log, mk.KIND_ACK, node,
                                      since=crashed_at, until=suspected_at))
                  + len(broadcast_times(log, mk.KIND_HEARTBEAT, node,
                                        since=crashed_at, until=suspected_at))
                  + len(log.probes(since=crashed_at, until=suspected_at,
                                   src=node)))
        assert signed <= budget + 2, (node, signed, budget)
    assert {row[2] for row in log.probes(since=crashed_at)} <= set(dead)
    group.stop()


# ----------------------------------------------------------------------
# loss margin: thinner idle traffic must not cost false suspicions
# ----------------------------------------------------------------------
def parent_idle_datagrams(n, seconds):
    """What the periodic-ack stack sent idle: an ack every 12 ms and a
    heartbeat every 20 ms to each peer (measured there: 37 240 per 5 s and
    74 592 per 10 s at n=8)."""
    return n * (n - 1) * (int(seconds / 0.012) + int(seconds / 0.02) - 1)


def assert_loss_margin(n, drop, seed, seconds):
    group, log = boot(n=n, seed=seed,
                      net_config=NetworkConfig(drop_prob=drop))
    group.run(seconds)
    where = (n, drop, seed)
    assert log.count(mk.KIND_SLANDER) == 0, where
    assert {str(p.view.vid) for p in group.processes.values()} \
        == {"vid(1;0)"}, where
    assert len(log.sent) <= parent_idle_datagrams(n, seconds), where
    group.stop()


@pytest.mark.parametrize("n,drop,seed", [
    (8, 0.1, 0), (8, 0.2, 0), (8, 0.2, 1), (16, 0.1, 1), (16, 0.2, 0)])
def test_idle_loss_margin(n, drop, seed):
    # (8, 0.2, 0) shattered into six views and (16, 0.1, 1) / (16, 0.2, 0)
    # slandered a live member in 10 s without the probe
    assert_loss_margin(n, drop, seed, 10.0 if n == 16 else 5.0)


@pytest.mark.soak
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("drop", [0.05, 0.1, 0.2])
def test_idle_loss_margin_full_grid(n, drop):
    for seed in range(6):
        assert_loss_margin(n, drop, seed, 10.0)


def test_parent_idle_count_formula():
    assert parent_idle_datagrams(8, 5.0) == 37240
    assert parent_idle_datagrams(8, 10.0) == 74592


# ----------------------------------------------------------------------
# Byzantine inputs on the new surface
# ----------------------------------------------------------------------
def beacon_from(process, sender, payload, probe=False):
    msg = Message(mk.KIND_HEARTBEAT, sender, process.view.vid, payload,
                  dest=process.node_id if probe else None)
    if probe:
        msg.push_header("rel", "probe")
    msg.sender = sender
    return msg


@pytest.mark.parametrize("payload,tag", [
    (7, "rel:bad-ack"),
    ("vector", "rel:bad-ack"),
    (((2, "a"),), "rel:bad-ack-entry"),
    (((2, "a", -1),), "rel:bad-ack-entry"),
    (((2, "a", "1"),), "rel:bad-ack-entry"),
    (((0, "a", 5),), "rel:ack-for-unsent"),
    (("matrix", ((3, ((0, "a", 0),)),)), "rel:bad-ack-entry"),
    # unhashable origin or stream, or a stream no vector carries
    ((([1], "a", 3),), "rel:bad-ack-entry"),
    (((1, ["a"], 3),), "rel:bad-ack-entry"),
    ((({}, "a", 0),), "rel:bad-ack-entry"),
    ((((1, [2]), "c", 0),), "rel:bad-ack-entry"),
    (((1, "p", 3),), "rel:bad-ack-entry"),
])
def test_malformed_heartbeat_vector_is_flagged_and_ignored(payload, tag):
    group, log = boot(n=4)
    group.run(SETTLE)
    process = group.processes[0]
    tags = tagged_detector(process)

    def table():
        acked_seq = process.stability.acked_seq
        return [acked_seq(member, origin, stream)
                for member in range(4) for origin in range(4)
                for stream in "ac"]
    before = table()
    process.reliable.handle_up(beacon_from(process, 2, payload))
    assert tags == [tag]
    assert table() == before
    assert process.verbose_levels.level(2) > 0
    # the correct node carries on exactly as an untouched one would
    group.run(0.5)
    assert {p.view.n for p in group.processes.values()} == {4}
    assert log.count(mk.KIND_SLANDER) == 0
    group.stop()


def test_probes_are_answered_by_one_beacon_from_the_next_ack_tick():
    group, log = boot(n=4, obs=True)
    config = group.config
    group.run(0.062)        # the next ack tick (72 ms) is no heartbeat tick
    process = group.processes[0]
    bound = 2 * int(config.mute_timeout / config.ack_interval)
    before = group.sim.now
    vectors = {node: group.processes[node].reliable._delivered_vector()
               for node in (2, 3)}
    for sender in (3,) + (2,) * (bound + 2):    # two over: verbose only
        process.reliable.handle_up(beacon_from(process, sender,
                                               vectors[sender], probe=True))
    # however many asked, one signature answers them all: an extra
    # beacon to everybody, from the ack tick -- never an extra ack
    group.run(config.ack_interval)
    answers = [row for row in log.select(mk.KIND_HEARTBEAT, since=before,
                                         src=0)
               if row[0] % config.heartbeat_interval > 1e-3]
    assert sorted(row[2] for row in answers) == [1, 2, 3]
    assert len({row[0] for row in answers}) == 1
    assert all(row[3].payload is process.reliable._delivered_vector()
               and not is_probe(row[3]) for row in answers)
    assert log.count(mk.KIND_ACK, since=before, src=0) == 0
    assert group.obs.metrics.total("probes_dropped", layer="reliable") == 2
    assert process.verbose_levels.level(2) > 0
    assert process.verbose_levels.level(3) == 0
    # an answer is not a probe: nothing comes back, and it is sent once
    group.run(0.1)
    assert log.count(mk.KIND_ACK, since=before) == 0
    assert log.count(since=before) == idle_datagrams(group, 0.1) + 3
    group.stop()


class Prober(ByzantineBehavior):
    """Probes one victim every ``ack_interval``, silent or not -- as fast
    as a correct member ever does, so the ``rel:probe`` bound lets it."""

    def __init__(self, victim):
        super().__init__()
        self.victim = victim

    def start(self):
        reliable = self.process.reliable
        if not self.process.stopped:
            probe = Message(mk.KIND_HEARTBEAT, self.me, reliable.view.vid,
                            reliable._delivered_vector(), dest=self.victim)
            probe.push_header("rel", "probe")
            reliable.send_down(probe)
            self.sim.schedule(self.process.config.ack_interval, self.start)


def test_prober_cannot_raise_a_members_send_rate_above_the_periodic_one():
    liar, victim = N - 1, 0
    group, log = boot(behaviors={liar: Prober(victim)})
    config = group.config
    group.run(SETTLE)
    start = group.sim.now
    group.run(1.0)
    # (a received probe's header is popped off the logged object: count
    # the heartbeats the victim got beyond everybody's share of beacons)
    assert log.count(mk.KIND_HEARTBEAT, since=start, src=liar, dst=victim) \
        - log.count(mk.KIND_HEARTBEAT, since=start, src=liar, dst=1) \
        == pytest.approx(1.0 / config.ack_interval, abs=1)
    # the victim answers from its ack tick: one broadcast per tick of
    # either timer, which is what every member sent when acks were
    # periodic -- and nobody else sends anything more than idle
    ticks = 1.0 / config.ack_interval + 1.0 / config.heartbeat_interval
    sent = log.count(since=start, src=victim)
    assert idle_datagrams(group, 1.0) // N < sent <= (N - 1) * (ticks + 1)
    for node in group.processes:
        if node not in (liar, victim):
            assert log.count(since=start, src=node) \
                == idle_datagrams(group, 1.0) // N
    assert {p.view.n for p in group.processes.values()} == {N}
    assert log.count(mk.KIND_SLANDER) == 0
    group.stop()


class NeverAcks(ByzantineBehavior):
    """Live and on time, but acknowledges nothing: every vector it sends
    (acks, heartbeats, probe answers) is empty."""

    def install(self, process):
        super().install(process)
        process.reliable._delivered_vector = lambda: ()


def test_never_acking_member_cannot_raise_the_ack_rate():
    liar = N - 1
    group, log = boot(behaviors={liar: NeverAcks()})
    config = group.config
    group.run(SETTLE)
    group.endpoints[0].cast("held-unstable-forever")
    group.run(2 * config.ack_interval)
    start = group.sim.now
    group.run(1.0)
    ticks = 1.0 / config.ack_interval
    for node in group.processes:
        sent = broadcast_times(log, mk.KIND_ACK, node, since=start)
        if node == liar:
            assert not sent
        else:
            # exactly the periodic rate: one ack per tick, never more
            assert ticks - 1 <= len(sent) <= ticks + 1
            assert_every_tick(sent, config.ack_interval)
        # every ack was one of those broadcasts: there are no unicast acks
        assert len(log.select(mk.KIND_ACK, since=start, src=node)) \
            == len(sent) * (N - 1)
    assert not log.probes()
    assert {p.view.n for p in group.processes.values()} == {N}
    group.stop()


# ----------------------------------------------------------------------
# (f) real sockets: an idle AsyncioRuntime cluster sends no ack frames
# ----------------------------------------------------------------------
@pytest.mark.net
def test_net_idle_cluster_sends_no_acks_and_keeps_its_view():
    from repro.core.endpoint import GroupEndpoint
    from repro.runtime.backend_asyncio import AsyncioRuntime, net_profile
    from repro.runtime.driver import free_udp_ports

    nodes = 4
    host = "127.0.0.1"
    sent = []

    async def scenario():
        loop = asyncio.get_running_loop()
        config = net_profile(StackConfig.byz(crypto="sym"))
        ports = free_udp_ports(nodes, host=host)
        addresses = {node: (host, ports[node]) for node in range(nodes)}
        runtimes, processes = [], []
        try:
            for node in range(nodes):
                runtime = AsyncioRuntime(node, addresses, seed=node,
                                         loop=loop)
                await runtime.open()
                runtimes.append(runtime)
                process = runtime.spawn_process(
                    config, initial_view=runtime.initial_view(
                        range(nodes), established=True))
                GroupEndpoint(process)
                bottom = process.bottom
                below = bottom.handle_down

                def counting(msg, below=below):
                    sent.append((loop.time(), msg.kind, msg))
                    below(msg)
                # the reliable layer's send_down is bound at stack
                # construction: rebind the seam, not just the method
                process.reliable.send_down = counting
                processes.append(process)
            for process in processes:
                process.start()
            await asyncio.sleep(4 * config.ack_interval)   # first acks
            start = loop.time()
            await asyncio.sleep(0.5)
            window = [row for row in sent if row[0] >= start]
            assert not [row for row in window if row[1] == mk.KIND_ACK]
            beats = [row for row in window
                     if row[1] == mk.KIND_HEARTBEAT]
            assert len(beats) >= nodes * (0.5 / config.heartbeat_interval
                                          - 2)
            assert all(isinstance(row[2].payload, tuple) for row in beats)
            assert not [row for row in window if row[1] == mk.KIND_SLANDER]
            for process in processes:
                assert process.view.n == nodes
                assert process.view.vid.counter == 1
        finally:
            for process in processes:
                if not process.stopped:
                    process.stop()
            for runtime in runtimes:
                runtime.close()

    asyncio.run(scenario())
