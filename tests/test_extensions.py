"""Tests for the extension features: archive trimming and packing.

Both are discussed but not measured by the paper: buffer compaction via
stability (section 3.1) and the packing/batching optimization of [33]
(footnote 3: "can dramatically boost the performance, especially for
small messages").
"""

from tests.helpers import cast_payloads, make_group, tagged_detector

from repro import Group, StackConfig
from repro.core import message as mk
from repro.core.properties import check_virtual_synchrony
from repro.sim.network import NetworkConfig


# ----------------------------------------------------------------------
# archive trimming
# ----------------------------------------------------------------------
def test_archive_trimmed_once_stable():
    group = make_group(4, seed=1)
    for k in range(300):
        group.endpoints[0].cast(("t", k))
    group.run(1.0)
    for process in group.processes.values():
        assert process.reliable.archive_trimmed > 200
        assert process.reliable.archive_size < 200


def test_trimming_does_not_break_recovery():
    config = StackConfig.byz()
    group = Group.bootstrap(4, config=config, seed=2,
                            net_config=NetworkConfig(drop_prob=0.1))
    for k in range(100):
        group.endpoints[0].cast(("r", k))
    group.run(2.5)
    for node in range(4):
        payloads = [p for p in cast_payloads(group.endpoints[node])
                    if isinstance(p, tuple) and p[0] == "r"]
        assert payloads == [("r", k) for k in range(100)], "node %d" % node


# ----------------------------------------------------------------------
# packing
# ----------------------------------------------------------------------
def test_packed_stack_delivers_fifo():
    def run(packing):
        group = make_group(5, seed=3, packing=packing)
        for k in range(40):
            group.endpoints[0].cast(("p", k))
        group.run(0.5)
        for node in range(5):
            payloads = [p for p in cast_payloads(group.endpoints[node])
                        if isinstance(p, tuple) and p[0] == "p"]
            assert payloads == [("p", k) for k in range(40)]
        return group

    packed = run(True)
    plain = run(False)
    assert packed.processes[0].bottom.packets_packed > 0
    # packing coalesced the burst (idle-period heartbeats/acks ride alone,
    # so the whole-run ratio is modest; under load it is ~10x, see the
    # throughput test below)
    assert (packed.network.datagrams_sent
            < 0.85 * plain.network.datagrams_sent)


def test_packing_boosts_small_message_throughput():
    from repro.apps.ring import RingDemo

    def throughput(packing):
        group = Group.bootstrap(8, config=StackConfig.byz(packing=packing),
                                seed=4)
        ring = RingDemo(group, burst=32)
        ring.start()
        group.run(0.05)
        ring.start_measurement()
        group.run(0.08)
        ring.stop_measurement()
        group.stop()
        return ring.throughput

    plain = throughput(False)
    packed = throughput(True)
    # the paper predicts "at least a factor of 10, and as much as ... 90
    # for 1 byte messages"; at 16 bytes we demand a conservative 3x
    assert packed > 3 * plain, (plain, packed)


def test_packing_with_sym_crypto_still_verifies():
    group = make_group(5, seed=5, packing=True, crypto="sym")
    for k in range(20):
        group.endpoints[1].cast(("s", k))
    group.run(0.5)
    for node in range(5):
        payloads = [p for p in cast_payloads(group.endpoints[node])
                    if isinstance(p, tuple) and p[0] == "s"]
        assert payloads == [("s", k) for k in range(20)]
    assert all(p.bottom.dropped_bad_signature == 0
               for p in group.processes.values())


def test_packed_stack_survives_crash_and_keeps_properties():
    group = make_group(6, seed=6, packing=True)
    for k in range(10):
        group.endpoints[0].cast(("c", k))
    group.run(0.1)
    group.crash(5)
    ok = group.run_until(lambda: all(p.view.n == 5
                                     for p in group.processes.values()
                                     if not p.stopped), timeout=5.0)
    assert ok
    group.run(0.5)
    execution = group.execution()
    execution.correct.discard(5)
    violations = check_virtual_synchrony(execution)
    assert not violations, "\n".join(violations[:5])


def test_packing_label():
    assert StackConfig.byz(packing=True).label() == "ByzEns+NoCrypto+Pack"


def test_pack_queue_accounting_and_flush_threshold():
    """The O(1) running byte total must track the queue exactly, and the
    flush must trigger at the same point the original sum() check did:
    the first enqueue that makes the queue total reach the MTU."""
    group = make_group(3, seed=30, packing=True)
    process = group.processes[0]
    bottom = process.bottom
    mtu = process.config.mtu
    dst = 1

    from repro.core import message as mk
    from repro.core.message import Message

    def enqueue(size):
        msg = Message(mk.KIND_CAST, 0, process.view.vid, ("pk", size),
                      payload_size=size)
        bottom._enqueue_packed(dst, msg, size)

    # stay strictly below the threshold: queue grows, total tracks sum()
    step = mtu // 4
    for expected_len in range(1, 4):
        enqueue(step)
        queue = bottom._pack_queues[dst]
        assert len(queue) == expected_len
        assert bottom._pack_bytes[dst] == sum(s for _m, s in queue)
        assert bottom._pack_bytes[dst] < mtu
    # the enqueue that reaches the MTU flushes immediately
    before = bottom.packets_packed
    enqueue(mtu - 3 * step)
    assert bottom.packets_packed == before + 1
    assert dst not in bottom._pack_queues
    assert dst not in bottom._pack_bytes
    # a single over-MTU message flushes on its own as well
    enqueue(mtu + 1)
    assert bottom.packets_packed == before + 2
    assert dst not in bottom._pack_queues
    assert dst not in bottom._pack_bytes
    group.stop()


def test_matrix_ack_rejected_in_broadcast_mode():
    group = make_group(4, seed=23)
    process = group.processes[0]
    from repro.core.message import Message
    from repro.core import message as mk
    bogus = Message(mk.KIND_ACK, 2, process.view.vid,
                    ("matrix", ((3, ((0, "a", 99),)),)), dest=0)
    bogus.sender = 2
    tags = tagged_detector(process)
    process.reliable.handle_up(bogus)
    assert tags == ["rel:bad-ack"]
    # and the lie did not enter the matrix
    assert process.stability.acked_seq(3, 0, "a") == 0
