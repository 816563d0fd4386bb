"""Tests for archive trimming, an extension the paper discusses but does
not measure (buffer compaction via stability, section 3.1), and for the
stability matrix it trims by.

The packing/batching optimization of [33] (footnote 3) is not built: the
UDP transport's datagram coalescer is the one batching mechanism
(tests/test_coalescer.py).
"""

from tests.helpers import cast_payloads, make_group, tagged_detector

from repro import Group, StackConfig
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
