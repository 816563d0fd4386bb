"""Trailing-loss recovery: the last message of a burst has no successor,
so gap-driven NAKs never notice it is missing.  Recovery must come from
peer ack vectors (``ReliableLayer._ack_evidence``), which double as
existence proofs for unseen suffixes and open the stream's repair at once."""

import pytest

from repro import Group, StackConfig
from repro.core import message as mk
from repro.core.message import Message
from repro.sim.network import NetworkConfig


def test_trailing_loss_repaired_via_ack_vectors():
    """Surgical version: drop exactly the final cast of a burst on one
    link and nothing else.  The victim sees no gap -- only the ack-vector
    existence proof can trigger the repair."""
    group = Group.bootstrap(4, config=StackConfig.byz(), seed=5)
    group.run(0.1)
    burst = 5
    ids = [group.endpoints[0].cast(("burst", k)) for k in range(burst)]
    last_id = ids[-1]

    class DropLastCast:
        """One-link, one-message chaos filter (Network.chaos contract)."""
        dropped = 0

        def filter(self, src, dst, payload):
            if (src == 0 and dst == 1 and isinstance(payload, Message)
                    and payload.kind == mk.KIND_CAST
                    and payload.msg_id == last_id):
                DropLastCast.dropped += 1
                return payload, 0, True
            return payload, 0, False

    group.network.chaos = DropLastCast()
    ok = group.run_until(
        lambda: all(p.top.delivered >= burst
                    for p in group.processes.values()),
        timeout=10.0)
    assert ok, "victim never recovered the trailing cast"
    # the original transmission really was suppressed; what arrived was a
    # retransmission requested off the ack-vector evidence
    assert DropLastCast.dropped >= 1
    victim = group.processes[1].reliable
    assert victim.streams.records[(0, "a")].asked_at > 0.1, \
        "ack evidence did not open the repair"
    group.stop()


@pytest.mark.parametrize("drop", [0.1, 0.2, 0.3])
def test_bursts_survive_heavy_random_loss(drop):
    """Statistical version: whole bursts converge under up to 30% random
    loss, tail messages included."""
    group = Group.bootstrap(
        4, config=StackConfig.byz(), seed=int(drop * 100),
        net_config=NetworkConfig(drop_prob=drop))
    group.run(0.1)
    burst = 8
    for k in range(burst):
        group.endpoints[0].cast(("heavy", k))
    ok = group.run_until(
        lambda: all(p.top.delivered >= burst
                    for p in group.processes.values()
                    if not p.stopped),
        timeout=30.0)
    assert ok, "burst did not fully deliver at drop=%s" % drop
    group.stop()
