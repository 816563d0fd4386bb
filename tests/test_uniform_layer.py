"""Tests for the per-cast uniform delivery layer."""

from tests.helpers import cast_payloads, make_group

from repro import Group, StackConfig
from repro.byzantine.behaviors import TwoFacedCaster
from repro.core import message as mk
from repro.core.properties import check_virtual_synchrony
from repro.sim.network import NetworkConfig


def test_uniform_delivery_happy_path():
    group = make_group(8, seed=1, uniform_delivery=True)
    for node in range(8):
        group.endpoints[node].cast(("u", node))
    group.run(0.6)
    for node in range(8):
        payloads = set(cast_payloads(group.endpoints[node]))
        assert payloads == {("u", k) for k in range(8)}
        assert group.processes[node].uniform.delivered_uniform == 8


def test_uniform_preserves_per_origin_fifo():
    group = make_group(8, seed=2, uniform_delivery=True)
    for k in range(10):
        group.endpoints[1].cast(("f", k))
    group.run(1.0)
    for node in range(8):
        mine = [p for p in cast_payloads(group.endpoints[node])
                if isinstance(p, tuple) and p[0] == "f"]
        assert mine == [("f", k) for k in range(10)]


def test_two_faced_cast_agreed_or_suppressed():
    behaviors = {3: TwoFacedCaster()}
    config = StackConfig.byz(uniform_delivery=True)
    group = Group.bootstrap(8, config=config, seed=3, behaviors=behaviors)
    group.byzantine_nodes = {3}
    group.endpoints[3].cast(("attack", 1))
    group.run(1.0)
    versions = set()
    for node in range(8):
        if node == 3:
            continue
        for ev in group.processes[node].history.events:
            if ev[0] == "cast_deliver" and ev[3] == 3:
                versions.add(ev[4])
    # uniformity: at most one version delivered anywhere
    assert len(versions) <= 1


def test_two_faced_minority_copy_recovered_by_fetch():
    # alter the copy for exactly one receiver: the quorum agrees on the
    # majority digest and the odd receiver fetches a matching copy
    def alter(payload, dst):
        if dst == 5:
            return ("evil-version",)
        return payload

    behaviors = {2: TwoFacedCaster(alter=alter)}
    config = StackConfig.byz(uniform_delivery=True)
    group = Group.bootstrap(8, config=config, seed=4, behaviors=behaviors)
    group.byzantine_nodes = {2}
    group.endpoints[2].cast(("真", 1))
    group.run(1.5)
    delivered_at_5 = [ev for ev in group.processes[5].history.events
                      if ev[0] == "cast_deliver" and ev[3] == 2]
    others = [ev for node in (0, 1, 4) for ev in
              group.processes[node].history.events
              if ev[0] == "cast_deliver" and ev[3] == 2]
    assert others
    # node 5 must have delivered the majority version, not its own copy
    assert delivered_at_5 and delivered_at_5[0][4] == others[0][4]
    assert group.processes[5].uniform.mismatches_recovered >= 1


def test_a_plain_cast_leaves_only_its_digest():
    # an uncontested cast is never fetched: nothing keeps its payload
    group = make_group(8, seed=1, uniform_delivery=True)
    msg_id = group.endpoints[2].cast(("plain", 1))
    group.run(0.6)
    for node in range(8):
        assert type(group.processes[node].uniform._done[msg_id]) is str


class EchoToOne(TwoFacedCaster):
    """A two-faced caster whose own uniform-broadcast echo reaches one
    member only (the stack-level form of the n=8, f=1 split)."""

    def __init__(self, alter, echo_dst):
        super().__init__(alter=alter)
        self.echo_dst = echo_dst

    def filter_outgoing(self, dst, msg):
        if (msg.kind == mk.KIND_UDELIV and msg.payload[0] == "ub"
                and msg.payload[2][0] == "ub-echo" and dst != self.echo_dst):
            # a no-op in the echo's place keeps the reliable stream whole,
            # so no repair hands the echo on
            out = msg.clone_for(dst)
            out.payload = ("copy", msg.payload[1], None)
            process = self.process
            receivers = tuple(m for m in process.view.mbrs if m != self.me)
            out.signature, _cost, _bytes = process.auth.sign(
                self.me, receivers, out)
            return out
        return super().filter_outgoing(dst, msg)


def run_echo_to_one():
    """Member 3 shows member 7 another version and echoes its own digest
    to member 0 only: 0 reaches the deliver threshold (7) with that echo,
    the others hold 6 echoes of the majority digest.  Echoing once ever,
    member 7 (which echoed its own copy's digest) never echoes the
    majority's and members 1-7 never agree; echoing once per value, 7
    crosses the echo threshold (6) and every correct member agrees."""
    def alter(payload, dst):
        return ("evil-version",) if dst == 7 else payload

    behaviors = {3: EchoToOne(alter, echo_dst=0)}
    config = StackConfig.byz(uniform_delivery=True)
    group = Group.bootstrap(8, config=config, seed=7, behaviors=behaviors)
    group.byzantine_nodes = {3}
    msg_id = group.endpoints[3].cast(("split", 1))
    group.run(1.0)
    correct = [node for node in range(8) if node != 3]
    delivered = {node: [p for p in cast_payloads(group.endpoints[node])
                        if p in (("split", 1), ("evil-version",))]
                 for node in correct}
    return group, msg_id, correct, delivered


def test_two_faced_cast_with_echo_to_one_agrees_everywhere():
    group, msg_id, correct, delivered = run_echo_to_one()
    uniform = {node: group.processes[node].uniform for node in correct}
    # a released cast leaves its digest, or its entry when contested
    agreed = {node: getattr(layer._done.get(msg_id), "agreed",
                            layer._done.get(msg_id))
              or layer._pending[msg_id].agreed
              for node, layer in uniform.items()}
    assert len(set(agreed.values())) == 1 and None not in agreed.values()
    assert all(delivered[node] == [("split", 1)] for node in range(7)
               if node != 3)
    assert check_virtual_synchrony(group.execution(),
                                   content_agreement=True) == []


def test_two_faced_cast_with_echo_to_one_is_total():
    _group, _msg_id, correct, delivered = run_echo_to_one()
    assert delivered == {node: [("split", 1)] for node in correct}


def test_uniform_delivery_under_message_loss():
    config = StackConfig.byz(uniform_delivery=True)
    group = Group.bootstrap(8, config=config, seed=5,
                            net_config=NetworkConfig(drop_prob=0.1))
    for k in range(5):
        group.endpoints[0].cast(("l", k))
    group.run(2.5)
    for node in range(8):
        mine = [p for p in cast_payloads(group.endpoints[node])
                if isinstance(p, tuple) and p[0] == "l"]
        assert mine == [("l", k) for k in range(5)], "node %d" % node


def test_uniform_inactive_when_total_order_on():
    # total ordering subsumes uniform agreement (paper section 3.5)
    group = make_group(7, seed=6, total_order=True, uniform_delivery=True)
    group.endpoints[0].cast("x")
    group.run(0.5)
    assert group.processes[1].uniform.delivered_uniform == 0
    assert "x" in cast_payloads(group.endpoints[1])
