"""The paper's formal claims, as executable tests.

Each test carries the statement of one lemma/theorem from sections 3.4.1
and 3.4.3 and checks it on the implementation -- under randomized
schedules here, and (for the small cases) exhaustively in test_tools.py.
"""

import itertools
import random

import pytest

from repro.broadcast.uniform import UniformBroadcast
from repro.consensus.interface import max_f_consensus
from repro.consensus.vector import VectorConsensus
from repro.sim.scheduler import Simulator


class Net:
    """Message bus with per-sender twisting (for Byzantine senders)."""

    def __init__(self, n, seed=0):
        self.sim = Simulator(seed=seed)
        self.members = list(range(n))
        self.instances = {}
        self.twist = {}

    def bcast_from(self, sender):
        def bcast(payload):
            for receiver in self.members:
                if receiver == sender:
                    continue
                out = payload
                twist = self.twist.get(sender)
                if twist is not None:
                    out = twist(receiver, payload)
                    if out is None:
                        continue
                self.sim.schedule(0.001 + self.sim.rng.random() * 0.002,
                                  lambda r=receiver, s=sender, p=out:
                                  self.instances[r].on_message(s, p))
        return bcast

    def run(self):
        self.sim.run(max_events=2_000_000)


def build_consensus(net, f, proposals, suspected=frozenset()):
    decisions = {}
    for i in net.members:
        net.instances[i] = VectorConsensus(
            "L", net.members, i, f, proposals[i], net.bcast_from(i),
            is_suspected=lambda m: m in suspected,
            on_decide=lambda v, i=i: decisions.__setitem__(i, v))
    for i in net.members:
        if i not in suspected:
            net.instances[i].start()
    return decisions


def test_lemma_3_1_unanimous_estimates_never_change():
    """Lemma 3.1 (n > 4f): if at the beginning of a round all core
    processes share the estimate v[k], they never change it."""
    n, f = 13, 2
    # entry 0 unanimous; entry 1 contested so the protocol runs >1 round
    proposals = {i: (7, i % 2) for i in range(n)}
    net = Net(n, seed=1)
    decisions = build_consensus(net, f, proposals)
    net.run()
    assert len(decisions) == n
    for vec in decisions.values():
        assert vec[0] == 7  # the unanimous entry survived every round


def test_lemma_3_2_validity():
    """Lemma 3.2: if all core processes propose v[k], nothing else can be
    decided for entry k."""
    n, f = 13, 2
    for seed in range(3):
        proposals = {i: ("keep", random.Random(seed * 100 + i).randint(0, 1))
                     for i in range(n)}
        net = Net(n, seed=seed)
        decisions = build_consensus(net, f, proposals)
        net.run()
        assert all(vec[0] == "keep" for vec in decisions.values())


def test_lemma_3_3_agreement_with_byzantine_equivocator():
    """Lemma 3.3 (n > 6f): no two core processes decide differently --
    here with a Byzantine member sending different estimates to different
    peers."""
    n, f = 13, 2
    villain = 12
    proposals = {i: (i % 2,) for i in range(n)}
    net = Net(n, seed=3)

    def twist(receiver, payload):
        if payload[0] == "val":
            return ("val", payload[1], (receiver % 2,))  # two-faced
        return payload
    net.twist[villain] = twist
    decisions = build_consensus(net, f, proposals)
    net.run()
    core = [i for i in range(n) if i != villain]
    assert all(i in decisions for i in core)
    assert len({decisions[i] for i in core}) == 1


def test_lemma_3_4_no_core_process_blocks_forever():
    """Lemma 3.4: with at most f non-core members (silent here) and a
    complete failure detector, no core process blocks in a round."""
    n, f = 13, 2
    silent = frozenset({11, 12})
    proposals = {i: (i % 3,) for i in range(n)}
    net = Net(n, seed=4)
    decisions = build_consensus(net, f, proposals, suspected=silent)
    net.run()
    core = [i for i in range(n) if i not in silent]
    assert all(i in decisions for i in core)  # nobody blocked


def test_theorem_3_6_full_vector_consensus():
    """Theorem 3.6: validity + agreement + termination on whole vectors."""
    n, f = 13, 2
    proposals = {i: tuple((i + k) % 2 for k in range(n)) for i in range(n)}
    net = Net(n, seed=5)
    decisions = build_consensus(net, f, proposals)
    net.run()
    assert len(decisions) == n
    vecs = set(decisions.values())
    assert len(vecs) == 1
    decided = vecs.pop()
    for k in range(n):
        assert decided[k] in {proposals[i][k] for i in range(n)}


def build_ub(net, f, origin):
    delivered = {}
    for i in net.members:
        net.instances[i] = UniformBroadcast(
            ("L", 0), net.members, i, f, origin, net.bcast_from(i),
            on_deliver=lambda v, i=i: delivered.__setitem__(i, v))
    return delivered


def test_lemma_3_7_no_two_core_processes_deliver_differently():
    """Lemma 3.7: even a two-faced origin cannot split delivery."""
    n, f = 14, 2
    net = Net(n, seed=6)
    origin = 0

    def twist(receiver, payload):
        if payload[0] == "ub-initial":
            return ("ub-initial", "A" if receiver < n // 2 else "B")
        return payload
    net.twist[origin] = twist
    delivered = build_ub(net, f, origin)
    net.instances[origin].originate("A")
    net.run()
    core_values = {v for i, v in delivered.items() if i != origin}
    assert len(core_values) <= 1


def test_lemma_3_8_delivery_is_contagious():
    """Lemma 3.8: if one core process delivers v, every core process
    eventually delivers v -- even when the origin crashes right after a
    bare quorum of initial sends."""
    n, f = 14, 2
    net = Net(n, seed=7)
    origin = 0
    # the origin's initial reaches only a quorum-sized subset, then silence
    reach = set(range(1, int(n / 2.0 + f + 2)))

    def twist(receiver, payload):
        if payload[0] == "ub-initial" and receiver not in reach:
            return None
        return payload
    net.twist[origin] = twist
    delivered = build_ub(net, f, origin)
    net.instances[origin].originate("v")
    net.run()
    delivered_nodes = {i for i in delivered if i != origin}
    if delivered_nodes:  # if anyone delivered, everyone did
        assert delivered_nodes == set(range(1, n))


def test_lemma_3_9_core_sender_always_delivers():
    """Lemma 3.9: a correct origin's broadcast is delivered by every core
    process (liveness at the safe f bound, DESIGN.md deviation 1)."""
    n, f = 14, 2
    net = Net(n, seed=8)
    delivered = build_ub(net, f, origin=3)
    net.instances[3].originate("w")
    net.run()
    assert set(delivered) == set(range(n))
    assert set(delivered.values()) == {"w"}


def test_section_3_5_amortized_single_round_ordering():
    """Section 3.5: with deterministic batch choice under continuous load,
    consensus instances after the first decide in one round."""
    from repro import Group, StackConfig
    group = Group.bootstrap(7, config=StackConfig.byz(total_order=True),
                            seed=9)
    state = {"sent": 0}

    def pump():
        if state["sent"] < 120:
            for node in range(7):
                group.endpoints[node].cast((node, state["sent"]))
            state["sent"] += 1
            group.sim.schedule(0.002, pump)
    pump()
    group.run(1.2)
    ordering = group.processes[0].ordering
    assert ordering.batches_decided >= 3
    assert ordering.messages_ordered >= 7 * 100


class RoundOne(VectorConsensus):
    """A real instance that notes whether it ever waited on a ``coord``."""

    waited_on_coord = False

    def _try_finish_step2(self):
        self.waited_on_coord = True
        super()._try_finish_step2()


def round_one(n, f, me, heard):
    """Member ``me``'s round 1 over ``heard`` ({sender: value}, ``me``
    included): every member it did not hear from is suspected, so its
    matrix freezes on exactly ``heard``.  Returns the instance and what
    it broadcast."""
    sent = []
    inst = RoundOne("d13", list(range(n)), me, f, (heard[me],), sent.append,
                    is_suspected=lambda m: m not in heard, eager_dec=False)
    inst.start()
    for sender, value in heard.items():
        if sender != me:
            inst.on_message(sender, ("val", 1, (value,)))
    return inst, sent


def round_one_coordinator(n, f):
    return VectorConsensus("d13", list(range(n)), 0, f, (0,),
                           None).coordinator_of(1)


def heard_sets(n, f, me):
    others = [m for m in range(n) if m != me]
    for size in range(n - f - 1, n):
        for subset in itertools.combinations(others, size):
            yield (me,) + subset


def check_no_wait_on_coord(n, f, me, heard, decided):
    member, _sent = round_one(n, f, me, heard)
    assert not member.waited_on_coord, (me, heard)
    assert member.est[0] == decided, (me, heard)


def test_deviation_13_no_correct_member_waits_on_a_deciding_coordinator():
    """DESIGN section 6, deviation 13 (n > 6f): when the round's
    coordinator decides v it sends no coord, because no correct member
    needs one -- each adopts v at line 20 on whatever n - f estimates it
    froze.  Exhaustive at n=7, f=1: every two-valued assignment of the
    correct members' estimates, every Byzantine non-coordinator telling
    each receiver either value, every heard set of size >= n - f."""
    n, f = 7, 1
    coord = round_one_coordinator(n, f)
    cases = 0
    for byz in range(n):
        if byz == coord:
            continue
        correct = [m for m in range(n) if m != byz]
        for values in itertools.product((0, 1), repeat=len(correct)):
            est = dict(zip(correct, values))
            decisions = set()
            for told, heard in itertools.product((0, 1),
                                                 heard_sets(n, f, coord)):
                inst, sent = round_one(n, f, coord, {
                    m: told if m == byz else est[m] for m in heard})
                if inst.decided:
                    assert "coord" not in [p[0] for p in sent]
                    decisions.add(inst.decision[0])
            if not decisions:
                continue
            assert len(decisions) == 1
            decided = decisions.pop()
            for me in correct:
                if me == coord:
                    continue
                for told, heard in itertools.product((0, 1),
                                                     heard_sets(n, f, me)):
                    check_no_wait_on_coord(n, f, me, {
                        m: told if m == byz else est[m] for m in heard},
                        decided)
                    cases += 1
    assert cases == 5880


@pytest.mark.parametrize("n,f,trials", [(13, 2, 1500), (19, 3, 600)])
def test_deviation_13_sampled_at_larger_n(n, f, trials):
    """Deviation 13 at n=13, f=2 and n=19, f=3 on a seeded sample: up to f
    two-faced Byzantine non-coordinators, up to f dissenting correct
    members, random heard sets of size >= n - f."""
    rng = random.Random(n)
    coord = round_one_coordinator(n, f)
    decided_trials = 0
    for _trial in range(trials):
        byz = set(rng.sample([m for m in range(n) if m != coord],
                             rng.randint(1, f)))
        correct = [m for m in range(n) if m not in byz]
        value = rng.randrange(2)
        dissent = set(rng.sample(correct, rng.randint(0, f)))
        # (sender, receiver) -> the estimate that receiver sees
        seen = {(m, r): rng.randrange(2) if m in byz
                else value ^ (m in dissent)
                for m in range(n) for r in range(n)}

        def heard_by(me):
            others = [m for m in range(n) if m != me]
            heard = rng.sample(others, rng.randint(n - f - 1, n - 1))
            return {m: seen[m, me] for m in [me] + heard}

        inst, sent = round_one(n, f, coord, heard_by(coord))
        if not inst.decided:
            continue
        decided_trials += 1
        assert "coord" not in [p[0] for p in sent]
        for me in correct:
            if me != coord:
                check_no_wait_on_coord(n, f, me, heard_by(me),
                                       inst.decision[0])
    assert decided_trials >= trials // 4
