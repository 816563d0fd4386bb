"""Unit tests for the vector Byzantine consensus (Algorithm 1)."""

import pytest

from tests.helpers import MALFORMED_CONSENSUS_PAYLOADS

from repro.consensus.interface import max_f_consensus
from repro.consensus.vector import VectorConsensus
from repro.sim.scheduler import Simulator


class Harness:
    """Direct message bus between consensus instances (no stack)."""

    def __init__(self, n, f, seed=0, latency=0.001, jitter=0.001):
        self.sim = Simulator(seed=seed)
        self.members = list(range(n))
        self.f = f
        self.latency = latency
        self.jitter = jitter
        self.instances = {}
        self.decisions = {}
        self.crashed = set()
        self.mute = set()
        self.suspected = {}   # observer -> set of suspects

    def broadcast_from(self, sender):
        def bcast(payload):
            if sender in self.crashed or sender in self.mute:
                return
            for receiver in self.members:
                if receiver == sender or receiver in self.crashed:
                    continue
                delay = self.latency + self.sim.rng.random() * self.jitter
                self.sim.schedule(delay, self._deliver, receiver, sender,
                                  payload)
        return bcast

    def _deliver(self, receiver, sender, payload):
        if receiver in self.crashed:
            return
        self.instances[receiver].on_message(sender, payload)

    def build(self, proposals, seed_token=0):
        for i in self.members:
            self.instances[i] = VectorConsensus(
                "test", self.members, i, self.f, proposals[i],
                self.broadcast_from(i),
                is_suspected=lambda m, i=i: m in self.suspected.get(i, set()),
                on_decide=lambda v, i=i: self.decisions.__setitem__(i, v),
                coordinator_seed=seed_token)
        return self

    def start(self, skip=()):
        for i in self.members:
            if i not in skip:
                self.instances[i].start()

    def suspect_everywhere(self, member):
        for i in self.members:
            self.suspected.setdefault(i, set()).add(member)
            self.instances[i].notify_suspicion_change()

    def run(self, until=5.0):
        self.sim.run(until=until, max_events=2_000_000)

    def live(self):
        return [i for i in self.members
                if i not in self.crashed and i not in self.mute]


def test_fast_path_identical_proposals_one_round():
    h = Harness(7, 1).build({i: (1, 0, 1) for i in range(7)})
    h.start()
    h.run()
    assert len(h.decisions) == 7
    assert set(h.decisions.values()) == {(1, 0, 1)}
    assert all(h.instances[i].rounds_executed == 1 for i in range(7))


def test_validity_unanimous_entries_must_win():
    # entry 0 unanimous 1, entry 1 unanimous 0, entry 2 mixed
    proposals = {i: (1, 0, i % 2) for i in range(13)}
    h = Harness(13, 2).build(proposals)
    h.start()
    h.run()
    assert len(h.decisions) == 13
    decided = set(h.decisions.values())
    assert len(decided) == 1
    vec = decided.pop()
    assert vec[0] == 1 and vec[1] == 0
    assert vec[2] in (0, 1)


def test_agreement_under_mixed_proposals_many_seeds():
    for seed in range(6):
        proposals = {i: tuple((i + k) % 2 for k in range(13)) for i in range(13)}
        h = Harness(13, 2, seed=seed).build(proposals, seed_token=seed)
        h.start()
        h.run()
        assert len(h.decisions) == 13, "termination failed (seed=%d)" % seed
        assert len(set(h.decisions.values())) == 1, "agreement failed"


def test_termination_with_crashed_minority():
    n, f = 13, 2
    h = Harness(n, f)
    h.crashed = {11, 12}
    h.build({i: (i % 2,) * n for i in range(n)})
    for i in range(n):
        h.suspected[i] = set(h.crashed)
    h.start(skip=h.crashed)
    h.run()
    live = [i for i in range(n) if i not in h.crashed]
    assert all(i in h.decisions for i in live)
    assert len({h.decisions[i] for i in live}) == 1


def test_termination_with_mute_member_detected_by_fd():
    n, f = 13, 2
    h = Harness(n, f)
    h.mute = {4}
    h.build({i: (1,) * n for i in range(n)})
    h.start()
    # nothing decides until the failure detector speaks: node 4's silence
    # blocks the "all non-suspected" wait
    h.run(until=0.2)
    h.suspect_everywhere(4)
    h.run()
    live = [i for i in range(n) if i != 4]
    assert all(i in h.decisions for i in live)


def test_mute_coordinator_is_rotated_past():
    n, f = 13, 2
    h = Harness(n, f)
    # conflicting proposals force coordinator dependence
    h.build({i: tuple((i + k) % 2 for k in range(n)) for i in range(n)})
    coord_r1 = h.instances[0].coordinator_of(1)
    h.mute = {coord_r1}
    h.start()
    h.run(until=0.3)
    if len(h.decisions) < n - 1:
        h.suspect_everywhere(coord_r1)
        h.run()
    live = [i for i in range(n) if i != coord_r1]
    assert all(i in h.decisions for i in live)
    assert len({h.decisions[i] for i in live}) == 1


def test_equivocating_val_reported_not_counted_twice():
    h = Harness(7, 1)
    reports = []
    h.build({i: (0,) * 7 for i in range(7)})
    inst = h.instances[0]
    inst.on_misbehavior = lambda m, r: reports.append((m, r))
    inst.start()
    inst.on_message(3, ("val", 1, (1,) * 7))
    inst.on_message(3, ("val", 1, (0,) * 7))  # different estimate, same round
    assert ("consensus:equivocated-val" in r for _m, r in reports)
    assert inst._val_msgs[1][3] == (1,) * 7  # first version kept


def test_wrong_shape_vector_rejected():
    h = Harness(7, 1)
    reports = []
    h.build({i: (0,) * 7 for i in range(7)})
    inst = h.instances[0]
    inst.on_misbehavior = lambda m, r: reports.append(r)
    inst.start()
    inst.on_message(2, ("val", 1, (1, 2)))          # wrong width
    inst.on_message(2, ("val", 1, "not-a-vector"))  # wrong type
    inst.on_message(2, ("val", 1, ([1],) * 7))      # unhashable entries
    assert len(reports) == 3


def test_coord_message_from_non_coordinator_rejected():
    h = Harness(7, 1)
    reports = []
    h.build({i: (0,) * 7 for i in range(7)})
    inst = h.instances[0]
    inst.on_misbehavior = lambda m, r: reports.append(r)
    inst.start()
    usurper = next(m for m in range(7) if m != inst.coordinator_of(1))
    inst.on_message(usurper, ("coord", 1, (1,) * 7))
    assert "consensus:coord-usurper" in reports


def test_non_member_messages_ignored():
    h = Harness(7, 1)
    h.build({i: (0,) * 7 for i in range(7)})
    inst = h.instances[0]
    inst.start()
    inst.on_message(99, ("val", 1, (1,) * 7))
    assert 99 not in inst._val_msgs[1]


def test_dec_message_satisfies_later_round_waits():
    # a process that decided keeps "answering" via its dec broadcast
    h = Harness(7, 1).build({i: (1,) * 7 for i in range(7)})
    for i in range(6):
        h.suspected[i] = {6}  # the FD flags the straggler
    h.start(skip=(6,))
    h.run(until=1.0)
    # node 6 starts late; everyone else has decided and moved on
    assert len(h.decisions) == 6
    h.instances[6].start()
    h.run()
    assert 6 in h.decisions
    assert h.decisions[6] == (1,) * 7


def test_resilience_bound_enforced():
    with pytest.raises(ValueError):
        VectorConsensus("x", list(range(6)), 0, 1, (0,) * 6, lambda p: None)


def test_generic_value_domain():
    # total ordering uses 1-entry vectors over message batches
    batch_a = ((("n0", 1), "payload-a", 16),)
    batch_b = ((("n1", 1), "payload-b", 16),)
    proposals = {i: (batch_a if i % 2 == 0 else batch_b,) for i in range(13)}
    h = Harness(13, 2).build(proposals)
    h.start()
    h.run()
    assert len(h.decisions) == 13
    decided = set(h.decisions.values())
    assert len(decided) == 1
    assert decided.pop()[0] in (batch_a, batch_b)


def test_max_f_consensus_bound():
    assert max_f_consensus(6) == 0
    assert max_f_consensus(7) == 1
    assert max_f_consensus(12) == 1
    assert max_f_consensus(13) == 2
    assert max_f_consensus(50) == 8


def test_double_start_rejected():
    h = Harness(7, 1).build({i: (0,) * 7 for i in range(7)})
    h.instances[0].start()
    with pytest.raises(RuntimeError):
        h.instances[0].start()


def test_coordinator_schedule_deterministic_across_instances():
    h1 = Harness(9, 1).build({i: (0,) * 9 for i in range(9)}, seed_token=42)
    h2 = Harness(9, 1).build({i: (0,) * 9 for i in range(9)}, seed_token=42)
    assert [h1.instances[0].coordinator_of(r) for r in range(1, 6)] == \
           [h2.instances[3].coordinator_of(r) for r in range(1, 6)]


def test_frozen_instance_only_decides_by_dec_adoption():
    h = Harness(7, 1).build({i: (i % 2,) for i in range(7)})
    inst = h.instances[0]
    inst.start()
    inst.freeze_rounds()
    inst.dec_adoption_quorum = 2
    # round progression is frozen: flooding vals changes nothing
    for sender in range(1, 7):
        inst.on_message(sender, ("val", 1, (1,)))
    assert not inst.decided
    # two matching decs (the quorum) decide it
    inst.on_message(3, ("dec", (1,)))
    assert not inst.decided
    inst.on_message(4, ("dec", (1,)))
    assert inst.decided and inst.decision == (1,)


def test_dec_adoption_requires_matching_quorum():
    h = Harness(7, 1).build({i: (0,) for i in range(7)})
    inst = h.instances[0]
    inst.start()
    inst.freeze_rounds()
    inst.dec_adoption_quorum = 2
    inst.on_message(3, ("dec", (1,)))
    inst.on_message(4, ("dec", (0,)))  # conflicting dec: no quorum
    assert not inst.decided
    inst.on_message(5, ("dec", (1,)))
    assert inst.decided and inst.decision == (1,)


def _lone_instance(eager_dec, sent):
    return VectorConsensus("test", list(range(7)), 0, 1, (1,), sent.append,
                           eager_dec=eager_dec)


def test_deferred_dec_is_silent_unless_a_peer_already_left_the_round():
    # the host announces decisions itself (ordering): nothing at decide time
    sent = []
    inst = _lone_instance(False, sent)
    inst.start()
    for sender in range(1, 7):
        inst.on_message(sender, ("val", 1, (1,)))
    assert inst.decided and not inst.dec_announced
    assert [p[0] for p in sent] == ["val"]
    # ...unless a peer's val for a later round is already here: that peer
    # left round 1 undecided and may never send this instance another val
    sent = []
    inst = _lone_instance(False, sent)
    inst.start()
    inst.on_message(6, ("val", 2, (1,)))
    for sender in range(1, 7):
        inst.on_message(sender, ("val", 1, (1,)))
    assert inst.decided and inst.dec_announced
    assert [p[0] for p in sent] == ["val", "dec"]
    # the paper's listing (membership's host) always announces
    sent = []
    inst = _lone_instance(True, sent)
    inst.start()
    for sender in range(1, 7):
        inst.on_message(sender, ("val", 1, (1,)))
    assert inst.dec_announced and [p[0] for p in sent] == ["val", "dec"]


def _round_one_coordinator(eager_dec, sent):
    members = list(range(7))
    coord = VectorConsensus("test", members, 0, 1, (0,),
                            None).coordinator_of(1)
    inst = VectorConsensus("test", members, coord, 1, (0,), sent.append,
                           eager_dec=eager_dec)
    return inst, [m for m in members if m != coord]


@pytest.mark.parametrize("eager_dec", [False, True])
def test_deciding_coordinator_sends_no_coord(eager_dec):
    # DESIGN section 6, deviation 13: n - f matching entries decide, and no
    # correct member then waits on this round's coord
    sent = []
    inst, others = _round_one_coordinator(eager_dec, sent)
    inst.start()
    for sender in others:
        inst.on_message(sender, ("val", 1, (0,)))
    assert inst.decided and inst.decision == (0,)
    assert [p[0] for p in sent] == (["val", "dec"] if eager_dec else ["val"])


@pytest.mark.parametrize("zeros", [4, 5])
def test_non_deciding_coordinator_broadcasts_and_records_its_coord(zeros):
    # 4 of 7 matching entries: below the adopt threshold n - 2f, so the
    # coordinator itself needs a coord (recording its own is what keeps it
    # out of a self-deadlock); 5 of 7: adopted, yet short of the n - f a
    # decision needs, so some member may still wait on it
    sent = []
    inst, others = _round_one_coordinator(False, sent)
    inst.start()
    for i, sender in enumerate(others):
        inst.on_message(sender, ("val", 1, (0,) if i < zeros - 1 else (1,)))
    assert not inst.decided
    assert sent == [("val", 1, (0,)), ("coord", 1, (0,)), ("val", 2, (0,))]
    assert inst.round == 2 and inst._coord_msgs[1] == (0,)


def test_resolicit_repeats_the_round_val_until_decided():
    sent = []
    inst = _lone_instance(False, sent)
    inst.resolicit()                    # not started: nothing to repeat
    inst.start()
    inst.freeze_rounds()
    inst.resolicit()
    assert sent == [("val", 1, (1,)), ("val", 1, (1,))]
    inst.dec_adoption_quorum = 1
    inst.on_message(3, ("dec", (1,)))
    inst.resolicit()
    assert inst.decided and len(sent) == 2


def test_non_integer_val_round_is_misbehavior_not_a_crash():
    flagged = []
    inst = VectorConsensus("test", list(range(7)), 0, 1, (1,),
                           lambda payload: None, eager_dec=False,
                           on_misbehavior=lambda m, why: flagged.append(why))
    inst.start()
    inst.on_message(6, ("val", "2", (1,)))
    for sender in range(1, 6):
        inst.on_message(sender, ("val", 1, (1,)))
    inst.on_message(6, ("val", 1, (1,)))
    assert inst.decided and flagged == ["consensus:bad-val-round"]


@pytest.mark.parametrize("payload", MALFORMED_CONSENSUS_PAYLOADS + (
    ("dec",), (["val"], 1, (1,)), ("coord", "1", (1,))))
def test_malformed_payload_is_misbehavior_not_a_crash(payload):
    # hosts pass the wire value straight in, so any shape can arrive from
    # a Byzantine member: it is flagged, and the instance carries on
    flagged = []
    inst = VectorConsensus("test", list(range(7)), 0, 1, (1,),
                           lambda payload: None,
                           on_misbehavior=lambda m, why: flagged.append(
                               (m, why)))
    inst.start()
    inst.on_message(6, payload)
    assert len(flagged) == 1 and flagged[0][0] == 6
    for sender in range(1, 7):
        inst.on_message(sender, ("val", 1, (1,)))
    assert inst.decided and len(flagged) == 1
