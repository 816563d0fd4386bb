"""Property-based tests (hypothesis) for the agreement protocols."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.uniform import UniformBroadcast
from repro.consensus.interface import max_f_consensus, max_f_uniform
from repro.consensus.vector import VectorConsensus
from repro.sim.scheduler import Simulator


def run_consensus(n, f, proposals, seed, crashed=frozenset()):
    sim = Simulator(seed=seed)
    members = list(range(n))
    instances = {}
    decisions = {}

    def bcast_from(sender):
        def bcast(payload):
            if sender in crashed:
                return
            for receiver in members:
                if receiver != sender and receiver not in crashed:
                    sim.schedule(0.001 + sim.rng.random() * 0.002,
                                 lambda r=receiver, s=sender, p=payload:
                                 instances[r].on_message(s, p))
        return bcast

    for i in members:
        instances[i] = VectorConsensus(
            "p", members, i, f, proposals[i], bcast_from(i),
            is_suspected=lambda m: m in crashed,
            on_decide=lambda v, i=i: decisions.__setitem__(i, v),
            coordinator_seed=seed)
    for i in members:
        if i not in crashed:
            instances[i].start()
    sim.run(max_events=3_000_000)
    return decisions


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=7, max_value=15),
    st.data(),
    st.integers(min_value=0, max_value=2**31),
)
def test_consensus_agreement_validity_termination(n, data, seed):
    f = max_f_consensus(n)
    width = data.draw(st.integers(min_value=1, max_value=6))
    proposals = {
        i: tuple(data.draw(st.integers(min_value=0, max_value=2),
                           label="p%d_%d" % (i, k))
                 for k in range(width))
        for i in range(n)
    }
    decisions = run_consensus(n, f, proposals, seed)
    # termination: every process decides
    assert len(decisions) == n
    # agreement: one decision vector
    assert len(set(decisions.values())) == 1
    decided = next(iter(decisions.values()))
    # validity, per entry: unanimous input must be decided; any decided
    # value must have been proposed by someone
    for k in range(width):
        inputs = {proposals[i][k] for i in range(n)}
        if len(inputs) == 1:
            assert decided[k] == inputs.pop()
        else:
            assert decided[k] in inputs


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=13, max_value=15),
    st.integers(min_value=0, max_value=2**31),
    st.data(),
)
def test_consensus_with_crashes_still_agrees(n, seed, data):
    f = max_f_consensus(n)
    crashed = frozenset(data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1),
                min_size=0, max_size=f)))
    proposals = {i: ((i + seed) % 2, (i * 3 + seed) % 2) for i in range(n)}
    decisions = run_consensus(n, f, proposals, seed, crashed=crashed)
    live = [i for i in range(n) if i not in crashed]
    assert all(i in decisions for i in live)
    assert len({decisions[i] for i in live}) == 1


def run_broadcast(n, f, origin, seed, initials=None, echoes=None):
    """Run one UB instance over random delays; returns the deliveries.

    ``initials``: ``{receiver: value}`` scripts a Byzantine origin that
    shows each receiver its own initial and sends ``echoes``
    (``{receiver: value}``), running no correct instance itself.
    """
    sim = Simulator(seed=seed)
    members = list(range(n))
    instances = {}
    delivered = {}

    def bcast_from(sender):
        def bcast(payload):
            for receiver in instances:
                if receiver != sender:
                    sim.schedule(0.001 + sim.rng.random() * 0.002,
                                 lambda r=receiver, s=sender, p=payload:
                                 instances[r].on_message(s, p))
        return bcast

    for i in members:
        if initials is not None and i == origin:
            continue
        instances[i] = UniformBroadcast(
            ("t", 0), members, i, f, origin, bcast_from(i),
            on_deliver=lambda v, i=i: delivered.__setitem__(i, v))
    if initials is None:
        instances[origin].originate(("value", seed))
    else:
        script = [(r, ("ub-initial", v)) for r, v in initials.items()]
        script += [(r, ("ub-echo", v)) for r, v in echoes.items()]
        for receiver, payload in script:
            sim.schedule(0.001 + sim.rng.random() * 0.002,
                         instances[receiver].on_message, origin, payload)
    sim.run(max_events=1_000_000)
    return delivered


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=0, max_value=2**31),
)
def test_broadcast_delivers_origin_value(n, seed):
    f = max_f_uniform(n)
    delivered = run_broadcast(n, f, seed % n, seed)
    assert len(delivered) == n
    assert set(delivered.values()) == {("value", seed)}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=8, max_value=14),
    st.integers(min_value=0, max_value=2**31),
    st.data(),
)
def test_broadcast_two_faced_origin_all_or_none(n, seed, data):
    # a two-faced origin picks each receiver's initial and which members
    # get its echo (of either value): at quiescence the correct members
    # all deliver one common value, or none delivers
    f = max_f_uniform(n)
    origin = seed % n
    receivers = [i for i in range(n) if i != origin]
    initials = {r: data.draw(st.sampled_from("AB"), label="initial%d" % r)
                for r in receivers}
    echoes = {}
    for r in receivers:
        echo = data.draw(st.sampled_from([None, "A", "B"]),
                         label="echo%d" % r)
        if echo is not None:
            echoes[r] = echo
    delivered = run_broadcast(n, f, origin, seed, initials, echoes)
    assert len(set(delivered.values())) <= 1
    assert len(delivered) in (0, len(receivers))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_resilience_bound_helpers_consistent(n):
    fc = max_f_consensus(n)
    fu = max_f_uniform(n)
    assert n > 6 * fc
    assert n - fu >= n / 2.0 + 2 * fu + 1 or fu == 0
