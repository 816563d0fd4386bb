"""Golden digests: the hot-path optimizations change no simulated result.

The memoized auth digest, the incremental ack vector with its
receive-side ack diff and the per-node serial queues of CPU completions
(docs/PERFORMANCE.md) are pure wall-clock optimizations: same seed,
byte-identical per-node histories, identical metric exports and event
counts.  Each used to be checked differentially against a reference
implementation kept alive behind a switch.  ``GOLDEN_SCENARIOS`` pins the
scenarios that oracle ran, recorded in the commit where every
differential check last passed on the same seed: each pinned pair is the
reference paths' output, frozen, and the reference paths are gone.
``GOLDEN_ORDERING`` pins the ordering executions the same way (ROADMAP
item 2's oracle).  How a half is re-recorded is in the comment above it.

Every scenario is a committed :class:`~repro.chaos.plan.FaultPlan` in
``tests/golden_plans.json`` (its config included), replayed by the chaos
engine.  Written to a file of its own, any one of them replays by hand
with ``python -m repro chaos --replay``.
"""

import hashlib

import pytest

from tests.helpers import golden_plan

from repro.chaos import ChaosEngine


def run_scenario(plan):
    """Replay one plan; returns (history fingerprint, metrics export,
    event count).  The execution is also held to the Definition 2.1/2.2
    checker, so a re-recorded golden cannot pin a violation."""
    engine = ChaosEngine(plan).run(settle=2.0)
    assert engine.check() == []
    group = engine.group
    fingerprint = []
    for node in sorted(group.processes, key=repr):
        history = group.processes[node].history
        fingerprint.append((node, tuple(map(repr, history.events))))
    export = tuple(map(repr, group.metrics.rows()))
    events = group.sim.events_processed
    group.stop()
    return tuple(fingerprint), export, events


#: The (history, bookkeeping) digest pair -- the halves as in
#: ``GOLDEN_ORDERING`` below -- of each scenario the differential oracle
#: ran, recorded in the same commit as a passing differential check on the
#: same seed, so every pair is also every reference path's output.  Each
#: seed's plan is ``scenario-<seed>`` in ``tests/golden_plans.json``.  Seed
#: 505 is the wire-knob scenario: all four knob combinations must hash to
#: it.  Re-recorded since, from checker-clean replays: by the reliable
#: layer's one repair record aimed at holders, 101's bookkeeping half (two
#: fewer NAKs, identical histories) and both of 505's halves (its repairs
#: ask survivors that hold the cut, so its regroup runs differently).
GOLDEN_SCENARIOS = {
    101: (
        "a6b0f49b58ef4ec1cdb9d84b4b131bcb5f4f8e57e3f23c8664663c5e11e083bc",
        "780094529d7a59ff217ac03e2e813eaf7dd2fa7efe04bdf87ff4d56f9319a286"),
    202: (
        "ac0e26040843380a6f7c40488bbe31fa2a1387a5e507db152d18ed71710a8b0c",
        "d97f250be5e55e5a6b69ebaff89aab6f93a55ebfab7ff6eec6b171b43a46d741"),
    303: (
        "4eebddadc46406a6166b34fdf340291fbe4127d496be8a46c78ac14bfc1bfe96",
        "dba6f8aa11f084a4af92b86264bf1afe8f275413fc565b5830da768bcac196d8"),
    505: (
        "1f0c2981c957b054100fe1be3e1fec63c342d3472a3112a2314d019eeec46828",
        "c0258471ece24aabeddbd97d676665140539f1946246e1524ae2f952ac13fbf1"),
    606: (
        "a0d4da078832c5546715347f406bb8792809ff3be61aa0f0360a07e82f9f6ea5",
        "6214539ddf847405d13b2613d0f7f9980b99b52e1c67b460bfdbff7997c63530"),
}


def assert_golden(name, golden, plan):
    """Hold one plan's replay to its pinned (history, bookkeeping) pair."""
    histories, bookkeeping = scenario_digests(plan)
    assert histories == golden[0], \
        "BEHAVIOUR moved: %s history half is now %r" % (name, histories)
    assert bookkeeping == golden[1], \
        "bookkeeping moved (histories identical): %s bookkeeping half " \
        "is now %r" % (name, bookkeeping)


def assert_scenario(seed):
    assert_golden("GOLDEN_SCENARIOS[%d]" % seed, GOLDEN_SCENARIOS[seed],
                  golden_plan("scenario-%d" % seed))


def test_parity_sym_crypto():
    # the fig5 sym-crypto shape: the workload the digest-MAC optimization
    # targets; TwoFacedCaster (drawn by some seeds) exercises the
    # re-sign-after-mutation path against the memoized digest
    assert_scenario(101)


def test_parity_pub_crypto():
    assert_scenario(202)


def test_parity_packing():
    # packing + sym crypto: the pack-flush path plus per-receiver MAC
    # vectors
    assert_scenario(303)


def test_parity_total_order_fast_path_off():
    # total ordering with the ordering_fast_path knob at its default
    # (off): the optimizations must stay invisible underneath
    # consensus-based ordering too
    assert_scenario(606)


#: Two pinned sha256 digests per committed plan ``ordering-<mode>-<seed>``
#: (n=8, ``crypto="sym", total_order=True`` and ``ordering_fast_path`` on
#: for the fast mode): the first over the per-node histories (what the
#: application saw, with simulated times), the second over the
#: bookkeeping (metric export + event count).  A change that
#: only moves how much scheduling work an execution costs -- fewer idle
#: timers -- re-records the second half alone, and the unchanged first half
#: is the proof that behaviour did not move.  Seeds 13 and 14 take a view
#: change under ordering.  An intended change re-records exactly the halves
#: it moves (the failure prints the new value) and says which in CHANGES.md.
#: Re-recorded so far: classic 13 and 14, both halves, by the first-suspicion
#: poke (the in-flight instance now decides instead of waiting for the
#: flush); all eight by the quiescent control plane (acks on demand, one
#: beacon) -- both halves except seed 11 (both modes), whose per-node
#: histories came out byte-identical; classic 13, both halves, by the cast
#: that opens its own instance at a dormant member (a burst of four casts
#: on an idle group now rides two instances, the first cast alone: the
#: second runs into the view change, so three of the four are delivered by
#: the flush 20 ms later and the leaver delivers one instead of four) --
#: the other seven entries did not move; fast 14, both halves, by the
#: reliable layer's one repair record (ack evidence now arms the repair
#: timer, so a stream missing a crashed member's last casts keeps asking
#: until the cut); all four fast entries, both halves, by the one ordering
#: engine (the echo round is gone, so every instance of the window is a
#: vector consensus proposing the whole undelivered buffer; the four
#: classic entries did not move).  Every entry is recorded from an
#: execution the Definition 2.1/2.2 checker passes.
GOLDEN_ORDERING = {
    (False, 11): (
        "3fb1e87a3c820d74eeabe4104b62e126ff6d333e0f77ae0fe08b9b037ee81c30",
        "6b62d9e563ca34561efb01c7573d6a6a3a41b21b6d79bdbef013a217643d94e4"),
    (False, 13): (
        "1e0863c4bbc3ac5693e104e5e8d40fb6be4400c5524f10d66bcbd26161863a91",
        "5d23823d10846d308dc633d799838f182f9f29e43041b8c38d96bfbbc45e8318"),
    (False, 14): (
        "ce0b14cc992467389faaf1790ada3c43729db1603cf83b81e9db33417e361f06",
        "f420c7d009f12f4ea7a7eca0156448edcf51fa7fb10735977234d112c9858dca"),
    (False, 606): (
        "e7e2ba3ac88018547845798fbb0855d8e1fcba9f945590aaca3676937441f916",
        "10fcd9dabb63fb78ef7fd235f3e3a4dae5f73d2690205605d95c686d7e9e0323"),
    (True, 11): (
        "1d27e7eea9d172682d717eaa865ee78757d0d90b33a96d54b1e344fdd6e40fa3",
        "2e3cbe84a38b5518bfd5e587dc82fbcc9829466c26d68f720a19e067553ead72"),
    (True, 13): (
        "3bd61d4c4a81a64e49c057902a77bedab73a8d2857ba2904588c4060b01bccfa",
        "6cb059136fa1366e5b0964ae8e6bb65fa2591c5593a1a621775c090dbd51dc6a"),
    (True, 14): (
        "82757706f721c59d839178d987acb78e684921cd7d30ac9f70709b42b1dbbeb7",
        "64523cef9abb5bbe7c2ac5b12a7a74bbec9ec85f7f98e7452917dd38c8f2b89e"),
    (True, 606): (
        "8d0deb4de1b818065fc161c8f65aa52514b90b00adcb57629b09c00e8520e9c6",
        "158d2cea0e0c53358e272695ab2be1e6d55c2c3b7d46c1daccef3fc6aeb11cee"),
}


def _sha(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def scenario_digests(plan):
    """(history digest, bookkeeping digest) of one plan's replay."""
    histories, export, events = run_scenario(plan)
    return _sha(histories), _sha((export, events))


@pytest.mark.parametrize("fast,seed", sorted(GOLDEN_ORDERING))
def test_golden_ordering_digest(fast, seed):
    plan = golden_plan("ordering-%s-%d" % ("fast" if fast else "classic",
                                           seed))
    assert_golden("GOLDEN_ORDERING[(%r, %d)]" % (fast, seed),
                  GOLDEN_ORDERING[fast, seed], plan)


def test_parity_wire_knobs():
    """The wire-path coalescing knobs live strictly below the ``network``
    seam: the simulator never reads them, so any combination must leave
    the simulated history byte-identical per seed."""
    for overrides in ({}, dict(wire_coalesce=False),
                      dict(wire_mtu=1000),
                      dict(wire_coalesce=False, wire_mtu=64000)):
        assert_golden("GOLDEN_SCENARIOS[505] with wire knobs %r"
                      % (overrides,), GOLDEN_SCENARIOS[505],
                      golden_plan("scenario-505", **overrides))

