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
#: seed's plan is ``scenario-<seed>`` in ``tests/golden_plans.json``.
#: Re-recorded since, from checker-clean replays: by the reliable
#: layer's one repair record aimed at holders, 101's bookkeeping half (two
#: fewer NAKs, identical histories) and both of 505's halves (its repairs
#: ask survivors that hold the cut, so its regroup runs differently);
#: 202, 303 and 505, both halves, by the deciding coordinator that sends
#: no coord (membership's failed-set agreement sends one message fewer
#: per one-round instance, so the view changes run on shifted timing; 101
#: and 606 did not move); and 505, both halves, by the stream drain that
#: stops once a delivery installed a view (the drain that delivered the
#: uniform broadcast carrying the view armed a repair timer on the cleared
#: record, which nothing cancelled: it NAKed old-view seqs into the later
#: views until the run ended, so the merges after 0.3 s ran on other
#: timing); and all five, both halves, by acks riding the heartbeat tick
#: (the vector leaves every 20 ms instead of every 12 ms, a delivered
#: flush cut is acked at once, and the vector lists a member's own
#: streams once, so every later datagram and ack size moves); and all
#: five, bookkeeping half, by the self-delivery that checks its view (a
#: member's own copy of a broadcast sent just before a view installed no
#: longer lands in the new view's record, where it armed a repair timer
#: for a hole that never fills: 12 fewer events on 101), with 505's
#: history half too, by the flush ack skipped when the last ack carried
#: the same vector, and 202's, by the join that flushes the view it
#: leaves.  The archive trim that waits for every view member moved none.
#: 303, both halves, by the pack queue's removal: its plan ran with
#: ``packing`` on and now sends one datagram per message, as the others.
GOLDEN_SCENARIOS = {
    101: (
        "00538d1b5f2bfeb9ede2e77533782215e9eef4e62b0afec30a96378995826fd5",
        "33b96350059b1afeeca07f82a69db2a3c2b516aab47e9c73488c76735174bf09"),
    202: (
        "b007c623d9ee8b709cf094843a7edd97696c430258601aa1784157bb45e6b7f1",
        "4fcbd1530c54cbdb2ab283e9d6db1665753bca24631a1dbeac495648cf3567ae"),
    303: (
        "d9aa568acb620e4a7f5ac27f7db3ad27087111112504569207193cd01478c834",
        "08b925c4bbf7e32a08ef2c4e1a4273aa98e38cb36cd7366af26ddd4814a9504b"),
    505: (
        "64de0d06ae56294939f44f6aacd8a59d48f7f6da69778214ffa58a3813d7c5e2",
        "d6ad92e4ee4f83d2adf630cb64e6e8cecfda950502d89dfe337f8a5f103492e8"),
    606: (
        "28021543561df04b37f5b4131474c307f229f091ac404b9d0a32058f934dce29",
        "507bac2cca79ef817d021fe3c53435cf240d8392bb691feeb43404c55a50fc44"),
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


def test_parity_sym_crypto_through_partitions_and_join():
    # sym crypto under churn: a two-faced caster, a crash, two partitions,
    # a join, a heal and a leave, with per-receiver MAC vectors throughout
    assert_scenario(303)


def test_parity_verbose_node_through_partitions_crash_and_joins():
    # sym crypto under a verbose Byzantine member, two partitions, a
    # crash, two joins and a leave
    assert_scenario(505)


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
#: classic entries did not move); all eight, both halves, by the deciding
#: coordinator that sends no coord (a one-round instance costs n
#: broadcasts instead of n + 1, which shifts every later datagram); and
#: both 606 entries, both halves, by the uniform broadcast that echoes
#: once per value (the leaver, member 3, runs its own ``('nv', (2, '1'),
#: 1)`` instance as origin over survivors the others do not share; having
#: echoed member 2's view it never echoed its own, and now it does, which
#: shifts later datagrams -- the others ignore that echo, since 3 is not in
#: their member list; the other six entries did not move); and all eight,
#: both halves, by acks riding the heartbeat tick (as GOLDEN_SCENARIOS);
#: and all eight, bookkeeping half, by the self-delivery that checks its
#: view (as GOLDEN_SCENARIOS; the boot's merge into view 1 is a view
#: change too), with both 14 entries' history halves too (member
#: 1002 runs its singleton's change in one instant, so the
#: self-deliveries of its five ctl messages landed after the install and
#: took seqs 1-5 of the new view's record, where its own first five ctl
#: messages of that view were then dropped as duplicates).
#: Every entry is recorded from an execution the Definition 2.1/2.2
#: checker passes.
GOLDEN_ORDERING = {
    (False, 11): (
        "1ebe9529a5703a19f792c63be565a7b647ab5c74bccc22f2250069a543a0179f",
        "d43590ecec5df040baca90f9268493351a323cef6bde1561099b840da19395ee"),
    (False, 13): (
        "8e5c85b6a4ab24bfe029f9a1613fc537260be20b63a6ef3d7db61b9d3aa3f70e",
        "8f79f491c4a4df7f11e22bb6aad2b8b81c0d512fa9616beb3f5da7b486dbcd23"),
    (False, 14): (
        "83ec868f01b9f4ea15896d9d909cb6a9b2130356c8f47aa2ccaef4c95bbbd310",
        "721cb4e6db7d3462ef59d0864dae891281b9e6c18a5507737f271b7007794130"),
    (False, 606): (
        "7223d4cf8c9fecffab0bc1efe6a129be731bb4a8d15fd6c81477bf346adb08eb",
        "25f7332d2ff6ff43f051a18a06f4f6ca20d928e3d5bec36bae4fb4fbe064a651"),
    (True, 11): (
        "0fa6996b0d0b86a8282e1ec068eb11bbe254c8ac6c94c6d7a9ecbec25ad8cf0f",
        "d7c13ad9e39fda3b8f223c9778ec1780935239a2e69d0d390f90857562f4fc9a"),
    (True, 13): (
        "ba9992c64e5a4e2fcdd1e6b4ed48c2db2bb60bee7d536805123770afbf753e60",
        "355a126fd65ead9a984293295ecc1a52f61723995a01e782c0c7bf7a1fd16866"),
    (True, 14): (
        "e56f109d645329ca629eccad7f143ab73d11991c6d8e7a1b49b80d164cf7a0d5",
        "41c6147af59cab0ce0f6b51658c2f208a4d8ef7177cf0fe42e2f48b33c0d1404"),
    (True, 606): (
        "9eabdfff1425418d743bd8a33eefcf3ebdb801830e1e913ee1d421b11d2804ab",
        "7e67e3b638203965f5ccf1ad517470d195d05d4bed26e8a0a38677c62f9db1b4"),
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
