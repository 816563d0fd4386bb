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
#: ask survivors that hold the cut, so its regroup runs differently);
#: 202, 303 and 505, both halves, by the deciding coordinator that sends
#: no coord (membership's failed-set agreement sends one message fewer
#: per one-round instance, so the view changes run on shifted timing; 101
#: and 606 did not move); and 505, both halves, by the stream drain that
#: stops once a delivery installed a view (the drain that delivered the
#: uniform broadcast carrying the view armed a repair timer on the cleared
#: record, which nothing cancelled: it NAKed old-view seqs into the later
#: views until the run ended, so the merges after 0.3 s ran on other
#: timing).
GOLDEN_SCENARIOS = {
    101: (
        "a6b0f49b58ef4ec1cdb9d84b4b131bcb5f4f8e57e3f23c8664663c5e11e083bc",
        "780094529d7a59ff217ac03e2e813eaf7dd2fa7efe04bdf87ff4d56f9319a286"),
    202: (
        "3f8415b13afb6709f42bd07dcc8c9624dde6f95f7c86fe988c82df0246d1f9af",
        "554c33947c144ce91d6bf625adf52267c7c0881100e037bfce7c5b2f0954afd9"),
    303: (
        "a96837523889dadcf463070b682ff859e417dca1696c811c888b7bf404b0a22f",
        "01c2944d83602fc4d4dfbf31b97aa48cddc84b498b2ebf07ad32ab5e57154c62"),
    505: (
        "723347c39457e396112f9a6f7bad9a19b88f74294b54a7ec764b54332a61fe29",
        "efc08009902eedcbf1b124da738375aa778429b393c0b644166b7af67858c0c5"),
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
#: classic entries did not move); all eight, both halves, by the deciding
#: coordinator that sends no coord (a one-round instance costs n
#: broadcasts instead of n + 1, which shifts every later datagram); and
#: both 606 entries, both halves, by the uniform broadcast that echoes
#: once per value (the leaver, member 3, runs its own ``('nv', (2, '1'),
#: 1)`` instance as origin over survivors the others do not share; having
#: echoed member 2's view it never echoed its own, and now it does, which
#: shifts later datagrams -- the others ignore that echo, since 3 is not in
#: their member list; the other six entries did not move).
#: Every entry is recorded from an execution the Definition 2.1/2.2
#: checker passes.
GOLDEN_ORDERING = {
    (False, 11): (
        "556166c84d3533f257921f42ac308b5ad67feaf35999c513190b946474f95466",
        "d6dfe98a28d0cd262a09846e7681398332b7d49ab585055973560107360dbb79"),
    (False, 13): (
        "7ed877361508efee8b878159afff542477b90f3eeefabd2f60df99ae775a5fa5",
        "981ee3fa313040919db33e0a84b8c088bab4026c2b9caabd0d1ec64a3b43bb6c"),
    (False, 14): (
        "2c5c1bca9d23abd62ece55191ffe40df342735ac442478e3563cfed149b38d34",
        "e2bfef1835bbba5e055311eea45bef80ee848347d8ca5f6ee53157e8c207f166"),
    (False, 606): (
        "05e77a50cbab1c8728b9815aa5ab295a1a4e4f77c43a01db93f09ebef01df369",
        "0e325ccada3d00cc54a4e874b43be5029a1b93a0db9c1a213eaaa995cea5e09f"),
    (True, 11): (
        "119d96f4efcf5dcf888dd424ce13b1943870b9cfec68533bf27d031d9c71ff17",
        "77174bead0ff616f5d41588f2ef70f5fcdcd145be65e765b7524bb72315553ec"),
    (True, 13): (
        "59e34e7a1afef118fe135e713ec142ab1dc90030e50a35bf9b09f6056df02756",
        "a3294669e2ed380ecb32c3533ee9fd748244c82faed994cd8a302574c9083cec"),
    (True, 14): (
        "ee6bb72aba6214b8cb61b1d41b800bee1f3ef21397e3388b6d2ecc7196570dfb",
        "7f62ade6f5269f173a327e1f7bc683101e421b2cdcc15865f561bf2471d48ce0"),
    (True, 606): (
        "aea4d11af161f5f64e21f6f7d2b700e8d5f56017529eec24f904a7fbdaa8b319",
        "ba570dadd1693bb6adccbeaebe043d71e3a0d9616483386d3ceb2f2c883637a5"),
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
    """The wire coalescer's byte budget lives strictly below the
    ``network`` seam: the simulator never reads it, so any value must
    leave the simulated history byte-identical per seed."""
    for overrides in ({}, dict(wire_mtu=1000), dict(wire_mtu=64000)):
        assert_golden("GOLDEN_SCENARIOS[505] with wire knobs %r"
                      % (overrides,), GOLDEN_SCENARIOS[505],
                      golden_plan("scenario-505", **overrides))

