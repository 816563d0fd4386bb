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
"""

import hashlib

import pytest

from repro import StackConfig
from repro.tools.fuzzer import ScenarioFuzzer


def run_scenario(seed, config, clean=False, **fuzz_kw):
    """One fuzzer scenario; returns (history fingerprint, metrics export,
    event count).  ``clean`` also holds the execution to the Definition
    2.1/2.2 checker, so a re-recorded golden cannot pin a violation."""
    fuzz_kw.setdefault("ops", 8)
    fuzzer = ScenarioFuzzer(seed, config=config, obs=True,
                            **fuzz_kw).execute()
    if clean:
        assert fuzzer.check() == []
    group = fuzzer.group
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
#: same seed, so every pair is also every reference path's output.  Seed
#: 505 is the wire-knob scenario: all four knob combinations must hash to
#: it.
GOLDEN_SCENARIOS = {
    101: (
        "a6b0f49b58ef4ec1cdb9d84b4b131bcb5f4f8e57e3f23c8664663c5e11e083bc",
        "c13dc087e56d2124894da9b76b234777a31a4eb62be2910814e89a36a435f587"),
    202: (
        "ac0e26040843380a6f7c40488bbe31fa2a1387a5e507db152d18ed71710a8b0c",
        "d97f250be5e55e5a6b69ebaff89aab6f93a55ebfab7ff6eec6b171b43a46d741"),
    303: (
        "4eebddadc46406a6166b34fdf340291fbe4127d496be8a46c78ac14bfc1bfe96",
        "dba6f8aa11f084a4af92b86264bf1afe8f275413fc565b5830da768bcac196d8"),
    505: (
        "9b8327a46ee6a1b0dc526fda30cacb1f6eded9b4559b6f95fdb188476575d646",
        "e203fb054823712ab30918daee869e08d6875a8c14fad77f32f9da9979397d6e"),
    606: (
        "a0d4da078832c5546715347f406bb8792809ff3be61aa0f0360a07e82f9f6ea5",
        "6214539ddf847405d13b2613d0f7f9980b99b52e1c67b460bfdbff7997c63530"),
}


def assert_golden(name, golden, seed, config, **fuzz_kw):
    """Hold one scenario to its pinned (history, bookkeeping) pair."""
    histories, bookkeeping = scenario_digests(seed, config, **fuzz_kw)
    assert histories == golden[0], \
        "BEHAVIOUR moved: %s history half is now %r" % (name, histories)
    assert bookkeeping == golden[1], \
        "bookkeeping moved (histories identical): %s bookkeeping half " \
        "is now %r" % (name, bookkeeping)


def assert_scenario(seed, config):
    assert_golden("GOLDEN_SCENARIOS[%d]" % seed, GOLDEN_SCENARIOS[seed],
                  seed, config)


def test_parity_sym_crypto():
    # the fig5 sym-crypto shape: the workload the digest-MAC optimization
    # targets; TwoFacedCaster (drawn by some seeds) exercises the
    # re-sign-after-mutation path against the memoized digest
    assert_scenario(101, StackConfig.byz(crypto="sym"))


def test_parity_pub_crypto():
    assert_scenario(202, StackConfig.byz(crypto="pub"))


def test_parity_packing():
    # packing + sym crypto: the pack-flush path plus per-receiver MAC
    # vectors
    assert_scenario(303, StackConfig.byz(crypto="sym", packing=True))


def test_parity_total_order_fast_path_off():
    # total ordering with the ordering_fast_path knob at its default
    # (off): the optimizations must stay invisible underneath
    # consensus-based ordering too
    assert_scenario(606, StackConfig.byz(crypto="sym", total_order=True))


#: Two pinned sha256 digests per ``run_scenario(seed, byz(crypto="sym",
#: total_order=True, ordering_fast_path=fast), n=8)``: the first over the
#: per-node histories (what the application saw, with simulated times), the
#: second over the bookkeeping (metric export + event count).  A change that
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
#: the other seven entries did not move.  Every entry is recorded from an
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
        "3e46fd979483d51b02056b99c689787775da40ea21c9d7f9ae6a3472b83bd4cf",
        "2aa061c5d152f2ad90109d4724cd0269c219a3df665af6662d7d74ba0ff379ec"),
    (True, 13): (
        "ad9614790734a51189fb0ab0224808c6f7952085bbb27ad787fead43f384ee21",
        "11c3034bf96b41600c4ac540bcc009c1b842b71d3c42b184b936914d60350337"),
    (True, 14): (
        "80964efcb70165e7c86d422af14fd12aa16f578d5e95257d3efc53cac3e57313",
        "c07595e65da65427f854b1d0be642640a9b4939ef42db85139b4e118242193c8"),
    (True, 606): (
        "dc5f69dcaef742c98c578e6302faadb81b5440b808dd76f384352de0f4318137",
        "6c3a3cf13776f150264707bca780dc0d9b15d3e822c7ab67bef5a04c67bb318c"),
}


def _sha(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def scenario_digests(seed, config, **fuzz_kw):
    """(history digest, bookkeeping digest) of one scenario."""
    histories, export, events = run_scenario(seed, config, clean=True,
                                             **fuzz_kw)
    return _sha(histories), _sha((export, events))


@pytest.mark.parametrize("fast,seed", sorted(GOLDEN_ORDERING))
def test_golden_ordering_digest(fast, seed):
    config = StackConfig.byz(crypto="sym", total_order=True,
                             ordering_fast_path=fast)
    assert_golden("GOLDEN_ORDERING[(%r, %d)]" % (fast, seed),
                  GOLDEN_ORDERING[fast, seed], seed, config, n=8)


def test_parity_wire_knobs():
    """The wire-path coalescing knobs live strictly below the ``network``
    seam: the simulator never reads them, so any combination must leave
    the simulated history byte-identical per seed."""
    for overrides in ({}, dict(wire_coalesce=False),
                      dict(wire_mtu=1000, wire_coalesce_delay=0.1),
                      dict(wire_coalesce=False, wire_mtu=64000)):
        assert_golden("GOLDEN_SCENARIOS[505] with wire knobs %r"
                      % (overrides,), GOLDEN_SCENARIOS[505], 505,
                      StackConfig.byz(crypto="sym").clone(**overrides))

