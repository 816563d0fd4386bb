"""Perf-optimization parity: the hot-path rewrites must be invisible.

The PR that introduced memoized canonical encoding, digest-based MACs and
the incremental ack vector (docs/PERFORMANCE.md) claims they are pure
wall-clock optimizations: same seed, byte-identical simulated history,
identical metric exports.  These tests prove it by running the fuzzer's
scenario machinery with each optimization switched back to its reference
implementation and comparing full per-node histories and the complete
metrics export.

Switches under test:

* ``Message.auth_cache_enabled`` -- off = re-encode/re-hash per call;
* ``Message.auth_token_mode`` -- ``"content"`` = MAC over the full
  canonical byte string (the pre-optimization MAC input) instead of its
  SHA-256 digest;
* ``ReliableLayer.incremental_ack_vector`` -- off = rebuild + repr-sort
  the delivered vector from scratch on every drain, and feed the full
  vector (not the delta) to the stability tracker;
* ``ReliableLayer.ack_vector_memo`` -- off = every received ack is
  re-validated and re-merged even when it is the identical memoized
  tuple the sender already sent;
* ``Simulator.serial_queues`` -- off = every CPU-completion event sits
  in the global heap instead of the per-node serial-queue k-way merge;
* ``BottomLayer.batch_verify`` -- off = packed datagrams verify each
  inner message through the per-message reference path instead of one
  ``verify_batch`` call per drain.

The differential oracle needs a reference path to compare against.  Where
there is none -- the one ordering instance manager serves both
``ordering_fast_path`` modes -- committed golden digests pin the per-seed
executions instead (``GOLDEN_ORDERING`` below; ROADMAP item 2's oracle).
"""

import hashlib
from contextlib import contextmanager

import pytest

from repro import StackConfig
from repro.core.message import Message
from repro.layers.bottom import BottomLayer
from repro.layers.reliable import ReliableLayer
from repro.sim.scheduler import Simulator
from repro.tools.fuzzer import ScenarioFuzzer


@contextmanager
def switches(cache=True, token_mode="digest", incremental=True,
             ack_memo=True, serial=True, batch=True):
    saved = (Message.auth_cache_enabled, Message.auth_token_mode,
             ReliableLayer.incremental_ack_vector,
             ReliableLayer.ack_vector_memo,
             Simulator.serial_queues, BottomLayer.batch_verify)
    Message.auth_cache_enabled = cache
    Message.auth_token_mode = token_mode
    ReliableLayer.incremental_ack_vector = incremental
    ReliableLayer.ack_vector_memo = ack_memo
    Simulator.serial_queues = serial
    BottomLayer.batch_verify = batch
    try:
        yield
    finally:
        (Message.auth_cache_enabled, Message.auth_token_mode,
         ReliableLayer.incremental_ack_vector,
         ReliableLayer.ack_vector_memo,
         Simulator.serial_queues, BottomLayer.batch_verify) = saved


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


VARIANTS = {
    "no-cache": dict(cache=False),
    "content-macs": dict(token_mode="content"),
    "full-ack-vector": dict(incremental=False),
    "no-ack-memo": dict(ack_memo=False),
    "heap-schedule": dict(serial=False),
    "per-frame-verify": dict(batch=False),
    "all-reference": dict(cache=False, token_mode="content",
                          incremental=False, ack_memo=False,
                          serial=False, batch=False),
}


def assert_parity(seed, config, **fuzz_kw):
    with switches():
        optimized = run_scenario(seed, config, **fuzz_kw)
    for name, kw in VARIANTS.items():
        with switches(**kw):
            reference = run_scenario(seed, config, **fuzz_kw)
        assert reference[0] == optimized[0], \
            "histories diverge under %s (seed %d)" % (name, seed)
        assert reference[1] == optimized[1], \
            "metric exports diverge under %s (seed %d)" % (name, seed)
        assert reference[2] == optimized[2], \
            "event counts diverge under %s (seed %d)" % (name, seed)


def test_parity_sym_crypto():
    # the fig5 sym-crypto shape: the workload the digest-MAC optimization
    # targets; TwoFacedCaster (drawn by some seeds) exercises the
    # re-sign-after-mutation path against the memoized digest
    assert_parity(101, StackConfig.byz(crypto="sym"))


def test_parity_pub_crypto():
    assert_parity(202, StackConfig.byz(crypto="pub"))


def test_parity_packing():
    # packing + sym crypto: the batched pack-flush path plus per-receiver
    # MAC vectors
    assert_parity(303, StackConfig.byz(crypto="sym", packing=True))


def test_parity_total_order_fast_path_off():
    # total ordering with the ordering_fast_path knob at its default
    # (off): the six reference paths must stay invisible underneath
    # consensus-based ordering too
    assert_parity(606, StackConfig.byz(crypto="sym", total_order=True))


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
    histories, bookkeeping = scenario_digests(seed, config, n=8)
    golden = GOLDEN_ORDERING[fast, seed]
    assert histories == golden[0], \
        "ordering BEHAVIOUR moved: GOLDEN_ORDERING[(%r, %d)] history " \
        "half is now %r" % (fast, seed, histories)
    assert bookkeeping == golden[1], \
        "ordering bookkeeping moved (histories identical): " \
        "GOLDEN_ORDERING[(%r, %d)] bookkeeping half is now %r" \
        % (fast, seed, bookkeeping)


def test_parity_wire_knobs():
    """The wire-path coalescing knobs live strictly below the ``network``
    seam: the simulator never reads them, so any combination must leave
    the simulated history byte-identical per seed."""
    base = run_scenario(505, StackConfig.byz(crypto="sym"))
    for overrides in (dict(wire_coalesce=False),
                      dict(wire_mtu=1000, wire_coalesce_delay=0.1),
                      dict(wire_coalesce=False, wire_mtu=64000)):
        variant = run_scenario(
            505, StackConfig.byz(crypto="sym").clone(**overrides))
        assert variant == base, \
            "sim history depends on wire knobs %r" % (overrides,)


def test_switches_restore():
    with switches(cache=False, token_mode="content", incremental=False,
                  ack_memo=False, serial=False, batch=False):
        assert Message.auth_cache_enabled is False
        assert Message.auth_token_mode == "content"
        assert ReliableLayer.incremental_ack_vector is False
        assert ReliableLayer.ack_vector_memo is False
        assert Simulator.serial_queues is False
        assert BottomLayer.batch_verify is False
    assert Message.auth_cache_enabled is True
    assert Message.auth_token_mode == "digest"
    assert ReliableLayer.incremental_ack_vector is True
    assert ReliableLayer.ack_vector_memo is True
    assert Simulator.serial_queues is True
    assert BottomLayer.batch_verify is True
