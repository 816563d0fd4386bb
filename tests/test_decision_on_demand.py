"""Ordering announces decisions on demand (DESIGN section 6, deviation 9).

No ``dec`` is broadcast at decide time; a ``val`` that reaches a member
after it finished the instance is answered from the bounded decision
archive, once per instance.  These tests pin the exact message counts of
the failure-free case and walk every way a member can be behind: a round
that did not complete with everyone else's, a Byzantine replay, and the
undecidable view-change flush (a frozen in-flight instance and one opened
only to adopt).
"""

from __future__ import annotations

from collections import Counter

import pytest

from tests.helpers import DatagramLog, cast_ids, cast_payloads, make_group

from repro.core import message as mk
from repro.core.message import Message
from repro.layers import ordering as ordering_module

N = 8       # n > 6f with f = 1


def boot(seed):
    group = make_group(N, seed=seed, crypto="sym", total_order=True,
                       ordering_fast_path=False)
    layers = {node: p.stack.layer("ordering")
              for node, p in group.processes.items()}
    return group, layers


def record_broadcasts(layers):
    """Log every ordering broadcast as (node, k, kind, proto)."""
    log = []
    for node, layer in layers.items():
        def spy(k, proto, _node=node, _send=layer._bcast_proto):
            log.append((_node, k, proto[0], proto))
            _send(k, proto)
        layer._bcast_proto = spy
    return log


class Hold:
    """Parks the ordering messages reaching one member until released."""

    def __init__(self, layer, keep=lambda msg: True):
        self.layer = layer
        self.keep = keep
        self.held = []
        layer._on_order_msg = self._intercept

    def _intercept(self, msg):
        if self.keep(msg):
            self.held.append(msg)
        else:
            type(self.layer)._on_order_msg(self.layer, msg)

    def release(self):
        del self.layer._on_order_msg
        held, self.held = self.held, []
        for msg in held:
            self.layer._on_order_msg(msg)


def decs_by(log, k):
    return Counter(node for node, kk, kind, _ in log
                   if kk == k and kind == "dec")


# ----------------------------------------------------------------------
# (a) failure-free: zero dec, n broadcasts per one-round instance (the
# deciding coordinator sends no coord: DESIGN section 6, deviation 13)
# ----------------------------------------------------------------------
def test_failure_free_run_broadcasts_no_dec_and_n_per_instance():
    group, layers = boot(seed=21)
    log = record_broadcasts(layers)
    for step in range(30):
        group.sim.schedule(0.0033 * step,
                           group.endpoints[step % 4].cast, ("c", step))
    group.run(0.5)
    assert {len(cast_ids(e)) for e in group.endpoints.values()} == {30}
    assert not [entry for entry in log if entry[2] == "dec"]
    per_instance = {}
    for _node, k, kind, proto in log:
        per_instance.setdefault(k, []).append((kind, proto))
    assert len(per_instance) >= 10
    single_round = 0
    for k, sent in per_instance.items():
        if any(kind == "val" and proto[1] > 1 for kind, proto in sent):
            continue
        single_round += 1
        kinds = Counter(kind for kind, _ in sent)
        assert kinds == {"val": N}, (k, kinds)
    assert single_round >= 10
    assert all(layer._decided_k == len(per_instance)
               for layer in layers.values())
    group.stop()


@pytest.mark.parametrize("fast", [False, True])
def test_under_load_only_a_coordinator_that_did_not_decide_sends_coord(fast):
    # the ledger's order workload in miniature (four casters 3.3 ms apart),
    # tapped on the simulated network: a coord for round r of instance k
    # leaves only a coordinator that goes on to round r + 1 of k, i.e. one
    # that did not decide in round r (DESIGN section 6, deviation 13)
    group = make_group(N, seed=23, crypto="sym", total_order=True,
                       ordering_fast_path=fast)
    log = DatagramLog(group)
    casts = 120
    for step in range(casts):
        group.sim.schedule(0.0033 * (step // 4) + 0.0011 * (step % 4),
                           group.endpoints[step % 4].cast, ("c", step))
    group.run(0.3)
    assert {len(cast_ids(e)) for e in group.endpoints.values()} == {casts}
    sent = {kind: set() for kind in ("val", "coord")}
    for _t, src, _dst, msg in log.select(mk.KIND_ORDER):
        _tag, k, proto = msg.payload
        if proto[0] in sent:
            sent[proto[0]].add((src, k, proto[1]))
    assert sent["coord"]            # some instances do take a second round
    assert all((src, k, rnd + 1) in sent["val"]
               for src, k, rnd in sent["coord"])
    decided = group.processes[0].ordering._decided_k
    assert len(sent["coord"]) < decided / 2
    group.stop()


# ----------------------------------------------------------------------
# (b) a member whose round did not complete with the others'
# ----------------------------------------------------------------------
def test_straggler_draws_one_dec_per_decided_peer_and_converges():
    group, layers = boot(seed=22)
    straggler, slow_peer = 5, 6
    behind = layers[straggler]
    # the straggler proposes an empty batch, suspects one peer and does not
    # hear it: its round 1 ends on n - f estimates short of the n - f
    # matching ones a decision needs, while everyone else hears all eight
    behind._proposal = lambda: ()
    behind.process.suspicion.suspects = lambda member: member == slow_peer
    hold = Hold(behind, keep=lambda msg: msg.origin == slow_peer)
    log = record_broadcasts(layers)
    group.endpoints[0].cast("x")
    group.run(0.02)
    deciders = [node for node in layers if node != straggler]
    assert ("val", 2) in {(kind, proto[1]) for node, k, kind, proto in log
                          if node == straggler and k == 1 and kind == "val"}
    # every peer that had finished instance 1 answered the round-2 val
    # with exactly one dec; the straggler decided from them
    assert decs_by(log, 1) == Counter(deciders)
    assert behind._decided_k == 1
    assert cast_payloads(group.endpoints[straggler]) == ["x"]
    # the late round-1 val of the peer it never heard is itself a val for
    # a finished instance: one answer from the straggler, then silence
    hold.release()
    group.run(0.02)
    assert decs_by(log, 1) == Counter(deciders + [straggler])
    assert {tuple(cast_payloads(e)) for e in group.endpoints.values()} == {
        ("x",)}
    group.stop()


# ----------------------------------------------------------------------
# (c) Byzantine replay of old vals
# ----------------------------------------------------------------------
def test_replayed_vals_draw_one_dec_per_instance_inside_the_window(
        monkeypatch):
    window = 4
    monkeypatch.setattr(ordering_module, "MAX_INSTANCE_SKEW", window)
    group, layers = boot(seed=23)
    for step in range(10):
        group.sim.schedule(0.004 * step, group.endpoints[0].cast, ("c", step))
    group.run(0.3)
    decided = layers[0]._decided_k
    assert decided >= window + 3
    assert all(len(layer._decisions) == window for layer in layers.values())
    log = record_broadcasts(layers)
    byzantine = 7
    vid = group.processes[0].view.vid
    for _replay in range(3):
        for k in range(1, decided + 1):
            for node, layer in layers.items():
                if node != byzantine:
                    layer._on_order_msg(Message(
                        mk.KIND_ORDER, byzantine, vid,
                        ("ord", k, ("val", 1, ((),)))))
        group.run(0.02)
    answered = Counter((node, k) for node, k, kind, _ in log if kind == "dec")
    assert set(answered.values()) == {1}
    assert {k for _node, k in answered} == set(
        range(decided - window + 1, decided + 1))
    assert {node for node, _k in answered} == set(layers) - {byzantine}
    group.stop()


# ----------------------------------------------------------------------
# (d) undecidable flush: frozen in flight, and opened only to adopt
# ----------------------------------------------------------------------
@pytest.mark.parametrize("laggards", [("frozen",), ("absent",),
                                      ("frozen", "absent")])
def test_undecidable_flush_finishes_by_adopting_on_demand_decs(laggards):
    group, layers = boot(seed=24)
    frozen = 5 if "frozen" in laggards else None
    absent = 6 if "absent" in laggards else None
    holds = []
    if absent is not None:
        # never starts instance 1 (no tick, hears nothing); the others
        # suspect it, so they decide without its val
        for node, layer in layers.items():
            if node != absent:
                layer.process.suspicion.suspects = (
                    lambda member: member == absent)
        layers[absent]._ticker.stop()
        holds.append(Hold(layers[absent]))
    if frozen is not None:
        # starts instance 1 -- every decision counts its val -- but hears
        # nobody, so it is still in flight when the flush freezes it
        holds.append(Hold(layers[frozen]))
    group.endpoints[0].cast("y")
    group.run(0.02)
    deciders = [node for node in layers if node not in (frozen, absent)]
    assert all(layers[node]._decided_k == 1 for node in deciders)
    marks = {node: layer.freeze_for_flush(True)
             for node, layer in layers.items()}
    assert {marks[node] for node in deciders} == {(1, 1)}
    assert frozen is None or marks[frozen] == (1, 0)
    assert absent is None or marks[absent] == (0, 0)
    for hold in holds:
        hold.release()
    # frozen: all eight vals in hand, and still no round may complete
    assert frozen is None or layers[frozen]._decided_k == 0
    log = record_broadcasts(layers)
    done = []
    k_star = max(decided for _started, decided in marks.values())
    # each member's cut completes at its own time: the laggards flush one
    # after the other, so the second finds every decider's one answer
    # already spent -- and waiting among its early messages
    for node in deciders + [n for n in (frozen, absent) if n is not None]:
        layers[node].flush(k_star, lambda node=node: done.append(node),
                           undecidable=True)
        group.run(0.02)
    assert sorted(done) == sorted(layers)
    # one dec per decider serves every laggard (f + 1 are enough to adopt);
    # a laggard that adopted before another's val reached it answers too
    answered = decs_by(log, 1)
    assert set(answered.values()) == {1}
    assert set(deciders) <= set(answered)
    assert all(not layer._instances and layer._decided_k == 1
               for layer in layers.values())
    assert {tuple(cast_payloads(e)) for e in group.endpoints.values()} == {
        ("y",)}
    group.stop()
