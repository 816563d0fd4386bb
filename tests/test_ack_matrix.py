"""The ack matrix against a reference model, and the coordinator-hash memo.

``StabilityTracker`` keeps one count row per member in ``ack_layout``
column order; this member's row is the reliable layer's own count list.
The model below is the nested-dict matrix the tracker replaced: every
feed max-merges one ``(member, origin, stream)`` entry.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.helpers import ack_row
from tests.stubs import stub_for

from repro.consensus.vector import _stable_hash
from repro.core import message as mk
from repro.core.message import Message
from repro.layers.reliable import STREAM_APP, STREAM_CTL, ReliableLayer
from repro.layers.stability import FUZZY_FLOW_THRESHOLD

MEMBERS = (0, 1, 2, 3)
STREAMS = (STREAM_APP, STREAM_CTL)
COLUMNS = [(origin, stream) for origin in MEMBERS for stream in STREAMS]

member = st.sampled_from(MEMBERS)
peer = st.sampled_from(MEMBERS[1:])
column = st.sampled_from(COLUMNS)
count = st.integers(0, 6)

op = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(STREAMS)),
    st.tuples(st.just("top"), peer, st.sampled_from(STREAMS), count),
    # a peer's row: any counts, so a later row may lower a column
    st.tuples(st.just("ack"), peer,
              st.dictionaries(column, count, max_size=len(COLUMNS))),
    st.tuples(st.just("fuzzy"), peer, st.floats(0.0, 3.0)),
)


class Model:
    """The reference matrix: ``acked[member][(origin, stream)]``."""

    def __init__(self, me):
        self.me, self.acked, self.sent = me, {}, dict.fromkeys(STREAMS, 0)

    def feed(self, who, origin, stream, cum):
        row = self.acked.setdefault(who, {})
        row[origin, stream] = max(row.get((origin, stream), 0), cum)

    def acked_seq(self, who, origin, stream):
        return self.acked.get(who, {}).get((origin, stream), 0)

    def min_ack(self, origin, stream, levels, ignore_fuzzy):
        values = [self.acked_seq(who, origin, stream) for who in MEMBERS
                  if not (ignore_fuzzy and who != self.me
                          and levels.get(who, 0.0) >= FUZZY_FLOW_THRESHOLD)]
        return min(values, default=0)

    def all_stable(self, cut, members):
        return all(self.acked_seq(who, origin, STREAM_APP) >= last
                   for origin, last in cut.items() if last > 0
                   for who in members)

    def unstable(self):
        return any(self.acked_seq(who, *col) < self.acked_seq(self.me, *col)
                   for who in MEMBERS if who != self.me for col in COLUMNS)


@settings(max_examples=200, deadline=None)
@given(st.lists(op, max_size=30),
       st.dictionaries(member, count, max_size=4),
       st.lists(member, max_size=4, unique=True))
# a Byzantine peer lowers a column it acked: its row keeps the higher count
@example([("ack", 1, {(2, "a"): 5}), ("ack", 1, {(2, "a"): 3}),
          ("ack", 1, {(2, "a"): 4})], {2: 5}, [0, 1])
def test_ack_matrix_matches_reference_model(ops, cut, members):
    process = stub_for(ReliableLayer())
    layer, tracker, me = process.layer, process.stability, process.node_id
    model = Model(me)
    for step in ops:
        if step[0] == "send":
            stream = step[1]
            kind = mk.KIND_CAST if stream == STREAM_APP else mk.KIND_CONSENSUS
            model.sent[stream] += 1
            msg_id = (me, model.sent[stream]) if stream == STREAM_APP else None
            layer.handle_down(Message(kind, me, process.view.vid, ("x",),
                                      msg_id=msg_id))
            model.feed(me, me, stream, model.sent[stream])
        elif step[0] == "top":
            _, origin, stream, top = step
            layer.drained(origin, stream, top)
            model.feed(me, origin, stream, top)
        elif step[0] == "ack":
            _, sender, counts = step
            msg = Message(mk.KIND_ACK, sender, process.view.vid,
                          ack_row(MEMBERS, counts))
            msg.sender = sender
            layer.handle_up(msg)
            if all(counts.get((me, s), 0) <= model.sent[s] for s in STREAMS):
                for (origin, stream), cum in counts.items():
                    model.feed(sender, origin, stream, cum)
        else:
            process.mute_levels.raise_level(step[1], step[2])
        levels = dict(process.mute_levels._levels)
        for who in MEMBERS:
            for origin, stream in COLUMNS:
                assert (tracker.acked_seq(who, origin, stream)
                        == model.acked_seq(who, origin, stream))
        for origin, stream in COLUMNS:
            for fuzzy in (True, False):
                assert (tracker.min_ack(origin, stream, MEMBERS, fuzzy)
                        == model.min_ack(origin, stream, levels, fuzzy))
        assert (tracker.all_stable(cut, members)
                == model.all_stable(cut, members))
        # every step: the stable-row memo must never hide a lower row
        assert layer._unstable(layer._delivered_row()) == model.unstable()
    # this member's row is the reliable layer's count list itself
    assert tracker.row(me) is layer._counts


def plain_fnv(n, seed):
    acc = 2166136261
    for token in (n, seed):
        for byte in repr(token).encode("utf-8"):
            acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
    return acc


def test_stable_hash_memo_keys_on_repr():
    # equal, alike-hashing seeds whose reprs differ: a value-keyed cache
    # would hand all three the first one's coordinator
    seeds = [("ord", 1, 0, 5), ("ord", True, 0, 5), ("ord", 1.0, 0, 5)]
    assert seeds[0] == seeds[1] == seeds[2]
    assert len({hash(seed) for seed in seeds}) == 1
    for _ in range(2):
        assert [_stable_hash(8, seed) for seed in seeds] == [
            plain_fnv(8, seed) for seed in seeds]
    assert [_stable_hash(8, seed) % 8 for seed in seeds] == [1, 4, 3]
    assert _stable_hash(True, "x") == plain_fnv(True, "x") != plain_fnv(1, "x")
