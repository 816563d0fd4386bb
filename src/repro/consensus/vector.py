"""Vector Byzantine consensus -- Algorithm 1 of the paper (n > 6f).

An event-driven implementation of the ◇P-mute-based protocol of Friedman,
Mostefaoui and Raynal, extended to *vectors*: the protocol is logically run
once per vector entry, in parallel, so agreement is reached independently
element-wise.  This is what lets the membership layer decide on the full
suspicion vector without one contested entry invalidating the agreed ones
(paper section 3.4.1), and -- with a 1-entry vector over message batches --
what implements total ordering (paper section 3.5).

Protocol messages (``payload`` tuples, carried over intra-view reliable
FIFO channels by the hosting layer):

* ``("val", r, est)``   -- round-r estimate broadcast (step 1);
* ``("coord", r, vec)`` -- the round-r coordinator's dominating vector,
  sent only in a round the coordinator does not decide;
* ``("dec", vec)``      -- a decided process's final value; satisfies both
  the ``val`` and the ``coord`` waits of every later round, as in the
  listing's lines 6 and 27.  Broadcast at decide time unless the host
  passed ``eager_dec=False`` and announces decisions itself (the ordering
  layer answers a straggler's ``val`` from its decision archive).

Round r's coordinator is ``members[(hash(n, vid) + r) mod n]`` -- rotated
every round so a mute coordinator delays at most one round, and seeded from
the view id so all members compute the same schedule locally.

In favourable runs (all core processes propose the same vector and nobody
is falsely suspected) the protocol decides in the first round -- the
property the paper's total-ordering throughput relies on.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from repro.consensus.interface import AgreementInstance

BOTTOM = None  # the ⊥ placeholder of the listing

#: payload length of each protocol message kind
_ARITY = {"val": 3, "coord": 3, "dec": 2}


def _stable_hash(n, seed):
    """Deterministic replacement for the listing's ``hash(n, view_id)``.

    Python's ``hash`` is randomized per interpreter; all members must agree
    on the coordinator schedule, so we use a tiny deterministic mix, FNV-1a
    over the reprs (memoized by repr: ``1`` and ``True`` must differ).
    """
    return _fnv(repr(n) + repr(seed))


@lru_cache(maxsize=256)
def _fnv(text):
    acc = 2166136261
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
    return acc


class VectorConsensus(AgreementInstance):
    """One consensus instance deciding a vector of values.

    Parameters
    ----------
    proposal:
        This process's input vector (any sequence of hashable values).
    coordinator_seed:
        Typically the view id; fixes the rotation schedule.
    on_round:
        Optional ``callback(round, awaited_members)`` fired when a round's
        step-1 wait begins -- the hosting layer uses it to register fuzzy
        mute expectations against members it has not heard from.
    eager_dec:
        ``False`` defers the listing's decide-time ``dec`` broadcast to the
        host, which must answer every ``val`` that reaches it after the
        decision with the decided vector.  ``dec_announced`` then says
        whether the instance had to announce anyway: a peer's ``val`` for a
        later round was already here, so that peer left the deciding round
        undecided and may send this instance nothing further.
    """

    def __init__(self, instance_id, members, me, f, proposal, broadcast,
                 is_suspected=None, on_decide=None, on_misbehavior=None,
                 coordinator_seed=0, on_round=None, max_rounds=1000,
                 dec_adoption_quorum=None, eager_dec=True):
        super().__init__(instance_id, members, me, f, broadcast,
                         is_suspected, on_decide, on_misbehavior)
        if self.n <= 6 * f:
            raise ValueError(
                "vector consensus needs n > 6f (n=%d, f=%d)" % (self.n, f)
            )
        self.eager_dec = eager_dec
        self.dec_announced = False
        self.est = list(proposal)
        self.width = len(self.est)
        self.on_round = on_round or (lambda rnd, awaited: None)
        self.max_rounds = max_rounds
        self.round = 0
        self.phase = None  # "val" (step 1 wait) or "coord" (step 2 wait)
        self._c0 = _stable_hash(self.n, coordinator_seed) % self.n
        self._val_msgs = {}    # round -> {sender: tuple(est)}
        self._coord_msgs = {}  # round -> vector from that round's coordinator
        self._dec_msgs = {}    # sender -> vector
        self._view = {}        # the matrix V_i, as {sender: vector}, per round
        self._dominating = None
        self._need_coord = None
        self._in_progress = False
        self._progress_again = False
        self._frozen = False
        self.rounds_executed = 0
        #: when set, adopt a decision after this many matching dec messages
        #: (used by the view-change flush when the round quorums are no
        #: longer reachable; see OrderingLayer.flush)
        self.dec_adoption_quorum = dec_adoption_quorum

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start(self):
        """Enter round 1 and broadcast the initial estimate."""
        if self.round != 0:
            raise RuntimeError("consensus instance already started")
        self._enter_round(1)

    def coordinator_of(self, rnd):
        return self.members[(self._c0 + rnd) % self.n]

    def on_message(self, sender, payload):
        if sender not in self.members:
            return
        # hosts hand the wire value straight in: a Byzantine member's
        # payload may be any shape, and must not raise inside this process
        if not isinstance(payload, tuple) or not payload:
            self.on_misbehavior(sender, "consensus:malformed")
            return
        kind = payload[0]
        arity = _ARITY.get(kind) if isinstance(kind, str) else None
        if arity is None:
            self.on_misbehavior(sender, "consensus:unknown-kind")
        elif len(payload) != arity:
            self.on_misbehavior(sender, "consensus:malformed")
        elif kind == "val":
            self._on_val(sender, payload[1], payload[2])
        elif kind == "coord":
            self._on_coord(sender, payload[1], payload[2])
        else:
            self._on_dec(sender, payload[1])
        self._progress()

    def notify_suspicion_change(self):
        if self.round:
            self._progress()

    def freeze_rounds(self):
        """Stop all round progression; only dec adoption can decide.

        Used during the view-change flush when the round quorums are no
        longer reachable: the instance must not race to a late quorum
        decision after its owner reported it undecided in SYNC.  Decs
        that arrived before the adoption quorum was set count toward it.
        """
        self._frozen = True
        self._adopt_if_quorum()

    def resolicit(self):
        """Repeat this round's ``val`` (peers still in the instance drop
        the duplicate): a frozen instance's way of asking members that
        finished it, and announce on demand, for their ``dec``."""
        if self.round and not self.decided:
            self.broadcast(
                ("val", self.round, self._val_msgs[self.round][self.me]))

    def state_size(self):
        """Retained-entry count, for the bounded-state checker."""
        return (len(self._dec_msgs) + len(self._coord_msgs)
                + sum(len(v) for v in self._val_msgs.values()))

    # ------------------------------------------------------------------
    # message intake
    # ------------------------------------------------------------------
    def _checked_vector(self, sender, vec, tag):
        if not isinstance(vec, (list, tuple)) or len(vec) != self.width:
            self.on_misbehavior(sender, "consensus:bad-%s-shape" % tag)
            return None
        vec = tuple(vec)
        try:
            hash(vec)
        except TypeError:
            # a Byzantine sender cannot crash us with unhashable entries
            self.on_misbehavior(sender, "consensus:bad-%s-entries" % tag)
            return None
        return vec

    def _on_val(self, sender, rnd, est):
        vec = self._checked_vector(sender, est, "val")
        if vec is None:
            return
        if not isinstance(rnd, int):
            self.on_misbehavior(sender, "consensus:bad-val-round")
            return
        per_round = self._val_msgs.setdefault(rnd, {})
        if sender in per_round:
            if per_round[sender] != vec:
                self.on_misbehavior(sender, "consensus:equivocated-val")
            return
        per_round[sender] = vec

    def _on_coord(self, sender, rnd, vec):
        checked = self._checked_vector(sender, vec, "coord")
        if checked is None:
            return
        if not isinstance(rnd, int):
            self.on_misbehavior(sender, "consensus:bad-coord-round")
            return
        if sender != self.coordinator_of(rnd):
            # a correct process never sends coord for a round it does not
            # coordinate -- a verbose failure by definition
            self.on_misbehavior(sender, "consensus:coord-usurper")
            return
        self._coord_msgs.setdefault(rnd, checked)

    def _on_dec(self, sender, vec):
        checked = self._checked_vector(sender, vec, "dec")
        if checked is None:
            return
        if sender in self._dec_msgs:
            if self._dec_msgs[sender] != checked:
                self.on_misbehavior(sender, "consensus:equivocated-dec")
            return
        self._dec_msgs[sender] = checked
        self._adopt_if_quorum()

    def _adopt_if_quorum(self):
        if self.dec_adoption_quorum is None or not self._dec_msgs:
            return
        vec, matching = Counter(self._dec_msgs.values()).most_common(1)[0]
        if matching >= self.dec_adoption_quorum:
            self._decide(vec)

    # ------------------------------------------------------------------
    # round machinery
    # ------------------------------------------------------------------
    def _enter_round(self, rnd):
        if rnd > self.max_rounds:
            raise RuntimeError(
                "consensus %r exceeded %d rounds" % (self.instance_id, self.max_rounds)
            )
        self.round = rnd
        self.rounds_executed += 1
        self.phase = "val"
        self._dominating = None
        self._need_coord = None
        est = tuple(self.est)
        self._val_msgs.setdefault(rnd, {})[self.me] = est
        self.broadcast(("val", rnd, est))
        self.on_round(rnd, self._awaited_members())
        self._progress()

    def _awaited_members(self):
        heard = self._heard_from(self.round)
        return [m for m in self.members if m not in heard]

    def _heard_from(self, rnd):
        """Members whose round-``rnd`` estimate is available (val or dec)."""
        heard = dict(self._val_msgs.get(rnd, {}))
        for sender, vec in self._dec_msgs.items():
            heard.setdefault(sender, vec)
        return heard

    def _progress(self):
        # guard against re-entrancy: broadcast() in a step may synchronously
        # loop a message back into on_message -> _progress
        if self._in_progress:
            self._progress_again = True
            return
        if self._frozen:
            return
        self._in_progress = True
        try:
            again = True
            while again and not self.decided and self.round:
                self._progress_again = False
                if self.phase == "val":
                    self._try_finish_step1()
                elif self.phase == "coord":
                    self._try_finish_step2()
                again = self._progress_again
        finally:
            self._in_progress = False

    def _try_finish_step1(self):
        vals, decs = self._val_msgs.get(self.round, {}), self._dec_msgs
        heard = len(vals) + sum(1 for sender in decs if sender not in vals)
        if heard < self.n - self.f:
            return
        for member in self.members:
            if (member not in vals and member not in decs
                    and not self.is_suspected(member)):
                return
        # the wait of line 6 is satisfied: freeze the matrix V_i
        self._view = self._heard_from(self.round)
        self._step2()

    def _column(self, k):
        return [vec[k] for vec in self._view.values()]

    def _step2(self):
        n, f = self.n, self.f
        bottoms = n - len(self._view)
        dominating = list(self.est)
        columns = [self._column(k) for k in range(self.width)]
        for k in range(self.width):
            counts = Counter(columns[k])
            value, count = counts.most_common(1)[0]
            if count > n / 2.0:
                dominating[k] = value
        self._dominating = dominating
        support = [columns[k].count(dominating[k]) for k in range(self.width)]
        decides = all(s >= n - f for s in support)
        if not decides and self.me == self.coordinator_of(self.round):
            # a deciding coordinator's coord is read by no correct member
            # (DESIGN section 6, deviation 13); recorded before any wait
            # on it, so a coordinator that needs its own coord has it
            vec = tuple(dominating)
            self._coord_msgs.setdefault(self.round, vec)
            self.broadcast(("coord", self.round, vec))
        need_coord = [s < n - 2 * f - bottoms for s in support]
        for k in range(self.width):
            if not need_coord[k]:
                self.est[k] = dominating[k]
        self._need_coord = need_coord
        if any(need_coord):
            self.phase = "coord"
            self._progress_again = True
            return
        if not decides:
            self._next_round()
            return
        self._broadcast_decision()

    def _try_finish_step2(self):
        coord = self.coordinator_of(self.round)
        coord_vec = self._coord_msgs.get(self.round)
        if coord_vec is None:
            coord_vec = self._dec_msgs.get(coord)
        if coord_vec is None:
            if not self.is_suspected(coord):
                return
            coord_vec = tuple(self._dominating)
        for k in range(self.width):
            if self._need_coord[k]:
                self.est[k] = coord_vec[k]
        self._next_round()

    def _next_round(self):
        self._enter_round(self.round + 1)

    def _broadcast_decision(self):
        decision = tuple(self.est)
        self._dec_msgs[self.me] = decision
        self.dec_announced = self.eager_dec or any(
            rnd > self.round for rnd in self._val_msgs)
        if self.dec_announced:
            self.broadcast(("dec", decision))
        self._decide(decision)
