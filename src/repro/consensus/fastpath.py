"""Optimistic 2-step fast path for totally-ordered delivery.

The vector consensus of Algorithm 1 pays the full val -> coord -> dec
message pattern on every ordering instance, even when nothing Byzantine is
happening -- which is almost always.  Following the common-case doctrine
(Goren & Moses, "Byzantine Consensus in the Common Case"; ROADMAP item 3),
this module pays the Byzantine price only when Byzantine behaviour occurs:

* the instance's rotating coordinator broadcasts its deterministic batch
  proposal (``fprop``);
* every member validates the proposal against its own cast buffer and
  echoes a digest of it (``fecho``) -- Tendermint-style prevote;
* ``n - f`` matching echoes decide the instance in 2 message steps.

Any conflicting echo, invalid or equivocated proposal, coordinator mute
timeout, or fuzzy-detector suspicion aborts the fast instance and
re-proposes through the **unmodified** :class:`VectorConsensus`, seeding
the estimate with the echoed proposal (the "echo certificate") when one
was validated locally.

Safety reduces to the existing vector-consensus proof (n > 6f):

* *fast/fast intersection*: two quorums of ``n - f`` echoes share at least
  ``n - 2f > f`` members, i.e. at least one correct member, and a correct
  member echoes a single digest per instance -- so two fast decisions
  cannot conflict.
* *fast/fallback intersection*: a fast decision on ``v`` means at least
  ``n - 2f`` *correct* members echoed ``v``; each of them enters any later
  fallback proposing ``v`` (the echo certificate).  In every heard-set of
  the fallback's first step, ``v``'s support is at least
  ``n - 2f - (#bottoms)`` -- exactly the vector consensus adoption bound --
  and ``n - 3f > n/2`` under ``n > 6f``, so ``v`` dominates every
  correct coordinator vector and the fallback converges to ``v``.

Liveness in the common case is immediate (reliable FIFO broadcast gets
every correct member to the echo quorum); under faults the host's deadline
timer and the fuzzy detectors force the fallback, which is live by the
paper's own argument.
"""

from __future__ import annotations

import hashlib

from repro.consensus.interface import AgreementInstance
from repro.consensus.vector import VectorConsensus, _stable_hash


def proposal_digest(vector):
    """Deterministic digest of a proposal vector (what members echo)."""
    return hashlib.sha256(repr(vector).encode("utf-8")).hexdigest()


def fast_coordinator(members, coordinator_seed):
    """The member that proposes in fast round 0 for this seed.

    Shared with the hosting layer so the *next* instance's coordinator can
    start eagerly (propose the moment a cast lands) without constructing
    the instance first.  Deliberately offset from the fallback's round-1
    rotation: if the fast coordinator is the reason we fell back, a
    different member leads the recovery round.
    """
    return members[_stable_hash(len(members), coordinator_seed)
                   % len(members)]


class FastPathConsensus(AgreementInstance):
    """One ordering instance: optimistic 2-step decide, consensus fallback.

    The instance starts in *fast* mode (unless ``start(fast=False)``):
    the coordinator -- chosen by the same seeded rotation as the vector
    consensus, so both paths agree on round-0 leadership -- broadcasts
    ``("fprop", vector)`` and every member answers ``("fecho", digest)``
    after validating the vector through the host-supplied ``validate``
    callback.  ``validate`` may return ``True`` (echo), ``False``
    (provably bad -> fall back) or ``"wait"`` (entries not yet seen; the
    host calls :meth:`revalidate` as casts arrive).

    Fallback creates an internal :class:`VectorConsensus` over the *same*
    instance id and broadcast channel; its ``val``/``coord``/``dec``
    payload kinds are disjoint from ``fprop``/``fecho``, so both
    protocols share the wire without ambiguity.  ``dec`` messages
    received while still fast are buffered and replayed into the
    fallback (or adopted directly once the host sets
    ``dec_adoption_quorum`` during an undecidable flush).
    """

    def __init__(self, instance_id, members, me, f, proposal, broadcast,
                 is_suspected=None, on_decide=None, on_misbehavior=None,
                 coordinator_seed=0, on_round=None, max_rounds=1000,
                 dec_adoption_quorum=None, validate=None, on_fallback=None):
        super().__init__(instance_id, members, me, f, broadcast,
                         is_suspected, on_decide, on_misbehavior)
        if self.n <= 6 * f:
            raise ValueError(
                "fast path needs n > 6f for quorum intersection "
                "(n=%d, f=%d)" % (self.n, f))
        self.proposal = tuple(proposal)
        self.width = len(self.proposal)
        self.quorum = self.n - f
        self.coordinator_seed = coordinator_seed
        self.coordinator = fast_coordinator(self.members, coordinator_seed)
        self.on_round = on_round or (lambda rnd, awaited: None)
        self.max_rounds = max_rounds
        self.validate = validate or (lambda vector: True)
        self.on_fallback = on_fallback or (lambda reason: None)
        self.mode = "idle"            # idle -> fast -> decided | fallback
        self.fast_decided = False
        self.fallback_reason = None
        self._prop = None             # coordinator's vector, shape-checked
        self._prop_digest = None
        self._echoed = None           # digest we committed to (our echo)
        self._echoes = {}             # sender -> digest
        self._digests = set()         # distinct digests seen (conflict det.)
        self._dec_msgs = {}           # sender -> vector, pre-fallback intake
        self._frozen = False
        self._vc = None               # the fallback VectorConsensus
        self._dec_adoption_quorum = dec_adoption_quorum

    # -- lifecycle -------------------------------------------------------

    def start(self, fast=True):
        if self.mode != "idle":
            raise RuntimeError("instance %r already started" %
                               (self.instance_id,))
        if not fast or self.is_suspected(self.coordinator):
            # arbitration said no (flush in progress, live suspicion, knob
            # half-off): run the classic protocol from the start.  This is
            # not an abort, so on_fallback is not invoked.
            self.mode = "fallback"
            self.fallback_reason = "arbitration"
            self._make_fallback()
            return
        self.mode = "fast"
        # round 0 of the fast path awaits only the coordinator; the host
        # registers the mute expectation exactly like a consensus round.
        self.on_round(0, [self.coordinator])
        if self.me == self.coordinator:
            self._prop = self.proposal
            self._prop_digest = proposal_digest(self.proposal)
            self._echoed = self._prop_digest
            # the proposal doubles as the coordinator's echo: members count
            # it toward the quorum on receipt, saving one broadcast.
            self._note_echo(self.me, self._prop_digest)
            self.broadcast(("fprop", self.proposal))
            self._check_quorum()

    # -- message plane ---------------------------------------------------

    def on_message(self, sender, payload):
        if self.decided or sender not in self.members:
            return
        if not isinstance(payload, tuple) or not payload:
            self.on_misbehavior(sender, "fastpath:malformed")
            return
        kind = payload[0]
        if kind == "fprop":
            if len(payload) != 2:
                self.on_misbehavior(sender, "fastpath:malformed")
            elif self.mode == "fast":
                self._on_fprop(sender, payload[1])
            return
        if kind == "fecho":
            if len(payload) != 2:
                self.on_misbehavior(sender, "fastpath:malformed")
            else:
                self._on_fecho(sender, payload[1])
            return
        if kind == "dec" and len(payload) == 2 and self._vc is None:
            self._on_dec(sender, payload[1])
            return
        if kind in ("val", "coord", "dec"):
            if kind != "dec" and len(payload) != 3:
                self.on_misbehavior(sender, "fastpath:malformed")
                return
            # a peer is running the fallback: join it.
            if self._vc is None:
                if self._frozen:
                    return        # frozen instances may only adopt decs
                self._fallback("peer-" + kind)
                if self._vc is None:    # decided during the switch
                    return
            self._vc.on_message(sender, payload)
            return
        self.on_misbehavior(sender, "consensus:unknown-kind")

    def _on_fprop(self, sender, vector):
        if sender != self.coordinator:
            self.on_misbehavior(sender, "fastpath:prop-usurper")
            return
        checked = self._checked_vector(sender, vector)
        if checked is None:
            self._fallback("bad-proposal")
            return
        if self._prop is not None:
            if checked != self._prop:
                self.on_misbehavior(sender, "fastpath:equivocated-prop")
                self._fallback("prop-conflict")
            return
        self._prop = checked
        self._prop_digest = proposal_digest(checked)
        self._note_echo(sender, self._prop_digest)
        if self.mode == "fast":
            self._maybe_echo()
            self._check_quorum()

    def revalidate(self):
        """Host hook: new casts arrived, a held proposal may now validate."""
        if self.mode == "fast" and not self.decided:
            self._maybe_echo()
            self._check_quorum()

    def _maybe_echo(self):
        if self._echoed is not None or self._prop is None or self._frozen:
            return
        verdict = self.validate(self._prop)
        if verdict == "wait":
            return
        if verdict is not True:
            # provably bad content (conflicts with a signed cast we hold,
            # malformed batch, replayed delivery): the coordinator -- or
            # the batch's origin -- is faulty.  Resolve through consensus.
            self._fallback("invalid-proposal")
            return
        self._echoed = self._prop_digest
        self._note_echo(self.me, self._prop_digest)
        self.broadcast(("fecho", self._prop_digest))

    def _on_fecho(self, sender, digest):
        if self.mode != "fast":
            return                    # late echoes after fallback/decide
        if not isinstance(digest, str):
            self.on_misbehavior(sender, "fastpath:malformed")
            return
        self._note_echo(sender, digest)
        self._check_quorum()

    def _note_echo(self, sender, digest):
        prev = self._echoes.get(sender)
        if prev is not None:
            if prev != digest:
                self.on_misbehavior(sender, "fastpath:equivocated-echo")
                self._fallback("echo-conflict")
            return
        self._echoes[sender] = digest
        self._digests.add(digest)
        if len(self._digests) > 1:
            # two distinct digests cannot both reach n - f echoes, and at
            # least one signer is lying about the proposal: abort.
            self._fallback("echo-conflict")

    def _check_quorum(self):
        if (self.decided or self.mode != "fast" or self._frozen
                or self._prop is None):
            return
        matching = sum(1 for d in self._echoes.values()
                       if d == self._prop_digest)
        if matching >= self.quorum:
            self.fast_decided = True
            self._decide(self._prop)

    def _on_dec(self, sender, vector):
        checked = self._checked_vector(sender, vector)
        if checked is None:
            return
        prev = self._dec_msgs.get(sender)
        if prev is not None:
            if prev != checked:
                self.on_misbehavior(sender, "consensus:equivocated-dec")
            return
        self._dec_msgs[sender] = checked
        quorum = self._dec_adoption_quorum
        if quorum is not None:
            matching = sum(1 for v in self._dec_msgs.values()
                           if v == checked)
            if matching >= quorum:
                self._decide(checked)
                return
        if not self._frozen:
            # somebody finished through the fallback: join and let the
            # replayed decs count toward its heard-set.
            self._fallback("peer-dec")

    # -- fallback --------------------------------------------------------

    def _fallback(self, reason):
        if self.decided or self.mode == "fallback" or self._frozen:
            return
        self.mode = "fallback"
        self.fallback_reason = reason
        self.on_fallback(reason)
        self._make_fallback()

    def _make_fallback(self):
        self._vc = VectorConsensus(
            self.instance_id, list(self.members), self.me, self.f,
            self._certificate_estimate(), self.broadcast,
            is_suspected=self.is_suspected,
            on_decide=self._decide,
            on_misbehavior=self.on_misbehavior,
            coordinator_seed=self.coordinator_seed,
            on_round=self.on_round,
            max_rounds=self.max_rounds,
            dec_adoption_quorum=self._dec_adoption_quorum,
            eager_dec=False)    # like a fast decision: the host announces
        pending = sorted(self._dec_msgs.items(), key=lambda kv: repr(kv[0]))
        self._vc.start()
        for sender, vec in pending:
            if self.decided:
                break
            self._vc.on_message(sender, ("dec", vec))

    def _certificate_estimate(self):
        """The estimate the fallback re-proposes (the echo certificate).

        If we echoed the coordinator's vector we are bound by that echo --
        a fast quorum may already have decided it elsewhere, and the
        n - 2f correct echoers re-proposing it is exactly what makes the
        fallback converge to the same value.  Short of our own echo,
        f + 1 matching echoes prove a correct member vouched for the
        vector, so adopting it can only help convergence.
        """
        if self._prop is not None and self._prop_digest is not None:
            if self._echoed == self._prop_digest:
                return self._prop
            support = sum(1 for d in self._echoes.values()
                          if d == self._prop_digest)
            if support > self.f:
                return self._prop
        return self.proposal

    # -- host integration ------------------------------------------------

    def timeout(self):
        """Host deadline expired without a fast decision: fall back."""
        if self.mode == "fast":
            self._fallback("timeout")

    def abort(self, reason):
        """Host-forced abort (e.g. a view change started mid-instance)."""
        if self.mode == "fast":
            self._fallback(reason)

    def notify_suspicion_change(self):
        if self.decided:
            return
        if self._vc is not None:
            self._vc.notify_suspicion_change()
        elif (self.mode == "fast" and not self._frozen
                and self.is_suspected(self.coordinator)):
            self._fallback("suspicion")

    def freeze_rounds(self):
        """Flush support: stop all progress except dec adoption."""
        self._frozen = True
        if self._vc is not None:
            self._vc.freeze_rounds()

    def resolicit(self):
        """See :meth:`VectorConsensus.resolicit` (the host aborts every
        instance into its fallback before it freezes one)."""
        if self._vc is not None:
            self._vc.resolicit()

    @property
    def dec_announced(self):
        return self._vc is not None and self._vc.dec_announced

    @property
    def dec_adoption_quorum(self):
        return self._dec_adoption_quorum

    @dec_adoption_quorum.setter
    def dec_adoption_quorum(self, value):
        self._dec_adoption_quorum = value
        if self._vc is not None:
            self._vc.dec_adoption_quorum = value

    @property
    def tracked(self):
        """The vector this instance decides if it stays on track.  A
        pipelining host leaves what it covers out of the next concurrent
        proposal: a guess (the fallback may decide anything), and a safe
        one (the host dedups at delivery)."""
        return self._prop if self._prop is not None else self.proposal

    def state_size(self):
        """Retained-entry count, for the bounded-state checker."""
        size = len(self._echoes) + len(self._dec_msgs) + len(self._digests)
        if self._vc is not None:
            size += self._vc.state_size()
        return size

    # -- helpers ---------------------------------------------------------

    def _checked_vector(self, sender, vec):
        if not isinstance(vec, (list, tuple)) or len(vec) != self.width:
            self.on_misbehavior(sender, "fastpath:bad-shape")
            return None
        vec = tuple(vec)
        try:
            hash(vec)
        except TypeError:
            self.on_misbehavior(sender, "fastpath:bad-shape")
            return None
        return vec
