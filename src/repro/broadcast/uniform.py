"""The paper's 2-step Byzantine uniform broadcast (section 3.4.3, Figure 4).

A Byzantine sender may hand different versions of "the same" message to
different correct processes; *uniform* broadcast guarantees all core
processes deliver one identical value.  The paper trades resilience for
latency: two communication steps (``initial`` then ``echo``).

Per broadcast (tagged ``(origin, k)`` to keep concurrent broadcasts apart):

* the originator sends ``initial(v)``;
* a process echoes ``v`` after receiving the ``initial`` of ``v`` from the
  origin itself, or after n/2 + f + 1 ``echo(v)`` messages -- once per
  value, even when it already echoed another one;
* a process delivers ``v`` after n/2 + 2f + 1 ``echo(v)`` messages.

The paper echoes at most once, ever; that loses totality to a two-faced
origin (DESIGN.md section 6, deviation 1).  Echoing once per value, as in
Imbs & Raynal's two-step broadcast, closes it: at most one value is ever
amplified (its first correct amplifier saw n/2 + 1 correct initial-based
echoes of it), so a correct process echoes at most two distinct values and
a receiver counts a sender's first two.  Liveness (Lemmas 3.8/3.9) needs
every core process to be able to reach the delivery threshold, i.e.
n - f >= n/2 + 2f + 1; the paper headlines f < n/5 but that inequality
actually requires n >= 6f + 2, and we expose the safe bound as
:func:`repro.consensus.interface.max_f_uniform`.
"""

from __future__ import annotations

from repro.consensus.interface import AgreementInstance


class UniformBroadcast(AgreementInstance):
    """One uniform broadcast instance, identified by ``(origin, k)``."""

    #: regression-revert switch (tests only): with ``False``, a repeated
    #: ``originate`` re-broadcasts the initial -- combined with a caller
    #: that retries on every ack-matrix update, the zero-delay
    #: self-delivery feeds itself forever (the livelock PR 3 fixed)
    idempotent_originate = True

    def __init__(self, instance_id, members, me, f, origin, broadcast,
                 on_deliver=None, on_misbehavior=None):
        super().__init__(instance_id, members, me, f, broadcast,
                         is_suspected=None, on_decide=on_deliver,
                         on_misbehavior=on_misbehavior)
        if self.n - f < self.n / 2.0 + 2 * f + 1:
            raise ValueError(
                "2-step uniform broadcast cannot terminate with n=%d, f=%d "
                "(needs n - f >= n/2 + 2f + 1)" % (self.n, f)
            )
        self.origin = origin
        self._initial_value = None
        self._echoes = {}  # sender -> values it echoed, arrival order
        self._tally = {}   # value -> echoes counted for it

    # thresholds, kept as real-valued comparisons exactly as in Figure 4
    @property
    def echo_threshold(self):
        return self.n / 2.0 + self.f + 1

    @property
    def deliver_threshold(self):
        return self.n / 2.0 + 2 * self.f + 1

    # ------------------------------------------------------------------
    def originate(self, value):
        """Step 0: only the origin broadcasts ``initial``.

        Idempotent: retransmission of a lost initial is the reliable
        layer's job, so a second call must not re-broadcast (a caller
        retrying on every ack-matrix update would otherwise feed its own
        zero-delay self-delivery forever).
        """
        if self.me != self.origin:
            raise RuntimeError("only the origin may originate")
        if self._initial_value is not None and self.idempotent_originate:
            return
        self.broadcast(("ub-initial", value))
        self._on_initial(self.me, value)

    def on_message(self, sender, payload):
        if sender not in self.members:
            return
        kind = payload[0]
        if kind == "ub-initial":
            self._on_initial(sender, payload[1])
        elif kind == "ub-echo":
            self._on_echo(sender, payload[1])
        else:
            self.on_misbehavior(sender, "ub:unknown-kind")

    @property
    def delivered(self):
        return self.decided

    @property
    def contested(self):   # a second value was echoed: a two-faced origin
        return len(self._tally) > 1

    # ------------------------------------------------------------------
    def _on_initial(self, sender, value):
        if sender != self.origin:
            # only the origin may send initial for its own tag
            self.on_misbehavior(sender, "ub:initial-forged")
            return
        if self._initial_value is not None:
            if self._initial_value != value:
                self.on_misbehavior(sender, "ub:initial-equivocated")
            return
        self._initial_value = value
        self._maybe_echo(value)

    def _on_echo(self, sender, value):
        echoed = self._echoes.setdefault(sender, [])
        if value in echoed:
            return
        if len(echoed) == 2:
            # a correct process echoes its initial's value and at most
            # the one value that can ever reach the echo threshold
            self.on_misbehavior(sender, "ub:echo-equivocated")
            return
        echoed.append(value)
        count = self._tally[value] = self._tally.get(value, 0) + 1
        if count >= self.echo_threshold:
            self._maybe_echo(value)
        if self._tally[value] >= self.deliver_threshold:
            self._decide(value)

    def _maybe_echo(self, value):
        if value in self._echoes.get(self.me, ()):
            return
        self.broadcast(("ub-echo", value))
        self._on_echo(self.me, value)
