"""Interfaces shared by the agreement protocols.

The layered architecture lets any Byzantine consensus / uniform broadcast
protocol slot into the membership and ordering layers (paper section 1.2,
"Novel Protocols for View Management").  Hosts interact with protocol
instances only through this narrow surface:

* the host delivers protocol messages via ``on_message(sender, payload)``,
  the payload exactly as it came off the wire: the instance checks its
  shape and reports a bad one through ``on_misbehavior``, it never raises;
* the instance sends by calling the ``broadcast(payload)`` callback it was
  constructed with (intra-view reliable FIFO delivery is assumed, provided
  by the layers underneath -- paper section 3.3);
* the instance consults the fuzzy mute detector via ``is_suspected(member)``
  and must be poked with ``notify_suspicion_change()`` when verdicts move --
  every time, the first suspicion of a view change included: an instance
  that has heard from every live member gets no further message that would
  make it look again;
* completion is reported through the ``on_decide`` callback.
"""

from __future__ import annotations


def max_f_consensus(n):
    """Largest f with n > 6f -- the vector consensus resilience bound."""
    return max(0, (n - 1) // 6)


def max_f_uniform(n):
    """Largest f for which the 2-step uniform broadcast is *live*.

    The paper states f < n/5, but its own Lemma 3.9 needs
    n - f >= n/2 + 2f + 1 for every core process to reach the delivery
    threshold (DESIGN.md section 6, deviation 1).  We return the safe bound;
    with the echo once per value it is also the bound under which a
    two-faced origin cannot split deliveries.  A byz stack tolerates the
    lower of this and :func:`max_f_consensus`.
    """
    f = 0
    while n - (f + 1) >= n / 2.0 + 2 * (f + 1) + 1:
        f += 1
    return f


class AgreementInstance:
    """Base class: a single run of an agreement protocol inside a view."""

    def __init__(self, instance_id, members, me, f, broadcast,
                 is_suspected=None, on_decide=None, on_misbehavior=None):
        if me not in members:
            raise ValueError("process %r not in members %r" % (me, members))
        self.instance_id = instance_id
        self.members = list(members)
        self.me = me
        self.n = len(members)
        self.f = f
        self.broadcast = broadcast
        self.is_suspected = is_suspected or (lambda member: False)
        self.on_decide = on_decide or (lambda value: None)
        self.on_misbehavior = on_misbehavior or (lambda member, reason: None)
        self.decided = False
        self.decision = None

    def on_message(self, sender, payload):
        raise NotImplementedError

    def notify_suspicion_change(self):
        """Re-evaluate wait conditions after the failure detector moved."""

    def _decide(self, value):
        if self.decided:
            return
        self.decided = True
        self.decision = value
        self.on_decide(value)
