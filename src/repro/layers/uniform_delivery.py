"""Per-cast uniform delivery (paper sections 3.4.4 and 2.3, Def. 2.2).

A Byzantine node can hand different versions of "the same" broadcast to
different correct members; plain reliable delivery cannot detect this.
When ``uniform_delivery`` is enabled (and total ordering is not -- total
ordering already yields uniform agreement through consensus, as the paper
notes), every cast's *digest* is agreed through the Byzantine uniform
broadcast before the cast may reach the application:

* the cast itself plays the role of the ``initial`` message: each receiver
  feeds the digest of *its own copy* into the instance;
* members echo the digest they saw; the two-step quorum guarantees at most
  one digest can ever be delivered;
* a member whose copy does not match the agreed digest fetches a matching
  copy from any member that echoed it -- the digest is collision
  resistant, so one matching response suffices.

Per-origin FIFO is preserved: casts are released in arrival order, each
waiting for its own agreement.  This layer costs O(n) broadcasts per cast
-- the measured price of the paper's ``+Uniform`` configurations, which
(unlike total ordering) cannot amortize agreement over batches.
"""

from __future__ import annotations

from collections import deque

from repro.broadcast.uniform import UniformBroadcast
from repro.core import message as mk
from repro.core.history import content_digest
from repro.core.message import Message, is_cast_id
from repro.layers.base import Layer


class _Pending:
    __slots__ = ("msg", "digest", "agreed")

    def __init__(self, msg, digest):
        self.msg = msg
        self.digest = digest
        self.agreed = None


class UniformDeliveryLayer(Layer):
    """Digest agreement in front of application delivery."""

    name = "uniform"

    def __init__(self):
        super().__init__()
        self._queues = {}     # origin -> deque of msg_ids, arrival order
        self._pending = {}    # msg_id -> _Pending
        self._instances = {}  # msg_id -> agreement instance
        self._done = {}       # msg_id -> agreed digest, or a contested
                              # cast's _Pending, until the view ends
        self._agreed_early = {}  # agreement finished before our copy arrived
        self._flush_cb = None
        self._flush_timer = None
        self.delivered_uniform = 0
        self.mismatches_recovered = 0
        self.dropped_unresolved = 0

    @property
    def active(self):
        return self.config.uniform_delivery and not self.config.total_order

    def stop(self):
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None

    def on_view(self, view):
        self._queues.clear()
        self._pending.clear()
        self._instances.clear()
        self._done.clear()
        self._agreed_early.clear()
        self._flush_cb = None
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None

    def passes_up(self):
        return not self.active

    # ------------------------------------------------------------------
    def handle_up(self, msg):
        if not self.active:
            self.send_up(msg)
            return
        if msg.kind == mk.KIND_CAST:
            self._on_cast(msg)
        elif msg.kind == mk.KIND_UDELIV:
            self._on_proto(msg)
        else:
            self.send_up(msg)

    def _on_cast(self, msg):
        msg_id = msg.msg_id
        if msg_id is None or msg_id in self._done or msg_id in self._pending:
            return
        self.process.cpu.charge(self.config.crypto_costs.hash_digest)
        digest = msg._digest or content_digest(msg.payload)
        entry = _Pending(msg, digest)
        # a lost-and-retransmitted cast may arrive after its agreement
        # already completed from the quorum's echoes
        entry.agreed = self._agreed_early.pop(msg_id, None)
        self._pending[msg_id] = entry
        self._queues.setdefault(msg.origin, deque()).append(msg_id)
        if entry.agreed is not None:
            self._try_release(msg.origin)
            return
        instance = self._instance_for(msg_id)
        if instance is not None and not instance.delivered:
            # the cast is the origin's "initial"; our copy's digest is what
            # the origin told *us*
            instance.on_message(msg_id[0], ("ub-initial", digest))
        self._try_release(msg.origin)

    def _instance_for(self, msg_id):
        instance = self._instances.get(msg_id)
        if instance is not None:
            return instance
        if msg_id in self._done:
            return None
        view = self.view
        origin = msg_id[0]
        if origin not in view.mbrs:
            return None

        def bcast(proto):
            out = Message(mk.KIND_UDELIV, self.me, view.vid,
                          ("ub", msg_id, proto), payload_size=26)
            self.send_down(out)

        try:
            instance = UniformBroadcast(
                msg_id, list(view.mbrs), self.me, self.process.f, origin,
                bcast,
                on_deliver=lambda digest: self._on_agreed(msg_id, digest),
                on_misbehavior=self._misbehavior)
        except ValueError:
            return None  # view too small: casts deliver without agreement
        self._instances[msg_id] = instance
        return instance

    def _misbehavior(self, member, reason):
        if member != self.me:
            self.process.verbose_detector.illegal(member, reason)

    # ------------------------------------------------------------------
    def _on_proto(self, msg):
        payload = msg.payload
        if not isinstance(payload, tuple) or len(payload) != 3:
            self._misbehavior(msg.origin, "uniform:bad-proto")
            return
        tag, msg_id, body = payload
        if not is_cast_id(msg_id):
            self._misbehavior(msg.origin, "uniform:bad-id")
            return
        if tag == "ub":
            if msg_id in self._done:
                return
            instance = self._instance_for(msg_id)
            if instance is not None:
                instance.on_message(msg.origin, body)
        elif tag == "fetch":
            self._serve_fetch(msg.origin, msg_id)
        elif tag == "copy":
            self._on_copy(msg_id, body)
        else:
            self._misbehavior(msg.origin, "uniform:unknown-tag")

    def _on_agreed(self, msg_id, digest):
        entry = self._pending.get(msg_id)
        if entry is not None:
            entry.agreed = digest
            self._try_release(msg_id[0])
        else:
            # agreement beat the content; hold the verdict until the
            # reliable layer recovers the cast itself
            self._agreed_early[msg_id] = digest

    def _try_release(self, origin):
        queue = self._queues.get(origin)
        while queue:
            msg_id = queue[0]
            entry = self._pending.get(msg_id)
            if entry is None:
                queue.popleft()
                continue
            if entry.agreed is None:
                return
            if entry.agreed != entry.digest:
                # two-faced origin: our copy is the minority version; fetch
                # a copy matching the agreed digest from the echo quorum
                self._fetch(msg_id)
                return
            queue.popleft()
            self._pending.pop(msg_id, None)
            instance = self._instances.pop(msg_id, None)
            # only a cast whose agreement saw a second digest may leave a
            # member holding another version, who fetches it later
            self._done[msg_id] = (entry if instance is not None
                                  and instance.contested else entry.agreed)
            self.delivered_uniform += 1
            self.count("uniform_delivered")
            self.send_up(entry.msg)
        self._check_flush()

    def release_own(self):
        """Deliver my own casts still awaiting agreement, in arrival order:
        I leave the view for a singleton one."""
        for msg_id in self._queues.pop(self.me, ()):
            entry = self._pending.pop(msg_id, None)
            if entry is not None:
                self._instances.pop(msg_id, None)
                self._done[msg_id] = entry.digest
                self.delivered_uniform += 1
                self.count("uniform_delivered")
                self.send_up(entry.msg)

    def _fetch(self, msg_id):
        self.send(mk.KIND_UDELIV, ("fetch", msg_id, None), 26)

    def _serve_fetch(self, requester, msg_id):
        # a released contested cast is served too: a minority copy's
        # holder may ask after every other holder released it
        entry = self._pending.get(msg_id) or self._done.get(msg_id)
        if type(entry) is not _Pending:
            return
        msg = entry.msg
        self.send(mk.KIND_UDELIV, ("copy", msg_id, (msg.payload,
                                                    msg.payload_size)),
                  26 + msg.payload_size, dest=requester)

    def _on_copy(self, msg_id, body):
        entry = self._pending.get(msg_id)
        if (entry is None or entry.agreed is None
                or not isinstance(body, tuple) or len(body) != 2):
            return
        payload, size = body
        if content_digest(payload) != entry.agreed:
            return
        self.mismatches_recovered += 1
        self.count("mismatches_recovered")
        fixed = Message(mk.KIND_CAST, msg_id[0], entry.msg.view_id, payload,
                        size if isinstance(size, int) else 0, msg_id=msg_id)
        entry.msg = fixed
        entry.digest = entry.agreed
        self._try_release(msg_id[0])

    # ------------------------------------------------------------------
    # flush at view change
    # ------------------------------------------------------------------
    def flush(self, on_done):
        """Resolve the backlog, then call ``on_done``.

        Agreements for casts from correct origins complete on their own
        (control traffic keeps flowing while the view is wedged); casts
        whose agreement cannot complete -- a two-faced origin that reached
        no quorum -- are dropped after a timeout, at every member alike.
        """
        self._flush_cb = on_done
        self._flush_timer = self.sim.schedule(
            2 * self.config.consensus_msg_timeout, self._flush_expire)
        self._check_flush()

    def _check_flush(self):
        if self._flush_cb is None:
            return
        if self._pending:
            return
        done, self._flush_cb = self._flush_cb, None
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        done()

    def _flush_expire(self):
        self._flush_timer = None
        if self._flush_cb is None:
            return
        self.dropped_unresolved += len(self._pending)
        self._pending.clear()
        self._queues.clear()
        done, self._flush_cb = self._flush_cb, None
        done()
