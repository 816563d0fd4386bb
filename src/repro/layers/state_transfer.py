"""Byzantine-safe state transfer to joining members.

Virtual synchrony tells a joiner which view it entered, but an
application like the replicated state machine also needs the *state* the
group accumulated before it arrived (Ensemble ships state-transfer layers
for exactly this).  Under Byzantine failures the snapshot sender cannot
simply be trusted, so the transfer is vouched:

* when a view with joiners is installed, every prior member sends each
  joiner a ``digest`` of its application snapshot (point-to-point);
* the new coordinator (and, on retry, other members in rank order) sends
  the full ``snapshot``;
* the joiner installs a snapshot only once its digest matches the digests
  of at least f + 1 distinct members -- at most f of which can lie, so a
  matching quorum contains a correct voucher;
* a snapshot contradicting the quorum marks its sender verbose-faulty and
  the joiner asks the next member in rank order.

Applications opt in by setting ``endpoint.state_provider`` (returns the
snapshot object) and ``endpoint.state_installer`` (receives it); the
layer is inert otherwise.
"""

from __future__ import annotations

import hashlib

from repro.core.message import Message
from repro.layers.base import Layer

KIND_STATE = "state"


def snapshot_digest(snapshot):
    return hashlib.sha256(repr(snapshot).encode("utf-8")).hexdigest()[:16]


class StateTransferLayer(Layer):
    """Snapshot hand-off around view installations."""

    name = "state_transfer"

    def __init__(self):
        super().__init__()
        self._prior_members = None
        self._awaiting = False      # we are a joiner waiting for state
        self._digests = {}          # member -> vouched digest
        self._snapshots = {}        # digest -> snapshot (first copy kept)
        self._provider_rank = 0
        self._retry_timer = None
        self.transfers_sent = 0
        self.installed = 0
        self.rejected_snapshots = 0

    # ------------------------------------------------------------------
    def on_view(self, view):
        prior = self._prior_members
        self._prior_members = set(view.mbrs)
        endpoint = self.process.endpoint
        if endpoint is None or endpoint.state_provider is None:
            return
        if prior is None:
            return  # our first view: bootstrap, nobody to learn from
        joiners = [m for m in view.mbrs if m not in prior]
        if self.me in prior and joiners:
            self._vouch_and_send(view, joiners)
        if self._awaiting and view.n > 1 and self._retry_timer is None:
            # we joined a real group: actively pull the snapshot too --
            # push-side vouches can race our own view installation
            self._retry_timer = self.sim.schedule(
                2 * self.config.ack_interval, self._retry)

    def begin_awaiting(self):
        """Called on a fresh joiner's behalf: arm collection state."""
        self._awaiting = True
        self._digests = {}
        self._snapshots = {}
        self._provider_rank = 0

    def stop(self):
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None

    def state_sizes(self):
        return {
            "digests": len(self._digests),
            "snapshots": len(self._snapshots),
        }

    def start(self):
        # processes never see an on_view for their bootstrap view: seed the
        # membership baseline here so the first real change can diff it
        self._prior_members = set(self.view.mbrs)
        # a process that boots into a singleton view and later merges is a
        # joiner: arm collection now, pull once the merged view arrives
        if self.view.n == 1:
            self.begin_awaiting()

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def _vouch_and_send(self, view, joiners):
        endpoint = self.process.endpoint
        snapshot = endpoint.state_provider()
        digest = snapshot_digest(snapshot)
        coordinator = view.coordinator
        for joiner in joiners:
            vouch = Message(KIND_STATE, self.me, view.vid,
                            ("digest", digest), payload_size=20, dest=joiner)
            self.send_down(vouch)
            if self.me == coordinator:
                self._send_snapshot(joiner, snapshot, digest)

    def _send_snapshot(self, joiner, snapshot, digest):
        self.transfers_sent += 1
        self.count("snapshots_sent")
        size = 24 + len(repr(snapshot))
        self.send(KIND_STATE, ("snapshot", digest, snapshot), size,
                  dest=joiner)

    # ------------------------------------------------------------------
    # message plane
    # ------------------------------------------------------------------
    def handle_up(self, msg):
        if msg.kind != KIND_STATE:
            self.send_up(msg)
            return
        payload = msg.payload
        if not isinstance(payload, tuple) or not payload:
            self._flag(msg.origin, "state:malformed")
            return
        tag = payload[0]
        if tag == "digest" and len(payload) == 2:
            self._on_digest(msg.origin, payload[1])
        elif tag == "snapshot" and len(payload) == 3:
            self._on_snapshot(msg.origin, payload[1], payload[2])
        elif tag == "request" and len(payload) == 1:
            self._on_request(msg.origin)
        else:
            self._flag(msg.origin, "state:unknown-tag")

    def _flag(self, member, reason):
        if self.config.byzantine and member != self.me:
            self.process.verbose_detector.illegal(member, reason)

    # ------------------------------------------------------------------
    # joiner side
    # ------------------------------------------------------------------
    def _on_digest(self, member, digest):
        if not self._awaiting or member not in self.view.mbrs:
            return
        self._digests.setdefault(member, digest)
        self._maybe_install()

    def _on_snapshot(self, member, digest, snapshot):
        if not self._awaiting or member not in self.view.mbrs:
            return
        if snapshot_digest(snapshot) != digest:
            self._flag(member, "state:digest-mismatch")
            self._ask_next_provider()
            return
        self._snapshots.setdefault(digest, snapshot)
        self._digests.setdefault(member, digest)
        self._maybe_install()

    def _on_request(self, joiner):
        endpoint = self.process.endpoint
        if endpoint is None or endpoint.state_provider is None:
            return
        if joiner not in self.view.mbrs:
            return
        snapshot = endpoint.state_provider()
        self._send_snapshot(joiner, snapshot, snapshot_digest(snapshot))

    def _maybe_install(self):
        if not self._awaiting:
            return
        f = self.process.f
        counts = {}
        for digest in self._digests.values():
            counts[digest] = counts.get(digest, 0) + 1
        for digest, count in counts.items():
            if count < f + 1:
                continue
            snapshot = self._snapshots.get(digest)
            if snapshot is None:
                self._ask_next_provider()
                return
            endpoint = self.process.endpoint
            self._awaiting = False
            if self._retry_timer is not None:
                self._retry_timer.cancel()
                self._retry_timer = None
            self.installed += 1
            self.count("snapshots_installed")
            if endpoint is not None and endpoint.state_installer is not None:
                endpoint.state_installer(snapshot)
            return
        # a digest reached quorum but we only hold snapshots for OTHER
        # digests: whoever sent those fed us a forged state -- fetch again
        quorum_digests = {d for d, count in counts.items() if count >= f + 1}
        if quorum_digests and self._snapshots and not (
                quorum_digests & set(self._snapshots)):
            self.rejected_snapshots += 1
            self.count("snapshots_rejected")
            self._ask_next_provider()

    def _ask_next_provider(self):
        """Request the snapshot from the next prior member in rank order."""
        view = self.view
        candidates = [m for m in view.mbrs if m != self.me]
        if not candidates:
            return
        target = candidates[self._provider_rank % len(candidates)]
        self._provider_rank += 1
        self.send(KIND_STATE, ("request",), 8, dest=target)
        if self._retry_timer is None and self._awaiting:
            self._retry_timer = self.sim.schedule(
                self.config.newview_timeout, self._retry)

    def _retry(self):
        self._retry_timer = None
        if self._awaiting:
            self._ask_next_provider()
            self._retry_timer = self.sim.schedule(
                self.config.newview_timeout, self._retry)
