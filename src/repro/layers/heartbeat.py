"""Heartbeats, gossip announcements, and liveness observation.

Heartbeats alone cannot detect Byzantine failures (a Byzantine node can
heartbeat on time while misbehaving -- paper section 3.2), but they remain
the baseline liveness signal: a node from which *nothing* has been heard
for a timeout gains mute fuzziness.  Any authenticated datagram counts as
heard.  The tick's one message is the reliable layer's row-carrying
broadcast: an ack while one is due, else the idle heartbeat, which carries
the same ack row for the receiver's reliable layer to consume.

The layer also implements the view-discovery gossip of section 3.4.2: the
coordinator of every view periodically IP-multicasts a gossip message
announcing its view.  Unlike Ensemble, *all* nodes listen (not just
coordinators) -- that is what lets ordinary members notice a coordinator
that mutely fails to pursue a merge: they register expectations with the
fuzzy mute detector on their own coordinator's behalf.
"""

from __future__ import annotations

from repro.layers.base import Layer

#: protocol-stack fingerprint carried in gossip; views only merge when
#: both sides run the same stack (paper section 3.4.2)
def stack_fingerprint(config):
    return (config.byzantine, config.crypto, config.total_order,
            config.uniform_delivery, config.ordering_fast_path)


class HeartbeatLayer(Layer):
    """Heartbeat emission + silence detection + gossip announcements."""

    name = "heartbeat"

    def __init__(self):
        super().__init__()
        self._hb_timer = None
        self._gossip_timer = None
        self._last_coord_gossip = 0.0
        self._last_hb_tick = None
        self.gossips_sent = 0

    # ------------------------------------------------------------------
    def start(self):
        config = self.config
        self._hb_timer = self.sim.schedule(config.heartbeat_interval,
                                           self._heartbeat_tick)
        self._gossip_timer = self.sim.schedule(config.gossip_interval,
                                               self._gossip_tick)
        self._last_coord_gossip = self.sim.now

    def stop(self):
        for timer in (self._hb_timer, self._gossip_timer):
            if timer is not None:
                timer.cancel()

    def on_view(self, view):
        self._last_coord_gossip = self.sim.now

    def passes_up(self):
        return True

    # ------------------------------------------------------------------
    def _heartbeat_tick(self):
        process = self.process
        config = self.config
        tick = self.sim.now
        if self._last_hb_tick is not None:
            # observed tick spacing: exactly heartbeat_interval under the
            # simulator, jittered by OS scheduling on the real-network
            # runtime -- the histogram is how a net run quantifies how much
            # timer slack its failure detectors must absorb
            self.observe("hb_interval", tick - self._last_hb_tick)
        self._last_hb_tick = tick
        if self.view.n > 1:
            # one beacon (DESIGN section 4): the reliable layer sends the
            # ack itself while one is due (None), else hands over the
            # heartbeat built around its ack row
            hb = process.reliable.beacon()
            if hb is not None:
                self.count("heartbeats_sent")
                self.send_down(hb)
            now = self.sim.now
            for member in self.view.mbrs:
                if member == self.me:
                    continue
                silent = now - process.last_heard(member)
                if silent > config.mute_timeout:
                    process.mute_levels.raise_level(member, 1.0)
        self._hb_timer = self.sim.schedule(config.heartbeat_interval,
                                           self._heartbeat_tick)

    # ------------------------------------------------------------------
    # gossip: coordinator announces; everyone listens
    # ------------------------------------------------------------------
    def _gossip_tick(self):
        config = self.config
        view = self.view
        if (self.process.membership.leaving and view.n == 1):
            # a departed leaver's singleton view is terminal: it refuses
            # every merge request, so advertising it only baits joiners
            # (and the group it left) into dead-end merge courtships
            pass
        elif view.coordinator == self.me:
            payload = ("gossip", view.to_wire(), stack_fingerprint(config))
            self.process.gossip(payload, size=32 + 8 * view.n)
            self.gossips_sent += 1
            self.count("gossips_sent")
        else:
            # a coordinator that stops announcing its view is mute
            silent = self.sim.now - self._last_coord_gossip
            if silent > 2.5 * config.gossip_interval:
                self.process.mute_levels.raise_level(view.coordinator, 1.0)
                self._last_coord_gossip = self.sim.now  # one strike per lapse
        self._gossip_timer = self.sim.schedule(config.gossip_interval,
                                               self._gossip_tick)

    def on_gossip(self, src, payload):
        """Raw gossip arrival (routed here by the owning process)."""
        if (not isinstance(payload, tuple) or len(payload) != 3
                or payload[0] != "gossip"):
            return
        _tag, view_wire, fingerprint = payload
        view = self.view
        if src == view.coordinator:
            self._last_coord_gossip = self.sim.now
        try:
            from repro.core.view import View
            foreign = View.from_wire(view_wire)
        except (ValueError, TypeError):
            if self.config.byzantine:
                self.process.verbose_detector.illegal(src, "gossip:malformed")
            return
        if foreign.vid == view.vid:
            return  # our own view's announcement
        # hand foreign-view announcements to the membership layer
        self.stack.control("foreign-gossip", src=src, view=foreign,
                           fingerprint=fingerprint)
