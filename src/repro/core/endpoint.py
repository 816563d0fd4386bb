"""The application-facing API (paper Figure 1: the application module).

A :class:`GroupEndpoint` exposes exactly the abstract events of the model:
``cast`` / ``send`` inputs, and ``view`` / ``cast-deliver`` /
``send-deliver`` outputs via callbacks.  Fuzziness levels, suspicion,
consensus -- all of it stays hidden below this line, which is the point of
the strong virtual synchrony abstraction.
"""

from __future__ import annotations

from repro.core.events import CastDeliver, SendDeliver, ViewEvent


class GroupEndpoint:
    """Application handle on one group member."""

    def __init__(self, process):
        self.process = process
        process.endpoint = self
        self.on_view = None        # callback(ViewEvent)
        self.on_cast = None        # callback(CastDeliver)
        self.on_send = None        # callback(SendDeliver)
        # state transfer (opt-in): provider() -> snapshot object;
        # installer(snapshot) adopts a vouched snapshot after joining
        self.state_provider = None
        self.state_installer = None
        self.events = []           # every delivered event, in order
        self.record_events = True

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    @property
    def view(self):
        """The most recently installed view."""
        return self.process.view

    @property
    def node_id(self):
        return self.process.node_id

    def cast(self, payload, size=16):
        """Broadcast ``payload`` to the current view; returns a message id.

        ``size`` is the payload's wire size in bytes (the simulation
        transfers Python objects but charges bandwidth/CPU for ``size``).
        """
        if self.process.stopped:
            raise RuntimeError("endpoint of a stopped process")
        return self.process.top.submit_cast(payload, size)

    def send(self, dest, payload, size=16):
        """Reliable FIFO point-to-point send to ``dest``."""
        if self.process.stopped:
            raise RuntimeError("endpoint of a stopped process")
        if dest == self.node_id:
            raise ValueError("use cast/local calls, not send-to-self")
        self.process.top.submit_send(dest, payload, size)

    def leave(self):
        """Politely leave the group: announce, then let the view exclude us."""
        self.process.membership.announce_leave()

    # ------------------------------------------------------------------
    # observability (repro.obs)
    # ------------------------------------------------------------------
    def trace(self, msg_id):
        """The recorded span of one message across the whole cluster.

        Returns the :class:`repro.obs.trace.Trace` for ``msg_id`` -- every
        layer hop, wire transfer, timer hop, and application delivery the
        message went through on every node -- or None if the id was never
        seen.  Raises RuntimeError when observability is disabled (the
        default): bootstrap with ``StackConfig(obs=True)``.
        """
        obs = self.process.obs
        if obs is None or obs.tracer is None:
            raise RuntimeError(
                "message tracing is disabled; bootstrap with "
                "StackConfig(obs=True) or obs=ObsConfig(tracing=True)")
        return obs.tracer.get(msg_id)

    @property
    def metrics(self):
        """This node's slice of the metrics registry, or None when off."""
        obs = self.process.obs
        if obs is None:
            return None
        return obs.metrics.select(node=self.node_id)

    # ------------------------------------------------------------------
    # dispatch from the top layer
    # ------------------------------------------------------------------
    def dispatch_view(self, time, view):
        event = ViewEvent(time, view)
        if self.record_events:
            self.events.append(event)
        if self.on_view is not None:
            self.on_view(event)

    def dispatch_cast(self, time, origin, payload, vid, msg_id):
        event = CastDeliver(time, origin, payload, vid, msg_id)
        if self.record_events:
            self.events.append(event)
        if self.on_cast is not None:
            self.on_cast(event)

    def dispatch_send(self, time, origin, payload, vid, msg_id):
        event = SendDeliver(time, origin, payload, vid, msg_id)
        if self.record_events:
            self.events.append(event)
        if self.on_send is not None:
            self.on_send(event)
