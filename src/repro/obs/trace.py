"""Message-lifecycle tracing: spans across the stack and the wire.

A *span* (here: :class:`Trace`) is opened the moment a message enters any
node's stack and accumulates one :class:`TraceEvent` per hop: layer
``down``/``up`` transitions, network ``tx``/``rx``, timer firings that
carry the message, and the final application ``deliver``.  Because every
application cast carries a globally unique ``msg_id = (origin, counter)``
(one shape, restarts included: ``repro.core.message.is_cast_id``), the
same span naturally collects events from *every* node the message touches
-- the causal, cross-node view the paper's evaluation needed ad-hoc probes for.

Tracing is an accumulator only: it never schedules, never draws
randomness, never charges CPU.  Simulated executions are identical with
and without it.
"""

from __future__ import annotations


class TraceEvent:
    """One annotated hop in a message's life."""

    __slots__ = ("time", "node", "layer", "action", "detail")

    def __init__(self, time, node, layer, action, detail=None):
        self.time = time
        self.node = node
        self.layer = layer
        self.action = action
        self.detail = detail

    def to_dict(self):
        return {"time": self.time, "node": repr(self.node),
                "layer": self.layer, "action": self.action,
                "detail": repr(self.detail) if self.detail is not None else None}

    def __repr__(self):
        return "TraceEvent(t=%.6f, node=%r, %s/%s%s)" % (
            self.time, self.node, self.layer, self.action,
            ", %r" % (self.detail,) if self.detail is not None else "")


class Trace:
    """The full recorded span of one message id."""

    __slots__ = ("trace_id", "events")

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.events = []

    def add(self, time, node, layer, action, detail=None):
        self.events.append(TraceEvent(time, node, layer, action, detail))

    # queries ------------------------------------------------------------
    @property
    def opened(self):
        """Simulated time the span was opened (first recorded hop)."""
        return self.events[0].time if self.events else None

    @property
    def closed(self):
        """Simulated time of the last recorded hop so far."""
        return self.events[-1].time if self.events else None

    def nodes(self):
        """Every node that touched this message."""
        return {ev.node for ev in self.events if ev.node is not None}

    def events_for(self, node):
        return [ev for ev in self.events if ev.node == node]

    def path(self, node=None, actions=None):
        """The sequence of layers the message traversed.

        With ``node``, only that node's hops; with ``actions`` (e.g.
        ``("up",)``), only hops of those kinds.
        """
        out = []
        for ev in self.events:
            if node is not None and ev.node != node:
                continue
            if actions is not None and ev.action not in actions:
                continue
            out.append(ev.layer)
        return out

    def deliveries(self):
        """``{node: time}`` of application deliveries recorded so far."""
        return {ev.node: ev.time for ev in self.events
                if ev.action == "deliver"}

    def to_dict(self):
        return {"trace_id": repr(self.trace_id),
                "events": [ev.to_dict() for ev in self.events]}

    def render(self):
        """Human-readable lines, one per hop."""
        lines = []
        for ev in self.events:
            detail = "" if ev.detail is None else " %r" % (ev.detail,)
            lines.append("t=%10.6f  node %-6r %-14s %-7s%s"
                         % (ev.time, ev.node, ev.layer, ev.action, detail))
        return lines

    def __len__(self):
        return len(self.events)

    def __repr__(self):
        return "Trace(%r, %d events, %d nodes)" % (
            self.trace_id, len(self.events), len(self.nodes()))


class Tracer:
    """All live spans of one observability plane, capacity-bounded."""

    def __init__(self, capacity=4096):
        self.capacity = capacity
        self.traces = {}
        self.evicted = 0

    def span(self, trace_id):
        """The span for ``trace_id``, created on first use."""
        trace = self.traces.get(trace_id)
        if trace is None:
            trace = Trace(trace_id)
            self.traces[trace_id] = trace
            if len(self.traces) > self.capacity:
                # dict preserves insertion order: drop the oldest span
                self.traces.pop(next(iter(self.traces)))
                self.evicted += 1
        return trace

    def get(self, trace_id):
        return self.traces.get(trace_id)

    def hop(self, trace_id, time, node, layer, action, detail=None):
        self.span(trace_id).add(time, node, layer, action, detail)

    def origin_time(self, trace_id):
        trace = self.traces.get(trace_id)
        return trace.opened if trace is not None else None

    def __len__(self):
        return len(self.traces)

    def to_dict(self):
        return {repr(tid): trace.to_dict()
                for tid, trace in self.traces.items()}
