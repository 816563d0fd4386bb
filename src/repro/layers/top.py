"""Top layer: the boundary between the stack and the application.

Downward, it stamps application casts with a message id and the current
view id -- if the stack is blocked by a running view change, casts are
buffered and stamped when the new view is installed, so a message is
always sent (and therefore delivered) in a single view (Definition 2.2,
item 2).

Upward, it turns messages into application events, hands them to the
:class:`repro.core.endpoint.GroupEndpoint`, and records everything in the
process history for the property checker.
"""

from __future__ import annotations

from collections import deque

from repro.core import message as mk
from repro.layers.base import Layer


class TopLayer(Layer):
    """Delivery to the application and cast admission control."""

    name = "top"

    def __init__(self):
        super().__init__()
        self._cast_counter = 0
        self._blocked_queue = deque()
        self.casts_sent = 0
        self.delivered = 0

    # ------------------------------------------------------------------
    def submit_cast(self, payload, size):
        """Entry point used by the endpoint for ``cast``."""
        if self._cast_counter + 1 >= 1 << mk.CAST_COUNTER_BITS:
            # past the bound the id would alias the next incarnation's
            raise OverflowError(
                f"member {self.me} cast 2**{mk.CAST_COUNTER_BITS} - 1 "
                f"times in incarnation {self.process.incarnation}")
        self._cast_counter += 1
        # the counter restarts in a rebooted incarnation, whose casts are
        # new messages (shape and bound: core.message.is_cast_id)
        msg_id = (self.me, (self.process.incarnation << mk.CAST_COUNTER_BITS)
                  + self._cast_counter)
        self.count("casts_submitted")
        self.process.history.record_cast_content(msg_id, payload)
        if self.stack.blocked:
            self._blocked_queue.append((msg_id, payload, size))
        else:
            self._emit_cast(msg_id, payload, size)
        return msg_id

    def submit_send(self, dest, payload, size):
        """Entry point used by the endpoint for point-to-point ``send``."""
        from repro.core.message import Message
        msg = Message(mk.KIND_SEND, self.me, self.view.vid, payload, size,
                      dest=dest)
        self.count("sends_submitted")
        self.process.history.record_send(self.sim.now, dest, self.view.vid)
        self.handle_down(msg)

    def _emit_cast(self, msg_id, payload, size):
        from repro.core.message import Message
        msg = Message(mk.KIND_CAST, self.me, self.view.vid, payload, size,
                      msg_id=msg_id)
        # computed once per cast: every receiver's history reads this one
        msg._digest = self.process.history.cast_digests[msg_id]
        self.casts_sent += 1
        self.count("casts_sent")
        # opens the message's span: the first hop of its life is entering
        # this layer on its origin node, headed down
        self.trace_mark(msg, "down")
        self.process.history.record_cast(self.sim.now, msg_id, self.view.vid)
        self.handle_down(msg)

    def requeue_casts(self, items):
        """Casts pulled back from the flow queue at a view change; they
        go to the front so per-origin FIFO (by msg_id counter) holds."""
        for item in reversed(items):
            self._blocked_queue.appendleft(item)

    def on_view(self, view):
        queued, self._blocked_queue = self._blocked_queue, deque()
        for msg_id, payload, size in queued:
            self._emit_cast(msg_id, payload, size)

    # ------------------------------------------------------------------
    def handle_up(self, msg):
        process = self.process
        now = self.sim.now
        if msg.kind == mk.KIND_CAST:
            self.delivered += 1
            self.count("casts_delivered")
            self.trace_mark(msg, "deliver")
            obs = self.obs
            if obs is not None and obs.metrics_enabled:
                born = obs.origin_time(msg.msg_id)
                if born is not None:
                    obs.metrics.observe(self.me, self.name, "cast_latency",
                                        now - born)
            process.history.record_cast_deliver(
                now, msg.msg_id, msg.origin, msg.payload, self.view.vid,
                msg._digest)
            endpoint = process.endpoint
            if endpoint is not None:
                endpoint.dispatch_cast(now, msg.origin, msg.payload,
                                       self.view.vid, msg.msg_id)
        elif msg.kind == mk.KIND_SEND:
            self.count("sends_delivered")
            process.history.record_send_deliver(
                now, msg.origin, msg.payload, self.view.vid)
            endpoint = process.endpoint
            if endpoint is not None:
                endpoint.dispatch_send(now, msg.origin, msg.payload,
                                       self.view.vid, msg.msg_id)
        # anything else that reached the top is absorbed

    def handle_down(self, msg):
        self.send_down(msg)
