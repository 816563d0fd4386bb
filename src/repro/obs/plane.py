"""The observability plane: one per instrumented cluster.

An :class:`ObservabilityPlane` owns the cluster-wide
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.trace.Tracer` and implements the three hook
interfaces the simulation core calls into when (and only when) a plane
is installed:

* **layer hooks** -- :meth:`hop`/:meth:`mark`, called by
  :class:`repro.layers.base.LayerStack` on every ``handle_down`` /
  ``handle_up`` transition;
* **scheduler observer** -- :meth:`on_timer`, called by
  :class:`repro.sim.scheduler.Simulator` before each fired timer;
* **network observer** -- ``on_datagram_*`` / ``on_gossip_*``, called by
  :class:`repro.sim.network.Network` on the datagram path.

When observability is disabled (the default) none of these hooks exist
anywhere: the hook sites see a ``None`` plane and skip in one branch.
The paper's failure-free path stays untaxed -- enforced by the parity
and overhead tests in ``tests/test_obs.py``.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class ObsConfig:
    """Knobs of the observability plane (see ``StackConfig(obs=...)``).

    ``obs=True`` in :class:`~repro.core.config.StackConfig` is shorthand
    for ``ObsConfig()`` with everything on.
    """

    __slots__ = ("metrics", "tracing", "trace_capacity")

    def __init__(self, metrics=True, tracing=True, trace_capacity=4096):
        self.metrics = metrics
        self.tracing = tracing
        self.trace_capacity = trace_capacity

    def __bool__(self):
        return bool(self.metrics or self.tracing)

    def __repr__(self):
        return ("ObsConfig(metrics=%r, tracing=%r, trace_capacity=%r)"
                % (self.metrics, self.tracing, self.trace_capacity))


class ObservabilityPlane:
    """Metrics + tracing for one simulated cluster."""

    def __init__(self, sim, config=None):
        self.sim = sim
        self.config = config if isinstance(config, ObsConfig) else ObsConfig()
        self.metrics = MetricsRegistry()
        self.metrics_enabled = self.config.metrics
        self.tracer = Tracer(self.config.trace_capacity) \
            if self.config.tracing else None

    # ------------------------------------------------------------------
    # layer hooks (called from LayerStack / Layer helpers)
    # ------------------------------------------------------------------
    def hop(self, node, layer, action, msg):
        """A message crossed into ``layer`` heading ``action`` (up/down)."""
        if self.metrics_enabled:
            self.metrics.inc(node, layer, "msgs_" + action)
        tracer = self.tracer
        if tracer is not None and msg.msg_id is not None:
            tracer.hop(msg.msg_id, self.sim.now, node, layer, action,
                       msg.kind)

    def mark(self, node, layer, action, msg, detail=None):
        """Trace-only annotation (e.g. the application ``deliver``)."""
        tracer = self.tracer
        if tracer is not None and msg.msg_id is not None:
            tracer.hop(msg.msg_id, self.sim.now, node, layer, action,
                       detail if detail is not None else msg.kind)

    def origin_time(self, msg_id):
        """When the traced message first entered any stack, or None."""
        if self.tracer is None or msg_id is None:
            return None
        return self.tracer.origin_time(msg_id)

    # ------------------------------------------------------------------
    # scheduler observer
    # ------------------------------------------------------------------
    def on_timer(self, now, timer):
        callback = timer.callback
        owner = getattr(callback, "__self__", None)
        node = getattr(owner, "me", None)
        if node is None:
            node = getattr(owner, "node_id", None)
        if self.metrics_enabled:
            self.metrics.inc(node, "scheduler", "timers_fired")
        tracer = self.tracer
        if tracer is None:
            return
        for arg in timer.args:
            mid = getattr(arg, "msg_id", None)
            if mid is not None and tracer.get(mid) is not None:
                tracer.hop(mid, now, node, "scheduler", "timer",
                           getattr(callback, "__name__", None))
                return

    # ------------------------------------------------------------------
    # network observer
    # ------------------------------------------------------------------
    def on_datagram_sent(self, src, dst, size, payload):
        if self.metrics_enabled:
            self.metrics.inc(src, "net", "datagrams_out")
            self.metrics.inc(src, "net", "bytes_out", size)
        tracer = self.tracer
        if tracer is not None:
            mid = getattr(payload, "msg_id", None)
            if mid is not None:
                tracer.hop(mid, self.sim.now, src, "net", "tx", dst)

    def on_datagram_dropped(self, src, dst):
        if self.metrics_enabled:
            self.metrics.inc(src, "net", "datagrams_dropped")

    def on_datagram_delivered(self, dst, src, payload):
        if self.metrics_enabled:
            self.metrics.inc(dst, "net", "datagrams_in")
        tracer = self.tracer
        if tracer is not None:
            mid = getattr(payload, "msg_id", None)
            if mid is not None:
                tracer.hop(mid, self.sim.now, dst, "net", "rx", src)

    def on_gossip_sent(self, src, size):
        if self.metrics_enabled:
            self.metrics.inc(src, "net", "gossips_out")
            self.metrics.inc(src, "net", "bytes_out", size)

    # ------------------------------------------------------------------
    # wire-path observer (real-network transport coalescer)
    # ------------------------------------------------------------------
    def on_coalesce_flush(self, node, reason, frames, nbytes):
        """The datagram coalescer emitted one UDP datagram.

        ``reason`` is why it flushed ("size" budget, backstop "timer",
        end-of-"burst", or "final" teardown drain); ``frames`` is the
        sub-frame fill.  The fill histogram is the coalescer's figure of
        merit: mean frames/datagram is the wire-path amortization factor.
        """
        if self.metrics_enabled:
            self.metrics.inc(node, "wire", "coalesce_flush_" + reason)
            self.metrics.observe(node, "wire", "datagram_fill", frames)
            self.metrics.observe(node, "wire", "datagram_bytes", nbytes)

    def on_oversize_drop(self, node, kind):
        """An encoded frame exceeded the hard datagram ceiling and was
        dropped (surfaced, not silent: the transport also warns once per
        kind on stderr)."""
        if self.metrics_enabled:
            self.metrics.inc(node, "wire", "oversize_drops")

    def on_gossip_delivered(self, dst, src):
        if self.metrics_enabled:
            self.metrics.inc(dst, "net", "gossips_in")

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self):
        """The whole run as one JSON-serializable artifact."""
        return {
            "sim_now": self.sim.now,
            "metrics": self.metrics.to_dict(),
            "traces": self.tracer.to_dict() if self.tracer is not None else {},
        }

    def export_json(self, path, indent=2):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=indent, default=repr)
        return path
