"""Spans recorded from benchmark files around the calls into each layer.

Nothing under ``src/`` knows about this module.  A :class:`Tracer` wraps,
per instance, the seams through which control enters a layer
(``handle_up`` / ``handle_down`` / ``on_view`` / ``on_control`` plus the
direct entry points the process and the endpoint call), sits in the
public ``observer`` slot of the scheduler / clock to attribute every
timer callback to the module of ``callback.__self__``, and stands in
front of the network so ``send`` is its own row.

Self time of a span is its duration minus the durations of the spans
opened inside it; rows are module names (``layers.bottom``,
``sim.network``, ``runtime.transport``, ...).  Aggregates are exact; the
first :data:`SPAN_SAMPLE` individual spans of the measured window are
kept in memory (name, start, end, parent) and written out by ``run``.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: individual spans kept per traced window (aggregates are never capped)
SPAN_SAMPLE = 20000
#: argument samples kept per replayed call site (crypto, wire codec)
ARG_SAMPLE = 256

#: the ways control enters a layer besides its own timers
LAYER_SEAMS = ("handle_up", "handle_down", "on_view", "on_control",
               "submit_cast", "on_datagram", "on_gossip")
#: fired events that move data along the datagram path; every other fired
#: event is a protocol timer
DATA_PATH_CALLBACKS = frozenset({
    "_deliver", "_deliver_gossip", "_process_in", "_process_pack_in",
    "_transmit", "send"})
#: entry points of the asyncio transport (the receive path and the
#: coalescer's loop callbacks are private names; there is no public seam)
TRANSPORT_SEAMS = ("send", "gossip_cast", "flush_pending",
                   "_on_datagram", "_on_burst_flush")


def module_key(obj):
    """Ledger row of a callable or of an object's class: the ``repro``
    module that defines it, ``loadgen`` for benchmark code."""
    module = getattr(obj, "__module__", None) or ""
    if module.startswith("repro."):
        return module[len("repro."):]
    if module.startswith("benchmarks.ledger") or module == "__main__":
        return "loadgen"
    return "other"


def count_frames(counts, payload):
    """One hand-off from the bottom layer to the network, and how many
    messages it carried (the bottom layer's pack fill)."""
    counts["net.sends"] += 1
    counts["net.frames"] += (
        len(payload[1]) if type(payload) is tuple and len(payload) == 2
        and payload[0] == "pack" else 1)


class Tracer:
    """Span aggregator; see the module docstring."""

    def __init__(self):
        self.active = False
        self.self_ns = defaultdict(int)    # row -> self time
        self.calls = defaultdict(int)      # (row, what) -> spans closed
        self.counts = defaultdict(int)     # free-form counters
        self.samples = defaultdict(list)   # call site -> argument tuples
        self.spans = []                    # (row, start, end, parent index)
        self.window_wall_ns = 0
        self.window_cpu_ns = 0
        self._child = 0                    # child time of the open span
        self._parent = -1                  # index of the open sampled span
        self._t_wall = 0
        self._t_cpu = 0

    # ------------------------------------------------------------------
    # the measured window
    # ------------------------------------------------------------------
    def start(self):
        self._t_wall = time.perf_counter_ns()
        self._t_cpu = time.process_time_ns()
        self.active = True

    def stop(self):
        self.active = False
        self.window_wall_ns += time.perf_counter_ns() - self._t_wall
        self.window_cpu_ns += time.process_time_ns() - self._t_cpu

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def wrap(self, fn, row, what="call"):
        """``fn`` inside a span charged to ``row``."""
        tracer = self
        clock = time.perf_counter_ns
        self_ns = self.self_ns
        calls = self.calls
        spans = self.spans
        site = (row, what)

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = tracer._child
            tracer._child = 0
            parent = tracer._parent
            index = -1
            if len(spans) < SPAN_SAMPLE:
                index = len(spans)
                spans.append(None)
                tracer._parent = index
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_ns[row] += duration - tracer._child
                tracer._child = outer + duration
                calls[site] += 1
                if index >= 0:
                    spans[index] = (row, start, start + duration, parent)
                    tracer._parent = parent

        span.__wrapped__ = fn
        return span

    def span(self, fn, row, what="call"):
        """Run ``fn()`` once inside a span (benchmark-side roots)."""
        return self.wrap(fn, row, what)()

    def wrap_methods(self, obj, names, row):
        for name in names:
            fn = getattr(obj, name, None)
            if fn is not None and not hasattr(fn, "__wrapped__"):
                setattr(obj, name, self.wrap(fn, row, name))

    # ------------------------------------------------------------------
    # instrumenting the program from outside
    # ------------------------------------------------------------------
    def instrument_process(self, process, network_row="sim.network"):
        """Wrap one GroupProcess: its layers' seams, its authenticator,
        and its handle on the network."""
        self._count_kinds(process.stack.layers[0])
        for layer in process.stack.layers:
            self.wrap_methods(layer, LAYER_SEAMS, module_key(type(layer)))
        self._instrument_auth(process.auth)
        if network_row is not None and not isinstance(process.network,
                                                       NetworkProxy):
            process.network = NetworkProxy(process.network, self,
                                           network_row)

    def _count_kinds(self, bottom):
        """Count the messages each node hands to its bottom layer, by
        kind (agreement traffic per instance is read off this)."""
        if hasattr(bottom.handle_down, "__wrapped__"):
            return
        counts = self.counts
        handle_down = bottom.handle_down

        def counted_handle_down(msg):
            if self.active:
                counts["kind." + msg.kind] += 1
            return handle_down(msg)

        bottom.handle_down = counted_handle_down

    def _instrument_auth(self, auth):
        if hasattr(auth.sign, "__wrapped__"):
            return
        counts = self.counts
        samples = self.samples
        sign, verify, verify_batch = (auth.sign, auth.verify,
                                      auth.verify_batch)
        # MACs computed per call: one per receiver when signing under
        # pairwise keys, one per check; a public-key scheme does one
        # operation per message and NullAuth none
        per_receiver = auth.name == "sym"
        unit = 0 if auth.name == "none" else 1

        def counted_sign(sender, receivers, data):
            if self.active:
                counts["crypto.macs"] += (len(receivers) if per_receiver
                                          else unit)
                counts["crypto.signs"] += 1
                if len(samples["sign"]) < ARG_SAMPLE:
                    samples["sign"].append((sign, (sender, receivers, data)))
            return sign(sender, receivers, data)

        def counted_verify(receiver, claimed, data, signature):
            if self.active:
                counts["crypto.macs"] += unit
                counts["crypto.verifies"] += 1
                if len(samples["verify"]) < ARG_SAMPLE:
                    samples["verify"].append(
                        (verify_batch,
                         (receiver, [(claimed, data, signature)])))
            return verify(receiver, claimed, data, signature)

        def counted_verify_batch(receiver, items):
            if self.active:
                counts["crypto.macs"] += unit * len(items)
                counts["crypto.verifies"] += len(items)
                if items and len(samples["verify"]) < ARG_SAMPLE:
                    samples["verify"].append(
                        (verify_batch, (receiver, list(items))))
            return verify_batch(receiver, items)

        auth.sign = self.wrap(counted_sign, "crypto.auth", "sign")
        auth.verify = self.wrap(counted_verify, "crypto.auth", "verify")
        auth.verify_batch = self.wrap(counted_verify_batch, "crypto.auth",
                                      "verify")

    def instrument_transport(self, transport):
        """Wrap one AsyncioTransport and sample frames for the codec
        replay (``runtime.wire``)."""
        samples = self.samples
        send, on_datagram = transport.send, transport._on_datagram

        def sampled_send(src, dst, size_bytes, payload):
            if self.active:
                count_frames(self.counts, payload)
                if len(samples["encode"]) < ARG_SAMPLE:
                    samples["encode"].append((src, payload))
            return send(src, dst, size_bytes, payload)

        def sampled_on_datagram(data, addr):
            if self.active and len(samples["decode"]) < ARG_SAMPLE:
                samples["decode"].append(bytes(data))
            return on_datagram(data, addr)

        transport.send = sampled_send
        transport._on_datagram = sampled_on_datagram
        self.wrap_methods(transport, TRANSPORT_SEAMS, "runtime.transport")

    def observe_clock(self, clock):
        """Sit in the ``observer`` slot of a Simulator or AsyncioClock,
        in front of whatever observer (the obs plane) is already there."""
        clock.observer = TimerShim(self, clock, clock.observer)
        return clock.observer

    def observe_network(self, network):
        """Charge the obs plane's datagram hooks to their own row, so
        they do not read as network (or transport) self time."""
        if network.observer is not None:
            network.observer = ObserverProxy(network.observer, self)


class TimerShim:
    """Scheduler observer: one span per fired timer, charged to the
    module that owns the callback.

    ``on_timer`` runs just before the scheduler invokes
    ``timer.callback``; swapping the callback for :meth:`_run` there
    brackets exactly the callback, so what remains of ``run()`` is the
    scheduler's own self time.
    """

    def __init__(self, tracer, clock, inner=None):
        self.tracer = tracer
        self.clock = clock
        self.pending_peak = 0
        self._rows = {}
        self._callback = None
        self._inner_on_timer = (tracer.wrap(inner.on_timer, "obs.plane",
                                            "on_timer")
                                if inner is not None else None)

    def on_timer(self, now, timer):
        if self._inner_on_timer is not None:
            self._inner_on_timer(now, timer)
        tracer = self.tracer
        if not tracer.active:
            return
        callback = timer.callback
        owner = getattr(callback, "__self__", None)
        ident = type(owner) if owner is not None else getattr(
            callback, "__module__", None)
        name = getattr(callback, "__name__", "")
        entry = self._rows.get((ident, name))
        if entry is None:
            row = module_key(type(owner) if owner is not None else callback)
            kind = "data" if name in DATA_PATH_CALLBACKS else "timer"
            entry = self._rows[(ident, name)] = tracer.wrap(
                self._run, row, kind)
        self._callback = callback
        timer.callback = entry
        counts = tracer.counts
        counts["events"] += 1
        if not counts["events"] & 63:
            pending = self.clock.pending
            if pending > self.pending_peak:
                self.pending_peak = pending

    def _run(self, *args):
        return self._callback(*args)


class ObserverProxy:
    """The obs plane's network/transport hooks, each inside a span."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        hook = self._tracer.wrap(getattr(self._inner, name), "obs.plane",
                                 name)
        setattr(self, name, hook)
        return hook


class NetworkProxy:
    """A process's handle on the network, with ``send`` and
    ``gossip_cast`` inside spans (and frames counted, for the bottom
    layer's pack fill); everything else passes through."""

    def __init__(self, inner, tracer, row):
        self._inner = inner
        counts = tracer.counts
        send = inner.send

        def counted_send(src, dst, size_bytes, payload):
            if tracer.active:
                count_frames(counts, payload)
            return send(src, dst, size_bytes, payload)

        self.send = tracer.wrap(counted_send, row, "send")
        self.gossip_cast = tracer.wrap(inner.gossip_cast, row, "gossip")

    def __getattr__(self, name):
        return getattr(self._inner, name)
