"""Layer and stack glue (paper Figure 2, Ensemble's micro-protocol model).

A node's group-communication module is a stack of small layers.  Messages
travel *down* from the application (each layer may push a header and pass
on, or originate its own messages) and *up* from the network (each layer
pops its header, acts, and passes on).  Layers also receive *control*
notifications -- view installation, block/unblock, fuzzy level changes,
suspicion adoption -- broadcast to the whole stack, which is how Ensemble
layers coordinate without knowing each other.

A layer that wants to talk to its peers at other nodes simply creates a
:class:`repro.core.message.Message` with its own ``kind`` and sends it
down: the reliable layer gives every broadcast kind FIFO delivery, the
bottom layer signs it once -- no protocol-level signatures anywhere, as
the paper requires.
"""

from __future__ import annotations

from repro.core.message import Message


class Layer:
    """Base micro-protocol layer.  Subclasses override the handlers."""

    name = "layer"

    def __init__(self):
        self.stack = None
        # bound at attach() time; None until the layer joins a stack
        self.process = None
        self.sim = None
        self.config = None
        self.me = None

    # wiring -----------------------------------------------------------
    def attach(self, stack):
        # hot-path attribute caching (docs/PERFORMANCE.md): process, sim,
        # config and node id never change for the lifetime of a stack, so
        # they are plain attributes instead of chained property lookups --
        # the layer dispatch path reads them on every message hop.  The
        # view is NOT cached here: process.view is reassigned on every
        # view installation, so it stays a property.
        self.stack = stack
        process = stack.process
        self.process = process
        self.sim = process.sim
        self.config = process.config
        self.me = process.node_id

    @property
    def view(self):
        return self.stack.process.view

    # message path -----------------------------------------------------
    def handle_down(self, msg):
        """A message heading to the network; default: pass through."""
        self.send_down(msg)

    def handle_up(self, msg):
        """A message arriving from the network; default: pass through."""
        self.send_up(msg)

    def passes_up(self):
        """Does ``handle_up`` pass every message on, untouched, for this
        stack's lifetime?  Then obs off binds the layer below past it."""
        return False

    def send_down(self, msg):
        self.stack.down_from(self, msg)

    def send_up(self, msg):
        self.stack.up_from(self, msg)

    # the host port of the machines without I/O (reliable.StreamMachine,
    # view_change.ViewChange), with count() below ----------------------
    def send(self, kind, payload, size, dest=None):
        """Send this layer's own message down, in the current view."""
        self.send_down(Message(kind, self.me, self.view.vid, payload,
                               payload_size=size, dest=dest))

    def arm(self, delay, callback, *args):
        return self.sim.schedule(delay, callback, *args)

    def now(self):
        return self.sim.now

    # introspection -----------------------------------------------------
    def state_sizes(self):
        """``{metric: entry_count}`` for this layer's unbounded-looking
        state stores.  The bounded-state checker samples these during soak
        runs: every store a layer grows in response to traffic or faults
        should be reported here so monotone growth is caught, not guessed.
        """
        return {}

    # observability -----------------------------------------------------
    @property
    def obs(self):
        """The cluster's observability plane, or None when disabled."""
        return self.stack.obs

    def count(self, name, n=1):
        """Bump the per-(node, layer) counter ``name``; no-op when off."""
        obs = self.stack.obs
        if obs is not None and obs.metrics_enabled:
            obs.metrics.inc(self.me, self.name, name, n)

    def observe(self, name, value):
        """Record ``value`` into the per-(node, layer) histogram."""
        obs = self.stack.obs
        if obs is not None and obs.metrics_enabled:
            obs.metrics.observe(self.me, self.name, name, value)

    def set_gauge(self, name, value):
        obs = self.stack.obs
        if obs is not None and obs.metrics_enabled:
            obs.metrics.set_gauge(self.me, self.name, name, value)

    def trace_mark(self, msg, action, detail=None):
        """Annotate the message's span without counting a layer hop."""
        obs = self.stack.obs
        if obs is not None:
            obs.mark(self.me, self.name, action, msg, detail)

    # control path ------------------------------------------------------
    def on_view(self, view):
        """A new view was installed (called bottom-up on every layer)."""

    def on_control(self, event, data):
        """A stack-wide control notification; ``event`` is a string."""

    def start(self):
        """Called once when the process boots (timers go here)."""

    def stop(self):
        """Called when the process shuts down."""


class LayerStack:
    """Orders the layers and routes messages/control between them."""

    def __init__(self, process, layers):
        self.process = process
        # the process's layer handles work while the layers attach: a
        # layer may take a service of one attached below it
        process.stack = self
        # the cluster's observability plane (None when disabled): every
        # hook below is a single is-None branch in the disabled case
        self.obs = getattr(process, "obs", None)
        self.layers = list(layers)  # bottom first
        self._by_name = {layer.name: layer for layer in self.layers}
        if len(self._by_name) != len(self.layers):
            raise ValueError("duplicate layer names in stack")
        for idx, layer in enumerate(self.layers):
            layer._idx = idx
            layer.attach(self)
        # precomputed neighbours: up/down dispatch runs once per layer per
        # message, so avoid the index arithmetic + list lookup on each hop
        for idx, layer in enumerate(self.layers):
            layer._below = self.layers[idx - 1] if idx > 0 else None
            layer._above = (self.layers[idx + 1]
                            if idx + 1 < len(self.layers) else None)
        if self.obs is None:
            # with observability off there is nothing to record per hop:
            # bind each layer's send_up/send_down straight to its
            # neighbour's handler, cutting two call frames per hop on the
            # hottest path in the system -- past any layer whose
            # passes_up() is true.  (obs is fixed for the stack's
            # lifetime -- it is read from the process at construction.)
            for layer in self.layers:
                above = layer._above
                if above is not None:
                    while above.passes_up() and above._above is not None:
                        above = above._above
                    layer.send_up = above.handle_up
                if layer._below is not None:
                    layer.send_down = layer._below.handle_down
        self.blocked = False

    def layer(self, name):
        return self._by_name[name]

    # ------------------------------------------------------------------
    def down_from(self, layer, msg):
        below = layer._below
        if below is None:
            raise RuntimeError("bottom layer cannot send further down")
        if self.obs is not None:
            self.obs.hop(self.process.node_id, below.name, "down", msg)
        below.handle_down(msg)

    def up_from(self, layer, msg):
        above = layer._above
        if above is None:
            raise RuntimeError("top layer cannot send further up")
        if self.obs is not None:
            self.obs.hop(self.process.node_id, above.name, "up", msg)
        above.handle_up(msg)

    # ------------------------------------------------------------------
    def control(self, event, **data):
        """Broadcast a control notification to every layer, bottom-up."""
        for layer in self.layers:
            layer.on_control(event, data)

    def install_view(self, view):
        for layer in self.layers:
            layer.on_view(view)

    def start(self):
        for layer in self.layers:
            layer.start()

    def stop(self):
        for layer in self.layers:
            layer.stop()
