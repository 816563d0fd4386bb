"""One node: the stack, the detectors, and the glue between them.

A :class:`GroupProcess` is the reproduction of Figure 1: an application
module (the endpoint), a group-communication module (the layer stack), a
failure-detector module (the fuzzy mute/verbose detectors), and a network
module (the port on the simulated network), plus the node's CPU.
"""

from __future__ import annotations

from repro.core.history import History
from repro.crypto.auth import make_authenticator
from repro.detectors.fuzzy import FuzzyLevels
from repro.detectors.mute import FuzzyMuteDetector
from repro.detectors.verbose import FuzzyVerboseDetector
from repro.layers.base import LayerStack
from repro.layers.bottom import BottomLayer
from repro.layers.flow import FlowLayer
from repro.layers.fragment import FragmentLayer
from repro.layers.heartbeat import HeartbeatLayer
from repro.layers.membership import MembershipLayer
from repro.layers.ordering import OrderingLayer
from repro.layers.reliable import ReliableLayer
from repro.layers.stability import StabilityTracker
from repro.layers.state_transfer import StateTransferLayer
from repro.layers.suspicion import SuspicionLayer
from repro.layers.top import TopLayer
from repro.layers.uniform_delivery import UniformDeliveryLayer
from repro.sim.network import Cpu


def default_layers():
    """The full JazzEnsemble-Byzantine stack, bottom first.

    Optional layers (ordering, uniform delivery) are always present and
    become pass-throughs when their feature is off, so every configuration
    runs the same stack shape.
    """
    return [
        BottomLayer(),
        ReliableLayer(),
        FragmentLayer(),
        FlowLayer(),
        HeartbeatLayer(),
        SuspicionLayer(),
        MembershipLayer(),
        StateTransferLayer(),
        OrderingLayer(),
        UniformDeliveryLayer(),
        TopLayer(),
    ]


class GroupProcess:
    """A single group-communication daemon on the simulated network."""

    def __init__(self, sim, network, node_id, config, keys, initial_view,
                 behavior=None, obs=None, incarnation=0, clock=None,
                 group_id=None):
        # a NodeClock proxy (chaos clock-skew fault) must be installed
        # here, before the stack attaches: layers cache process.sim
        self.sim = sim if clock is None else clock
        self.network = network
        self.node_id = node_id
        # shard plane (repro.shard): which group of a multi-group runtime
        # this daemon belongs to; None on a classic single-group stack.
        # The bottom layer stamps it into every outgoing message before
        # signing and filters mismatches on the way up.
        self.group_id = group_id
        # reboot counter (crash-recovery): 0 for first boot; bumped by
        # Group.restart so peers can reject the dead incarnation's stragglers
        self.incarnation = incarnation
        self.config = config
        self.keys = keys
        self.view = initial_view
        self.f = config.resilience(initial_view.n)
        self.behavior = behavior
        self.obs = obs    # shared ObservabilityPlane, or None (disabled)
        self.endpoint = None
        self.stopped = False
        # the modelled CPU (DESIGN §2) is simulator physics; a real clock
        # hands out its own, since the host pays what it actually spends
        self.cpu = getattr(self.sim, "cpu_model", Cpu)(self.sim)
        self.auth = make_authenticator(config.crypto, keys,
                                       config.crypto_costs)
        self.history = History(node_id)
        self.mute_levels = FuzzyLevels(self.sim, "mute",
                                       config.fuzzy_decay_interval)
        self.verbose_levels = FuzzyLevels(self.sim, "verbose",
                                          config.fuzzy_decay_interval)
        self.mute_detector = FuzzyMuteDetector(self.sim, self.mute_levels,
                                               config.mute_timeout)
        self.verbose_detector = FuzzyVerboseDetector(self.sim,
                                                     self.verbose_levels)
        self.stability = StabilityTracker(self)
        self._last_heard = {}
        self.stack = LayerStack(self, default_layers())
        self.network.attach(node_id, self._on_datagram, self._on_gossip,
                            group=group_id)
        if behavior is not None:
            behavior.install(self)

    # ------------------------------------------------------------------
    # convenient layer handles
    # ------------------------------------------------------------------
    @property
    def bottom(self):
        return self.stack.layer("bottom")

    @property
    def reliable(self):
        return self.stack.layer("reliable")

    @property
    def suspicion(self):
        return self.stack.layer("suspicion")

    @property
    def membership(self):
        return self.stack.layer("membership")

    @property
    def ordering(self):
        return self.stack.layer("ordering")

    @property
    def uniform(self):
        return self.stack.layer("uniform")

    @property
    def top(self):
        return self.stack.layer("top")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def state_sizes(self):
        """Flat ``{"<layer>.<metric>": count}`` sample of every unbounded-
        looking state store in this process -- the bounded-state checker's
        input.  Aggregates each layer's ``state_sizes()`` plus the
        process-level tables (stability matrix, fuzzy levels, liveness
        timestamps) that live outside the stack.
        """
        sizes = {}
        for layer in self.stack.layers:
            for metric, count in layer.state_sizes().items():
                sizes["%s.%s" % (layer.name, metric)] = count
        for metric, count in self.stability.state_sizes().items():
            sizes["stability.%s" % (metric,)] = count
        for metric, count in self.mute_detector.state_sizes().items():
            sizes["mute.%s" % (metric,)] = count
        sizes["fuzzy.mute_levels"] = len(self.mute_levels._levels)
        sizes["fuzzy.verbose_levels"] = len(self.verbose_levels._levels)
        sizes["process.last_heard"] = len(self._last_heard)
        return sizes

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        now = self.sim.now
        for member in self.view.mbrs:
            self._last_heard[member] = now
        self.history.record_view(now, self.view)
        self.stack.start()
        self.stability.start()
        if self.endpoint is not None:
            self.endpoint.dispatch_view(now, self.view)
        if self.behavior is not None:
            self.behavior.start()

    def stop(self):
        """Halt the node (crash semantics: no further events of any kind)."""
        if self.stopped:
            return
        self.stopped = True
        self.stack.stop()
        self.stability.stop()
        self.mute_levels.stop()
        self.verbose_levels.stop()
        self.mute_detector.cancel_all()
        self.network.crash(self.node_id)
        # a per-process clock (the real-network runtime) still holds the
        # node's pending wall timers; cancel them so a stopped node leaks
        # neither sockets (released by crash above) nor timer callbacks.
        # The shared Simulator clock is untouched: per_process is False.
        if getattr(self.sim, "per_process", False):
            self.sim.close()

    # ------------------------------------------------------------------
    # view installation
    # ------------------------------------------------------------------
    def install_view(self, new_view):
        """Adopt a new view: reset per-view state in every component."""
        self.view = new_view
        self.f = self.config.resilience(new_view.n)
        now = self.sim.now
        for member in new_view.mbrs:
            self._last_heard[member] = now
        self.mute_detector.cancel_all()
        self.mute_levels.forget_all()
        self.verbose_levels.forget_all()
        self.stack.blocked = False
        self.stack.install_view(new_view)
        self.history.record_view(now, new_view)
        if self.endpoint is not None:
            self.endpoint.dispatch_view(now, new_view)

    # ------------------------------------------------------------------
    # services used by the layers
    # ------------------------------------------------------------------
    def note_heard_from(self, src):
        self._last_heard[src] = self.sim.now

    def last_heard(self, member):
        return self._last_heard.get(member, 0.0)

    def ordering_freeze(self, undecidable):
        """Freeze the ordering layer for a flush; returns its
        (started, decided) instance watermarks for the SYNC report."""
        if self.config.total_order:
            return self.ordering.freeze_for_flush(undecidable)
        return (0, 0)

    def flush_app(self, k_star, on_done, undecidable=False):
        """Finish the app-level agreement backlog during a flush."""
        if self.config.total_order:
            self.ordering.flush(k_star, on_done, undecidable=undecidable)
        elif self.config.uniform_delivery:
            self.uniform.flush(on_done)
        else:
            on_done()

    def release_own(self):
        """Deliver this member's own casts still held below the
        application, in send order: the last act of a member about to
        leave its view for a singleton one (DESIGN section 4, "the
        flush")."""
        self.reliable.streams.release(self.node_id)
        if self.config.total_order:
            self.ordering.release_own()
        elif self.config.uniform_delivery:
            self.uniform.release_own()

    def gossip(self, payload, size=64):
        if not self.stopped:
            self.network.gossip_cast(self.node_id, size, payload)

    # ------------------------------------------------------------------
    # network callbacks
    # ------------------------------------------------------------------
    def _on_datagram(self, src, msg):
        if not self.stopped:
            self.bottom.on_datagram(src, msg)

    def _on_gossip(self, src, payload):
        if not self.stopped:
            self.stack.layer("heartbeat").on_gossip(src, payload)
