"""Stub harness for true single-layer unit tests.

Builds a :class:`GroupProcess`-compatible environment around ONE layer:
a recording stub below it and a recording stub above it, plus real
detectors, a real simulator and, for a layer other than the reliable
layer, a real stream machine on the test port (``process.reliable`` is
its :class:`tests.machines.Port`).  This lets tests poke a layer with
hand-crafted messages and observe exactly what it emits, without the
rest of the stack reacting.
"""

from __future__ import annotations

from tests.machines import Port

from repro.core.config import StackConfig
from repro.core.history import History
from repro.core.view import View, ViewId
from repro.crypto.auth import make_authenticator
from repro.crypto.keys import KeyManager
from repro.detectors.fuzzy import FuzzyLevels
from repro.detectors.mute import FuzzyMuteDetector
from repro.detectors.verbose import FuzzyVerboseDetector
from repro.layers.base import Layer, LayerStack
from repro.layers.stability import StabilityTracker
from repro.sim.network import Cpu
from repro.sim.scheduler import Simulator


class RecordingLayer(Layer):
    """Absorbs and records everything that reaches it."""

    def __init__(self, name):
        super().__init__()
        self.name = name
        self.received_up = []
        self.received_down = []

    def handle_up(self, msg):
        self.received_up.append(msg)

    def handle_down(self, msg):
        self.received_down.append(msg)


class StubProcess:
    """Just enough of GroupProcess for a layer under test."""

    def __init__(self, layer, node_id=0, members=(0, 1, 2, 3), config=None,
                 seed=0):
        self.sim = Simulator(seed=seed)
        self.node_id = node_id
        self.config = config or StackConfig.byz()
        self.view = View(ViewId(1, members[0]), members,
                         f=self.config.resilience(len(members)))
        self.f = self.view.f
        self.cpu = Cpu(self.sim)
        self.keys = KeyManager()
        self.auth = make_authenticator(self.config.crypto, self.keys,
                                       self.config.crypto_costs)
        self.history = History(node_id)
        self.endpoint = None
        self.stopped = False
        self.behavior = None
        self.mute_levels = FuzzyLevels(self.sim, "mute", 10.0, 1.0)
        self.verbose_levels = FuzzyLevels(self.sim, "verbose", 10.0, 1.0)
        self.mute_detector = FuzzyMuteDetector(self.sim, self.mute_levels,
                                               self.config.mute_timeout)
        self.verbose_detector = FuzzyVerboseDetector(self.sim,
                                                     self.verbose_levels)
        self.stability = StabilityTracker(self)
        self.stability.reset(self.view)
        self._last_heard = {}
        self.below = RecordingLayer("below")
        self.above = RecordingLayer("above")
        self.layer = layer
        self.port = Port(node_id, self.view, self.config)
        self.stack = LayerStack(self, [self.below, layer, self.above])

    # services the layers might call ------------------------------------
    def note_heard_from(self, src):
        self._last_heard[src] = self.sim.now

    def last_heard(self, member):
        return self._last_heard.get(member, 0.0)

    def ordering_freeze(self, undecidable):
        return (0, 0)

    def flush_app(self, k_star, on_done, undecidable=False):
        on_done()

    def release_own(self):
        pass

    def gossip(self, payload, size=64):
        pass

    @property
    def reliable(self):
        # the layer under test, when it IS the reliable layer
        return self.layer if self.layer.name == "reliable" else self.port

    @property
    def suspicion(self):
        return self.layer

    @property
    def top(self):
        return self.above

    # test conveniences ---------------------------------------------------
    def feed_up(self, msg):
        """Deliver a message to the layer as if from below."""
        self.layer.handle_up(msg)

    def feed_down(self, msg):
        self.layer.handle_down(msg)

    def run(self, duration):
        self.sim.run(until=self.sim.now + duration)


def stub_for(layer, **kw):
    process = StubProcess(layer, **kw)
    layer_started = getattr(layer, "start", None)
    if layer_started is not None:
        layer.start()
    return process
