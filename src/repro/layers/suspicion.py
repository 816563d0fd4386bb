"""Suspicion accumulation and the slander protocol (paper section 3.4.1).

A node locally suspects another when its fuzzy mute or fuzzy verbose level
passes the threshold, or when it is caught red-handed (forged message,
protocol violation).  Local suspicions are *slandered* to all members; a
node adopts a suspicion once more than f members slander the same target
-- with at most f Byzantine nodes, f + 1 slanders imply at least one
correct local suspicion, so adoption is safe.

A Byzantine node that slanders everyone all the time (the paper's
ByzVerboseNode scenario) trips the slander rate bound and becomes verbose
itself -- the detector catching abuse of the detection machinery.

The layer decides when to start the view-change consensus: a settle timer
after the first suspicion (letting concurrent suspicions batch into one
view change), immediately when too many members are suspected, or
immediately when the *coordinator* is suspected.
"""

from __future__ import annotations

from repro.core import message as mk
from repro.layers.base import Layer

#: adopted suspicions that start the view change at once, without the
#: settle delay
SUSPECT_COUNT_THRESHOLD = 3


class SuspicionLayer(Layer):
    """Local suspicion, slander exchange, and view-change triggering."""

    name = "suspicion"

    def __init__(self):
        super().__init__()
        self._local = set()        # members I suspect from my own evidence
        self._adopted = set()      # suspicions adopted via f+1 slanders
        self._slanders = {}        # target -> set of slanderers
        self._settle_timer = None
        self._change_requested = False

    # ------------------------------------------------------------------
    def start(self):
        process = self.process
        process.mute_levels.subscribe(self._on_level_change)
        process.verbose_levels.subscribe(self._on_level_change)
        if self.config.byzantine:
            process.verbose_detector.set_rate_bound(
                "suspicion:slander", max_count=3 * max(8, self.view.n),
                window=0.25)

    def stop(self):
        if self._settle_timer is not None:
            self._settle_timer.cancel()
            self._settle_timer = None

    def state_sizes(self):
        return {
            "local": len(self._local),
            "adopted": len(self._adopted),
            "slanders": sum(len(s) for s in self._slanders.values()),
        }

    def on_control(self, event, data):
        if event == "view-change-started":
            self._change_requested = True
            if self._settle_timer is not None:
                self._settle_timer.cancel()
                self._settle_timer = None
        elif event == "view-change-aborted":
            self._change_requested = False

    def on_view(self, view):
        self._local.clear()
        self._adopted.clear()
        self._slanders.clear()
        self._change_requested = False
        if self._settle_timer is not None:
            self._settle_timer.cancel()
            self._settle_timer = None

    # ------------------------------------------------------------------
    # suspicion sources
    # ------------------------------------------------------------------
    def _on_level_change(self, name, member, level):
        config = self.config
        threshold = (config.mute_suspect_threshold if name == "mute"
                     else config.verbose_suspect_threshold)
        if level >= threshold:
            self.suspect_locally(member, reason=name)

    def suspect_locally(self, member, reason="local"):
        """Mark ``member`` suspected from this node's own evidence."""
        if member == self.me or member not in self.view.mbrs:
            return
        if member in self._local:
            return
        self._local.add(member)
        self.count("local_suspicions")
        self._slanders.setdefault(member, set()).add(self.me)
        self.send(mk.KIND_SLANDER, (member, reason), 12)
        self._after_new_suspicion()

    def adopt(self, member, reason="adopted"):
        """Adopt a suspicion without local evidence (e.g. explicit leave)."""
        if member == self.me or member not in self.view.mbrs:
            return
        if member in self._adopted or member in self._local:
            return
        self._adopted.add(member)
        self._after_new_suspicion()

    # ------------------------------------------------------------------
    # slander intake
    # ------------------------------------------------------------------
    def handle_up(self, msg):
        if msg.kind != mk.KIND_SLANDER:
            self.send_up(msg)
            return
        self.count("slanders_received")
        if self.config.byzantine:
            if self.process.verbose_detector.observe(
                    msg.origin, "suspicion:slander"):
                return
        payload = msg.payload
        if not isinstance(payload, tuple) or len(payload) != 2:
            if self.config.byzantine:
                self.process.verbose_detector.illegal(
                    msg.origin, "suspicion:bad-slander")
            return
        target, _reason = payload
        if target not in self.view.mbrs or msg.origin == target:
            return
        slanderers = self._slanders.setdefault(target, set())
        slanderers.add(msg.origin)
        f = self.process.f
        # f+1 slanders include at least one correct local suspicion
        if (len(slanderers) >= f + 1 and target not in self._adopted
                and target not in self._local):
            self._adopted.add(target)
            self.count("suspicions_adopted")
            self._after_new_suspicion()

    # ------------------------------------------------------------------
    # view-change triggering policy
    # ------------------------------------------------------------------
    def suspected_set(self):
        return self._local | self._adopted

    def is_suspected(self, member):
        return member in self._local or member in self._adopted

    def suspects(self, member):
        """The failure detector the agreement protocols consult: a
        suspicion, or a mute level at ``mute_suspect_threshold``."""
        return (self.is_suspected(member)
                or self.process.mute_levels.level(member)
                >= self.config.mute_suspect_threshold)

    def _after_new_suspicion(self):
        if self._change_requested:
            # a view change is running; the membership layer will pick up
            # the enlarged suspicion set on its next attempt
            self.stack.control("suspicions-updated",
                               suspected=self.suspected_set())
            return
        config = self.config
        suspected = self.suspected_set()
        coordinator_suspected = self.view.coordinator in suspected
        if (coordinator_suspected
                or len(suspected) >= SUSPECT_COUNT_THRESHOLD):
            self._fire_change()
        elif self._settle_timer is None:
            self._settle_timer = self.sim.schedule(
                config.suspicion_settle_delay, self._fire_change)

    def _fire_change(self):
        if self._change_requested:
            return
        self._change_requested = True
        self.count("view_change_triggers")
        if self._settle_timer is not None:
            self._settle_timer.cancel()
            self._settle_timer = None
        self.stack.control("start-view-change",
                           suspected=self.suspected_set())
