"""Stability tracking (paper sections 3.1 and 3.4.4).

A broadcast message is *stable* once every member not considered faulty
has acknowledged it.  The tracker aggregates the ack vectors (on-demand
acks and the heartbeats that carry the same vector) from
:class:`repro.layers.reliable.ReliableLayer` into an ack matrix and
answers the two questions the system asks of it:

* flow control: how far has the slowest *low-fuzziness* member acked my
  stream?  (fuzzy optimization: slow nodes with high fuzziness do not hold
  the sender's window back -- paper section 3.1);
* flush: are all messages up to the agreed cut stable at every survivor?

It also performs buffer management (messages acknowledged by all
low-fuzziness members are trimmed from the retransmission archive) and
detects *ack laggards*, feeding the fuzzy mute level of members that stop
acknowledging -- which is how mute nodes are noticed between heartbeats.
"""

from __future__ import annotations


class StabilityTracker:
    """Ack matrix + stability queries for one process."""

    def __init__(self, process):
        self.process = process
        # member -> stream -> {origin: cum}.  Nested dicts instead of
        # (origin, stream) tuple keys: the ack feeds and flow-control
        # queries run once per drain per member, and the tuple build for
        # every probe was a measurable slice of the fig5 slope
        self._acked = {}
        self._listeners = []
        self._view = None
        self._scan_timer = None
        self._lag_strikes = {}

    # ------------------------------------------------------------------
    def start(self):
        config = self.process.config
        self._scan_timer = self.process.sim.schedule(
            config.ack_interval * 4, self._laggard_scan)

    def stop(self):
        if self._scan_timer is not None:
            self._scan_timer.cancel()
            self._scan_timer = None

    def reset(self, view):
        self._view = view
        self._acked = {}
        self._lag_strikes = {}

    def subscribe(self, callback):
        """``callback()`` after every ack-matrix update."""
        self._listeners.append(callback)

    def unsubscribe(self, callback):
        """Drop one registration of ``callback`` (no-op when absent).

        Subscribers that re-register per view change (the membership
        layer's stability wait) must pair every subscribe with an
        unsubscribe, or the listener list grows by one dead callback per
        change -- unbounded under view churn, and every ack-matrix
        update pays for the stale entries too.
        """
        try:
            self._listeners.remove(callback)
        except ValueError:
            pass

    def state_sizes(self):
        return {
            "ack_rows": sum(len(table)
                            for streams in self._acked.values()
                            for table in streams.values()),
            "lag_strikes": len(self._lag_strikes),
            "listeners": len(self._listeners),
        }

    # ------------------------------------------------------------------
    # feeds
    # ------------------------------------------------------------------
    def on_ack(self, member, vector):
        # hot path: called once per reliable-layer drain; entries are
        # max-merged, so callers may pass deltas (only the entries that
        # changed) and the table converges to the same state as if the
        # full vector were passed every time
        streams = self._acked.get(member)
        if streams is None:
            streams = self._acked[member] = {}
        for origin, stream, cum in vector:
            table = streams.get(stream)
            if table is None:
                table = streams[stream] = {}
            if cum > table.get(origin, 0):
                table[origin] = cum
        self._notify()

    def _notify(self):
        # snapshot: a callback may unsubscribe itself (the membership
        # layer does, once its cut goes stable) without skipping peers
        for callback in tuple(self._listeners):
            callback()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def acked_seq(self, member, origin, stream="a"):
        streams = self._acked.get(member)
        if streams is None:
            return 0
        table = streams.get(stream)
        if table is None:
            return 0
        return table.get(origin, 0)

    def min_ack(self, origin, stream="a", members=None, ignore_fuzzy=True):
        """Lowest ack for ``origin``'s stream across ``members``.

        With ``ignore_fuzzy``, members whose mute fuzziness is above the
        suspicion threshold do not hold the result back -- the fuzzy
        flow-control optimization.
        """
        process = self.process
        if members is None:
            members = process.view.mbrs
        acked = self._acked
        # consult the fuzzy levels only when somebody IS fuzzy: the level
        # table is empty in the steady state, where the filter excludes
        # nobody (level 0.0 is below any positive threshold), and this
        # probe runs once per member per flow-control decision
        fuzzy = process.mute_levels._levels if ignore_fuzzy else None
        if fuzzy:
            me = process.node_id
            threshold = process.config.fuzzy_flow_threshold
        lowest = None
        for member in members:
            if fuzzy and member != me:
                if fuzzy.get(member, 0.0) >= threshold:
                    continue
            # inlined acked_seq: once per member per call
            value = 0
            streams = acked.get(member)
            if streams is not None:
                table = streams.get(stream)
                if table is not None:
                    value = table.get(origin, 0)
            if lowest is None or value < lowest:
                lowest = value
        return 0 if lowest is None else lowest

    def all_stable(self, cut, members):
        """Is every app message up to ``cut`` acked by all ``members``?"""
        for origin, last in cut.items():
            if last <= 0:
                continue
            for member in members:
                if self.acked_seq(member, origin, "a") < last:
                    return False
        return True

    # ------------------------------------------------------------------
    # laggard detection (fuzzy mute input between heartbeats)
    # ------------------------------------------------------------------
    def _laggard_scan(self):
        process = self.process
        config = process.config
        me = process.node_id
        my_top = self.acked_seq(me, me, "a")
        if my_top > 0 and self._view is not None:
            for member in self._view.mbrs:
                if member == me:
                    continue
                behind = my_top - self.acked_seq(member, me, "a")
                if behind > config.flow_window:
                    strikes = self._lag_strikes.get(member, 0) + 1
                    self._lag_strikes[member] = strikes
                    obs = process.obs
                    if obs is not None and obs.metrics_enabled:
                        obs.metrics.inc(me, "stability", "laggard_strikes")
                    if strikes >= 2:
                        process.mute_levels.raise_level(member, 1.0)
                else:
                    self._lag_strikes.pop(member, None)
        # buffer management: drop archived copies that every low-fuzziness
        # member has acknowledged (paper section 3.1)
        process.reliable.trim_archive()
        self._scan_timer = self.process.sim.schedule(
            config.ack_interval * 4, self._laggard_scan)
