"""Stability tracking (paper sections 3.1 and 3.4.4).

A broadcast message is *stable* once every member not considered faulty
has acknowledged it.  The tracker holds the ack matrix: one count row
per member, in the column order of :func:`repro.layers.reliable.ack_layout`.
This member's row is :class:`repro.layers.reliable.ReliableLayer`'s own
count list, which rises in place as it sends and delivers; a peer's row
is raised in place from its ack rows (on-demand acks and the heartbeats
that carry the same row), on the columns that moved.  The matrix
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

#: the mute level at or above which a member no longer holds back a
#: sender's flow-control window (fuzzy flow control)
FUZZY_FLOW_THRESHOLD = 2.0


class StabilityTracker:
    """Ack matrix + stability queries for one process."""

    def __init__(self, process):
        self.process = process
        self._column = {}   # (origin, stream) -> index in every row
        self._rows = {}     # member -> its row; mine is the reliable layer's
        self._zero = ()     # the row of a member that never acked
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
        self._lag_strikes = {}

    def bind(self, column, own):
        """A view's layout: ``column`` maps (origin, stream) to a row index;
        ``own``, my row, is the reliable layer's counts; peers start at 0."""
        self._column = column
        self._zero = (0,) * len(own)
        self._rows = {self.process.node_id: own}

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
            "ack_rows": len(self._rows),
            "lag_strikes": len(self._lag_strikes),
            "listeners": len(self._listeners),
        }

    # ------------------------------------------------------------------
    # feeds
    # ------------------------------------------------------------------
    def raise_row(self, member, counts, moved):
        """Raise ``member``'s row to ``counts`` at the ``moved`` indices (a
        row only grows: a lower, Byzantine count changes nothing)."""
        row = self._rows.get(member)
        if row is None:
            row = self._rows[member] = list(self._zero)
        for index in moved:
            if counts[index] > row[index]:
                row[index] = counts[index]
        self.notify()

    def notify(self):
        """Run the listeners (mine moves in place: once per drain)."""
        # snapshot: a callback may unsubscribe itself (the membership
        # layer does, once its cut goes stable) without skipping peers
        for callback in tuple(self._listeners):
            callback()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def row(self, member):
        """``member``'s row, in ack-layout column order (zeros if none)."""
        return self._rows.get(member, self._zero)

    def acked_seq(self, member, origin, stream="a"):
        index = self._column.get((origin, stream))
        return 0 if index is None else self.row(member)[index]

    def min_ack(self, origin, stream="a", members=None, ignore_fuzzy=True):
        """Lowest ack for ``origin``'s stream across ``members``.

        With ``ignore_fuzzy``, members whose mute fuzziness is above the
        suspicion threshold do not hold the result back -- the fuzzy
        flow-control optimization.
        """
        process = self.process
        if members is None:
            members = process.view.mbrs
        index = self._column.get((origin, stream))
        if index is None:
            return 0
        rows, zero = self._rows, self._zero
        # consult the fuzzy levels only when somebody IS fuzzy: the level
        # table is empty in the steady state, where the filter excludes
        # nobody (level 0.0 is below any positive threshold), and this
        # probe runs once per member per flow-control decision
        fuzzy = process.mute_levels._levels if ignore_fuzzy else None
        if fuzzy:
            me = process.node_id
        lowest = None
        for member in members:
            if fuzzy and member != me:
                if fuzzy.get(member, 0.0) >= FUZZY_FLOW_THRESHOLD:
                    continue
            value = rows.get(member, zero)[index]
            if lowest is None or value < lowest:
                lowest = value
        return 0 if lowest is None else lowest

    def all_stable(self, cut, members):
        """Is every app message up to ``cut`` acked by all ``members``?"""
        rows, zero = self._rows, self._zero
        for origin, last in cut.items():
            if last <= 0:
                continue
            index = self._column.get((origin, "a"))
            for member in members:
                if index is None or rows.get(member, zero)[index] < last:
                    return False
        return True

    # ------------------------------------------------------------------
    # laggard detection (fuzzy mute input between heartbeats)
    # ------------------------------------------------------------------
    def _laggard_scan(self):
        process = self.process
        config = process.config
        me = process.node_id
        index = self._column.get((me, "a"))
        my_top = 0 if index is None else self.row(me)[index]
        if my_top > 0 and self._view is not None:
            for member in self._view.mbrs:
                if member == me:
                    continue
                behind = my_top - self.row(member)[index]
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
