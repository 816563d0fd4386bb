"""Fuzzy mute failure detector (paper section 3.2).

A *mute failure* of q with respect to p is q consistently failing to send a
protocol message that p's layer expects -- an acknowledgement, a new-view
message from the coordinator, the coordinator's gossip announcement, a
consensus round message.  Because each layer knows exactly which headers it
is owed, muteness is detectable from locally observed events alone.

Layers use the registration API directly:

* :meth:`expect_all` -- "these members each owe me a message of kind
  ``tag`` within ``timeout``": one deadline, one timer, one handle
  (a consensus round owed by n - 1 members costs one heap entry, not
  n - 1); :meth:`expect` is the single-member form;
* :meth:`fulfil` -- the owed message arrived; the member is struck off the
  oldest expectation that still owes it, and the last member struck
  cancels the timer;
* on timeout, the fuzzy *mute* level of every member still owed is raised
  by the expectation's weight, in the order the members were given.

The detector approximates the class 3P-mute: completeness comes from
timeouts, eventual accuracy from the aging in
:class:`repro.detectors.fuzzy.FuzzyLevels` plus generous thresholds.
"""

from __future__ import annotations

from collections import deque


class Expectation:
    """Handle for one registered expectation (one deadline)."""

    __slots__ = ("owed", "tag", "weight", "timer", "done")

    def __init__(self, members, tag, weight):
        self.owed = dict.fromkeys(members)  # insertion-ordered member set
        self.tag = tag
        self.weight = weight
        self.timer = None
        self.done = False

    def cancel(self):
        if not self.done:
            self.done = True
            # drop the timer: it holds us through its args, and a cancelled
            # timer waits in the heap until its deadline
            timer, self.timer = self.timer, None
            if timer is not None:
                timer.cancel()


class FuzzyMuteDetector:
    """Expectation registry feeding a fuzzy mute level."""

    def __init__(self, sim, levels, default_timeout=0.2):
        self.sim = sim
        self.levels = levels
        self.default_timeout = default_timeout
        self._pending = {}          # tag -> deque of Expectation, oldest first
        self.timeouts_fired = 0

    # ------------------------------------------------------------------
    def expect(self, member, tag, timeout=None, weight=1.0):
        """Register that ``member`` owes us a ``tag`` message."""
        return self.expect_all((member,), tag, timeout, weight)

    def expect_all(self, members, tag, timeout=None, weight=1.0):
        """Register that each of ``members`` owes us a ``tag`` message by
        one shared deadline."""
        exp = Expectation(members, tag, weight)
        if not exp.owed:
            exp.done = True
            return exp
        exp.timer = self.sim.schedule(
            timeout if timeout is not None else self.default_timeout,
            self._timed_out, exp,
        )
        self._pending.setdefault(tag, deque()).append(exp)
        return exp

    def fulfil(self, member, tag):
        """Strike ``member`` off the oldest live ``tag`` expectation owing it.

        Returns True if one was pending -- callers can treat an unexpected
        message of an expected kind as input for the *verbose* detector.
        """
        queue = self._pending.get(tag)
        if queue is None:
            return False
        for exp in queue:
            if not exp.done and member in exp.owed:
                del exp.owed[member]
                if not exp.owed:
                    exp.cancel()
                    self._prune(tag, queue)
                return True
        return False

    def cancel_member(self, member):
        """Drop all expectations against ``member`` (it left or was removed)."""
        for tag, queue in list(self._pending.items()):
            for exp in queue:
                if member in exp.owed:
                    del exp.owed[member]
                    if not exp.owed:
                        exp.cancel()
            self._prune(tag, queue)

    def cancel_all(self):
        for queue in self._pending.values():
            for exp in queue:
                exp.cancel()
        self._pending.clear()

    def pending_count(self, member=None):
        """Live (member, expectation) debts, optionally for one member."""
        total = 0
        for queue in self._pending.values():
            for exp in queue:
                if not exp.done:
                    total += (len(exp.owed) if member is None
                              else member in exp.owed)
        return total

    def state_sizes(self):
        """Retained handles, for the bounded-state checker."""
        return {"expectations": sum(len(q) for q in self._pending.values())}

    # ------------------------------------------------------------------
    def _prune(self, tag, queue):
        """Shed finished expectations from the head of ``tag``'s queue."""
        while queue and queue[0].done:
            queue.popleft()
        if not queue:
            self._pending.pop(tag, None)

    def _timed_out(self, exp):
        if exp.done:
            return
        exp.done = True
        exp.timer = None
        queue = self._pending.get(exp.tag)
        if queue is not None:
            self._prune(exp.tag, queue)
        # a raised level may re-enter (suspicion -> view change ->
        # cancel_member), so walk a snapshot of who is still owed
        for member in tuple(exp.owed):
            self.timeouts_fired += 1
            self.levels.raise_level(member, exp.weight)
