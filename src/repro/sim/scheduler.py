"""Deterministic discrete-event simulator.

All protocol code in this repository executes inside a single
:class:`Simulator`.  Events are ordered by (deadline, insertion sequence),
so two runs with the same seed produce byte-identical histories -- the
property every test and benchmark in this reproduction relies on.

Serial queues (docs/PERFORMANCE.md, "The CPU path"): a node's
CPU-completion events are already sorted -- :meth:`repro.sim.network.Cpu.
charge` returns non-decreasing deadlines -- so keeping every one of them
in the global heap is pure waste: at n=50 the fig5 heap peaks near 50k
entries, almost all of them per-node receive-processing callbacks queued
behind each CPU's ``busy_until``.  :meth:`schedule_serial` instead parks
such events in a per-queue deque and exposes only each queue's *head* to
the heap (a k-way merge).  The insertion sequence is still assigned at
schedule time from the shared counter, and within one queue entries are
monotone in (deadline, seq), so the popped order -- and therefore every
simulated history -- is the one an all-in-heap schedule would produce.  A
caller that violates the monotonicity contract silently falls back to a
plain heap entry, which is always correct.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

from repro.sim.clock import Timer


class SimulationError(RuntimeError):
    """Raised when the simulator is driven outside its contract."""


class SerialQueue:
    """FIFO of already-ordered timers; only its head sits in the heap."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = deque()


class Simulator:
    """A single-threaded event-heap simulator with virtual time.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`.  Every source
        of randomness in the reproduction (network jitter, drops, workload
        arrivals) draws from this generator so executions are reproducible.
    """

    __slots__ = ("now", "rng", "_heap", "_seq", "_events_processed",
                 "_running", "_serial_hidden", "observer")

    def __init__(self, seed=0):
        self.now = 0.0
        self.rng = random.Random(seed)
        self._heap = []
        self._seq = 0
        self._events_processed = 0
        self._running = False
        # serial-queue entries parked outside the heap (pending accounting)
        self._serial_hidden = 0
        # optional observability hook (repro.obs): notified before each
        # fired timer; None (the default) costs one branch per event
        self.observer = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay, callback, *args):
        """Run ``callback(*args)`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise SimulationError("cannot schedule in the past: %r" % delay)
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, deadline, callback, *args):
        """Run ``callback(*args)`` at absolute simulated time ``deadline``."""
        if deadline < self.now:
            raise SimulationError(
                "deadline %.9f precedes now %.9f" % (deadline, self.now)
            )
        timer = Timer(deadline, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, (deadline, self._seq, timer))
        return timer

    def serial_queue(self):
        """A new :class:`SerialQueue` for :meth:`schedule_serial`."""
        return SerialQueue()

    def schedule_serial(self, queue, deadline, callback, *args):
        """Like :meth:`schedule_at` for deadlines known to be monotone.

        ``queue`` is a :class:`SerialQueue` whose successive deadlines
        never decrease (e.g. one node's CPU-completion times).  Entries
        keep their globally-sequenced insertion order, but only the queue
        head occupies the heap, so a deep per-node backlog costs O(1)
        heap entries instead of O(backlog).  A deadline below the queue's
        tail falls back to a plain heap entry (correct for any order).
        """
        if deadline < self.now:
            raise SimulationError(
                "deadline %.9f precedes now %.9f" % (deadline, self.now)
            )
        timer = Timer(deadline, callback, args)
        self._seq += 1
        seq = self._seq
        entries = queue.entries
        if entries:
            if deadline < entries[-1][0]:
                heapq.heappush(self._heap, (deadline, seq, timer))
                return timer
            entries.append((deadline, seq, timer))
            self._serial_hidden += 1
        else:
            entries.append((deadline, seq, timer))
            heapq.heappush(self._heap, (deadline, seq, timer, queue))
        return timer

    def _promote(self, queue):
        """The queue's head left the heap: surface its successor."""
        entries = queue.entries
        entries.popleft()
        if entries:
            deadline, seq, timer = entries[0]
            heapq.heappush(self._heap, (deadline, seq, timer, queue))
            self._serial_hidden -= 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def pending(self):
        """Number of scheduled entries, including lazily-cancelled ones
        and serial-queue entries parked outside the heap."""
        return len(self._heap) + self._serial_hidden

    def timers(self):
        """Every pending (deadline, seq, timer) entry, heap + serial
        queues, in no particular order (introspection/tests only)."""
        for entry in self._heap:
            yield entry[0], entry[1], entry[2]
            if len(entry) == 4:
                queue_entries = entry[3].entries
                for idx in range(1, len(queue_entries)):
                    yield queue_entries[idx]

    @property
    def events_processed(self):
        return self._events_processed

    def step(self):
        """Process the single next event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if len(entry) == 4:
                self._promote(entry[3])
            timer = entry[2]
            if timer.cancelled:
                continue
            self.now = entry[0]
            if self.observer is not None:
                self.observer.on_timer(self.now, timer)
            timer.callback(*timer.args)
            self._events_processed += 1
            return True
        return False

    def run(self, until=None, max_events=None):
        """Drain the event heap.

        Parameters
        ----------
        until:
            Stop once virtual time would pass this instant.  Events at a
            deadline strictly greater than ``until`` stay queued and
            ``now`` is advanced to ``until``.
        max_events:
            Safety valve for runaway protocols; raises if exceeded.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        # the event loop is the single hottest frame in every benchmark:
        # hoist the heap and heappop lookups out of the loop (the observer
        # is re-read each iteration on purpose -- it can be installed or
        # removed by a fired event)
        heap = self._heap
        heappop = heapq.heappop
        try:
            processed = 0
            while heap:
                entry = heap[0]
                timer = entry[2]
                if timer.cancelled:
                    heappop(heap)
                    if len(entry) == 4:
                        self._promote(entry[3])
                    continue
                deadline = entry[0]
                if until is not None and deadline > until:
                    break
                heappop(heap)
                if len(entry) == 4:
                    self._promote(entry[3])
                self.now = deadline
                if self.observer is not None:
                    self.observer.on_timer(deadline, timer)
                timer.callback(*timer.args)
                self._events_processed += 1
                processed += 1
                if max_events is not None and processed > max_events:
                    raise SimulationError(
                        "exceeded max_events=%d (runaway protocol?)" % max_events
                    )
            if until is not None and self.now < until:
                self.now = until
            return processed
        finally:
            self._running = False

    def run_until(self, predicate, timeout, max_events=None):
        """Run until ``predicate()`` is true or ``timeout`` sim-seconds pass.

        Returns True if the predicate became true.  The predicate is checked
        after every processed event, which is exact for event-driven
        conditions -- and why it should be O(1): a caller that must scan
        state should gate the scan on a version counter its subject bumps.
        """
        deadline = self.now + timeout
        processed = 0
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            if predicate():
                return True
            entry = heap[0]
            timer = entry[2]
            if timer.cancelled:
                heappop(heap)
                if len(entry) == 4:
                    self._promote(entry[3])
                continue
            event_deadline = entry[0]
            if event_deadline > deadline:
                break
            heappop(heap)
            if len(entry) == 4:
                self._promote(entry[3])
            self.now = event_deadline
            if self.observer is not None:
                self.observer.on_timer(event_deadline, timer)
            timer.callback(*timer.args)
            self._events_processed += 1
            processed += 1
            if max_events is not None and processed > max_events:
                raise SimulationError(
                    "exceeded max_events=%d (runaway protocol?)" % max_events
                )
        if predicate():
            return True
        if self.now < deadline:
            self.now = deadline
        return predicate()
