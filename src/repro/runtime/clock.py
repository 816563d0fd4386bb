"""Monotonic wall-clock timers with the simulator's scheduling surface.

The protocol stack schedules everything through ``process.sim``:
``now``, ``schedule(delay, cb, *args)``, ``schedule_at(deadline, cb,
*args)``, and the per-node ``rng``.  :class:`AsyncioClock` implements
that exact surface over an asyncio event loop's monotonic clock, so the
unmodified layers run in real time.

Differences from the simulator, deliberate:

* time zero is the instant the clock is created (loop time is offset),
  so protocol timestamps stay small and comparable to simulated runs;
* a deadline that is already due (now, or slightly in the past -- real
  clocks race) goes on the loop's ready queue instead of its timer
  heap: the selector rounds any positive timeout up to a whole
  millisecond, so a due callback parked on a timer would wait one out.
  Ready callbacks run in FIFO order, like the simulator's insertion
  sequence;
* there is no modelled CPU (DESIGN §2): a real host pays for its work
  by doing it, so :class:`_WallCpu` completes every charge at once;
* the clock tracks every armed timer and :meth:`close` cancels them all,
  which is what lets ``GroupProcess.stop`` guarantee that repeated
  start/stop cycles leak nothing (each node process owns its clock, so
  ``per_process`` is True and the process may close it).
"""

from __future__ import annotations

import asyncio
import random


class WallTimer:
    """Cancellable handle mirroring :class:`repro.sim.clock.Timer`."""

    __slots__ = ("deadline", "callback", "args", "cancelled", "_clock",
                 "_handle")

    def __init__(self, clock, deadline, callback, args):
        self.deadline = deadline
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._clock = clock
        self._handle = None

    def cancel(self):
        """Prevent the callback from firing.  Safe to call repeatedly."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = self.args = None    # as sim.clock.Timer.cancel
        if self._handle is not None:
            self._handle.cancel()
        self._clock._live.discard(self)

    @property
    def active(self):
        return not self.cancelled

    def __repr__(self):
        state = "cancelled" if self.cancelled else "armed"
        return "WallTimer(deadline={:.6f}, {})".format(self.deadline, state)


class _WallCpu:
    """The real clock's stand-in for :class:`repro.sim.network.Cpu`.

    ``charge`` returns the present: the work it accounts for has already
    run on the host.  The modelled seconds still add up in
    ``busy_accum``.
    """

    __slots__ = ("clock", "busy_accum")

    def __init__(self, clock):
        self.clock = clock
        self.busy_accum = 0.0

    def charge(self, seconds):
        self.busy_accum += seconds
        return self.clock.now


class AsyncioClock:
    """One node's real-time clock; the ``process.sim`` seam over asyncio."""

    #: a per-node clock may be closed by its owning GroupProcess on stop
    #: (the shared Simulator must not be -- see GroupProcess.stop)
    per_process = True
    #: the CPU model a process on this clock charges (see _WallCpu)
    cpu_model = _WallCpu

    def __init__(self, loop=None, seed=0):
        self._loop = loop or asyncio.get_event_loop()
        self._t0 = self._loop.time()
        self.rng = random.Random(seed)
        self._live = set()          # armed WallTimer objects
        self._events_processed = 0
        self.closed = False
        # optional observability hook, same contract as Simulator.observer
        self.observer = None

    # ------------------------------------------------------------------
    @property
    def now(self):
        """Seconds since this clock was created (monotonic)."""
        return self._loop.time() - self._t0

    @property
    def pending(self):
        """Number of armed timers (cancelled ones are dropped eagerly)."""
        return len(self._live)

    @property
    def events_processed(self):
        return self._events_processed

    # ------------------------------------------------------------------
    def schedule(self, delay, callback, *args):
        """Run ``callback(*args)`` ``delay`` real seconds from now."""
        return self.schedule_at(self.now + max(0.0, delay), callback, *args)

    def schedule_at(self, deadline, callback, *args):
        """Run ``callback(*args)`` at clock time ``deadline``; a deadline
        that is already due goes on the loop's ready queue."""
        if self.closed:
            raise RuntimeError("schedule_at on a closed clock")
        timer = WallTimer(self, deadline, callback, args)
        if deadline <= self.now:
            timer._handle = self._loop.call_soon(self._fire, timer)
        else:
            timer._handle = self._loop.call_at(self._t0 + deadline,
                                               self._fire, timer)
        self._live.add(timer)
        return timer

    def serial_queue(self):
        """The asyncio loop already merges timers in O(log pending); no
        per-queue bookkeeping is worth it here (see Simulator.serial_queue)."""
        return None

    def schedule_serial(self, queue, deadline, callback, *args):
        """Surface parity with the simulator; plain ``schedule_at``."""
        del queue
        return self.schedule_at(deadline, callback, *args)

    def _fire(self, timer):
        self._live.discard(timer)
        if timer.cancelled or self.closed:
            return
        if self.observer is not None:
            self.observer.on_timer(self.now, timer)
        self._events_processed += 1
        timer.callback(*timer.args)

    # ------------------------------------------------------------------
    def close(self):
        """Cancel every armed timer; further firing is suppressed."""
        self.closed = True
        for timer in list(self._live):
            timer.cancelled = True
            if timer._handle is not None:
                timer._handle.cancel()
        self._live.clear()

    def __repr__(self):
        return "AsyncioClock(now={:.3f}, pending={}, closed={})".format(
            self.now, self.pending, self.closed)
