"""Virtual time primitives for the discrete-event simulator.

The paper's system runs on wall-clock time; the reproduction runs on a
virtual clock owned by :class:`repro.sim.scheduler.Simulator`.  Layers and
failure detectors never read the OS clock -- they receive the simulator's
``now`` and set :class:`Timer` objects, which keeps every run deterministic
and lets benchmarks measure *simulated* seconds.
"""

from __future__ import annotations


class Timer:
    """A cancellable handle for a scheduled callback.

    Timers are returned by :meth:`Simulator.schedule`.  Cancellation is
    lazy: the heap entry stays in place and is discarded when popped.
    """

    __slots__ = ("deadline", "callback", "args", "cancelled")

    def __init__(self, deadline, callback, args):
        self.deadline = deadline
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Prevent the callback from firing.  Safe to call repeatedly.

        Drops the callback and its arguments: the heap entry outlives the
        cancel until its deadline, and must not keep what it would have
        called (or a cycle back to its own holder) alive until then.
        """
        self.cancelled = True
        self.callback = self.args = None

    @property
    def active(self):
        return not self.cancelled

    def __repr__(self):
        state = "cancelled" if self.cancelled else "armed"
        return "Timer(deadline={:.6f}, {})".format(self.deadline, state)


class GridTimer:
    """A periodic timer that sleeps while its owner is idle and wakes on
    the grid it would have kept had it never slept (DESIGN section 4).

    The grid is ``start + k * period`` by repeated addition (one per period
    slept), so every deadline is the float the always-armed chain --
    ``schedule(period)`` again from the callback -- produces; a drifted
    :class:`NodeClock` scales the step like a ``schedule`` delay.  The
    owner's bound method is scheduled as is (timer cost is attributed by
    ``callback.__self__``) and must call :meth:`fired`.
    """

    __slots__ = ("clock", "period", "callback", "deadline", "timer")

    def __init__(self, clock, period, callback):
        self.clock = clock
        self.period = period
        self.callback = callback
        self.deadline = None    # last grid instant used; None = not running
        self.timer = None       # None while not armed

    def start(self):
        """Fix the grid origin at ``now``; the timer stays dormant."""
        self.deadline = self.clock.now

    @property
    def dormant(self):
        """Started and not armed: the owner had nothing to do at its last
        grid instant, or put the timer to :meth:`sleep` before it.  A
        stopped (or never started) timer also has ``timer is None`` but is
        not dormant -- it is never coming back."""
        return self.deadline is not None and self.timer is None

    def arm(self):
        """Wake at the first grid instant strictly after ``now`` (a timer
        set a period ago precedes whatever reaches its instant later).
        No-op while armed, before :meth:`start` and after :meth:`stop` --
        a late cast must not revive a dead node's timer."""
        deadline = self.deadline
        if self.timer is not None or deadline is None:
            return
        step = self.period * getattr(self.clock, "drift", 1.0)
        now = self.clock.now
        while deadline <= now:
            deadline += step
        self.deadline = deadline
        self.timer = self.clock.schedule_at(deadline, self.callback)

    def fired(self, again):
        """The callback ran: stay armed only if the owner says *again*."""
        self.timer = None
        if again:
            self.arm()

    def sleep(self):
        """Go dormant before the armed instant: the wake-up is cancelled,
        the grid is kept, so the next :meth:`arm` lands on it.  No-op when
        not armed (stopped and never-started timers included)."""
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def stop(self):
        self.deadline = None
        self.sleep()


class NodeClock:
    """A per-node view of the simulator with (optional) timer drift.

    The chaos plane's clock-skew fault: a node whose hardware timer runs
    fast or slow fires its protocol timers early or late relative to the
    rest of the cluster.  The proxy scales *relative* delays passed to
    :meth:`schedule` by ``drift`` (> 1.0 = slow clock, timers late) and
    leaves absolute deadlines (:meth:`schedule_at` -- NIC serialization,
    CPU completion) untouched: skew affects when a node *decides* to act,
    not how long the physics of its hardware take.

    Installed at process construction (layers cache ``process.sim`` when
    they attach, so a proxy swapped in later would not be seen).  With
    ``drift == 1.0`` the proxy is behaviourally identical to the bare
    simulator.
    """

    __slots__ = ("sim", "drift")

    def __init__(self, sim, drift=1.0):
        self.sim = sim
        self.drift = drift

    @property
    def now(self):
        return self.sim.now

    @property
    def rng(self):
        return self.sim.rng

    @property
    def pending(self):
        return self.sim.pending

    def schedule(self, delay, callback, *args):
        if self.drift != 1.0:
            delay *= self.drift
        return self.sim.schedule(delay, callback, *args)

    def schedule_at(self, deadline, callback, *args):
        return self.sim.schedule_at(deadline, callback, *args)

    def serial_queue(self):
        return self.sim.serial_queue()

    def schedule_serial(self, queue, deadline, callback, *args):
        # absolute deadlines (CPU completion physics) are never drifted,
        # exactly like schedule_at
        return self.sim.schedule_serial(queue, deadline, callback, *args)

    def __repr__(self):
        return "NodeClock(drift={:.3f})".format(self.drift)
