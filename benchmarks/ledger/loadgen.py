"""Load generators and the benchmark's own record of what was delivered.

End-to-end numbers come from here: every cast is logged with the time it
was due, every delivery with the time the benchmark read when the
endpoint's ``on_cast`` callback ran.  Nothing the program computed about
itself is used.
"""

from __future__ import annotations

import asyncio
import time

from benchmarks.ledger.measure import median, percentile, tail_percentile


class CastLog:
    """Due times and per-member delivery times of application casts.

    ``now`` is the backend's clock as the benchmark reads it
    (``sim.now`` on the simulator, ``time.perf_counter`` on UDP).  On a
    wall clock, ``cpu`` (``time.process_time``) is read when a cast is
    issued and at each delivery, so that :meth:`summarize` can tell the
    part of a latency the process spent computing from the part it spent
    waiting.
    """

    def __init__(self, now, observer, cpu=None):
        self.now = now
        self.cpu = cpu
        self.observer = observer          # the never-faulted member
        self.observer_times = []          # its delivery times
        self.records = {}                 # msg_id -> [due, node, t, node, t..]
        self.cpu_marks = {}               # msg_id -> [at issue, at latest delivery]
        self.late = []                    # open loop: issue time - due time

    def attach(self, node, endpoint, hook=None):
        """Take over ``endpoint.on_cast``; ``hook(node, event)`` runs after
        the delivery is recorded (closed-loop generators advance there)."""
        endpoint.record_events = False
        records = self.records
        now = self.now
        cpu = self.cpu
        cpu_marks = self.cpu_marks
        observer_times = (self.observer_times if node == self.observer
                          else None)

        def on_cast(event):
            at = now()
            record = records.get(event.msg_id)
            if record is None:
                # self-delivery can run inside cast(), before the
                # generator has the message id to log the due time under
                record = records[event.msg_id] = [None]
            record.append(node)
            record.append(at)
            if cpu is not None:
                cpu_marks.setdefault(event.msg_id, [None, None])[1] = cpu()
            if observer_times is not None:
                observer_times.append(at)
            if hook is not None:
                hook(node, event)

        endpoint.on_cast = on_cast

    def cast(self, endpoint, payload, size, due):
        issued = self.cpu() if self.cpu is not None else None
        msg_id = endpoint.cast(payload, size=size)
        record = self.records.get(msg_id)
        if record is None:
            self.records[msg_id] = [due]
        else:
            record[0] = due
        if issued is not None:
            self.cpu_marks.setdefault(msg_id, [None, None])[0] = issued
        return msg_id

    # ------------------------------------------------------------------
    def summarize(self, required, w0, w1, cpu_scale=None):
        """What the window ``[w0, w1)`` looked like from outside.

        A cast is *delivered* once every member of ``required`` has
        delivered it; its latency runs from its due time to the last of
        those deliveries.  Attempted casts are the ones due inside the
        window; goodput counts completions that fell inside it.

        With ``cpu_scale`` (wall-clock backends), latencies are in
        *reference-host* time, as ``setup_s`` is: the part of each
        latency the process spent on the CPU -- its CPU clock from issue
        to last delivery -- is multiplied by ``cpu_scale`` (reference
        calibration loop over the one measured in the window); the part
        it spent waiting for timers and sockets counts as it is.
        """
        required = frozenset(required)
        need = len(required)
        attempted = delivered = completed_in_window = 0
        latencies = []
        for msg_id, record in self.records.items():
            due = record[0]
            if due is None:
                continue
            seen = 0
            last = None
            for idx in range(1, len(record), 2):
                if record[idx] in required:
                    seen += 1
                    at = record[idx + 1]
                    if last is None or at > last:
                        last = at
            done = seen >= need
            if done and w0 <= last < w1:
                completed_in_window += 1
            if w0 <= due < w1:
                attempted += 1
                if done:
                    delivered += 1
                    latency = last - due
                    if cpu_scale is not None:
                        issued, finished = self.cpu_marks[msg_id]
                        busy = min(latency, finished - issued)
                        latency += busy * (cpu_scale - 1.0)
                    latencies.append(latency)
        latencies.sort()
        edges = [w0] + [t for t in self.observer_times if w0 <= t < w1]
        edges.append(w1)
        return {
            "attempted": attempted,
            "delivered": delivered,
            "completed_in_window": completed_in_window,
            "window": w1 - w0,
            "latencies": latencies,
            "gap": max(b - a for a, b in zip(edges, edges[1:])),
            "late": sorted(self.late),
        }


def latency_stats(windows):
    """Median and tail latency of a run, in ms.

    ``windows`` are the sorted latency samples of the run's measured
    windows (one per episode on the simulator, one per wall second on
    UDP).  Each percentile is taken per window and the run reports the
    median over windows: a host hiccup that ruins one window (on this
    box they last 1-3 s and double UDP latency) then moves the run's
    number no more than it should.  Also returns the sample count and
    the highest percentile a window's sample supports (ten beyond it).
    """
    windows = [window for window in windows if window]
    pooled = sorted(x for window in windows for x in window)

    def over_windows(q):
        return median([percentile(w, q) for w in windows]) * 1000.0

    return {
        "samples": len(pooled),
        "windows": len(windows),
        "p50_ms": over_windows(50.0),
        "p95_ms": over_windows(95.0),
        "p99_pooled_ms": percentile(pooled, 99.0) * 1000.0,
        "supported_percentile": tail_percentile(
            min(len(w) for w in windows) if windows else 0),
    }


# ----------------------------------------------------------------------
# simulator: open loop
# ----------------------------------------------------------------------
class SimOpenLoop:
    """``casters`` each cast every ``interval`` simulated seconds from
    their own phase, whether or not earlier casts were delivered.

    Casts are scheduled at their due time on the simulator, so in
    simulated time the generator is never late.  A caster that stops
    being live and correct (``alive(node)`` false) stops casting.
    """

    def __init__(self, group, log, casters, interval, phases, stop_at,
                 token, size=16, alive=None):
        self.group = group
        self.log = log
        self.interval = interval
        self.stop_at = stop_at
        self.token = token
        self.size = size
        self.alive = alive or (lambda node: True)
        self.issued = 0
        for node, phase in zip(casters, phases):
            group.sim.schedule_at(phase, self._cast, node, phase, 0)

    def _cast(self, node, due, k):
        if due >= self.stop_at:
            return
        endpoint = self.group.endpoints[node]
        if endpoint.process.stopped or not self.alive(node):
            return
        self.log.cast(endpoint, (self.token, node, k), self.size, due)
        self.issued += 1
        due += self.interval
        self.group.sim.schedule_at(due, self._cast, node, due, k + 1)


# ----------------------------------------------------------------------
# simulator: closed loop (the paper's Ring demo)
# ----------------------------------------------------------------------
class SimRing:
    """Every member casts a burst, waits for everyone's burst, repeats.

    Written against ``endpoint.cast`` / ``on_cast`` only (not
    ``repro.apps.ring``: the app records its own latencies, and
    end-to-end numbers may not come from the program).
    """

    def __init__(self, group, log, burst, token, size=16):
        self.group = group
        self.log = log
        self.burst = burst
        self.token = token
        self.size = size
        self.stopped = False
        self.rounds = {node: 0 for node in group.endpoints}
        self._received = {node: {} for node in group.endpoints}
        for node, endpoint in group.endpoints.items():
            log.attach(node, endpoint, hook=self._on_delivery)

    def start(self, offsets):
        """Each member's first burst at its own (seeded) offset."""
        sim = self.group.sim
        for node, offset in offsets.items():
            sim.schedule(offset, self._burst, node)

    def _burst(self, node):
        if self.stopped:
            return
        endpoint = self.group.endpoints[node]
        now = self.group.sim.now
        rnd = self.rounds[node]
        for k in range(self.burst):
            self.log.cast(endpoint, (self.token, rnd, k), self.size, now)

    def _on_delivery(self, node, event):
        if event.origin == node:
            return              # own messages do not gate the round
        received = self._received[node]
        received[event.origin] = received.get(event.origin, 0) + 1
        burst = self.burst
        for member in self.group.endpoints[node].view.mbrs:
            if member != node and received.get(member, 0) < burst:
                return
        for member in list(received):
            received[member] -= burst
            if received[member] <= 0:
                del received[member]
        self.rounds[node] += 1
        self._burst(node)


# ----------------------------------------------------------------------
# real time: open loop on an asyncio event loop
# ----------------------------------------------------------------------
async def wall_open_loop(log, endpoints, rate, count, token, size=64,
                         first_k=0):
    """Cast ``count`` messages at ``rate`` per wall second, round-robin
    over ``endpoints``, each timed from when it was *due*.

    Returns the measured window: the due time of the first cast and the
    time the benchmark's clock read one interval past the last.  How late
    the generator ran is appended to ``log.late``.
    """
    interval = 1.0 / rate
    members = sorted(endpoints)
    t0 = time.perf_counter() + interval
    for k in range(count):
        due = t0 + k * interval
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        log.late.append(time.perf_counter() - due)
        node = members[(first_k + k) % len(members)]
        log.cast(endpoints[node], (token, node, first_k + k), size, due)
    delay = t0 + count * interval - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)
    return t0, time.perf_counter()
