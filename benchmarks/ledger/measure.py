"""Clocks, calibration, GC policy and sample statistics.

Everything here reads the host itself -- nothing the program under test
computed about itself passes through this module.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import hmac
import math
import random
import resource
import statistics
import struct
import time
from collections import deque
from contextlib import contextmanager

#: percentiles a timing may be reported at, lowest first
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


class _Packet:
    __slots__ = ("src", "dst", "seq", "body", "mac")

    def __init__(self, src, dst, seq, body, mac):
        self.src = src
        self.dst = dst
        self.seq = seq
        self.body = body
        self.mac = mac


class CalibrationLoop:
    """The host-speed loop: a toy message-passing simulation.

    The issue asked for a copy of ``bench_wallclock.calibrate`` (a tight
    SHA-256 loop).  On this box interference comes in phases of 20-100 s
    that slow the simulator by 1.3-1.6x but a tight loop by only 1.1-1.25x
    (whatever the loop: hashing, arithmetic, pointer chasing over 0.5-80 MB,
    allocation, young-generation collection -- all were tried), so CPU per
    cast divided by the SHA loop still swung by 17 % in those phases and
    ten fresh runs of ``ring_sym_n16`` spread 19 %.  A loop that does what
    the program does -- a heap of timed events, a MAC made and checked per
    message, struct packing, per-node dicts and bounded logs of small
    objects -- slows by 1.23x where the simulator slows by 1.32x: the
    residual swing fell from 17 % to 7 % and the spread of the normalized
    cost from 7.0 % to 4.1 % (266 back-to-back ``ring_sym_n16`` episodes,
    both loops sampled in the same slices; same picture on ``churn_n12``,
    ``order_fast_n8`` and ``plane_16x5``, see README).  How much state it
    keeps (4 000 to 65 000 packets) made no consistent difference, so it
    keeps little.

    It is the benchmark's own code and imports nothing from the program,
    so a change to the program cannot move it.  Its work per step is
    fixed; its state persists across calls, as the program's does.
    """

    nodes = 16
    keep = 256          # packets logged per node

    def __init__(self):
        nodes = self.nodes
        self.heap = []
        self.now = 0.0
        self.seq = 0
        self.keys = [hashlib.sha256(b"node%d" % i).digest()
                     for i in range(nodes)]
        self.seen = [{} for _ in range(nodes)]
        self.logs = [deque(maxlen=self.keep) for _ in range(nodes)]
        self.rng = random.Random(5)
        for node in range(nodes):
            self._send(node, (node + 1) % nodes)
        for _ in range(2 * nodes * self.keep):  # fill the live state
            self._step()

    def _send(self, src, dst):
        self.seq += 1
        body = struct.pack("!IIQ", src, dst, self.seq) + b"x" * 16
        mac = hmac.new(self.keys[src], body, hashlib.sha256).digest()
        heapq.heappush(self.heap, (self.now + self.rng.random() * 1e-3,
                                   self.seq,
                                   _Packet(src, dst, self.seq, body, mac)))

    def _step(self):
        self.now, _seq, packet = heapq.heappop(self.heap)
        good = hmac.compare_digest(
            hmac.new(self.keys[packet.src], packet.body,
                     hashlib.sha256).digest(), packet.mac)
        seen = self.seen[packet.dst]
        seen[(packet.src, packet.seq)] = good
        log = self.logs[packet.dst]
        if len(log) == log.maxlen:
            oldest = log[0]
            seen.pop((oldest.src, oldest.seq), None)
        log.append(packet)
        src, dst, seq = struct.unpack_from("!IIQ", packet.body)
        self._send(dst, (dst + 1 + seq % (self.nodes - 1)) % self.nodes)
        if seq % 4 == 0:
            self._send(dst, src)
        if len(self.heap) > 2000:
            del self.heap[1000:]        # a prefix of a heap is a heap

    def run(self, rounds):
        """CPU seconds of ``rounds`` steps, timed with ``process_time``
        so a descheduled benchmark does not read as a slow host."""
        step = self._step
        start = time.process_time()
        for _ in range(rounds):
            step()
        return time.process_time() - start


#: steps of the calibration loop all ``calib_s`` values refer to
CALIB_ROUNDS = 3000

_LOOP = None


def calibrate(rounds=CALIB_ROUNDS):
    """CPU seconds for ``rounds`` steps of the process's calibration
    loop (host speed); the loop is built, outside the timing, on first
    use."""
    global _LOOP
    if _LOOP is None:
        _LOOP = CalibrationLoop()
    return _LOOP.run(rounds)


#: ``setup_s`` is reported for a host on which the calibration loop takes
#: this long (about what the 2-core reference box does on a quiet day)
REFERENCE_CALIB_S = 0.025


class SetupTimer:
    """Times one set-up in *reference-host* seconds.

    ``setup_s`` is wall time by contract, but raw wall seconds drift with
    the host: between two back-to-back sets of ten runs the medians of
    the CPU-bound set-ups rose 14-40 % while normalized CPU per cast
    moved 1-9 %.  So the CPU part of a set-up is scaled by a calibration
    loop run right before and after it; the part spent waiting (timer-
    paced warm-up on UDP) is host-speed independent and counts as is.
    """

    def __enter__(self):
        self._calib = calibrate()
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._wall
        cpu = min(wall, time.process_time() - self._cpu)
        calib = (self._calib + calibrate()) / 2.0
        self.seconds = (wall - cpu) + cpu * REFERENCE_CALIB_S / calib
        return False


class InbandCalibration:
    """Host speed sampled *inside* the measured window.

    This box's speed moves by 15-25 % on a scale of seconds (a scratch
    probe saw the calibration loop take 20-30 ms across back-to-back
    runs), so one loop before and one after a window normalizes badly:
    ten runs of ``ring_sym_n16`` spread 14 % either way.  Instead the
    window is cut into slices and a ~1 ms slice of the loop runs after
    each, in the workload's own duty cycle; CPU per cast is divided by
    the mean of those, scaled to the full loop.
    """

    def __init__(self, chunk_rounds=150):
        self.chunk_rounds = chunk_rounds
        self.chunks = []

    def sample(self):
        self.chunks.append(calibrate(self.chunk_rounds))

    @property
    def cpu_s(self):
        """CPU the samples themselves used (not the workload's)."""
        return sum(self.chunks)

    @property
    def calib_s(self):
        """The full calibration loop at the speed the window ran at."""
        if not self.chunks:
            return calibrate()
        return (sum(self.chunks) / len(self.chunks)
                * CALIB_ROUNDS / self.chunk_rounds)


@contextmanager
def steady_state_gc():
    """The GC policy ``harness.steady_state_gc`` uses (copied).

    Freezes the set-up graph out of the cyclic collector and widens
    gen-0, so per-event GC cost does not grow with the live heap; the
    collector never changes a simulated history.
    """
    gc.collect()
    gc.freeze()
    old = gc.get_threshold()
    gc.set_threshold(50000, old[1], old[2])
    try:
        yield
    finally:
        gc.set_threshold(*old)
        gc.unfreeze()
        gc.collect()


@contextmanager
def realtime_gc():
    """GC policy of the real-time (UDP) workloads: freeze the set-up
    graph, keep the collector's stock thresholds.

    The widened gen-0 of :func:`steady_state_gc` turns every young
    collection into a 13-25 ms stall -- invisible in simulated time,
    but on a wall clock it made the open-loop generator run 14-16 ms
    late at p99 and moved p99 latency from ~5 to ~22 ms.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        gc.collect()


def peak_rss_mb():
    """``ru_maxrss`` of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(ordered, q):
    """Nearest-rank percentile of an already sorted list; ``q`` in 0..100."""
    if not ordered:
        return float("nan")
    rank = int(math.ceil(q / 100.0 * len(ordered))) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def tail_percentile(count):
    """The highest percentile of ``TAIL_LADDER`` with at least ten
    samples beyond it in a sample of ``count``."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= 10:
            best = q
    return best


def median(values):
    return statistics.median(values) if values else float("nan")


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("nan")
