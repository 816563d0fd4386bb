"""The two real-UDP workloads: n = 4 on one stock asyncio event loop.

Every node is a full ``AsyncioRuntime`` -- its own UDP socket, its own
wall clock, the unmodified layer stack -- started inside an established
initial view (the ``boot_plane`` pattern) with ``net_profile`` timing.
All traffic crosses the host's **loopback** interface, not a link: the
numbers price the stack, the codec and the event loop, not a network.

The load generator is an in-process coroutine calling ``endpoint.cast``
on schedule (open loop, each cast timed from when it was due).  The
multi-process ``run_net_workload`` driver is deliberately not used: on a
2-core box it would measure the OS scheduler.
"""

from __future__ import annotations

import asyncio
import time

from repro import ObsConfig, ObservabilityPlane, StackConfig
from repro.core.endpoint import GroupEndpoint
from repro.core.history import Execution
from repro.core.properties import check_virtual_synchrony
from repro.runtime.backend_asyncio import AsyncioRuntime, net_profile
from repro.runtime.driver import free_udp_ports

from benchmarks.ledger import ledger
from benchmarks.ledger.loadgen import CastLog, wall_open_loop
from benchmarks.ledger.measure import (REFERENCE_CALIB_S, InbandCalibration,
                                       SetupTimer, percentile, realtime_gc)
from benchmarks.ledger.tracer import Tracer

HOST = "127.0.0.1"
NODES = 4
CAST_BYTES = 64
#: casts/s offered (both well below saturation, where CPU per cast
#: repeats; 100/s through total ordering already uses ~80 % of a core)
RATES = {"udp_fifo_n4": 400.0, "udp_order_n4": 40.0}
TOTAL_ORDER = {"udp_fifo_n4": False, "udp_order_n4": True}
#: warm-up per set-up: a tenth of a second of the offered load, at least
#: eight casts, all delivered everywhere before timing starts
WARM_S, WARM_MIN_CASTS = 0.1, 8
#: how long after the last cast an undelivered one may still arrive
DRAIN_GRACE_S = 1.0
POLL_S = 0.005
#: asyncio's selector sleeps in whole milliseconds, so even an idle
#: generator wakes ~0.6 ms late at the median and 1.3-2.8 ms at p99; a
#: repeat is only invalid when it ran later than this *and* than a
#: quarter of the cast interval
TIMER_FLOOR_S = 0.004
#: host-speed samples (InbandCalibration): ~0.4 ms of the loop ten times
#: a second -- each one delays a cast that falls due meanwhile, so they
#: are kept well under the 5 % of casts that set the p95
CALIB_EVERY_S = 0.1
CALIB_CHUNK_ROUNDS = 50
#: latency percentiles are taken per slice of about this many wall
#: seconds (equal slices covering the window)
SLICE_S = 1.0
#: set-ups timed per untraced run (``setup_s`` is their median)
SETUPS = 3


class UdpCluster:
    """Four nodes on real loopback sockets, one event loop."""

    def __init__(self, name, seed, tracer=None):
        self.name = name
        self.seed = seed
        self.tracer = tracer
        self.rate = RATES[name]
        self.token = "%08x" % (seed & 0xFFFFFFFF)
        self.runtimes = {}
        self.processes = {}
        self.endpoints = {}
        self.registry = None
        self.log = CastLog(time.perf_counter, observer=0,
                           cpu=time.process_time)
        self.issued = 0

    async def setup(self):
        """Bind, start inside an established view, and warm up: the
        first measured cast finds keys derived and codec caches warm."""
        loop = asyncio.get_running_loop()
        config = net_profile(StackConfig.byz(
            crypto="sym", total_order=TOTAL_ORDER[self.name]))
        ports = free_udp_ports(NODES, host=HOST)
        addresses = {node: (HOST, ports[node]) for node in range(NODES)}
        tracer = self.tracer
        plane = None
        for node in range(NODES):
            runtime = AsyncioRuntime(node, addresses, seed=self.seed + node,
                                     loop=loop)
            await runtime.open()
            if tracer is not None and plane is None:
                plane = ObservabilityPlane(
                    runtime.clock, ObsConfig(metrics=True, tracing=False))
                self.registry = plane.metrics
            process = runtime.spawn_process(
                config, obs=plane,
                initial_view=runtime.initial_view(range(NODES),
                                                  established=True))
            endpoint = GroupEndpoint(process)
            if tracer is not None:
                tracer.observe_clock(runtime.clock)
                tracer.observe_network(runtime.transport)
                tracer.instrument_transport(runtime.transport)
                tracer.instrument_process(process, network_row=None)
            self.log.attach(node, endpoint)
            if tracer is not None:
                endpoint.on_cast = tracer.wrap(endpoint.on_cast, "loadgen",
                                               "on_cast")
            self.runtimes[node] = runtime
            self.processes[node] = process
            self.endpoints[node] = endpoint
        for process in self.processes.values():
            process.start()
        await self.offer(max(WARM_MIN_CASTS, int(self.rate * WARM_S)))
        await self.drained()

    async def offer(self, count):
        window = await wall_open_loop(self.log, self.endpoints, self.rate,
                                      count, self.token, size=CAST_BYTES,
                                      first_k=self.issued)
        self.issued += count
        return window

    async def drained(self):
        """Wait (bounded) until every logged cast reached every node."""
        deadline = time.perf_counter() + DRAIN_GRACE_S
        need = 1 + 2 * NODES
        while time.perf_counter() < deadline:
            if all(len(record) >= need and record[0] is not None
                   for record in self.log.records.values()):
                return True
            await asyncio.sleep(POLL_S)
        return False

    def transport_counters(self):
        totals = {}
        for runtime in self.runtimes.values():
            for key, value in runtime.transport.counters().items():
                totals["transport." + key] = (
                    totals.get("transport." + key, 0) + value)
        return totals

    def check(self):
        """Fold the four in-process histories into the Def 2.1/2.2
        checker, as the simulator workloads do."""
        execution = Execution({node: process.history
                               for node, process in self.processes.items()})
        ordered = TOTAL_ORDER[self.name]
        return check_virtual_synchrony(execution, content_agreement=ordered,
                                       total_order=ordered)

    def stop(self):
        for process in self.processes.values():
            if not process.stopped:
                process.stop()
        for runtime in self.runtimes.values():
            runtime.close()


async def timed_setup(name, seed, tracer=None):
    cluster = UdpCluster(name, seed, tracer)
    try:
        with SetupTimer() as setup:
            await cluster.setup()
    except BaseException:
        cluster.stop()
        raise
    return cluster, setup.seconds


async def sample_host(calibration):
    """Take a host-speed sample every :data:`CALIB_EVERY_S` for as long
    as the window runs.

    A loaded-but-not-saturated process runs in bursts after idle waits,
    at whatever clock the host grants such bursts; a flat-out
    calibration loop before and after the window measures a different
    speed (it moved 21-30 ms across probes whose CPU per cast stayed
    within 5 %).  Sampling in the workload's own duty cycle measures the
    speed the casts actually ran at.
    """
    while True:
        await asyncio.sleep(CALIB_EVERY_S)
        calibration.sample()


async def measure_window(cluster, seconds, tracer=None):
    """One measured window of ``seconds`` wall seconds on a warm cluster;
    returns the episode summary (same shape as the simulator's)."""
    count = max(1, int(cluster.rate * seconds))
    before = ledger.obs_snapshot(cluster.registry)
    counters0 = cluster.transport_counters()
    calibration = InbandCalibration(CALIB_CHUNK_ROUNDS)
    with realtime_gc():
        calibrator = asyncio.ensure_future(sample_host(calibration))
        cpu0 = time.process_time()
        if tracer is not None:
            tracer.start()
        try:
            w0, w1 = await cluster.offer(count)
        finally:
            if tracer is not None:
                tracer.stop()
            cpu_s = time.process_time() - cpu0 - calibration.cpu_s
            calibrator.cancel()
        await asyncio.gather(calibrator, return_exceptions=True)
        await cluster.drained()
    obs = ledger.snapshot_delta(ledger.obs_snapshot(cluster.registry), before)
    # latencies in reference-host time: see CastLog.summarize
    cpu_scale = REFERENCE_CALIB_S / calibration.calib_s
    summary = cluster.log.summarize(range(NODES), w0, w1, cpu_scale)
    slices = max(1, int((w1 - w0) / SLICE_S))
    span = (w1 - w0) / slices
    summary["windows"] = [
        cluster.log.summarize(range(NODES), w0 + k * span,
                              w0 + (k + 1) * span, cpu_scale)["latencies"]
        for k in range(slices)]
    per_slice = -(-count // slices)
    late = cluster.log.late[-count:]
    summary["late"] = sorted(late)
    summary["late_slices"] = [sorted(late[k:k + per_slice])
                              for k in range(0, count, per_slice)]
    counters1 = cluster.transport_counters()
    facts = {key: counters1[key] - counters0.get(key, 0)
             for key in counters1}
    summary.update(violations=cluster.check(), facts=facts, obs=obs,
                   cpu_s=cpu_s, wall_s=w1 - w0,
                   calib_s=calibration.calib_s, cpu_scale=cpu_scale,
                   seed=cluster.seed)
    return summary


def open_loop_valid(summary, rate):
    """Did the generator keep its schedule?

    A one-second slice is disturbed when the generator ran later than a
    quarter of the cast interval (and than the timer floor) at p99.
    Latency is reported as the median over slices, so a run stays valid
    while fewer than half of its slices are disturbed; it is also
    invalid when casts went missing while the process had CPU to spare
    (then the generator or the host, not the program, fell behind).
    """
    limit = max(0.25 / rate, TIMER_FLOOR_S)
    slices = summary["late_slices"]
    disturbed = sum(1 for late in slices if percentile(late, 99.0) > limit)
    if 2 * disturbed >= len(slices):
        return False
    idle = summary["cpu_s"] < 0.6 * summary["wall_s"]
    return not (summary["delivered"] < summary["attempted"] and idle)


async def _run(name, seed, seconds, traced):
    setups = []
    for k in range(SETUPS - 1 if not traced else 0):
        spare, elapsed = await timed_setup(name, seed * 1000 + 1 + k)
        spare.stop()
        setups.append(elapsed)
    window = seconds / 2.0 if traced else seconds
    reruns = 0
    cluster, elapsed = await timed_setup(name, seed * 1000)
    setups.append(elapsed)
    try:
        plain = await measure_window(cluster, window)
        if not open_loop_valid(plain, cluster.rate):
            # an invalid repeat is rerun once, on the same warm cluster
            reruns = 1
            plain = await measure_window(cluster, window)
    finally:
        cluster.stop()
    plain.update(setup_s=elapsed, setups=setups)
    extra = {"reruns": reruns,
             "valid": open_loop_valid(plain, cluster.rate)}
    if not traced:
        return [plain], [], None, extra
    tracer = Tracer()
    cluster, elapsed = await timed_setup(name, seed * 1000, tracer)
    try:
        twin = await measure_window(cluster, window, tracer)
    finally:
        cluster.stop()
    twin.update(setup_s=elapsed)
    return [plain], [twin], tracer, extra


def run_udp(name, seed, seconds, traced):
    """The windows of one UDP run, shaped like ``runner.run_sim``'s
    episodes.  Stock asyncio loop, never uvloop: the loop is part of
    what the workload prices."""
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(_run(name, seed, seconds, traced))
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()
