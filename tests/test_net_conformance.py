"""Sim-vs-wire conformance: the same workload on both runtime backends.

The whole point of the runtime seam (repro/runtime/) is that the
UNMODIFIED layer stack runs over real localhost UDP between real OS
processes.  These tests drive the same declarative
:class:`~repro.runtime.workload.NetWorkload` through both backends and
hold them to the same oracle:

* both satisfy the Definitions 2.1/2.2 virtual-synchrony checker,
* both converge every survivor onto one common final membership,
* both deliver each sender's casts in the same (FIFO) per-sender order,
* the asyncio cluster finishes within the ISSUE's 10 s wall budget,
* node teardown leaks nothing (no pending timers, sockets closed),
* a FIFO cast reaches every member of a 4-node loopback cluster in
  under a millisecond at the median.

Everything here opens sockets and spawns processes, so the module is
``net``-marked and excluded from the default (tier-1) pytest run;
select it with ``pytest -m net``.
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.core.config import StackConfig
from repro.core.endpoint import GroupEndpoint
from repro.core.message import KIND_CAST, Message
from repro.core.view import ViewId
from repro.runtime.backend_asyncio import AsyncioRuntime, net_profile
from repro.runtime.driver import free_udp_ports, run_net_workload
from repro.runtime.wire import FRAME_DATAGRAM, encode_frame
from repro.runtime.workload import NetWorkload, run_sim_workload

pytestmark = pytest.mark.net

#: the ISSUE's acceptance budget for the 5-node localhost cluster
NET_WALL_BUDGET = 10.0

BYZ = {"byzantine": True, "crypto": "sym"}
BENIGN = {"byzantine": False, "crypto": "none"}


def _assert_healthy(result, workload):
    __tracebackhint__ = True
    detail = {n: (r.ok, r.error, r.wall) for n, r in result.reports.items()}
    assert result.ok, (result.backend, detail, result.artifacts_dir)
    assert result.violations() == [], result.violations()
    common = result.common_final_members()
    assert common is not None, result.final_members()
    expected = set(range(workload.n))
    if workload.leaver is not None:
        expected.discard(workload.leaver)
    assert set(common) == expected


def _sender_orders_agree(sim, net, workload):
    """Every (observer, origin) pair delivered the same index sequence,
    and every survivor's order covers every cast of the script."""
    sim_orders = sim.per_sender_orders()
    net_orders = net.per_sender_orders()
    assert set(sim_orders) == set(net_orders)
    full = list(range(workload.casts_per_node))
    for node in sim_orders:
        assert sim_orders[node] == net_orders[node], (
            node, sim_orders[node], net_orders[node])
        compared = sum(len(indices) for indices in sim_orders[node].values())
        assert compared == workload.expected_deliveries, (
            node, compared, sim_orders[node])
        for origin, indices in sim_orders[node].items():
            assert indices == full, (node, origin, indices)


def test_conformance_join_multicast_leave():
    """The headline check: 5 nodes, everyone casts, node 4 leaves --
    identical outcome on the simulator and on the localhost wire."""
    workload = NetWorkload(n=5, casts_per_node=3, leaver=4)
    sim = run_sim_workload(workload, seed=1)
    net = run_net_workload(workload, seed=1, config=BYZ,
                           wall_timeout=NET_WALL_BUDGET)
    _assert_healthy(sim, workload)
    _assert_healthy(net, workload)
    assert net.elapsed <= NET_WALL_BUDGET
    _sender_orders_agree(sim, net, workload)


def test_conformance_no_leave_benign():
    workload = NetWorkload(n=5, casts_per_node=3, leaver=None)
    sim = run_sim_workload(workload, seed=2,
                           config=_benign_stack_config())
    net = run_net_workload(workload, seed=2, config=BENIGN,
                           wall_timeout=NET_WALL_BUDGET)
    _assert_healthy(sim, workload)
    _assert_healthy(net, workload)
    _sender_orders_agree(sim, net, workload)


def test_net_smoke_byzantine_config():
    """ISSUE acceptance: 5-node byz+sym cluster forms a common view and
    delivers all ordered multicasts within the 10 s wall budget."""
    workload = NetWorkload(n=5, casts_per_node=3, leaver=None)
    net = run_net_workload(workload, seed=3, config=BYZ,
                           wall_timeout=NET_WALL_BUDGET)
    _assert_healthy(net, workload)
    assert net.elapsed <= NET_WALL_BUDGET
    total = net.workload.expected_deliveries
    for node, report in net.reports.items():
        assert report.wall["delivered"] == total, (node, report.wall)


def test_saturation_burst_at_view_formation():
    """Every node fires its whole burst the moment the view forms: the
    cluster stays healthy, every node delivers every cast, and the wire
    coalescer packs several frames into some datagrams.  No throughput
    threshold -- speed on real sockets is the ledger's ``udp_*``
    workloads' job."""
    workload = NetWorkload(n=5, casts_per_node=120, cast_gap=0.0,
                           payload_bytes=16, leaver=None, deadline=25.0,
                           linger=0.3)
    net = run_net_workload(workload, seed=1, config=BYZ)
    _assert_healthy(net, workload)
    total = workload.expected_deliveries
    for node, report in net.reports.items():
        assert report.wall["delivered"] == total, (node, report.wall)
    datagrams = sum(r.counters.get("datagrams_sent", 0)
                    for r in net.reports.values())
    frames = sum(r.counters.get("frames_sent", 0)
                 for r in net.reports.values())
    assert datagrams < frames, (datagrams, frames)


def test_net_teardown_releases_resources():
    """Satellite: GroupProcess.stop + runtime close leave no pending
    asyncio timers and close the UDP socket on every node."""
    workload = NetWorkload(n=3, casts_per_node=2, leaver=None)
    net = run_net_workload(workload, seed=4, config=BYZ,
                           wall_timeout=NET_WALL_BUDGET)
    _assert_healthy(net, workload)
    for node, report in net.reports.items():
        assert report.leaks.get("pending_timers") == 0, (node, report.leaks)
        assert report.leaks.get("clock_closed") is True, (node, report.leaks)
        assert report.leaks.get("socket_closed") is True, (node, report.leaks)


def test_net_artifacts_on_failure(tmp_path):
    """An impossible deadline must fail loudly AND leave the artifacts
    (specs, reports, logs) behind for CI to upload."""
    workload = NetWorkload(n=3, casts_per_node=2, leaver=None,
                           deadline=0.0, linger=0.0)
    net = run_net_workload(workload, seed=5, config=BYZ,
                           out_dir=str(tmp_path), wall_timeout=8.0)
    assert not net.ok
    assert net.artifacts_dir == str(tmp_path)
    assert (tmp_path / "node0.report.json").exists()
    assert (tmp_path / "node0.log").exists()


async def _fifo_cast_latencies(nodes, casts, spacing, warmup, before=None):
    """Cast→all-delivered wall times on a loopback FIFO cluster.

    ``nodes`` AsyncioRuntimes on one event loop, sym crypto, started in
    an established view; casts round-robin over the members, ``spacing``
    seconds apart, each timed from its ``cast()`` call to its delivery at
    the last member.  The first ``warmup`` casts are not timed.
    ``before(runtimes, addresses)``, when given, runs once the members
    have started.
    """
    loop = asyncio.get_running_loop()
    config = net_profile(StackConfig.byz(crypto="sym"))
    ports = free_udp_ports(nodes)
    addresses = {node: ("127.0.0.1", ports[node]) for node in range(nodes)}
    runtimes, processes, endpoints = [], [], []
    delivered = {}                  # msg_id -> delivery times

    def on_cast(event):
        delivered.setdefault(event.msg_id, []).append(time.perf_counter())

    try:
        for node in range(nodes):
            runtime = AsyncioRuntime(node, addresses, seed=node, loop=loop)
            runtimes.append(runtime)
            await runtime.open()
            process = runtime.spawn_process(
                config, initial_view=runtime.initial_view(range(nodes),
                                                          established=True))
            endpoint = GroupEndpoint(process)
            endpoint.record_events = False
            endpoint.on_cast = on_cast
            processes.append(process)
            endpoints.append(endpoint)
        for process in processes:
            process.start()
        if before is not None:
            before(runtimes, addresses)
        started = {}
        for k in range(warmup + casts):
            await asyncio.sleep(spacing)
            at = time.perf_counter()
            msg_id = endpoints[k % nodes].cast(("lat", k), size=64)
            if k >= warmup:
                started[msg_id] = at
        deadline = time.perf_counter() + 2.0
        while (time.perf_counter() < deadline
               and any(len(delivered.get(m, ())) < nodes for m in started)):
            await asyncio.sleep(0.005)
    finally:
        for process in processes:
            process.stop()
        for runtime in runtimes:
            runtime.close()
    assert all(len(delivered.get(m, ())) == nodes for m in started)
    return sorted(max(delivered[m]) - at for m, at in started.items())


def test_fifo_cast_latency_median_under_a_millisecond():
    """Regression for the real runtime's per-hop cost: with no modelled
    CPU and due work on the ready queue, a FIFO cast crosses loopback to
    every member in well under a millisecond at the median.  A hop that
    waits on a timer instead pays a whole selector quantum (asyncio's
    epoll rounds any positive timeout up to 1 ms), two per cast."""
    loop = asyncio.new_event_loop()
    try:
        latencies = loop.run_until_complete(_fifo_cast_latencies(
            nodes=4, casts=50, spacing=0.005, warmup=8))
    finally:
        loop.close()
    median = latencies[len(latencies) // 2]
    assert median < 0.001, "median cast->all-delivered %.3f ms" % (
        median * 1e3)


def test_an_unhashable_frame_source_leaves_a_live_cluster_running():
    """A datagram whose frame source and ``msg.sender`` are ``[1]`` (or
    ``(1, [2])``), MAC'd for node 0, reaches node 0 of a live 4-node
    cluster: its transport refuses it before any table lookup and counts
    it, nothing reaches the loop's exception handler, and every cast
    after it is delivered everywhere."""
    loop = asyncio.new_event_loop()
    raised = []
    loop.set_exception_handler(lambda _loop, context: raised.append(context))
    transports = []

    def inject(runtimes, addresses):
        transports.append(runtimes[0].transport)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for src in ([1], (1, [2])):
                forged = Message(KIND_CAST, src, ViewId(1, 0), ("x",), 16,
                                 dest=0, msg_id=(src, 1))
                forged.signature = {0: b"0123456789"}
                sock.sendto(encode_frame(FRAME_DATAGRAM, src, forged),
                            addresses[0])
        finally:
            sock.close()

    try:
        latencies = loop.run_until_complete(_fifo_cast_latencies(
            nodes=4, casts=20, spacing=0.005, warmup=4, before=inject))
    finally:
        loop.close()
    assert raised == []
    assert transports[0].bad_sources == 2
    assert len(latencies) == 20


def _benign_stack_config():
    return StackConfig.benign()
