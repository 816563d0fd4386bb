"""The observability plane: metrics, tracing, and its no-op guarantee."""

import json
import os

import pytest

from tests.stubs import StubProcess

from repro import Group, ObsConfig, StackConfig
from repro.apps.ring import RingDemo
from repro.core import message as mk
from repro.core.message import Message
from repro.layers.base import Layer
from repro.obs.plane import ObservabilityPlane
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Tracer
from repro.tools.timeline import render_trace

RECEIVE_PATH = ["reliable", "fragment", "flow", "heartbeat", "suspicion",
                "membership", "state_transfer", "ordering", "uniform", "top"]


# ----------------------------------------------------------------------
# registry / tracer units
# ----------------------------------------------------------------------
def test_registry_instruments():
    reg = MetricsRegistry()
    reg.inc(0, "top", "casts", 2)
    reg.inc(0, "top", "casts")
    assert reg.get(0, "top", "casts").value == 3
    reg.observe(1, "top", "latency", 0.5)
    reg.observe(1, "top", "latency", 1.5)
    hist = reg.get(1, "top", "latency")
    assert hist.count == 2 and hist.mean == 1.0 and hist.maximum == 1.5
    reg.set_gauge(0, "flow", "queue", 7)
    assert reg.get(0, "flow", "queue").value == 7
    assert reg.get(9, "nope", "never") is None
    assert len(reg) == 3


def test_registry_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.inc(0, "top", "x")
    with pytest.raises(TypeError):
        reg.histogram(0, "top", "x")


def test_registry_queries_and_export():
    reg = MetricsRegistry()
    for node in (0, 1, 2):
        reg.inc(node, "top", "casts", node + 1)
        reg.observe(node, "top", "lat", float(node))
    assert reg.total("casts", layer="top") == 6
    assert set(reg.select(node=1)) == {(1, "top", "casts"), (1, "top", "lat")}
    assert sorted(reg.merged_histogram("lat").samples) == [0.0, 1.0, 2.0]
    rows = reg.to_dict()
    assert len(rows) == 6
    assert json.loads(reg.to_json())  # round-trips
    csv = reg.to_csv()
    assert csv.splitlines()[0].startswith("node,layer,name,kind")
    assert len(csv.splitlines()) == 7


def test_tracer_capacity_eviction():
    tracer = Tracer(capacity=3)
    for k in range(5):
        tracer.hop((0, k), 0.0, 0, "top", "down")
    assert len(tracer) == 3
    assert tracer.evicted == 2
    assert tracer.get((0, 0)) is None        # oldest went first
    assert tracer.get((0, 4)) is not None


# ----------------------------------------------------------------------
# disabled by default: the plane does not exist anywhere
# ----------------------------------------------------------------------
def test_disabled_by_default():
    group = Group.bootstrap(3, config=StackConfig.byz(), seed=1)
    assert group.obs is None
    assert group.metrics is None
    assert group.sim.observer is None
    assert group.network.observer is None
    for process in group.processes.values():
        assert process.obs is None
        assert process.stack.obs is None
    assert group.endpoints[0].metrics is None
    with pytest.raises(RuntimeError):
        group.trace((0, 1))
    with pytest.raises(RuntimeError):
        group.endpoints[0].trace((0, 1))
    with pytest.raises(RuntimeError):
        group.export_obs("never-written.json")
    group.stop()


# ----------------------------------------------------------------------
# the no-op guarantee: simulated execution identical with and without
# ----------------------------------------------------------------------
# with obs off, the layers an upward message calls: a layer that passes
# every upward message on in that stack is bound past
BOUND_PATH = {
    "fifo": ["reliable", "fragment", "flow", "suspicion", "membership",
             "state_transfer", "top"],
    "total_order": ["reliable", "fragment", "flow", "suspicion",
                    "membership", "state_transfer", "ordering", "top"],
    "uniform": ["reliable", "fragment", "flow", "suspicion", "membership",
                "state_transfer", "uniform", "top"],
}
PARITY_CONFIGS = [("fifo", {}), ("total_order", {"total_order": True}),
                  ("total_order", {"total_order": True,
                                   "ordering_fast_path": True}),
                  ("uniform", {"uniform_delivery": True})]


def _up_path(process):
    """The layers a message from the bottom layer is handed to, or None
    when every hop goes through the stack (obs on)."""
    layer, path = process.stack.layers[0], []
    while layer._above is not None:
        up = layer.send_up
        if up.__func__ is Layer.send_up:
            return None
        layer = up.__self__
        path.append(layer.name)
    return tuple(path)


def _instrumented_run(obs, **config_kw):
    config = StackConfig.byz(obs=obs, **config_kw)
    group = Group.bootstrap(4, config=config, seed=11)
    ring = RingDemo(group, burst=8, msg_size=16)
    ring.start()
    group.run(0.1)
    fingerprint = (group.sim.now, group.sim.events_processed,
                   ring.deliveries, ring.min_rounds_completed(),
                   tuple(sorted((n, p.view.vid) for n, p in
                                group.processes.items())))
    paths = {_up_path(p) for p in group.processes.values()}
    if group.obs is not None and group.obs.metrics_enabled:
        # obs on: every layer took every upward message itself
        for name in RECEIVE_PATH:
            assert group.metrics.total("msgs_up", layer=name) > 0, name
    group.stop()
    return fingerprint, paths


def test_obs_execution_parity():
    for name, config_kw in PARITY_CONFIGS:
        base, paths = _instrumented_run(None, **config_kw)
        assert paths == {tuple(BOUND_PATH[name])}, name
        for obs in (True, ObsConfig(metrics=True, tracing=False),
                    ObsConfig(metrics=False, tracing=True)):
            run, paths = _instrumented_run(obs, **config_kw)
            assert run == base, (name, config_kw, obs)
            assert paths == {None}


KINDS = sorted(value for key, value in vars(mk).items()
               if key.startswith("KIND_"))


@pytest.mark.parametrize("config_kw,names", [
    ({}, ["heartbeat", "ordering", "uniform"]),
    ({"total_order": True}, ["heartbeat", "uniform"]),
    ({"uniform_delivery": True}, ["heartbeat", "ordering"]),
    ({"total_order": True, "uniform_delivery": True},
     ["heartbeat", "uniform"])])
def test_passing_layers_hand_every_kind_up_untouched(config_kw, names):
    config = StackConfig.byz(**config_kw)
    group = Group.bootstrap(4, config=config, seed=1)
    passing = [layer for layer in group.processes[0].stack.layers
               if layer.passes_up()]
    group.stop()
    assert [layer.name for layer in passing] == names
    for layer in passing:
        process = StubProcess(type(layer)(), config=config)
        # counters on: a layer that counted anything would show here
        plane = process.stack.obs = ObservabilityPlane(
            process.sim, ObsConfig(metrics=True, tracing=True))
        for kind in KINDS:
            msg = Message(kind, 1, process.view.vid, ("x", kind),
                          msg_id=(1, 7) if kind == mk.KIND_CAST else None)
            msg.sender = 1
            msg.push_header("t", ("h", kind))
            headers = dict(msg.headers)
            process.layer.handle_up(msg)
            assert process.above.received_up[-1] is msg, (layer.name, kind)
            assert msg.headers == headers
        assert len(process.above.received_up) == len(KINDS)
        assert process.below.received_down == []
        assert len(plane.metrics) == 0, layer.name


# ----------------------------------------------------------------------
# span completeness on a 4-node cast
# ----------------------------------------------------------------------
@pytest.fixture
def traced_cast():
    group = Group.bootstrap(4, config=StackConfig.byz(obs=True), seed=11)
    mid = group.endpoints[0].cast("traced", size=16)
    ok = group.run_until(
        lambda: all(p.top.delivered >= 1 for p in group.processes.values()),
        timeout=2.0)
    assert ok
    yield group, mid
    group.stop()


def test_trace_span_completeness(traced_cast):
    group, mid = traced_cast
    trace = group.trace(mid)
    assert trace is group.endpoints[2].trace(mid)
    assert trace.nodes() == {0, 1, 2, 3}
    # origin: span opens at the top layer heading down, through the stack
    down = trace.path(node=0, actions=("down",))
    assert down[0] == "top" and down[-1] == "bottom"
    # every receiver: the full up-path through the stack, in order
    for node in (1, 2, 3):
        assert trace.path(node=node, actions=("up",)) == RECEIVE_PATH
    # the wire: one tx per receiver at the origin, one rx per receiver
    tx = [ev for ev in trace.events if ev.action == "tx"]
    assert [ev.node for ev in tx] == [0, 0, 0]
    assert sorted(ev.detail for ev in tx) == [1, 2, 3]
    rx = [ev for ev in trace.events if ev.action == "rx"]
    assert sorted(ev.node for ev in rx) == [1, 2, 3]
    # application delivery on all four nodes (origin self-delivers)
    assert set(trace.deliveries()) == {0, 1, 2, 3}
    assert trace.opened == 0.0
    assert trace.closed >= max(trace.deliveries().values())
    # render paths
    assert len(trace.render()) == len(trace)
    assert len(render_trace(trace, node=1)) == len(trace.events_for(1))
    assert render_trace(None) == ["(no trace recorded for that message id)"]


def test_trace_latency_and_counters(traced_cast):
    group, mid = traced_cast
    metrics = group.metrics
    assert metrics.total("casts_sent", layer="top") == 1
    assert metrics.total("casts_delivered", layer="top") == 4
    assert metrics.total("messages_signed", layer="bottom") > 0
    assert metrics.total("timers_fired", layer="scheduler") > 0
    assert metrics.total("datagrams_out", layer="net") > 0
    latency = metrics.merged_histogram("cast_latency", layer="top")
    assert latency.count == 4
    assert latency.maximum < 0.05
    # the endpoint's slice only sees its own node
    slice0 = group.endpoints[0].metrics
    assert slice0 and all(key[0] == 0 for key in slice0)


def test_untraced_msg_id_returns_none(traced_cast):
    group, _mid = traced_cast
    assert group.trace((99, 12345)) is None


def test_obs_export_artifact(tmp_path):
    path = str(tmp_path / "obs.json")
    group = Group.bootstrap(4, config=StackConfig.byz(obs=True), seed=11)
    group.endpoints[0].cast("exported", size=16)
    group.run(0.05)
    assert group.export_obs(path) == path
    with open(path) as handle:
        artifact = json.load(handle)
    assert set(artifact) == {"sim_now", "metrics", "traces"}
    assert artifact["metrics"] and artifact["traces"]
    assert "(0, 1)" in artifact["traces"]
    group.stop()


# ----------------------------------------------------------------------
# harness / tools integration
# ----------------------------------------------------------------------
def test_ring_throughput_obs_export(tmp_path):
    import sys
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from benchmarks.harness import ring_throughput
    path = str(tmp_path / "point.json")
    plain = ring_throughput(StackConfig.byz(), 8)
    result = ring_throughput(StackConfig.byz(), 8, obs_export=path)
    # enabling observability does not move the measured number at all
    assert result["throughput"] == plain["throughput"]
    assert result["obs"]["casts_delivered"] > 0
    assert result["obs"]["traces"] > 0
    with open(path) as handle:
        assert json.load(handle)["metrics"]


def test_config_clone_keeps_structured_obs():
    structured = ObsConfig(tracing=False)
    # the regression: obs=<ObsConfig> used to collapse to a bare bool
    assert StackConfig.byz().clone(obs=structured).obs is structured
    assert isinstance(StackConfig.byz().clone(obs=True).obs, ObsConfig)


def test_trace_cli(capsys):
    from repro.__main__ import main
    assert main(["trace", "--nodes", "4", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "delivered everywhere: True" in out
    assert "deliver" in out
    assert main(["trace", "--json"]) == 0
    artifact = json.loads(capsys.readouterr().out)
    assert artifact["delivered_everywhere"] is True
    assert artifact["trace"]["events"]


def test_instruments_have_kinds():
    assert Counter().kind == "counter"
    assert Gauge().kind == "gauge"
    assert Histogram().kind == "histogram"
    gauge = Gauge()
    gauge.add(2)
    gauge.add(3)
    assert gauge.value == 5
