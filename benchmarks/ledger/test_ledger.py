"""Self-test of the benchmark itself.

Run explicitly (tier-1 ``testpaths`` does not include this directory)::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import re
import time

import pytest

from benchmarks.ledger import cli, compare, ledger, runner, spec
from benchmarks.ledger.tracer import Tracer
from benchmarks.ledger.workloads import Churn, RingSym

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: a 10x-shortened episode is plenty to pin determinism
SHORT = 0.1


def simulated(summary):
    """Everything about an episode that must not depend on the host."""
    return (summary["digest"], summary["attempted"], summary["delivered"],
            summary["completed_in_window"], summary["window"],
            summary["gap"], tuple(summary["latencies"]),
            summary["facts"]["events"])


@pytest.mark.parametrize("episode", [RingSym, Churn])
def test_same_seed_same_simulated_numbers(episode):
    first = runner.run_episode(episode, 7000, scale=SHORT)
    again = runner.run_episode(episode, 7000, scale=SHORT)
    other = runner.run_episode(episode, 8000, scale=SHORT)
    assert first["attempted"] > 0
    assert simulated(first) == simulated(again)
    assert simulated(first) != simulated(other)
    assert first["latencies"] != other["latencies"]


def test_tracing_leaves_the_simulation_alone_and_accounts_for_its_time():
    plain = runner.run_episode(RingSym, 7000, scale=SHORT)
    tracer = Tracer()
    traced = runner.run_episode(RingSym, 7000, scale=SHORT, tracer=tracer)
    assert simulated(plain) == simulated(traced)
    # every nanosecond of the window is in exactly one row or unattributed
    shares, unattributed, _loop = ledger.attribution(tracer, "sim")
    assert sum(shares.values()) + unattributed == pytest.approx(
        1.0 + shares.get("other", 0.0), abs=1e-9)
    assert unattributed <= 0.15
    # ... and the window the tracer saw is the one the runner timed
    assert tracer.window_wall_ns / 1e9 == pytest.approx(traced["wall_s"],
                                                        rel=0.02)
    # (the runner's cpu_s excludes the host-speed samples, so it is less)
    assert traced["cpu_s"] <= tracer.window_cpu_ns / 1e9


def test_self_time_is_duration_minus_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    traced_inner = tracer.wrap(inner, "inner")

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    tracer.start()
    tracer.wrap(outer, "outer")()
    tracer.stop()
    assert tracer.self_ns["inner"] == pytest.approx(40e6, rel=0.25)
    assert tracer.self_ns["outer"] == pytest.approx(10e6, rel=0.5)
    assert tracer.calls[("inner", "call")] == 2
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert (tracer.self_ns["inner"] + tracer.self_ns["outer"]
            <= tracer.window_wall_ns)


def test_benchmark_json_meets_the_contract():
    published = spec.CONTRACT
    assert set(published) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    names = ([w["name"] for w in published["workloads"]]
             + [m["name"] for m in published["end_to_end"]]
             + [m["name"] for m in published["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in published["end_to_end"] + published["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in published["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in published["end_to_end"])
    assert 2 <= len(published["workloads"]) <= 8
    assert len(published["per_layer"]) <= 128


@pytest.fixture(scope="module")
def traced_run():
    """A short traced run of a workload, made once per test session."""
    cache = {}

    def get(workload):
        if workload not in cache:
            seconds = 1.0 if spec.backend(workload) == "udp" else 0.4
            cache[workload] = runner.run_workload(workload, 7, seconds, 1)
        return cache[workload]

    return get


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_every_metric_is_emitted(workload, traced_run):
    result = traced_run(workload)
    assert result["correct"], result["violations"]
    assert set(result["end_to_end"]) == set(spec.E2E_UNITS)
    assert all(value == value and value != 0
               for value in result["end_to_end"].values())
    rows = result["per_layer"]["rows"]
    emitted = ledger.complete(rows)
    assert set(emitted) == set(spec.LAYER_UNITS)
    # a row the workload was chosen for is really there, and rows of the
    # other backend are absent (zero in the driver's fixed-shape output)
    assert rows["layers.bottom.self_us_per_cast"] > 0
    foreign = "sim." if spec.backend(workload) == "udp" else "runtime."
    assert not [name for name in rows if name.startswith(foreign)]
    assert result["per_layer"]["rows"]["trace.unattributed_share"] <= 0.15


def test_every_contract_row_is_built_by_some_workload(traced_run):
    # ledger.complete zero-fills rows a workload lacks; a row no workload
    # builds would be zero everywhere without anyone noticing
    built = set()
    for workload in spec.WORKLOADS:
        built.update(traced_run(workload)["per_layer"]["rows"])
    assert built == set(spec.LAYER_UNITS)


def test_run_child_never_returns_a_stale_result(tmp_path, monkeypatch):
    detail = tmp_path / "ring_sym_n16.traced.json"
    detail.write_text('{"workload": "ring_sym_n16", "seed": 7, '
                      '"traced": true}')
    monkeypatch.setattr(cli, "BENCH", str(tmp_path / "no_such_bench.py"))
    with pytest.raises(RuntimeError):
        cli.run_child("ring_sym_n16", 7, 0.4, 1, str(detail))
    assert not detail.exists()


def test_compare_verdicts():
    lower = "cast_deliver_p50_ms"      # lower is better
    _better, bound = spec.E2E_BOUNDS[lower]
    ok, bad = 10 * (1 + bound / 2), 10 * (1 + bound * 1.5)
    assert compare.verdict(lower, [10, 10, 10], [ok, ok, ok])[0] \
        == "unchanged"
    assert compare.verdict(lower, [10, 10, 10], [bad, bad, bad])[0] \
        == "worse"
    assert compare.verdict(lower, [7, 10, 14], [7, 10, 14])[0] \
        == "unresolved"
    higher = "goodput_per_s"           # higher is better
    _better, bound = spec.E2E_BOUNDS[higher]
    low = 100 * (1 - bound * 1.5)
    assert compare.verdict(higher, [100, 100], [low, low])[0] == "worse"
    assert compare.verdict(higher, [100, 100], [150, 150])[0] == "unchanged"
    # failed_share: bound 0 absolute -- dropping casts is worse however
    # cheap the rest became; an oracle violation counts every cast failed
    clean = [{"attempted": 1000, "failed": 0}] * 3
    lossy = [{"attempted": 1000, "failed": 100}] * 3
    assert compare.failed_verdict(clean, clean)[0] == "unchanged"
    assert compare.failed_verdict(clean, lossy)[0] == "worse"
    assert compare.failed_verdict(lossy, clean)[0] == "unchanged"
