"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but quantifications of its *arguments*:

1. **Fuzzy flow control** (section 3.1): with a slow/mute member, the
   fuzzy window keeps the group's throughput up; classic all-ack flow
   control stalls behind the laggard.
2. **Consensus batching** (section 3.5): the 1-round amortization claim --
   throughput of total ordering with large vs degenerate batch caps.
"""

import pytest

from benchmarks.harness import ring_throughput
from repro import Group, StackConfig
from repro.apps.ring import RingDemo
from repro.byzantine.behaviors import MuteNode


def throughput_with_laggard(fuzzy_flow, n=8, seed=21):
    """Aggregate throughput while one member silently stops acking."""
    config = StackConfig.byz(fuzzy_flow=fuzzy_flow, flow_window=32,
                             # keep the laggard IN the view for the whole
                             # window: detection thresholds way up
                             mute_suspect_threshold=1e9,
                             verbose_suspect_threshold=1e9)
    behaviors = {n - 1: MuteNode(mute_at=0.02)}
    group = Group.bootstrap(n, config=config, seed=seed, behaviors=behaviors)
    ring = RingDemo(group, burst=8)
    # the ring app itself waits for everyone; pump an open-loop feed instead
    for node, endpoint in group.endpoints.items():
        endpoint.record_events = False
    state = {"sent": 0, "delivered": 0}
    group.endpoints[1].on_cast = (
        lambda ev: state.__setitem__("delivered", state["delivered"] + 1))

    def pump():
        if state["sent"] < 3000 and not group.processes[0].stopped:
            group.endpoints[0].cast(("q", state["sent"]), size=16)
            state["sent"] += 1
            group.sim.schedule(0.0002, pump)

    pump()
    group.run(0.6)
    delivered = state["delivered"]
    group.stop()
    return delivered / 0.6


def test_ablation_fuzzy_flow_keeps_throughput(benchmark):
    with_fuzzy = throughput_with_laggard(fuzzy_flow=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    without = throughput_with_laggard(fuzzy_flow=False)
    benchmark.extra_info.update({
        "fuzzy_flow_msgs_per_s": with_fuzzy,
        "classic_flow_msgs_per_s": without,
    })
    # classic flow control stalls at the window once the laggard stops
    # acking; the fuzzy window sails past it
    assert with_fuzzy > 3 * without, (with_fuzzy, without)


def test_ablation_consensus_batching_amortization(benchmark):
    """Large batches amortize consensus to ~1 round/message (paper 3.5)."""
    big = ring_throughput(StackConfig.byz(total_order=True,
                                          order_batch_max=1024), 8, seed=23)
    tiny = ring_throughput(StackConfig.byz(total_order=True,
                                           order_batch_max=1), 8, seed=23)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "batch_1024_msgs_per_s": big["throughput"],
        "batch_1_msgs_per_s": tiny["throughput"],
    })
    assert big["throughput"] > 2 * tiny["throughput"], (big, tiny)


@pytest.mark.parametrize("entries", (10, 1000))
def test_ablation_state_transfer_catchup(benchmark, entries):
    """Joiner catch-up: Byzantine-vouched snapshot transfer vs state size."""
    from repro.apps.rsm import Replica

    def run():
        config = StackConfig.byz(total_order=True)
        group = Group.bootstrap(6, config=config, seed=31)
        replicas = {n: Replica(group.endpoints[n]) for n in group.endpoints}
        # pre-seed an identical committed state at every replica (as if the
        # commands had been atomically delivered long ago)
        for replica in replicas.values():
            for k in range(entries):
                replica.machine.apply(0, ("set", "k%d" % k, k))
        group.run(0.1)
        newcomer = Replica(group.add_node(6))
        joined_at = None
        group.run_until(lambda: all(p.view.n == 7
                                    for p in group.processes.values()),
                        timeout=10.0)
        join_time = group.sim.now
        ok = group.run_until(
            lambda: newcomer.machine.data == replicas[0].machine.data,
            timeout=10.0)
        catchup = group.sim.now - join_time
        group.stop()
        return {"entries": entries, "caught_up": ok,
                "catchup_seconds": catchup}

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(result)
    assert result["caught_up"]
    assert result["catchup_seconds"] < 1.0
