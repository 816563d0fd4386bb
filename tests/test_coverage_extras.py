"""Additional edge-case coverage across modules."""

from tests.helpers import cast_payloads, make_group

from repro import Group, StackConfig
from repro.core.history import History, content_digest
from repro.core.view import ViewId


# ----------------------------------------------------------------------
# history accessors
# ----------------------------------------------------------------------
def test_history_accessors_direct():
    h = History("n")
    v1 = ViewId(1, "n")
    from repro.core.view import View
    h.record_view(0.0, View(v1, ("n", "m")))
    h.record_cast(0.1, ("n", 1), v1)
    h.record_cast_deliver(0.2, ("n", 1), "n", "payload", v1)
    h.record_send(0.3, "m", v1)
    h.record_send_deliver(0.4, "m", "reply", v1)
    assert h.view_ids() == [v1]
    assert h.casts_in_view(v1) == {("n", 1)}
    assert h.deliveries_in_view(v1) == {("n", 1)}
    assert h.delivery_order() == [("n", 1)]
    assert h.delivery_digests() == {("n", 1): content_digest("payload")}


def test_history_restamped_cast_counts_in_last_view_only():
    h = History("n")
    v1, v2 = ViewId(1, "n"), ViewId(2, "n")
    h.record_cast(0.1, ("n", 1), v1)
    h.record_cast(0.5, ("n", 1), v2)  # re-stamped across a view change
    assert h.casts_in_view(v1) == set()
    assert h.casts_in_view(v2) == {("n", 1)}


# ----------------------------------------------------------------------
# endpoint callback plumbing
# ----------------------------------------------------------------------
def test_send_callbacks_and_events():
    group = make_group(3, seed=41)
    seen = []
    group.endpoints[2].on_send = lambda ev: seen.append(
        (ev.origin, ev.payload))
    group.endpoints[0].send(2, ("direct", 1))
    group.run(0.2)
    assert seen == [(0, ("direct", 1))]


def test_view_callback_fires_for_bootstrap_and_changes():
    group = Group.bootstrap(4, config=StackConfig.byz(), seed=42,
                            start=False)
    views_seen = []
    group.endpoints[0].on_view = lambda ev: views_seen.append(ev.view.n)
    group.start()
    assert views_seen == [4]
    group.crash(3)
    group.run_until(lambda: group.endpoints[0].view.n == 3, timeout=5.0)
    assert views_seen == [4, 3]


# ----------------------------------------------------------------------
# explorer: wider vectors, more hostile origins
# ----------------------------------------------------------------------
def test_explorer_two_entry_vectors():
    from repro.tools.explorer import explore_consensus_agreement
    proposals = {0: (1, 0), 1: (0, 0), 2: (1, 0)}
    explorer = explore_consensus_agreement(3, 0, proposals, width=2,
                                           max_states=30_000)
    assert not explorer.violations
    assert explorer.terminal_states > 0


def test_explorer_two_faced_origin_five_nodes_partial_split():
    from repro.tools.explorer import explore_uniform_broadcast
    explorer = explore_uniform_broadcast(
        4, 0, two_faced={1: "A", 2: "B", 3: "A"}, max_states=50_000)
    assert not explorer.violations


# ----------------------------------------------------------------------
# ring app under ordered QoS
# ----------------------------------------------------------------------
def test_ring_runs_under_total_order():
    from repro.apps.ring import RingDemo
    group = make_group(5, seed=43, total_order=True)
    ring = RingDemo(group, burst=4)
    ring.start()
    group.run(0.4)
    assert ring.min_rounds_completed() >= 2


# ----------------------------------------------------------------------
# mixed QoS sanity: every config delivers the same payload set
# ----------------------------------------------------------------------
def test_all_configs_deliver_identical_sets():
    configs = {
        "benign": StackConfig.benign(),
        "byz": StackConfig.byz(),
        "sym": StackConfig.byz(crypto="sym"),
        "total": StackConfig.byz(total_order=True),
        "uniform": StackConfig.byz(uniform_delivery=True),
    }
    expected = {(n, k) for n in range(5) for k in range(4)}
    for label, config in configs.items():
        group = Group.bootstrap(5, config=config, seed=44)
        for node in range(5):
            for k in range(4):
                group.endpoints[node].cast((node, k))
        group.run(1.2)
        for node in range(5):
            got = {p for p in cast_payloads(group.endpoints[node])
                   if isinstance(p, tuple) and len(p) == 2}
            assert got == expected, (label, node, len(got))
        group.stop()
