"""The history's column layout (core/history.py).

Cast deliveries are columns and the other events stamped tuples; these
tests pin that ``events`` rebuilds the one tuple sequence exactly, that a
node report carries a history through JSON unchanged, and what one
delivery costs the history in memory.
"""

import json
import tracemalloc

from tests.helpers import make_group

from repro.core.history import Execution, History, content_digest
from repro.core.properties import check_virtual_synchrony
from repro.core.view import View, ViewId
from repro.runtime.report import history_from_jsonable, history_to_jsonable


def test_events_merge_rare_events_between_deliveries():
    h = History("n")
    v1 = ViewId(1, "n")
    h.record_view(0.0, View(v1, ("n", "m")))
    h.record_cast(0.1, ("n", 1), v1)
    h.record_cast_deliver(0.2, ("m", 1), "m", "a", v1)
    h.record_cast_deliver(0.3, ("n", 1), "n", "b", v1)
    h.record_send(0.4, "m", v1)
    h.record_send_deliver(0.4, "m", "c", v1)
    h.record_cast_deliver(0.5, ("m", 2), "m", "d", v1)
    assert h.events == [
        ("view", 0.0, v1, ("n", "m")),
        ("cast", 0.1, ("n", 1), v1),
        ("cast_deliver", 0.2, ("m", 1), "m", content_digest("a"), v1),
        ("cast_deliver", 0.3, ("n", 1), "n", content_digest("b"), v1),
        ("send", 0.4, "m", v1),
        ("send_deliver", 0.4, "m", content_digest("c"), v1),
        ("cast_deliver", 0.5, ("m", 2), "m", content_digest("d"), v1),
    ]
    h.events.append(("cast", 0.6, ("n", 2), v1))   # a copy: records nothing
    assert len(h.events) == 7
    copy = History("n")
    for event in h.events:
        copy.append(event)
    assert copy.events == h.events


def churn_run():
    """Five members cast and send, one crashes and a sixth joins: every
    event kind is recorded, across three views."""
    group = make_group(5, seed=4)
    for i in range(6):
        group.sim.schedule(0.002 * i, group.endpoints[i % 4].cast, ("c", i))
        group.sim.schedule(0.002 * i, group.endpoints[i % 4].send,
                           (i + 1) % 4, ("s", i))
    group.sim.schedule(0.006, group.crash, 4)
    group.run(0.5)
    group.add_node(5)
    group.run(1.5)
    return group.execution()


def test_report_round_trip_keeps_events_and_verdicts():
    execution = churn_run()
    h0 = execution.history(0)
    assert {ev[0] for ev in h0.events} == {
        "view", "cast", "cast_deliver", "send", "send_deliver"}
    assert len(h0.view_ids()) == 3
    # one delivery twice, so the verdicts to compare are not all empty
    h0.append(next(ev for ev in reversed(h0.events)
                   if ev[0] == "cast_deliver"))
    back = Execution(
        {node: history_from_jsonable(
            json.loads(json.dumps(history_to_jsonable(h))))
         for node, h in execution.histories.items()},
        correct=execution.correct)
    for node, h in execution.histories.items():
        assert back.history(node).events == h.events
    verdicts = check_virtual_synchrony(execution, content_agreement=True,
                                       total_order=True)
    assert verdicts == check_virtual_synchrony(back, content_agreement=True,
                                               total_order=True)
    assert [v.split(":")[0] for v in verdicts] == ["fifo-hole",
                                                   "duplicate-delivery"]


def test_a_delivery_costs_the_history_at_most_48_bytes():
    """16,000 deliveries of 1,600 cast ids, their digests shared as the
    stack shares them: the history holds a time and four references per
    delivery, not a tuple and a float (about 121 B as tuples)."""
    deliveries = 16000
    vid = ViewId(1, 0)
    ids = [(origin, counter) for origin in range(16) for counter in range(100)]
    digests = {msg_id: content_digest(msg_id) for msg_id in ids}
    h = History(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(deliveries):
            msg_id = ids[i % len(ids)]
            h.record_cast_deliver(i * 1e-5, msg_id, msg_id[0], None, vid,
                                  digests[msg_id])
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(h.delivery_order()) == deliveries
    assert grown / deliveries <= 48, grown / deliveries
