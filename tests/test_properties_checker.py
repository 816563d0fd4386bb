"""Tests for the Byzantine virtual synchrony property checker itself.

The checker must catch synthetic violations (so a green run means
something) and pass hand-built legal histories.
"""

from repro.core.history import Execution, History, content_digest
from repro.core.properties import (check_content_agreement,
                                   check_delivery_agreement,
                                   check_fifo_no_holes,
                                   check_monotonic_view_ids,
                                   check_origin_authenticity,
                                   check_reliable_delivery,
                                   check_self_inclusion,
                                   check_sending_view_delivery,
                                   check_total_order, check_view_agreement,
                                   check_view_confirmation,
                                   check_view_synchrony,
                                   check_virtual_synchrony)
from repro.core.view import View, ViewId


def make_view(counter, members):
    return View(ViewId(counter, members[0]), members)


def record_view(history, t, counter, members):
    history.record_view(t, make_view(counter, members))


def test_self_inclusion_violation_detected():
    h = History("a")
    h.events.append(("view", 0.0, ViewId(1, "b"), ("b", "c")))
    execution = Execution({"a": h})
    assert check_self_inclusion(execution)


def test_self_inclusion_ok():
    h = History("a")
    record_view(h, 0.0, 1, ("a", "b"))
    assert not check_self_inclusion(Execution({"a": h}))


def test_monotonic_vid_violation():
    h = History("a")
    record_view(h, 0.0, 2, ("a",))
    record_view(h, 1.0, 1, ("a",))
    assert check_monotonic_view_ids(Execution({"a": h}))


def test_view_agreement_violation():
    ha, hb = History("a"), History("b")
    vid = ViewId(1, "a")
    ha.events.append(("view", 0.0, vid, ("a", "b")))
    hb.events.append(("view", 0.0, vid, ("a", "b", "c")))
    assert check_view_agreement(Execution({"a": ha, "b": hb}))


def test_view_agreement_ignores_byzantine_histories():
    ha, hb = History("a"), History("b")
    vid = ViewId(1, "a")
    ha.events.append(("view", 0.0, vid, ("a", "b")))
    hb.events.append(("view", 0.0, vid, ("a", "b", "c")))
    execution = Execution({"a": ha, "b": hb}, correct={"a"})
    assert not check_view_agreement(execution)


def test_view_confirmation_violation():
    # b appears in two consecutive views of a, but never installed the first
    ha, hb = History("a"), History("b")
    record_view(ha, 0.0, 1, ("a", "b"))
    record_view(ha, 1.0, 2, ("a", "b"))
    record_view(hb, 1.0, 2, ("a", "b"))  # skipped view 1
    violations = check_view_confirmation(Execution({"a": ha, "b": hb}))
    assert violations


def test_sending_view_violation():
    ha, hb = History("a"), History("b")
    v1, v2 = ViewId(1, "a"), ViewId(2, "a")
    ha.events.append(("view", 0.0, v1, ("a", "b")))
    ha.events.append(("cast", 0.1, ("a", 1), v1))
    hb.events.append(("view", 0.0, v2, ("a", "b")))
    hb.events.append(("cast_deliver", 0.2, ("a", 1), "a",
                      content_digest("x"), v2))
    assert check_sending_view_delivery(Execution({"a": ha, "b": hb}))


def test_reliable_delivery_violation():
    # a casts m in v1 and continues to v2; b installed both but missed m
    ha, hb = History("a"), History("b")
    v1, v2 = ViewId(1, "a"), ViewId(2, "a")
    for h in (ha, hb):
        h.events.append(("view", 0.0, v1, ("a", "b")))
    ha.events.append(("cast", 0.1, ("a", 1), v1))
    ha.events.append(("cast_deliver", 0.2, ("a", 1), "a",
                      content_digest("x"), v1))
    for h in (ha, hb):
        h.events.append(("view", 1.0, v2, ("a", "b")))
    assert check_reliable_delivery(Execution({"a": ha, "b": hb}))


def test_delivery_agreement_violation():
    ha, hb = History("a"), History("b")
    v1, v2 = ViewId(1, "a"), ViewId(2, "a")
    for h in (ha, hb):
        h.events.append(("view", 0.0, v1, ("a", "b")))
    ha.events.append(("cast_deliver", 0.2, ("c", 9), "c",
                      content_digest("x"), v1))
    for h in (ha, hb):
        h.events.append(("view", 1.0, v2, ("a", "b")))
    assert check_delivery_agreement(Execution({"a": ha, "b": hb}))


def test_fifo_hole_violation():
    ha = History("a")
    v1 = ViewId(1, "a")
    ha.events.append(("view", 0.0, v1, ("a", "b")))
    ha.events.append(("cast_deliver", 0.1, ("b", 1), "b",
                      content_digest("x"), v1))
    ha.events.append(("cast_deliver", 0.2, ("b", 3), "b",
                      content_digest("y"), v1))  # skipped counter 2
    execution = Execution({"a": ha, "b": History("b")})
    assert check_fifo_no_holes(execution)


def test_fifo_out_of_order_violation():
    ha = History("a")
    v1 = ViewId(1, "a")
    ha.events.append(("view", 0.0, v1, ("a", "b")))
    ha.events.append(("cast_deliver", 0.1, ("b", 2), "b",
                      content_digest("x"), v1))
    ha.events.append(("cast_deliver", 0.2, ("b", 1), "b",
                      content_digest("y"), v1))
    execution = Execution({"a": ha, "b": History("b")})
    assert check_fifo_no_holes(execution)


def test_fifo_ignores_byzantine_origins():
    ha = History("a")
    v1 = ViewId(1, "a")
    ha.events.append(("view", 0.0, v1, ("a", "b")))
    ha.events.append(("cast_deliver", 0.1, ("z", 5), "z",
                      content_digest("x"), v1))
    execution = Execution({"a": ha}, correct={"a"})
    assert not check_fifo_no_holes(execution)


def test_content_agreement_violation():
    ha, hb = History("a"), History("b")
    v1 = ViewId(1, "a")
    for h in (ha, hb):
        h.events.append(("view", 0.0, v1, ("a", "b")))
    ha.events.append(("cast_deliver", 0.1, ("z", 1), "z",
                      content_digest("version-1"), v1))
    hb.events.append(("cast_deliver", 0.1, ("z", 1), "z",
                      content_digest("version-2"), v1))
    assert check_content_agreement(Execution({"a": ha, "b": hb}))


def squatted_execution(delivered):
    """Correct ``a`` casts ``("a", 1)`` as "x"; ``a`` and ``b`` both
    deliver *delivered* under that id, and Byzantine ``z``'s own record of
    ``("z", 1)`` disagrees with what they deliver under it."""
    ha, hb, hz = History("a"), History("b"), History("z")
    v1 = ViewId(1, "a")
    ha.record_cast_content(("a", 1), "x")
    hz.record_cast_content(("z", 1), "p")
    for h in (ha, hb):
        h.events.append(("view", 0.0, v1, ("a", "b", "z")))
        h.events.append(("cast_deliver", 0.1, ("a", 1), "a",
                         content_digest(delivered), v1))
        h.events.append(("cast_deliver", 0.2, ("z", 1), "z",
                         content_digest("q"), v1))
    return Execution({"a": ha, "b": hb, "z": hz}, correct={"a", "b"})


def test_origin_authenticity_violation():
    """Every member delivers a squatter's payload under a's id: the members
    agree with each other, and only the origin's record catches it."""
    execution = squatted_execution("squat")
    assert not check_content_agreement(execution)
    violations = check_origin_authenticity(execution)
    assert len(violations) == 2
    assert all(v.startswith("origin-authenticity:") for v in violations)


def test_origin_authenticity_clean():
    """What a correct origin cast is what is delivered; a Byzantine
    origin's record binds nobody."""
    assert not check_origin_authenticity(squatted_execution("x"))


def test_total_order_violation():
    ha, hb = History("a"), History("b")
    v1 = ViewId(1, "a")
    m1, m2 = ("a", 1), ("b", 1)
    for h, order in ((ha, (m1, m2)), (hb, (m2, m1))):
        h.events.append(("view", 0.0, v1, ("a", "b")))
        for i, m in enumerate(order):
            h.events.append(("cast_deliver", 0.1 + i / 10, m, m[0],
                             content_digest("x"), v1))
    assert check_total_order(Execution({"a": ha, "b": hb}))


def test_clean_execution_passes_everything():
    ha, hb = History("a"), History("b")
    v1, v2 = ViewId(1, "a"), ViewId(2, "a")
    m = ("a", 1)
    for h in (ha, hb):
        h.events.append(("view", 0.0, v1, ("a", "b")))
        h.events.append(("cast_deliver", 0.2, m, "a", content_digest("x"), v1))
    ha.events.append(("cast", 0.1, m, v1))
    ha.record_cast_content(m, "x")
    for h in (ha, hb):
        h.events.append(("view", 1.0, v2, ("a", "b")))
    execution = Execution({"a": ha, "b": hb})
    assert not check_view_synchrony(execution)
    assert not check_virtual_synchrony(execution, content_agreement=True,
                                       total_order=True)


def test_duplicate_delivery_violation():
    from repro.core.properties import check_no_duplicate_delivery
    ha = History("a")
    v1 = ViewId(1, "a")
    ha.events.append(("view", 0.0, v1, ("a",)))
    for t in (0.1, 0.2):
        ha.events.append(("cast_deliver", t, ("b", 1), "b",
                          content_digest("x"), v1))
    assert check_no_duplicate_delivery(Execution({"a": ha}))


def test_self_delivery_violation():
    from repro.core.properties import check_self_delivery
    ha = History("a")
    v1, v2 = ViewId(1, "a"), ViewId(2, "a")
    ha.events.append(("view", 0.0, v1, ("a",)))
    ha.events.append(("cast", 0.1, ("a", 1), v1))
    ha.events.append(("view", 1.0, v2, ("a",)))  # moved on without delivering
    assert check_self_delivery(Execution({"a": ha}))
