"""Checker for Byzantine view synchrony and Byzantine virtual synchrony.

Verifies the safety clauses of Definitions 2.1 and 2.2 over a recorded
:class:`repro.core.history.Execution`.  Each check returns a list of
violation strings (empty = property holds); ``check_all`` aggregates.

Only *correct* processes are restricted -- the execution carries the
ground-truth fault set from the injection plan.  The liveness clauses
(items 4 and 5 of Definition 2.1) are inherently eventual and are asserted
by the scenario tests as convergence conditions instead.
"""

from __future__ import annotations


def check_self_inclusion(execution):
    """Def 2.1 item 1: a correct process appears in every view it installs."""
    violations = []
    for node, history in execution.correct_histories().items():
        for _time, _vid, mbrs in history.views():
            if node not in mbrs:
                violations.append(
                    "self-inclusion: %r installed a view without itself: %r"
                    % (node, mbrs))
    return violations


def check_monotonic_view_ids(execution):
    """Def 2.1 item 2: view identifiers increase along each history."""
    violations = []
    for node, history in execution.correct_histories().items():
        vids = history.view_ids()
        for earlier, later in zip(vids, vids[1:]):
            if not earlier < later:
                violations.append(
                    "monotonic-vid: %r installed %r then %r" % (node, earlier, later))
    return violations


def check_view_agreement(execution):
    """Def 2.1 item 3: same vid at two correct processes => same members."""
    violations = []
    seen = {}
    for node, history in execution.correct_histories().items():
        for _time, vid, mbrs in history.views():
            if vid in seen:
                other_node, other_mbrs = seen[vid]
                if other_mbrs != mbrs:
                    violations.append(
                        "view-agreement: vid %r is %r at %r but %r at %r"
                        % (vid, other_mbrs, other_node, mbrs, node))
            else:
                seen[vid] = (node, mbrs)
    return violations


def check_view_confirmation(execution):
    """Def 2.1 item 6: pj in two consecutive views of pi => pj installed
    the first of them."""
    violations = []
    correct = execution.correct
    installed = {node: set(history.view_ids())
                 for node, history in execution.correct_histories().items()}
    for node, history in execution.correct_histories().items():
        views = history.views()
        for (_t1, v1, m1), (_t2, v2, m2) in zip(views, views[1:]):
            for peer in set(m1) & set(m2):
                if peer == node or peer not in correct:
                    continue
                if v1 not in installed.get(peer, set()):
                    violations.append(
                        "view-confirmation: %r in consecutive views %r,%r of "
                        "%r but never installed %r" % (peer, v1, v2, node, v1))
    return violations


def check_sending_view_delivery(execution):
    """Def 2.2 item 2: a message is delivered in the view it was sent in."""
    violations = []
    sent_in = {}
    for node, history in execution.correct_histories().items():
        for ev in history.events:
            if ev[0] == "cast":
                sent_in[ev[2]] = ev[3]
    for node, history in execution.correct_histories().items():
        for ev in history.events:
            if ev[0] != "cast_deliver":
                continue
            msg_id, vid = ev[2], ev[5]
            origin_vid = sent_in.get(msg_id)
            if origin_vid is not None and origin_vid != vid:
                violations.append(
                    "sending-view: %r delivered %r in %r but it was sent in %r"
                    % (node, msg_id, vid, origin_vid))
    return violations


def _continuing_pairs(history):
    """[(v1, v2)] for consecutive views v1 -> v2 in a history."""
    vids = history.view_ids()
    return list(zip(vids, vids[1:]))


def check_reliable_delivery(execution):
    """Def 2.2 item 3: a cast by a correct member that stays into the next
    view is delivered by every correct member that installed both views."""
    violations = []
    for sender, shistory in execution.correct_histories().items():
        for v1, v2 in _continuing_pairs(shistory):
            casts = shistory.casts_in_view(v1)
            if not casts:
                continue
            for node, history in execution.correct_histories().items():
                vids = history.view_ids()
                if v1 not in vids or v2 not in vids:
                    continue
                delivered = history.deliveries_in_view(v1)
                for msg_id in casts - delivered:
                    violations.append(
                        "reliable-delivery: %r never delivered %r (cast by %r "
                        "in %r, both installed %r and %r)"
                        % (node, msg_id, sender, v1, v1, v2))
    return violations


def check_delivery_agreement(execution):
    """Def 2.2 item 4: members continuing from v1 to v2 agree on the set of
    messages delivered in v1."""
    violations = []
    continuing = {}
    for node, history in execution.correct_histories().items():
        for v1, v2 in _continuing_pairs(history):
            continuing.setdefault((v1, v2), []).append(node)
    for (v1, _v2), nodes in continuing.items():
        if len(nodes) < 2:
            continue
        reference = None
        for node in nodes:
            delivered = execution.history(node).deliveries_in_view(v1)
            if reference is None:
                reference = (node, delivered)
            elif delivered != reference[1]:
                missing = reference[1] ^ delivered
                violations.append(
                    "delivery-agreement: %r and %r disagree on view %r "
                    "deliveries (difference: %r)"
                    % (reference[0], node, v1, sorted(missing, key=repr)[:5]))
    return violations


def check_fifo_no_holes(execution):
    """Def 2.2 item 5: per-sender FIFO with no omissions.

    Message ids are (origin, counter) with counters increasing in send
    order, so for a correct origin, deliveries within one view must be the
    counter-contiguous, order-preserving prefix continuation.
    """
    violations = []
    for node, history in execution.correct_histories().items():
        per_view_origin = {}
        for ev in history.events:
            if ev[0] != "cast_deliver":
                continue
            msg_id, origin, vid = ev[2], ev[3], ev[5]
            if origin not in execution.correct or not isinstance(msg_id, tuple):
                continue
            per_view_origin.setdefault((vid, origin), []).append(msg_id[1])
        for (vid, origin), counters in per_view_origin.items():
            if counters != sorted(counters):
                violations.append(
                    "fifo: %r delivered %r's casts out of order in %r: %r"
                    % (node, origin, vid, counters[:8]))
            for earlier, later in zip(counters, counters[1:]):
                if later != earlier + 1:
                    violations.append(
                        "fifo-hole: %r delivered %r's casts with a gap in %r "
                        "(%d -> %d)" % (node, origin, vid, earlier, later))
    return violations


def check_origin_authenticity(execution):
    """Def 2.2 validity is about the *correct sender's* message: a correct
    member delivers, under a correct origin's id, only the content that
    origin cast.  Ids are chosen by their sender, so a Byzantine member can
    squat one; :func:`check_content_agreement` would pass a squatter's
    payload that every member delivered alike.  Ids the correct origins
    recorded no content for (an earlier incarnation's, or a history read
    back from a net node's report) are not judged here."""
    histories = execution.correct_histories()
    cast = {}
    for history in histories.values():
        cast.update(history.cast_digests)
    violations = []
    for node, history in histories.items():
        for ev in history.events:
            if ev[0] != "cast_deliver":
                continue
            expected = cast.get(ev[2])
            if expected is not None and expected != ev[4]:
                violations.append(
                    "origin-authenticity: %r delivered %r as %s but its "
                    "origin cast %s" % (node, ev[2], ev[4], expected))
    return violations


def check_content_agreement(execution):
    """Uniformity: two correct processes never deliver different contents
    for the same message id (guaranteed by uniform delivery / total order;
    a plain-reliable stack does NOT promise this for Byzantine senders)."""
    violations = []
    seen = {}
    for node, history in execution.correct_histories().items():
        for msg_id, digest in history.delivery_digests().items():
            if msg_id in seen:
                other_node, other_digest = seen[msg_id]
                if other_digest != digest:
                    violations.append(
                        "content-agreement: %r delivered %r as %s but %r "
                        "delivered %s" % (other_node, msg_id, other_digest,
                                          node, digest))
            else:
                seen[msg_id] = (node, digest)
    return violations


def check_total_order(execution):
    """Atomic broadcast: the delivery orders at correct processes are
    mutually consistent (no two messages delivered in opposite orders)."""
    violations = []
    orders = {node: history.delivery_order()
              for node, history in execution.correct_histories().items()}
    positions = {node: {m: i for i, m in enumerate(seq)}
                 for node, seq in orders.items()}
    nodes = sorted(orders, key=repr)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            common = set(positions[a]) & set(positions[b])
            ranked_a = sorted(common, key=lambda m: positions[a][m])
            ranked_b = sorted(common, key=lambda m: positions[b][m])
            if ranked_a != ranked_b:
                for m1, m2 in zip(ranked_a, ranked_b):
                    if m1 != m2:
                        violations.append(
                            "total-order: %r and %r deliver %r/%r in "
                            "opposite orders" % (a, b, m1, m2))
                        break
    return violations


def check_no_duplicate_delivery(execution):
    """A message id is delivered at most once per correct process."""
    violations = []
    for node, history in execution.correct_histories().items():
        seen = set()
        for ev in history.events:
            if ev[0] != "cast_deliver":
                continue
            msg_id = ev[2]
            if msg_id in seen:
                violations.append(
                    "duplicate-delivery: %r delivered %r twice" % (node, msg_id))
            seen.add(msg_id)
    return violations


def check_self_delivery(execution):
    """A correct sender delivers its own casts (group-communication
    self-inclusion of traffic; only checked for messages whose sending
    view the sender stayed in past one more view, mirroring item 3)."""
    violations = []
    for node, history in execution.correct_histories().items():
        delivered = {ev[2] for ev in history.events
                     if ev[0] == "cast_deliver"}
        for v1, v2 in _continuing_pairs(history):
            for msg_id in history.casts_in_view(v1):
                if msg_id not in delivered:
                    violations.append(
                        "self-delivery: %r never delivered its own %r"
                        % (node, msg_id))
    return violations


VIEW_SYNCHRONY_CHECKS = (
    check_self_inclusion,
    check_monotonic_view_ids,
    check_view_agreement,
    check_view_confirmation,
)

VIRTUAL_SYNCHRONY_CHECKS = VIEW_SYNCHRONY_CHECKS + (
    check_sending_view_delivery,
    check_reliable_delivery,
    check_delivery_agreement,
    check_fifo_no_holes,
    check_no_duplicate_delivery,
    check_self_delivery,
    check_origin_authenticity,
)


def check_view_synchrony(execution):
    """All safety clauses of Definition 2.1.  Returns violations."""
    violations = []
    for check in VIEW_SYNCHRONY_CHECKS:
        violations.extend(check(execution))
    return violations


def check_virtual_synchrony(execution, content_agreement=False,
                            total_order=False):
    """All safety clauses of Definition 2.2 (+ optional QoS guarantees)."""
    violations = []
    for check in VIRTUAL_SYNCHRONY_CHECKS:
        violations.extend(check(execution))
    if content_agreement:
        violations.extend(check_content_agreement(execution))
    if total_order:
        violations.extend(check_total_order(execution))
    return violations
