"""Execution timelines: render a recorded run as text.

Debugging distributed protocols from per-node logs is miserable; this
tool merges the recorded histories of an :class:`Execution` into one
global, time-ordered timeline (the external observer's view the formal
model grants, section 2.1), and can summarize per-view delivery counts.
"""

from __future__ import annotations

from repro.core.history import (EV_CAST, EV_CAST_DELIVER, EV_SEND,
                                EV_SEND_DELIVER, EV_VIEW)

_FORMATTERS = {
    EV_VIEW: lambda ev: "VIEW %s members=%s" % (ev[2], (ev[3],)),
    EV_CAST: lambda ev: "cast %s in %s" % (ev[2], ev[3]),
    EV_CAST_DELIVER: lambda ev: "deliver %s from %s [%s] in %s"
                                % (ev[2], ev[3], ev[4], ev[5]),
    EV_SEND: lambda ev: "send to %s in %s" % (ev[2], ev[3]),
    EV_SEND_DELIVER: lambda ev: "p2p-deliver from %s [%s] in %s"
                                % (ev[2], ev[3], ev[4]),
}


def merged_events(execution, kinds=None, nodes=None):
    """All events of the execution, globally time-ordered.

    Yields ``(time, node, kind, event_tuple)``.
    """
    rows = []
    for node, history in execution.histories.items():
        if nodes is not None and node not in nodes:
            continue
        for ev in history.events:
            if kinds is not None and ev[0] not in kinds:
                continue
            rows.append((ev[1], repr(node), node, ev))
    rows.sort(key=lambda row: (row[0], row[1]))
    for time, _key, node, ev in rows:
        yield time, node, ev[0], ev


def render_timeline(execution, kinds=None, nodes=None, limit=None):
    """Text lines: ``t=0.001234  node 3  deliver (0, 1) from 0 ...``."""
    lines = []
    for time, node, kind, ev in merged_events(execution, kinds, nodes):
        formatter = _FORMATTERS.get(kind, lambda ev: repr(ev))
        lines.append("t=%10.6f  node %-6r %s" % (time, node, formatter(ev)))
        if limit is not None and len(lines) >= limit:
            lines.append("... (truncated at %d events)" % limit)
            break
    return lines


def render_trace(trace, node=None, limit=None):
    """Text lines for a recorded :class:`repro.obs.trace.Trace` span.

    The per-message analogue of :func:`render_timeline`: every layer hop,
    wire transfer, and delivery of one message, across all nodes, in time
    order.  With ``node``, only that node's hops.
    """
    if trace is None:
        return ["(no trace recorded for that message id)"]
    lines = []
    events = (trace.events if node is None
              else trace.events_for(node))
    for ev in events:
        detail = "" if ev.detail is None else " %r" % (ev.detail,)
        lines.append("t=%10.6f  node %-6r %-14s %-7s%s"
                     % (ev.time, ev.node, ev.layer, ev.action, detail))
        if limit is not None and len(lines) >= limit:
            lines.append("... (truncated at %d events)" % limit)
            break
    return lines


def view_summary(execution):
    """Per-view digest: members, installers, and delivery counts.

    Returns ``{vid: {"members": ..., "installed_by": [...],
    "deliveries": {node: count}}}`` -- the quickest way to see whether a
    view change lost or duplicated anything.
    """
    summary = {}
    for node, history in execution.histories.items():
        for _time, vid, mbrs in history.views():
            entry = summary.setdefault(
                vid, {"members": mbrs, "installed_by": [], "deliveries": {}})
            entry["installed_by"].append(node)
        for _t, _m, _o, _d, vid in history.deliveries():
            entry = summary.setdefault(
                vid, {"members": None, "installed_by": [], "deliveries": {}})
            entry["deliveries"][node] = entry["deliveries"].get(node, 0) + 1
    return summary


def render_view_summary(execution):
    lines = []
    summary = view_summary(execution)
    for vid in sorted(summary, key=lambda v: v.key()):
        entry = summary[vid]
        installers = sorted(entry["installed_by"], key=repr)
        counts = sorted(entry["deliveries"].items(), key=lambda kv: repr(kv[0]))
        lines.append("%s  members=%s" % (vid, entry["members"]))
        lines.append("    installed by: %s" % (installers,))
        lines.append("    deliveries:   %s" % (counts,))
    return lines
