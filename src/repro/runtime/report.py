"""Node run reports: serialized histories the property checker can read.

A net-cluster node is its own OS process, so its
:class:`~repro.core.history.History` cannot be inspected in-memory the
way the simulator's can.  Instead every node writes a JSON report at
teardown; the driver folds the reports back into real ``History``
objects and an :class:`~repro.core.history.Execution`, and the SAME
Definitions 2.1/2.2 checker that audits simulated runs audits the wire
run.  That shared oracle is what makes the sim-vs-wire conformance test
meaningful.
"""

from __future__ import annotations

import json

from repro.core.history import (
    EV_CAST,
    EV_CAST_DELIVER,
    EV_SEND,
    EV_SEND_DELIVER,
    EV_VIEW,
    Execution,
    History,
)
from repro.core.view import ViewId


def _vid_out(vid):
    return [vid.counter, vid.creator]


def _vid_in(obj):
    return ViewId(obj[0], obj[1])


def _mid_out(msg_id):
    """Message ids are (origin, counter) tuples; keep non-tuples as-is."""
    return list(msg_id) if isinstance(msg_id, tuple) else msg_id


def _mid_in(obj):
    return tuple(obj) if isinstance(obj, list) else obj


def event_to_jsonable(ev):
    kind = ev[0]
    if kind == EV_VIEW:
        return [kind, ev[1], _vid_out(ev[2]), list(ev[3])]
    if kind == EV_CAST:
        return [kind, ev[1], _mid_out(ev[2]), _vid_out(ev[3])]
    if kind == EV_CAST_DELIVER:
        return [kind, ev[1], _mid_out(ev[2]), ev[3], ev[4], _vid_out(ev[5])]
    if kind == EV_SEND:
        return [kind, ev[1], ev[2], _vid_out(ev[3])]
    if kind == EV_SEND_DELIVER:
        return [kind, ev[1], ev[2], ev[3], _vid_out(ev[4])]
    raise ValueError("unknown history event kind: %r" % (kind,))


def event_from_jsonable(obj):
    kind = obj[0]
    if kind == EV_VIEW:
        return (kind, obj[1], _vid_in(obj[2]), tuple(obj[3]))
    if kind == EV_CAST:
        return (kind, obj[1], _mid_in(obj[2]), _vid_in(obj[3]))
    if kind == EV_CAST_DELIVER:
        return (kind, obj[1], _mid_in(obj[2]), obj[3], obj[4],
                _vid_in(obj[5]))
    if kind == EV_SEND:
        return (kind, obj[1], obj[2], _vid_in(obj[3]))
    if kind == EV_SEND_DELIVER:
        return (kind, obj[1], obj[2], obj[3], _vid_in(obj[4]))
    raise ValueError("unknown history event kind: %r" % (kind,))


def history_to_jsonable(history):
    return {"node_id": history.node_id,
            "events": [event_to_jsonable(ev) for ev in history.events]}


def history_from_jsonable(obj):
    history = History(obj["node_id"])
    for ev in obj["events"]:
        history.append(event_from_jsonable(ev))
    return history


# ----------------------------------------------------------------------
class NodeReport:
    """Everything one net node knows about its own run."""

    def __init__(self, node_id, history, final_view=None, counters=None,
                 wall=None, leaks=None, ok=True, error=None, debug=None):
        self.node_id = node_id
        self.history = history
        self.final_view = final_view      # {"vid": [c, r], "mbrs": [...]}
        self.counters = counters or {}
        self.wall = wall or {}            # wall-clock milestones
        self.leaks = leaks or {}          # post-stop resource accounting
        self.ok = ok
        self.error = error
        self.debug = debug                # stack snapshot, failed runs only

    def to_jsonable(self):
        return {
            "node_id": self.node_id,
            "ok": self.ok,
            "error": self.error,
            "history": history_to_jsonable(self.history),
            "final_view": self.final_view,
            "counters": self.counters,
            "wall": self.wall,
            "leaks": self.leaks,
            "debug": self.debug,
        }

    @classmethod
    def from_jsonable(cls, obj):
        return cls(obj["node_id"],
                   history_from_jsonable(obj["history"]),
                   final_view=obj.get("final_view"),
                   counters=obj.get("counters") or {},
                   wall=obj.get("wall") or {},
                   leaks=obj.get("leaks") or {},
                   ok=obj.get("ok", False),
                   error=obj.get("error"),
                   debug=obj.get("debug"))

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_jsonable(), handle, indent=1)
        return path

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_jsonable(json.load(handle))

    def final_members(self):
        if self.final_view is None:
            return None
        return tuple(self.final_view["mbrs"])


def execution_from_reports(reports, correct=None):
    """Fold node reports into an Execution for the property checker."""
    histories = {report.node_id: report.history for report in reports}
    return Execution(histories, correct=correct)
