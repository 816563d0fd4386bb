"""Process histories and executions (paper section 2.1).

A process history h_i is the sequence of (input and output) events at
process p_i; a collection of histories, one per process, is an execution
sigma.  The property checker in :mod:`repro.core.properties` consumes
these records to verify Byzantine view synchrony and Byzantine virtual
synchrony (Definitions 2.1 and 2.2) over whole simulated runs.

Events are recorded with the *global* simulated time, which the formal
model grants to external observers.
"""

from __future__ import annotations

import hashlib

EV_VIEW = "view"
EV_CAST = "cast"
EV_CAST_DELIVER = "cast_deliver"
EV_SEND = "send"
EV_SEND_DELIVER = "send_deliver"


def content_digest(payload):
    """Digest used to compare delivered message *contents* across nodes."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


class History:
    """The recorded event sequence of one process."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.events = []
        # msg_id -> content digest of each cast this process submitted, for
        # the origin-authenticity check; a side table, not an event, so the
        # event sequence (and every digest pinned over it) is unchanged
        self.cast_digests = {}

    # ------------------------------------------------------------------
    def record_view(self, time, view):
        self.events.append((EV_VIEW, time, view.vid, view.mbrs))

    def record_cast_content(self, msg_id, payload):
        self.cast_digests[msg_id] = content_digest(payload)

    def record_cast(self, time, msg_id, vid):
        self.events.append((EV_CAST, time, msg_id, vid))

    def record_cast_deliver(self, time, msg_id, origin, payload, vid,
                            digest=None):
        # digest: the origin's, when the message carries it (Message._digest)
        self.events.append((EV_CAST_DELIVER, time, msg_id, origin,
                            digest or content_digest(payload), vid))

    def record_send(self, time, dest, vid):
        self.events.append((EV_SEND, time, dest, vid))

    def record_send_deliver(self, time, origin, payload, vid):
        self.events.append((EV_SEND_DELIVER, time, origin,
                            content_digest(payload), vid))

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def views(self):
        """All view events, in history order: [(time, vid, mbrs)]."""
        return [(ev[1], ev[2], ev[3]) for ev in self.events if ev[0] == EV_VIEW]

    def view_ids(self):
        return [vid for _t, vid, _m in self.views()]

    def deliveries_in_view(self, vid):
        """Cast msg_ids delivered while ``vid`` was installed."""
        return {ev[2] for ev in self.events
                if ev[0] == EV_CAST_DELIVER and ev[5] == vid}

    def casts_in_view(self, vid):
        """Casts whose *final* emission happened in ``vid``.

        A cast buffered across a view change is re-stamped and re-sent in
        the next view; the last record is authoritative.
        """
        last = {}
        for ev in self.events:
            if ev[0] == EV_CAST:
                last[ev[2]] = ev[3]
        return {msg_id for msg_id, v in last.items() if v == vid}

    def delivery_digests(self):
        """{msg_id: content digest} over all cast deliveries."""
        return {ev[2]: ev[4] for ev in self.events
                if ev[0] == EV_CAST_DELIVER}

    def delivery_order(self):
        """Cast msg_ids in delivery order."""
        return [ev[2] for ev in self.events if ev[0] == EV_CAST_DELIVER]


class Execution:
    """An execution: one history per process, plus ground-truth fault info.

    ``correct`` is the set of processes that followed their protocol for
    the whole run (the fault-injection plan knows); properties only
    restrict the behaviour of correct processes.
    """

    def __init__(self, histories, correct=None):
        self.histories = dict(histories)
        if correct is None:
            correct = set(self.histories)
        self.correct = set(correct)

    def history(self, node_id):
        return self.histories[node_id]

    def correct_histories(self):
        return {node: h for node, h in self.histories.items()
                if node in self.correct}
