"""Process histories and executions (paper section 2.1).

A process history h_i is the sequence of (input and output) events at
process p_i; a collection of histories, one per process, is an execution
sigma.  The property checker in :mod:`repro.core.properties` consumes
these records to verify Byzantine view synchrony and Byzantine virtual
synchrony (Definitions 2.1 and 2.2) over whole simulated runs.

Events are recorded with the *global* simulated time, which the formal
model grants to external observers.

Layout: cast deliveries are nearly every event, so they are kept as
parallel columns, one entry per delivery: the times in an ``array('d')``
and the msg_id, origin, digest and vid as references to objects the
stack already shares.  The rare events (view, cast, send, send_deliver)
stay tuples, each stamped with the number of deliveries recorded before
it, which fixes the merged order exactly.  ``events`` rebuilds the one
tuple sequence, ``(kind, time, ...)`` per event, on demand; the checker
reads the columns through :meth:`History.deliveries` and never builds it.
"""

from __future__ import annotations

import hashlib
from array import array

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
        # cast deliveries, one column entry each
        self._times = array("d")
        self._msg_ids = []
        self._origins = []
        self._digests = []
        self._vids = []
        # every other event, and the delivery count before each
        self._rare = []
        self._stamps = array("q")
        # msg_id -> content digest of each cast this process submitted, for
        # the origin-authenticity check; a side table, not an event, so the
        # event sequence (and every digest pinned over it) is unchanged
        self.cast_digests = {}

    # ------------------------------------------------------------------
    def _record(self, event):
        self._stamps.append(len(self._times))
        self._rare.append(event)

    def append(self, event):
        """Record one event given as an :attr:`events` tuple."""
        if event[0] == EV_CAST_DELIVER:
            _kind, time, msg_id, origin, digest, vid = event
            self.record_cast_deliver(time, msg_id, origin, None, vid, digest)
        else:
            self._record(event)

    def record_view(self, time, view):
        self._record((EV_VIEW, time, view.vid, view.mbrs))

    def record_cast_content(self, msg_id, payload):
        self.cast_digests[msg_id] = content_digest(payload)

    def record_cast(self, time, msg_id, vid):
        self._record((EV_CAST, time, msg_id, vid))

    def record_cast_deliver(self, time, msg_id, origin, payload, vid,
                            digest=None):
        # digest: the origin's, when the message carries it (Message._digest)
        self._times.append(time)
        self._msg_ids.append(msg_id)
        self._origins.append(origin)
        self._digests.append(digest or content_digest(payload))
        self._vids.append(vid)

    def record_send(self, time, dest, vid):
        self._record((EV_SEND, time, dest, vid))

    def record_send_deliver(self, time, origin, payload, vid):
        self._record((EV_SEND_DELIVER, time, origin,
                      content_digest(payload), vid))

    # ------------------------------------------------------------------
    @property
    def events(self):
        """Every event in history order, as tuples: a fresh list, so
        appending to it records nothing."""
        delivered = [(EV_CAST_DELIVER,) + row for row in self.deliveries()]
        events, done = [], 0
        for stamp, event in zip(self._stamps, self._rare):
            events += delivered[done:stamp]
            events.append(event)
            done = stamp
        events += delivered[done:]
        return events

    def deliveries(self):
        """Cast deliveries in order: ``(time, msg_id, origin, digest, vid)``."""
        return zip(self._times, self._msg_ids, self._origins, self._digests,
                   self._vids)

    def casts(self):
        """Cast events in order: ``(time, msg_id, vid)``."""
        return [ev[1:] for ev in self._rare if ev[0] == EV_CAST]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def views(self):
        """All view events, in history order: [(time, vid, mbrs)]."""
        return [ev[1:] for ev in self._rare if ev[0] == EV_VIEW]

    def view_ids(self):
        return [vid for _t, vid, _m in self.views()]

    def deliveries_in_view(self, vid):
        """Cast msg_ids delivered while ``vid`` was installed."""
        return {msg_id for msg_id, v in zip(self._msg_ids, self._vids)
                if v == vid}

    def casts_in_view(self, vid):
        """Casts whose *final* emission happened in ``vid``.

        A cast buffered across a view change is re-stamped and re-sent in
        the next view; the last record is authoritative.
        """
        last = {msg_id: v for _t, msg_id, v in self.casts()}
        return {msg_id for msg_id, v in last.items() if v == vid}

    def delivery_digests(self):
        """{msg_id: content digest} over all cast deliveries."""
        return dict(zip(self._msg_ids, self._digests))

    def delivery_order(self):
        """Cast msg_ids in delivery order."""
        return list(self._msg_ids)


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
