"""Application-facing events (paper section 2.1).

The group communication module is an automaton accepting input events
(``cast``, ``send``, ``join``, ``leave``, ``net-receive``) and producing
output events toward the application: ``cast-deliver``, ``send-deliver``
and ``view``.  These classes are the output side; they are what a
:class:`repro.core.endpoint.GroupEndpoint` hands to application callbacks
and what :mod:`repro.core.history` records for the property checker.
"""

from __future__ import annotations


class AppEvent:
    """Base class for events delivered to the application module."""

    __slots__ = ("time",)

    def __init__(self, time):
        self.time = time


class ViewEvent(AppEvent):
    """A new view was installed (``view`` output event)."""

    __slots__ = ("view",)

    def __init__(self, time, view):
        super().__init__(time)
        self.view = view

    def __repr__(self):
        return "ViewEvent(t={:.4f}, {})".format(self.time, self.view)


class CastDeliver(AppEvent):
    """A broadcast message was delivered (``cast-deliver``)."""

    __slots__ = ("origin", "payload", "view_id", "msg_id")

    def __init__(self, time, origin, payload, view_id, msg_id=None):
        super().__init__(time)
        self.origin = origin
        self.payload = payload
        self.view_id = view_id
        self.msg_id = msg_id

    def __repr__(self):
        return "CastDeliver(t={:.4f}, from={}, vid={})".format(
            self.time, self.origin, self.view_id)


class SendDeliver(AppEvent):
    """A point-to-point message was delivered (``send-deliver``)."""

    __slots__ = ("origin", "payload", "view_id", "msg_id")

    def __init__(self, time, origin, payload, view_id, msg_id=None):
        super().__init__(time)
        self.origin = origin
        self.payload = payload
        self.view_id = view_id
        self.msg_id = msg_id

    def __repr__(self):
        return "SendDeliver(t={:.4f}, from={}, vid={})".format(
            self.time, self.origin, self.view_id)
