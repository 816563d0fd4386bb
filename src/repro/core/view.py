"""Views and view identifiers (paper section 2.3).

A view is the system's current estimate of the group membership: a view
identifier plus an *ordered* membership list.  View identifiers must be
totally ordered and monotonically increasing along any correct process's
history (Definition 2.1, item 2), and two correct processes that install
the same identifier must agree on the membership (item 3).

We realize identifiers as ``(counter, creator)`` pairs ordered
lexicographically -- the Ensemble/Horus construction: partitioned
sub-groups bump the counter independently but differ in creator, so equal
identifiers imply a single creation event and hence equal membership.
"""

from __future__ import annotations


class ViewId:
    """Totally-ordered view identifier: ``(counter, creator)``."""

    __slots__ = ("counter", "creator", "_wire")

    def __init__(self, counter, creator):
        self.counter = counter
        self.creator = creator
        self._wire = None

    def key(self):
        return (self.counter, repr(self.creator))

    def __eq__(self, other):
        # per-message hot path (the bottom layer compares every arriving
        # message's view id): identity first -- in the simulator messages
        # carry the installed view's own ViewId object -- then fields
        # directly, skipping the key() tuples + repr
        if other is self:
            return True
        return (isinstance(other, ViewId)
                and self.counter == other.counter
                and self.creator == other.creator)

    def __lt__(self, other):
        return self.key() < other.key()

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "vid({};{})".format(self.counter, self.creator)

    def to_wire(self):
        # computed once: every message signed or archived in the view
        # reads it, and the archive holds one per message
        wire = self._wire
        if wire is None:
            wire = self._wire = ("vid", self.counter, self.creator)
        return wire

    @classmethod
    def from_wire(cls, wire):
        if (not isinstance(wire, tuple) or len(wire) != 3
                or wire[0] != "vid" or not isinstance(wire[1], int)):
            raise ValueError("malformed view id: %r" % (wire,))
        return cls(wire[1], wire[2])


class View:
    """An installed view: identifier, ordered members, designated coordinator.

    The coordinator is locally computable from the view contents alone
    (paper section 3.4.3), so every member can verify who should be acting
    as coordinator without trusting anyone.
    """

    __slots__ = ("vid", "mbrs", "coordinator", "f", "underprovisioned")

    def __init__(self, vid, mbrs, coordinator=None, f=0, underprovisioned=False):
        if len(set(mbrs)) != len(mbrs):
            raise ValueError("duplicate members in view: %r" % (mbrs,))
        self.vid = vid
        self.mbrs = tuple(mbrs)
        if coordinator is None:
            coordinator = choose_coordinator(vid.counter, self.mbrs)
        if coordinator not in self.mbrs:
            raise ValueError("coordinator %r not a member" % (coordinator,))
        self.coordinator = coordinator
        self.f = f
        self.underprovisioned = underprovisioned

    @property
    def n(self):
        return len(self.mbrs)

    def rank(self, member):
        return self.mbrs.index(member)

    def __contains__(self, member):
        return member in self.mbrs

    def __eq__(self, other):
        return (isinstance(other, View) and self.vid == other.vid
                and self.mbrs == other.mbrs)

    def __hash__(self):
        return hash((self.vid, self.mbrs))

    def __repr__(self):
        return "View({}, n={}, coord={})".format(self.vid, self.n, self.coordinator)

    def to_wire(self):
        return ("view", self.vid.to_wire(), self.mbrs, self.coordinator,
                self.f, self.underprovisioned)

    @classmethod
    def from_wire(cls, wire):
        if not isinstance(wire, tuple) or len(wire) != 6 or wire[0] != "view":
            raise ValueError("malformed view: %r" % (wire,))
        _tag, vid_wire, mbrs, coordinator, f, under = wire
        return cls(ViewId.from_wire(vid_wire), tuple(mbrs), coordinator,
                   int(f), bool(under))


def choose_coordinator(old_counter, members):
    """The i-th member, i = old view counter mod membership size.

    Rotating the coordinator on every view change bounds the damage of a
    Byzantine coordinator to one view-change attempt (paper section 3.4.3).
    ``members`` must already exclude the nodes agreed to be faulty.
    """
    if not members:
        raise ValueError("cannot choose a coordinator of an empty view")
    return tuple(members)[old_counter % len(members)]


def singleton_view(me):
    """The bootstrap view a joining node establishes for itself."""
    return View(ViewId(0, me), (me,), coordinator=me, f=0,
                underprovisioned=True)
