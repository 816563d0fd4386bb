"""Key -> shard routing: a consistent-hash ring with a static epoch table.

Routing must be a pure function of ``(key, epoch)`` -- every client, test,
and benchmark computes the same shard for the same key with no
coordination, which is what makes the directory safe to replicate freely.
The ring hashes each shard onto ``ring_slots`` virtual points (SHA-256,
platform-independent -- ``hash()`` is salted per process and would break
cross-run determinism); a key routes to the owner of the first point at or
after its own hash, wrapping around.

Epochs version the table: resharding installs a new ring under
``epoch + 1`` while the old one stays queryable, so in-flight operations
stamped with the epoch they were routed under can be detected as stale
instead of silently landing on the wrong shard.  Live resharding
(:mod:`repro.shard.reshard`) drives that seam: :func:`ring_diff` computes
the arcs whose owner changes between two rings, the migration streams
exactly those arcs' keys between shards, and ``retire_epoch`` drops the
old table once every arc is acked on its new owner.
"""

from __future__ import annotations

import bisect
import hashlib


def _point(label):
    """A 64-bit ring coordinate from a stable string label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def hash_key(key):
    """``key``'s 64-bit ring coordinate (any repr-stable value)."""
    return _point("key:%r" % (key,))


def arc_contains(lo, hi, point):
    """Is ``point`` inside the half-open ring arc ``[lo, hi)``?

    Closed-at-lo/open-at-hi matches the router's ``bisect_right``: every
    point in ``[lo, hi)`` (``lo``, ``hi`` consecutive ring points) maps
    to the same owner.  Arcs wrap: ``lo >= hi`` denotes the arc through
    zero (and the degenerate ``lo == hi`` full circle, which
    :func:`ring_diff` never emits but the membership test stays total
    for).
    """
    if lo < hi:
        return lo <= point < hi
    return point >= lo or point < hi


def arcs_contain(arcs, point):
    """Is ``point`` inside any of the ``(lo, hi)`` arcs?"""
    for lo, hi in arcs:
        if arc_contains(lo, hi, point):
            return True
    return False


def ring_diff(old, new):
    """The arcs whose owner changes from ``old`` ring to ``new`` ring.

    Returns a tuple of ``(lo, hi, old_owner, new_owner)`` with
    ``old_owner != new_owner``; every arc is half-open ``[lo, hi)`` in the
    64-bit point space and the arcs are disjoint.  A key's owner changes
    between the rings **iff** its :func:`hash_key` falls inside one of the
    returned arcs -- the property the migration (and the hypothesis suite)
    is built on.  Between two consecutive boundary points of the union of
    both rings, each ring's owner is constant (that is what consistent
    hashing means), so checking one representative per segment is exact.
    Adjacent segments with the same owner pair are merged, so a typical
    reshard yields a few hundred arcs, not one per virtual point.
    """
    boundaries = sorted(set(old._points) | set(new._points))
    count = len(boundaries)
    arcs = []
    for index, lo in enumerate(boundaries):
        hi = boundaries[(index + 1) % count]   # last segment wraps to 0
        src = old.owner_of_point(lo)
        dst = new.owner_of_point(lo)
        if src == dst:
            continue
        # merge with the previous arc when contiguous and same owner pair
        if arcs and arcs[-1][1] == lo and arcs[-1][2:] == (src, dst):
            arcs[-1] = (arcs[-1][0], hi, src, dst)
        else:
            arcs.append((lo, hi, src, dst))
    # the zero seam: the wrap arc and the first arc may be two halves
    if (len(arcs) >= 2 and arcs[0][0] == arcs[-1][1]
            and arcs[0][2:] == arcs[-1][2:]):
        arcs[0] = (arcs[-1][0], arcs[0][1], arcs[0][2], arcs[0][3])
        arcs.pop()
    return tuple(arcs)


class HashRing:
    """One immutable consistent-hash ring over ``shards`` groups."""

    __slots__ = ("shards", "ring_slots", "_points", "_owners")

    def __init__(self, shards, ring_slots=64):
        if shards < 1:
            raise ValueError("a ring needs at least one shard")
        if ring_slots < 1:
            raise ValueError("a shard needs at least one ring slot")
        self.shards = shards
        self.ring_slots = ring_slots
        pairs = sorted(
            (_point("shard:%d:slot:%d" % (shard, slot)), shard)
            for shard in range(shards)
            for slot in range(ring_slots))
        self._points = [point for point, _shard in pairs]
        self._owners = [shard for _point, shard in pairs]

    def shard_for(self, key):
        """The shard owning ``key`` (any repr-stable value)."""
        return self.owner_of_point(hash_key(key))

    def owner_of_point(self, point):
        """The shard owning ring coordinate ``point``."""
        index = bisect.bisect_right(self._points, point) % len(self._points)
        return self._owners[index]

    def spread(self, keys):
        """``{shard: count}`` of how ``keys`` distribute (test/diagnostic)."""
        counts = {}
        for key in keys:
            shard = self.shard_for(key)
            counts[shard] = counts.get(shard, 0) + 1
        return counts

    def __repr__(self):
        return "HashRing(shards={}, ring_slots={})".format(
            self.shards, self.ring_slots)


class ShardDirectory:
    """The routing table: ``epoch -> HashRing``, one current epoch."""

    def __init__(self, shards, ring_slots=64, epoch=0):
        self.epoch = epoch
        self._rings = {epoch: HashRing(shards, ring_slots)}

    @property
    def shards(self):
        return self._rings[self.epoch].shards

    def ring(self, epoch=None):
        return self._rings[self.epoch if epoch is None else epoch]

    def route(self, key, epoch=None):
        """The shard ``key`` lives on under ``epoch`` (default: current).

        Raises ``KeyError`` for an unknown epoch -- a router holding a
        stale table must fail loudly, not guess.
        """
        return self.ring(epoch).shard_for(key)

    def install_epoch(self, epoch, shards, ring_slots=64):
        """Register a new table version and make it current.

        Old epochs remain queryable so stale-routed operations can be
        recognized (and re-routed) rather than misdelivered.
        """
        if epoch <= self.epoch:
            raise ValueError("epoch %r is not newer than %r"
                             % (epoch, self.epoch))
        self._rings[epoch] = HashRing(shards, ring_slots)
        self.epoch = epoch

    def retire_epoch(self, epoch):
        """Forget a superseded table once its migration is fully acked.

        Only non-current epochs can retire -- the live table must always
        stay routable.  Retiring an already-forgotten epoch is a no-op so
        a resumed migration can retire idempotently.
        """
        if epoch == self.epoch:
            raise ValueError("cannot retire the current epoch %r" % (epoch,))
        self._rings.pop(epoch, None)

    def epochs(self):
        """The registered epochs, oldest first."""
        return tuple(sorted(self._rings))

    def has_epoch(self, epoch):
        return epoch in self._rings

    def __repr__(self):
        return "ShardDirectory(epoch={}, shards={})".format(
            self.epoch, self.shards)
