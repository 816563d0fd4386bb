"""Messages and per-layer headers (paper Figure 2).

Every message carries a *kind* (application cast/send, or a protocol
layer's own traffic), the identity of its original sender (``origin``),
the view it was sent in, and a header map.  Each layer pushes its header on
the way down and reads it on the way up; a layer never inspects another
layer's header -- lower-layer headers are opaque "data" to it, exactly the
structure the fuzzy detectors exploit (a layer knows which of *its own*
headers it is owed).

Wire-size accounting: the application declares its payload size in bytes;
each layer declares a fixed header overhead; the bottom layer adds the
signature size.  The simulator charges NIC bandwidth for the total.

Hot-path notes (see docs/PERFORMANCE.md): the canonical byte encoding a
message is authenticated over -- and its SHA-256 digest, which is what the
MAC schemes actually MAC -- is computed once, on a scheme's first read,
and memoized (NoCrypto never reads it).  Every write
that can change the authenticated content (``push_header``/``pop_header``
and ``payload`` assignment, which is why ``payload`` is a property) drops
the cache, so a Byzantine mutation after signing is still caught on
verification (``kind``, ``origin``, ``view_id`` and ``msg_id`` are fixed at
construction).  Per-destination fan-out (``clone_for``) is copy-on-write:
the clone shares the header map and the digest cache until either side
mutates, so an n-1-receiver broadcast no longer copies n-1 header dicts.
"""

from __future__ import annotations

import hashlib

from repro.core.view import ViewId

# application-data kinds
KIND_CAST = "cast"
KIND_SEND = "send"

# protocol kinds (layer-originated traffic)
KIND_ACK = "ack"
KIND_NAK = "nak"
KIND_RETRANS = "retrans"
KIND_HEARTBEAT = "heartbeat"
KIND_SLANDER = "slander"
KIND_CONSENSUS = "consensus"
KIND_UB = "ub"
KIND_SYNC = "sync"
KIND_NEWVIEW = "newview"
KIND_LEAVE = "leave"
KIND_ORDER = "order"
KIND_UDELIV = "udeliv"
KIND_MERGE = "merge"
KIND_MANNOUNCE = "mannounce"
KIND_FRAG = "frag"

_sha256 = hashlib.sha256
_ANY_ORIGIN = object()

#: a cast id's counter is ``(incarnation << CAST_COUNTER_BITS) + k``
CAST_COUNTER_BITS = 32
MAX_INCARNATION = (1 << 31) - 1


def is_cast_id(msg_id, origin=_ANY_ORIGIN):
    """Is ``msg_id`` a cast id -- one that ``origin`` minted, if given?

    The one definition (DESIGN section 6): the pair ``(origin, counter)``
    with ``type(counter) is int`` and ``counter > 0``, minted by the top
    layer as ``(me, (incarnation << 32) + k)``, signed with its message,
    admitted by the reliable layer on its origin's streams only.  Bound,
    enforced where ids are minted (the wire's 64-bit integer): ``k <
    2**CAST_COUNTER_BITS`` casts per incarnation, or the top layer raises,
    and ``incarnation <= MAX_INCARNATION``, or ``Group.restart`` refuses.
    """
    return (isinstance(msg_id, tuple) and len(msg_id) == 2
            and type(msg_id[1]) is int and msg_id[1] > 0
            and (origin is _ANY_ORIGIN or msg_id[0] == origin))


def batch_sort_key(msg_id):
    """Total order on cast ids that keeps per-origin FIFO: by origin,
    then numeric counter (its repr would put 10 before 2)."""
    return (repr(msg_id[0]), msg_id[1])


class Message:
    """One protocol message travelling through a node's stack."""

    __slots__ = ("kind", "origin", "sender", "view_id", "_payload",
                 "payload_size", "headers", "signature", "dest", "msg_id",
                 "group", "_auth_cache", "_hdrs_shared")

    def __init__(self, kind, origin, view_id, payload, payload_size=0,
                 dest=None, msg_id=None, group=None):
        self.kind = kind
        self.origin = origin      # the node that created the message
        self.sender = origin      # the node that last transmitted it
        self.view_id = view_id
        self._payload = payload
        self.payload_size = payload_size
        self.headers = {}
        self.signature = None
        self.dest = dest          # None for broadcast
        self.msg_id = msg_id
        # multi-group envelope (repro.shard): the shard/group this message
        # belongs to, or None for a single-group stack.  Stamped by the
        # bottom layer before signing, so one transport can multiplex many
        # groups and a replayed cross-shard message fails authentication.
        self.group = group
        self._auth_cache = None
        self._hdrs_shared = False

    # ------------------------------------------------------------------
    # the payload is a property so that Byzantine in-flight mutation
    # (behaviors assign ``msg.payload = ...``) invalidates the memoized
    # authentication digest -- a stale cache would let a tampered message
    # slip past the bottom layer's signature check
    @property
    def payload(self):
        return self._payload

    @payload.setter
    def payload(self, value):
        self._payload = value
        self._auth_cache = None

    # ------------------------------------------------------------------
    def push_header(self, layer_name, header):
        headers = self.headers
        if self._hdrs_shared:
            headers = dict(headers)
            self.headers = headers
            self._hdrs_shared = False
        headers[layer_name] = header
        self._auth_cache = None

    def header(self, layer_name, default=None):
        return self.headers.get(layer_name, default)

    def pop_header(self, layer_name, default=None):
        headers = self.headers
        if layer_name not in headers:
            return default
        if self._hdrs_shared:
            headers = dict(headers)
            self.headers = headers
            self._hdrs_shared = False
        self._auth_cache = None
        return headers.pop(layer_name)

    # ------------------------------------------------------------------
    def auth_content(self):
        """The byte-stable content covered by the bottom layer's signature.

        Covers everything a Byzantine retransmitter could try to alter:
        kind, origin, view id, headers, the payload itself, and the cast
        id when there is one.
        """
        vid = self.view_id.to_wire() if self.view_id is not None else None
        content = (self.kind, repr(self.origin), vid,
                   tuple(sorted((k, repr(v)) for k, v in self.headers.items())),
                   repr(self._payload))
        if self.msg_id is not None:
            content += (("mid", repr(self.msg_id)),)
        if self.group is None:
            # single-group stacks keep the historical byte encoding, so
            # every seed-pinned history is unchanged by the shard plane
            return content
        return content + (("grp", repr(self.group)),)

    def canonical_bytes(self):
        """Canonical byte encoding of :meth:`auth_content` (uncached)."""
        return repr(self.auth_content()).encode("utf-8")

    def auth_token(self):
        """What a MAC scheme signs/verifies: a 32-byte SHA-256 digest of
        the canonical encoding, computed once per message and memoized.

        Callers hand the authenticator the message, and only a scheme that
        MACs reads this (``repro.crypto.auth.stable_bytes``): under
        NoCrypto no message is ever encoded or hashed.  Receivers share the
        sender's cache through the object reference -- in-model that is
        sound because every mutation path (headers, payload) drops the
        cache, so the digest always matches the actual content.
        """
        cached = self._auth_cache
        if cached is None:
            cached = _sha256(self.canonical_bytes()).digest()
            self._auth_cache = cached
        return cached

    def wire_size(self, header_overhead, signature_bytes):
        base = 8  # kind + origin + view-id framing
        return base + self.payload_size + header_overhead + signature_bytes

    # ------------------------------------------------------------------
    # wire codec seam (repro.runtime.wire): the message owns its field
    # list so the codec never reaches into the struct layout.  The order
    # below is the wire order and is covered by WIRE_FIELD_COUNT --
    # adding a slot that must travel means appending it here, bumping
    # repro.runtime.wire.WIRE_VERSION, and nothing else.
    WIRE_FIELD_COUNT = 11

    def wire_fields(self):
        """The transmitted state, in wire order (see runtime/wire.py)."""
        return (self.kind, self.origin, self.sender, self.view_id,
                self._payload, self.payload_size, self.headers,
                self.signature, self.group, self.dest, self.msg_id)

    # encode-once fan-out seam (runtime/wire.py): the leading wire fields
    # are identical across a clone_for fan-out, so the wire encoder can
    # serialize them once per broadcast and append only the trailing
    # per-destination fields for each sibling.  The split must follow the
    # wire_fields() order: shared fields first, tail fields last.
    WIRE_SHARED_FIELD_COUNT = 9

    def wire_shared_fields(self):
        """The leading wire fields shared by all clone_for siblings."""
        return (self.kind, self.origin, self.sender, self.view_id,
                self._payload, self.payload_size, self.headers,
                self.signature, self.group)

    def wire_tail_fields(self):
        """The trailing wire fields that vary per fan-out destination."""
        return (self.dest, self.msg_id)

    def wire_shares_body(self, other):
        """True when ``other`` serializes to the same shared wire prefix.

        Holds exactly for undiverged ``clone_for`` siblings: the mutable
        parts (view id, payload, header map, signature) are compared by
        identity -- any mutation path (COW ``push_header``/``pop_header``,
        the ``payload`` property, a Byzantine behavior swapping the
        signature) replaces the object and breaks the match, so a false
        hit would require in-place mutation of a shared structure, which
        also breaks the memoized auth digest and is excluded by the same
        contract.  Scalar fields are compared by value.  A miss is always
        safe (the encoder just serializes from scratch).
        """
        return (other is not None
                and self.kind == other.kind
                and self.origin == other.origin
                and self.sender == other.sender
                and self.view_id is other.view_id
                and self._payload is other._payload
                and self.payload_size == other.payload_size
                and self.headers is other.headers
                and self.signature is other.signature
                and self.group == other.group)

    @classmethod
    def from_wire_fields(cls, fields):
        """Rebuild a message from :meth:`wire_fields` output.

        Validates only structure (the field count and the types the
        codec cannot express wrongly); *content* authenticity is the
        bottom layer's signature check, exactly as for simulated
        messages.  The memoized auth digest is NOT carried over the
        wire: the receiver recomputes it from the decoded content, so a
        tampered datagram can never smuggle a stale digest past
        verification.
        """
        fields = tuple(fields)
        if len(fields) != cls.WIRE_FIELD_COUNT:
            raise ValueError("message struct has %d fields, expected %d"
                             % (len(fields), cls.WIRE_FIELD_COUNT))
        (kind, origin, sender, view_id, payload, payload_size, headers,
         signature, group, dest, msg_id) = fields
        if not isinstance(kind, str):
            raise ValueError("message kind is not a string: %r" % (kind,))
        if not isinstance(headers, dict):
            raise ValueError("message headers are not a dict: %r" % (headers,))
        if view_id is not None and not isinstance(view_id, ViewId):
            # auth_token() calls view_id.to_wire(); a garbage-typed view
            # id would crash the receiving stack instead of being dropped
            raise ValueError("message view id is not a ViewId: %r"
                             % (view_id,))
        if not isinstance(payload_size, int) or isinstance(payload_size, bool) \
                or payload_size < 0:
            raise ValueError("bad payload size: %r" % (payload_size,))
        msg = cls.__new__(cls)
        msg.kind = kind
        msg.origin = origin
        msg.sender = sender
        msg.view_id = view_id
        msg._payload = payload
        msg.payload_size = payload_size
        msg.headers = headers
        msg.signature = signature
        msg.group = group
        msg.dest = dest
        msg.msg_id = msg_id
        msg._auth_cache = None
        msg._hdrs_shared = False
        return msg

    def clone_for(self, dest):
        """Shallow copy addressed to one destination (used by two-faced
        Byzantine behaviour, per-destination retransmission, and the
        bottom layer's broadcast fan-out).

        Copy-on-write: the clone shares the header map and the memoized
        auth digest; the first ``push_header``/``pop_header`` on either
        side copies the map, so unmutated fan-out copies cost no dict
        allocation.
        """
        copy = Message.__new__(Message)
        copy.kind = self.kind
        copy.origin = self.origin
        copy.sender = self.sender
        copy.view_id = self.view_id
        copy._payload = self._payload
        copy.payload_size = self.payload_size
        copy.headers = self.headers
        copy.signature = self.signature
        copy.group = self.group
        copy.dest = dest
        copy.msg_id = self.msg_id
        copy._auth_cache = self._auth_cache
        copy._hdrs_shared = True
        self._hdrs_shared = True
        return copy

    def __repr__(self):
        return "Message({}, origin={}, vid={}, hdrs={})".format(
            self.kind, self.origin, self.view_id, sorted(self.headers))
