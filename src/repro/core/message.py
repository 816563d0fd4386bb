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

Hot-path notes (see docs/PERFORMANCE.md): a message is authenticated
over its *signed block*, the wire codec's encoding of its signed fields
(``repro.runtime.wire``), and MAC schemes MAC the block's SHA-256
digest.  Both are computed once, on a scheme's first read, and memoized;
the transport sends the same block, and a decoded message carries the
block it arrived with.  Every write that can change the signed fields
(``push_header``/``pop_header`` of any header but ``inc``, and
``payload`` assignment, hence the property) drops both memos, so
a mutation after signing is still caught on verification (``kind``,
``origin``, ``view_id`` and ``msg_id`` are fixed at construction).
``clone_for`` is copy-on-write: the clone shares the header map and the
memos until either side mutates.
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
    """One protocol message travelling through a node's stack.

    Four memo slots ride the message: ``_signed`` (the signed block, the
    only one that travels: a receiver keeps the bytes it decoded),
    ``_auth_cache`` (its digest, which a MAC scheme signs), ``_digest``
    (the checker's content digest of a cast, set by its origin's top
    layer) and ``_archived`` (the retransmission archive's record, built
    by its origin's reliable layer after signing).  ``clone_for`` copies
    all four, so the receivers of a broadcast share them; assigning
    ``payload`` drops all four.
    """

    __slots__ = ("kind", "origin", "sender", "view_id", "_payload",
                 "payload_size", "headers", "signature", "dest", "msg_id",
                 "group", "_signed", "_auth_cache", "_hdrs_shared",
                 "_digest", "_archived")

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
        self._signed = self._auth_cache = None
        self._hdrs_shared = False
        self._digest = None
        self._archived = None

    # ------------------------------------------------------------------
    # the payload is a property so that Byzantine in-flight mutation
    # (behaviors assign ``msg.payload = ...``) invalidates the memoized
    # signed block -- a stale one would let a tampered message slip past
    # the bottom layer's signature check
    @property
    def payload(self):
        return self._payload

    @payload.setter
    def payload(self, value):
        self._payload = value
        self._signed = self._auth_cache = self._digest = self._archived = None

    # ------------------------------------------------------------------
    def push_header(self, layer_name, header):
        headers = self.headers
        if self._hdrs_shared:
            headers = dict(headers)
            self.headers = headers
            self._hdrs_shared = False
        headers[layer_name] = header
        if layer_name != "inc":
            self._signed = self._auth_cache = None

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
        if layer_name != "inc":
            self._signed = self._auth_cache = None
        return headers.pop(layer_name)

    # ------------------------------------------------------------------
    def signed_fields(self):
        """What the signature covers, in signed-block order: everything a
        Byzantine retransmitter could try to alter -- kind, origin, view
        id, the headers but ``inc`` (by name), the payload, the cast id
        and the group."""
        headers = self.headers
        return (self.kind, self.origin, self.view_id,
                {name: headers[name] for name in sorted(headers)
                 if name != "inc"},
                self._payload, self.msg_id, self.group)

    def wire_tail(self):
        """The unsigned fields that follow the signed block on the wire."""
        return (self.sender, self.payload_size, self.signature, self.dest,
                self.headers.get("inc"))

    def signed_block(self):
        """The wire codec's encoding of :meth:`signed_fields`, computed
        once and memoized; raises ``WireError`` when a field cannot be
        encoded."""
        block = self._signed
        if block is None:
            # runtime.wire imports this module
            from repro.runtime.wire import encode_signed
            block = self._signed = encode_signed(self)
        return block

    def auth_token(self):
        """What a MAC scheme signs/verifies: the 32-byte SHA-256 digest of
        the signed block, computed once per message and memoized.

        Callers hand the authenticator the message, and only a scheme that
        MACs reads this (``repro.crypto.auth.stable_bytes``): under
        NoCrypto no message is ever encoded or hashed.  Receivers share the
        sender's memo through the object reference -- in-model that is
        sound because every mutation path (headers, payload) drops it, so
        the digest always matches the actual content.
        """
        cached = self._auth_cache
        if cached is None:
            cached = self._auth_cache = _sha256(self.signed_block()).digest()
        return cached

    def wire_size(self, header_overhead, signature_bytes):
        base = 8  # kind + origin + view-id framing
        return base + self.payload_size + header_overhead + signature_bytes

    # ------------------------------------------------------------------
    @classmethod
    def from_wire(cls, block, fields):
        """Rebuild a message from its decoded signed block (``block``,
        the bytes as received) and its :meth:`signed_fields` followed by
        its :meth:`wire_tail` (``fields``).

        Validates only structure: the types the codec cannot express
        wrongly, and the one header order :meth:`signed_fields` produces
        (ascending names, no ``inc``), so the block rebuilt from these
        values is ``block`` again.  *Content* authenticity is the bottom
        layer's signature check over ``block``, exactly as for simulated
        messages.
        """
        (kind, origin, view_id, headers, payload, msg_id, group,
         sender, payload_size, signature, dest, inc) = fields
        if not isinstance(kind, str):
            raise ValueError("message kind is not a string: %r" % (kind,))
        if not isinstance(headers, dict):
            raise ValueError("message headers are not a dict: %r" % (headers,))
        names = list(headers)
        if "inc" in headers or names != sorted(names):
            raise ValueError("signed headers out of order: %r" % (names,))
        if view_id is not None and not isinstance(view_id, ViewId):
            raise ValueError("message view id is not a ViewId: %r"
                             % (view_id,))
        if type(payload_size) is not int or payload_size < 0:
            raise ValueError("bad payload size: %r" % (payload_size,))
        if inc is not None:
            headers["inc"] = inc
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
        msg._signed = block
        msg._auth_cache = msg._digest = msg._archived = None
        msg._hdrs_shared = False
        return msg

    def clone_for(self, dest):
        """Shallow copy addressed to one destination (used by two-faced
        Byzantine behaviour, per-destination retransmission, and the
        bottom layer's broadcast fan-out).

        Copy-on-write: the clone shares the header map and the four
        memo slots; the first ``push_header``/``pop_header`` on either
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
        copy._signed = self._signed
        copy._auth_cache = self._auth_cache
        copy._digest = self._digest
        copy._archived = self._archived
        copy._hdrs_shared = True
        self._hdrs_shared = True
        return copy

    def __repr__(self):
        return "Message({}, origin={}, vid={}, hdrs={})".format(
            self.kind, self.origin, self.view_id, sorted(self.headers))
