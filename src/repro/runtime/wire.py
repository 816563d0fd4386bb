"""Versioned, length-prefixed wire codec for the real-network runtime.

The simulator hands :class:`~repro.core.message.Message` objects between
nodes by reference; a real transport has to serialize them.  This module
defines the datagram format the asyncio UDP backend speaks:

``frame := MAGIC(2) VERSION(1) FRAMETYPE(1) src:value BODYLEN(4) body:value``

where ``value`` is a tagged, recursively-defined encoding of the small
Python value universe the protocol stack actually puts on the wire: None,
bools, ints, floats, strings, bytes, tuples, lists, dicts, (frozen)sets,
:class:`~repro.core.view.ViewId`, and whole ``Message`` structs (whose
field list is owned by :meth:`Message.wire_fields`, so the codec never
reaches into message internals).  The body of a datagram frame is either
one ``Message`` or the bottom layer's ``("pack", (msg, ...))`` container;
the body of a gossip frame is the plain gossip payload tuple.

The transport's datagram coalescer emits the **batch container** -- many
protocol frames from one source in one UDP datagram::

    batch := MAGIC(2) VERSION(1) FRAME_BATCH(1) src:value COUNT(4)
             { SUBTYPE(1) BODYLEN(4) body:value } * COUNT

Sub-frame bodies are individually length-prefixed, so decoding stays
total *per sub-frame*: a bit flip inside one body is attributed to the
frame's source (:func:`decode_datagram` collects it as a
:class:`WireError`) while every sibling sub-frame is still delivered --
the length prefix is the resynchronization point.  Only damage to the
batch header or to a sub-frame's own framing (type byte, length) loses
the rest of the datagram, exactly the blast radius of a single frame.

There is one wire version.  A frame or batch whose version byte is not
:data:`WIRE_VERSION` is refused with a :class:`WireError` like any other
undecodable datagram: a sender cannot pick an older struct layout (one
without the signed-and-filtered ``group`` field) by claiming an older
version.

Decoding is *total*: any input -- truncated, bit-flipped, or random
garbage -- either yields a value or raises :class:`WireError`; it never
raises anything else, never loops, and never allocates more than a small
multiple of the datagram size (collection counts are bounded by the bytes
remaining, so a flipped length byte cannot demand gigabytes).  Transports
route decode failures into the bottom layer's corruption-suspicion path
(:meth:`~repro.layers.bottom.BottomLayer.note_undecodable`) when the
claimed source survived decoding; :class:`WireError` carries it as
``err.src``.

Content authentication is *not* the codec's job: a bit flip that still
decodes (e.g. inside a string) reconstructs a message whose HMAC no
longer matches its content, and the bottom layer's signature check drops
it -- the same defense the simulator's Byzantine mutators exercise.

Zero-copy decoding (docs/PERFORMANCE.md, "The CPU path"): the decoders
normalize their input to one :class:`memoryview` and walk it by offset.
Slices taken during the walk (string bodies, big-int magnitudes, batch
sub-frames) are views, not copies; bytes are materialized only where a
value *escapes* into a long-lived Python object (``_T_BYTES`` payloads,
and the str/int constructors which copy inherently).  Batch sub-frames
decode in place against their computed ``end`` offset instead of being
carved into per-sub-frame ``bytes`` bodies first.  Any buffer type --
``bytes``, ``bytearray``, ``memoryview`` -- decodes to identical values
and identical frame-vs-error verdicts; tests/test_wire_codec.py pins the
verdicts of every bit flip and truncation of a batch
(``WIRE_VERDICTS_SHA256``).
"""

from __future__ import annotations

import struct

MAGIC = b"JB"
WIRE_VERSION = 3

#: frame types
FRAME_DATAGRAM = 1   # unicast protocol datagram (Message or pack container)
FRAME_GOSSIP = 2     # gossip-bus announcement (plain payload)
FRAME_BATCH = 3      # coalescer container: many sub-frames, one source

#: types a frame may carry on its own (a batch is never nested)
_FRAME_TYPES = (FRAME_DATAGRAM, FRAME_GOSSIP)

#: per-sub-frame framing overhead inside a batch: type byte + length
SUBFRAME_OVERHEAD = 5

#: value tags (one byte each)
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT64 = 0x03
_T_BIGINT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_TUPLE = 0x08
_T_LIST = 0x09
_T_DICT = 0x0A
_T_SET = 0x0B
_T_FROZENSET = 0x0C
_T_VIEWID = 0x0D
_T_MESSAGE = 0x0E

_MAX_DEPTH = 32
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_pack_u32 = struct.Struct("!I").pack
_pack_i64 = struct.Struct("!q").pack
_pack_f64 = struct.Struct("!d").pack
_unpack_u32 = struct.Struct("!I").unpack_from
_unpack_i64 = struct.Struct("!q").unpack_from
_unpack_f64 = struct.Struct("!d").unpack_from


class WireError(ValueError):
    """A datagram failed to encode or decode.

    ``src`` is the frame's claimed source node when it was recovered
    before the failure (so receivers can feed corruption suspicion), or
    None when even the source field was unreadable.
    """

    def __init__(self, reason, src=None):
        super().__init__(reason)
        self.src = src


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_value(obj):
    """Encode one value; raises :class:`WireError` on unsupported types."""
    out = bytearray()
    _encode(obj, out, 0)
    return bytes(out)


def encode_value_into(obj, out, depth=0):
    """Encode one value into a caller-owned (reusable) bytearray.

    The hot-path variant of :func:`encode_value`: the transport keeps one
    scratch buffer per socket and clears it between frames, so steady-state
    encoding allocates no fresh ``bytearray`` per frame.
    """
    _encode(obj, out, depth)


def encode_message_prefix(msg):
    """The destination-independent leading bytes of one encoded Message.

    ``clone_for`` fan-out siblings share every wire field except the
    trailing ``(dest, msg_id)`` pair (:meth:`Message.wire_shared_fields`),
    so a broadcast to n-1 receivers can serialize this prefix once and
    append only the per-destination tail.  The output is the exact byte
    prefix :func:`encode_value` would produce for the whole message.
    """
    out = bytearray()
    out.append(_T_MESSAGE)
    for field in msg.wire_shared_fields():
        _encode(field, out, 1)
    return bytes(out)


def encode_message_tail_into(msg, out):
    """Append the per-destination tail fields after a shared prefix."""
    for field in msg.wire_tail_fields():
        _encode(field, out, 1)


def frame_prefix(frame_type, src):
    """``MAGIC VERSION FRAMETYPE src`` -- everything before the length.

    Constant per (frame type, source), so a transport precomputes one per
    frame type and assembles each outgoing datagram as
    ``prefix + u32(len(body)) + body`` (or ``prefix + u32(count) + subframes``
    for :data:`FRAME_BATCH`) without re-encoding its own node id.
    """
    out = bytearray(MAGIC)
    out.append(WIRE_VERSION)
    out.append(frame_type)
    _encode(src, out, 0)
    return bytes(out)


def encode_subframe_into(frame_type, body, out):
    """Append one batch sub-frame (``SUBTYPE BODYLEN body``) to ``out``."""
    if frame_type not in _FRAME_TYPES:
        raise WireError("unknown sub-frame type %r" % (frame_type,))
    out.append(frame_type)
    out += _pack_u32(len(body))
    out += body


def encode_batch(src, subframes):
    """One batch datagram from ``[(frame_type, payload), ...]``.

    The transport assembles batches incrementally from already-encoded
    bodies; this convenience encoder (tests, tooling) takes raw payloads.
    """
    out = bytearray(frame_prefix(FRAME_BATCH, src))
    out += _pack_u32(len(subframes))
    for frame_type, payload in subframes:
        encode_subframe_into(frame_type, encode_value(payload), out)
    return bytes(out)


def _encode(obj, out, depth):
    if depth > _MAX_DEPTH:
        raise WireError("value nesting exceeds depth %d" % _MAX_DEPTH)
    if obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif type(obj) is int:
        if _INT64_MIN <= obj <= _INT64_MAX:
            out.append(_T_INT64)
            out += _pack_i64(obj)
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            out.append(_T_BIGINT)
            out += _pack_u32(len(raw))
            out += raw
    elif type(obj) is float:
        out.append(_T_FLOAT)
        out += _pack_f64(obj)
    elif type(obj) is str:
        raw = obj.encode("utf-8")
        out.append(_T_STR)
        out += _pack_u32(len(raw))
        out += raw
    elif type(obj) is bytes:
        out.append(_T_BYTES)
        out += _pack_u32(len(obj))
        out += obj
    elif type(obj) is tuple:
        out.append(_T_TUPLE)
        out += _pack_u32(len(obj))
        for item in obj:
            _encode(item, out, depth + 1)
    elif type(obj) is list:
        out.append(_T_LIST)
        out += _pack_u32(len(obj))
        for item in obj:
            _encode(item, out, depth + 1)
    elif type(obj) is dict:
        out.append(_T_DICT)
        out += _pack_u32(len(obj))
        for key, value in obj.items():
            _encode(key, out, depth + 1)
            _encode(value, out, depth + 1)
    elif type(obj) in (set, frozenset):
        out.append(_T_SET if type(obj) is set else _T_FROZENSET)
        # repr-sorted for a canonical encoding (sets have no order)
        items = sorted(obj, key=repr)
        out += _pack_u32(len(items))
        for item in items:
            _encode(item, out, depth + 1)
    else:
        # late imports keep this module loadable without the core package
        # in codec-only tooling, and avoid an import cycle with message.py
        from repro.core.message import Message
        from repro.core.view import ViewId
        if type(obj) is ViewId:
            out.append(_T_VIEWID)
            _encode(obj.counter, out, depth + 1)
            _encode(obj.creator, out, depth + 1)
        elif type(obj) is Message:
            out.append(_T_MESSAGE)
            for field in obj.wire_fields():
                _encode(field, out, depth + 1)
        else:
            raise WireError("unencodable value of type %s: %r"
                            % (type(obj).__name__, obj))


def encode_frame(frame_type, src, payload):
    """One complete datagram: header + source + length-prefixed body."""
    if frame_type not in _FRAME_TYPES:
        raise WireError("unknown frame type %r" % (frame_type,))
    body = encode_value(payload)
    out = bytearray(MAGIC)
    out.append(WIRE_VERSION)
    out.append(frame_type)
    _encode(src, out, 0)
    out += _pack_u32(len(body))
    out += body
    return bytes(out)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def _as_buffer(data):
    """Normalize decoder input: anything buffer-like becomes one flat
    ``memoryview`` (free for ``bytes``/``bytearray``; an incoming view
    passes through), so no slice below copies the payload."""
    if type(data) is memoryview:
        return data
    return memoryview(data)


def decode_value(data):
    """Decode one value from ``data``; the whole buffer must be consumed."""
    data = _as_buffer(data)
    value, offset = _decode(data, 0, 0)
    if offset != len(data):
        raise WireError("trailing garbage after value (%d of %d bytes)"
                        % (offset, len(data)))
    return value


def _need(data, offset, nbytes):
    if offset + nbytes > len(data):
        raise WireError("truncated: need %d bytes at offset %d, have %d"
                        % (nbytes, offset, len(data) - offset))


def _count(data, offset, minimum_item_bytes=1):
    """Read a u32 collection count, bounded by the bytes remaining."""
    _need(data, offset, 4)
    count = _unpack_u32(data, offset)[0]
    offset += 4
    if count * minimum_item_bytes > len(data) - offset:
        raise WireError("count %d exceeds remaining %d bytes"
                        % (count, len(data) - offset))
    return count, offset


def _decode(data, offset, depth):
    if depth > _MAX_DEPTH:
        raise WireError("value nesting exceeds depth %d" % _MAX_DEPTH)
    _need(data, offset, 1)
    tag = data[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT64:
        _need(data, offset, 8)
        return _unpack_i64(data, offset)[0], offset + 8
    if tag == _T_BIGINT:
        length, offset = _count(data, offset)
        _need(data, offset, length)
        raw = data[offset:offset + length]
        return int.from_bytes(raw, "big", signed=True), offset + length
    if tag == _T_FLOAT:
        _need(data, offset, 8)
        return _unpack_f64(data, offset)[0], offset + 8
    if tag == _T_STR:
        length, offset = _count(data, offset)
        _need(data, offset, length)
        # str() decodes straight out of the (view) slice; the only copy
        # is the str object itself, which escapes anyway
        try:
            return (str(data[offset:offset + length], "utf-8"),
                    offset + length)
        except UnicodeDecodeError as err:
            raise WireError("invalid utf-8 in string: %s" % err)
    if tag == _T_BYTES:
        length, offset = _count(data, offset)
        _need(data, offset, length)
        return bytes(data[offset:offset + length]), offset + length
    if tag in (_T_TUPLE, _T_LIST, _T_SET, _T_FROZENSET):
        count, offset = _count(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode(data, offset, depth + 1)
            items.append(item)
        if tag == _T_TUPLE:
            return tuple(items), offset
        if tag == _T_LIST:
            return items, offset
        try:
            built = set(items) if tag == _T_SET else frozenset(items)
        except TypeError:
            raise WireError("unhashable set element")
        return built, offset
    if tag == _T_DICT:
        count, offset = _count(data, offset, minimum_item_bytes=2)
        table = {}
        for _ in range(count):
            key, offset = _decode(data, offset, depth + 1)
            value, offset = _decode(data, offset, depth + 1)
            try:
                table[key] = value
            except TypeError:
                raise WireError("unhashable dict key")
        return table, offset
    if tag == _T_VIEWID:
        from repro.core.view import ViewId
        counter, offset = _decode(data, offset, depth + 1)
        creator, offset = _decode(data, offset, depth + 1)
        if not isinstance(counter, int) or isinstance(counter, bool):
            raise WireError("view-id counter is not an int: %r" % (counter,))
        return ViewId(counter, creator), offset
    if tag == _T_MESSAGE:
        from repro.core.message import Message
        fields = []
        for _ in range(Message.WIRE_FIELD_COUNT):
            field, offset = _decode(data, offset, depth + 1)
            fields.append(field)
        try:
            return Message.from_wire_fields(fields), offset
        except (ValueError, TypeError) as err:
            raise WireError("malformed message struct: %s" % err)
    raise WireError("unknown value tag 0x%02x at offset %d"
                    % (tag, offset - 1))


def decode_frame(data):
    """``(frame_type, src, payload)`` of one datagram, or :class:`WireError`.

    Never raises anything but :class:`WireError` on arbitrary input; when
    the source field decoded before the failure it travels on
    ``err.src`` so the receiver can attribute the corruption.
    """
    src = None
    data = _as_buffer(data)
    try:
        _need(data, 0, 4)
        # memoryview compares content against bytes directly -- no
        # 2-byte copy per datagram just to check the magic
        if data[:2] != MAGIC:
            raise WireError("bad magic %r" % (bytes(data[:2]),))
        if data[2] != WIRE_VERSION:
            raise WireError("unsupported wire version %d" % data[2])
        frame_type = data[3]
        if frame_type not in _FRAME_TYPES:
            raise WireError("unknown frame type %d" % frame_type)
        src, offset = _decode(data, 4, 0)
        _need(data, offset, 4)
        body_len = _unpack_u32(data, offset)[0]
        offset += 4
        if body_len != len(data) - offset:
            raise WireError("body length %d does not match remaining %d "
                            "bytes" % (body_len, len(data) - offset), src=src)
        payload, offset = _decode(data, offset, 0)
        if offset != len(data):
            raise WireError("trailing garbage after frame body", src=src)
        return frame_type, src, payload
    except WireError as err:
        if err.src is None:
            err.src = src
        raise
    except Exception as err:   # struct errors, recursion, anything exotic
        raise WireError("undecodable datagram: %s" % err, src=src)


def decode_datagram(data):
    """Total, batch-aware decode of one received UDP datagram.

    Returns ``(frames, errors)`` where ``frames`` is ``[(frame_type, src,
    payload), ...]`` in wire order and ``errors`` is a list of
    :class:`WireError` (one per undecodable frame or sub-frame, each
    carrying ``err.src`` when the source survived).  Never raises: a
    plain frame yields one entry on exactly one of the two lists; inside
    a batch, a corrupt sub-frame *body* lands on ``errors`` while its
    siblings -- located through the per-sub-frame length prefix -- still
    decode.  Damage to the batch header or to sub-frame framing itself
    drops the remainder of the datagram with a single error, the same
    blast radius a plain frame has.
    """
    data = _as_buffer(data)
    if len(data) < 4 or data[:2] != MAGIC or data[3] != FRAME_BATCH:
        try:
            return [decode_frame(data)], []
        except WireError as err:
            return [], [err]
    frames, errors = [], []
    src = None
    try:
        if data[2] != WIRE_VERSION:
            raise WireError("unsupported wire version %d" % data[2])
        src, offset = _decode(data, 4, 0)
        count, offset = _count(data, offset,
                               minimum_item_bytes=SUBFRAME_OVERHEAD + 1)
    except WireError as err:
        if err.src is None:
            err.src = src
        return frames, [err]
    except Exception as err:
        return frames, [WireError("undecodable batch header: %s" % err,
                                  src=src)]
    for _ in range(count):
        try:
            _need(data, offset, SUBFRAME_OVERHEAD)
            sub_type = data[offset]
            if sub_type not in _FRAME_TYPES:
                raise WireError("unknown sub-frame type %d" % sub_type,
                                src=src)
            body_len = _unpack_u32(data, offset + 1)[0]
            offset += SUBFRAME_OVERHEAD
            _need(data, offset, body_len)
        except WireError as err:
            # framing damage: the resynchronization point itself is gone
            if err.src is None:
                err.src = src
            errors.append(err)
            return frames, errors
        end = offset + body_len
        try:
            # decode in place against the sub-frame's end offset: no
            # per-sub-frame body copy.  A body truncated in isolation
            # decodes past ``end`` and fails the stop check; allocation
            # stays bounded by the datagram size.
            payload, stop = _decode(data, offset, 0)
            if stop != end:
                raise WireError("sub-frame body length mismatch", src=src)
            frames.append((sub_type, src, payload))
        except WireError as err:
            if err.src is None:
                err.src = src
            errors.append(err)
        except Exception as err:
            errors.append(WireError("undecodable sub-frame: %s" % err,
                                    src=src))
        offset = end              # resync to the next length-prefixed frame
    if offset != len(data):
        errors.append(WireError("trailing garbage after batch", src=src))
    return frames, errors
