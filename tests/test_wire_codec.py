"""Property tests for the real-network wire codec (repro/runtime/wire.py).

Three claims, per the codec's contract:

1. round-trip -- every value in the protocol stack's wire universe
   (None/bool/int/float/str/bytes, nested containers, ViewId, Message)
   encodes and decodes back to an equal value, and whole frames carry
   frame type + source + payload faithfully;
2. totality -- decoding arbitrary bytes (truncations, single bit flips,
   random garbage) either succeeds or raises WireError; it NEVER raises
   anything else, loops, or allocates unboundedly;
3. attribution -- a decode failure whose frame header survived carries
   the claimed source on ``err.src``, and the bottom layer feeds such
   rejects into the existing ``CORRUPTION_SUSPECT_THRESHOLD`` suspicion
   path exactly like bad-signature drops.

Everything here is socket-free: the codec is pure bytes in/bytes out.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Group, StackConfig
from repro.core.message import Message
from repro.core.view import ViewId
from repro.layers.bottom import CORRUPTION_SUSPECT_THRESHOLD
from repro.runtime.wire import (
    FRAME_BATCH,
    FRAME_DATAGRAM,
    FRAME_GOSSIP,
    MAGIC,
    WIRE_VERSION,
    WireError,
    decode_datagram,
    decode_frame,
    decode_value,
    encode_batch,
    encode_frame,
    encode_signed,
    encode_value,
    frame_prefix,
)

# ----------------------------------------------------------------------
# strategies over the codec's value universe
# ----------------------------------------------------------------------
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),                      # includes > 64-bit (bigint tag)
    st.floats(allow_nan=False),        # NaN breaks == round-trip checks
    st.text(max_size=40),
    st.binary(max_size=40),
)

hashables = st.recursive(
    scalars,
    lambda inner: st.tuples(inner, inner)
    | st.frozensets(inner, max_size=4),
    max_leaves=8,
)

values = st.recursive(
    scalars | st.builds(ViewId, st.integers(), st.integers()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5).map(tuple),
        st.lists(inner, max_size=5),
        st.dictionaries(hashables, inner, max_size=4),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
    ),
    max_leaves=16,
)

messages = st.builds(
    lambda kind, origin, vid, payload, size: Message(
        kind, origin, vid, payload, payload_size=size),
    st.text(min_size=1, max_size=12),
    st.integers(0, 64),
    st.builds(ViewId, st.integers(0, 1 << 40), st.integers(0, 64)),
    values,
    st.integers(0, 65000),
)


def wire_fields(msg):
    """Everything a Message carries on the wire, in wire order."""
    return msg.signed_fields() + msg.wire_tail()


# ----------------------------------------------------------------------
# 1. round-trip
# ----------------------------------------------------------------------
@given(values)
def test_value_round_trip(value):
    assert decode_value(encode_value(value)) == value


@given(values)
def test_value_round_trip_preserves_type(value):
    decoded = decode_value(encode_value(value))
    assert type(decoded) is type(value)


@given(messages)
def test_message_round_trip(msg):
    decoded = decode_value(encode_value(msg))
    assert type(decoded) is Message
    assert wire_fields(decoded) == wire_fields(msg)


@given(st.sampled_from([FRAME_DATAGRAM, FRAME_GOSSIP]),
       st.integers(0, 1 << 20), values)
def test_frame_round_trip(frame_type, src, payload):
    frame = encode_frame(frame_type, src, payload)
    assert decode_frame(frame) == (frame_type, src, payload)


def test_frame_layout_is_versioned():
    frame = encode_frame(FRAME_DATAGRAM, 3, ("hello",))
    assert frame[:2] == MAGIC
    assert frame[2] == WIRE_VERSION
    assert frame[3] == FRAME_DATAGRAM


#: sha256 over the concatenated corpus below; a decoder-side change must
#: leave it alone, an encoder-side one re-records it with WIRE_VERSION bumped.
#: Last re-recorded at WIRE_VERSION 5, which refuses a message anywhere but
#: as a frame's body: the corpus lost its ("pack", ...) frame.
WIRE_CORPUS_SHA256 = (
    "6bd0060c20de197b15344707fe81bff5a39f0db344ae82aa82c84449303a27d8")


def _corpus():
    """One datagram of each shape the transport emits, fixed content."""
    inner = Message("ack", 2, ViewId(7, 2), (1, 2), payload_size=8, dest=0)
    msg = Message("cast", 1, ViewId(1 << 40, 3),
                  (None, True, False, -5, 1 << 70, 2.5, "hé", b"\x00\xff",
                   [1, [2, (3,)]], {"k": {"n": ViewId(2, 0)}, 4: [5]},
                   {1, 2}, frozenset({"a", ("b", 1)})),
                  payload_size=64, dest=4, msg_id=(1, 9), group=3)
    msg.push_header("reliable", ("data", 12))
    msg.push_header("frag", (0, 1))
    msg.signature = b"\x01" * 32
    return (encode_frame(FRAME_DATAGRAM, 1, msg),
            encode_batch(5, [(FRAME_DATAGRAM, inner),
                             (FRAME_GOSSIP, ("grp", 3, ("view", 5))),
                             (FRAME_DATAGRAM, msg)]),
            encode_frame(FRAME_GOSSIP, (2, "x"), ("announce", ViewId(4, 1),
                                                  (0, 1, 2))))


def test_wire_corpus_digest_is_pinned():
    """The encoded bytes are the wire contract: every value tag (ViewId, a
    big int, nested containers), a message with a non-None ``group``, a
    3-sub-frame batch and a gossip frame hash to the recorded digest, and
    each datagram still decodes to what was encoded."""
    corpus = _corpus()
    digest = hashlib.sha256(b"".join(corpus)).hexdigest()
    assert digest == WIRE_CORPUS_SHA256
    for blob in corpus:
        frames, errors = decode_datagram(blob)
        assert errors == []
        rebuilt = (encode_frame(*frames[0]) if blob[3] != FRAME_BATCH else
                   encode_batch(frames[0][1], [(ft, p) for ft, _, p in frames]))
        assert rebuilt == blob


# ----------------------------------------------------------------------
# 2. totality: WireError or success, never anything else
# ----------------------------------------------------------------------
def _decodes_or_wire_error(data):
    try:
        result = decode_frame(data)
    except WireError:
        return None
    assert isinstance(result, tuple) and len(result) == 3
    return result


@given(values, st.data())
def test_truncated_frames_reject(payload, data):
    frame = encode_frame(FRAME_DATAGRAM, 1, payload)
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(WireError):
        decode_frame(frame[:cut])


@given(values, st.data())
def test_bit_flipped_frames_never_crash(payload, data):
    frame = bytearray(encode_frame(FRAME_GOSSIP, 2, payload))
    bit = data.draw(st.integers(0, len(frame) * 8 - 1))
    frame[bit // 8] ^= 1 << (bit % 8)
    # a flip may still decode (e.g. inside a string; the HMAC catches it
    # later) -- the codec's promise is only "value or WireError"
    _decodes_or_wire_error(bytes(frame))


@given(st.binary(max_size=200))
def test_random_garbage_never_crashes(data):
    _decodes_or_wire_error(data)


@given(st.binary(min_size=4, max_size=200))
def test_garbage_with_valid_header_never_crashes(data):
    _decodes_or_wire_error(MAGIC + bytes([WIRE_VERSION, FRAME_DATAGRAM])
                           + data)


def test_depth_cap_on_encode():
    nested = ()
    for _ in range(40):
        nested = (nested,)
    with pytest.raises(WireError):
        encode_value(nested)


def test_depth_cap_on_decode():
    # hand-built: 40 nested single-element tuples around a None -- deeper
    # than any legal encoder output, must be rejected, not recursed into
    blob = b"\x08\x00\x00\x00\x01" * 40 + b"\x00"
    with pytest.raises(WireError):
        decode_value(blob)


def test_huge_count_is_bounded():
    # a tuple claiming 2**31 elements in a tiny buffer: the count check
    # must reject it instead of attempting the allocation
    blob = b"\x08" + (0x80000000).to_bytes(4, "big")
    with pytest.raises(WireError):
        decode_value(blob)


def test_unencodable_type_rejected():
    with pytest.raises(WireError):
        encode_value(object())


def test_trailing_garbage_rejected():
    frame = encode_frame(FRAME_DATAGRAM, 1, ("x",))
    with pytest.raises(WireError):
        decode_frame(frame + b"\x00")


# ----------------------------------------------------------------------
# 3. attribution + the corruption-suspicion path
# ----------------------------------------------------------------------
def test_decode_error_carries_claimed_source():
    frame = bytearray(encode_frame(FRAME_DATAGRAM, 7, ("payload", 123)))
    frame[-1] ^= 0xFF          # corrupt the body, keep the header intact
    blob = bytes(frame)
    try:
        decode_frame(blob)
    except WireError as err:
        if err.src is not None:
            assert err.src == 7
    # header-level damage must leave src unattributed
    with pytest.raises(WireError) as exc:
        decode_frame(b"XX" + blob[2:])
    assert exc.value.src is None


def test_undecodable_rejects_feed_corruption_threshold():
    """note_undecodable strikes like a bad signature: after
    CORRUPTION_SUSPECT_THRESHOLD rejects from one member the bottom
    layer reports it to the suspicion layer."""
    group = Group.bootstrap(4, config=StackConfig.byz(crypto="sym"), seed=5)
    try:
        process = group.processes[0]
        bottom = process.bottom
        threshold = CORRUPTION_SUSPECT_THRESHOLD
        assert threshold > 1

        # unattributable noise: counted, suspects nobody
        bottom.note_undecodable(None)
        assert bottom.dropped_undecodable == 1
        assert not process.suspicion._local

        # repeated rejects from one member accumulate evidence on BOTH
        # trails (verbose fuzziness + signature strikes); by the
        # corruption threshold the member must be locally suspected
        for _ in range(threshold):
            bottom.note_undecodable(2)
        assert 2 in process.suspicion._local
        assert bottom.dropped_undecodable == 1 + threshold
    finally:
        group.stop()


# ----------------------------------------------------------------------
# 4. batch container (the wire coalescer's frame format)
# ----------------------------------------------------------------------
subframe_lists = st.lists(
    st.tuples(st.sampled_from([FRAME_DATAGRAM, FRAME_GOSSIP]), values),
    min_size=1, max_size=6)


@given(st.integers(0, 1 << 20), subframe_lists)
def test_batch_round_trip(src, subframes):
    frames, errors = decode_datagram(encode_batch(src, subframes))
    assert errors == []
    assert frames == [(ft, src, payload) for ft, payload in subframes]


@given(st.sampled_from([FRAME_DATAGRAM, FRAME_GOSSIP]),
       st.integers(0, 1 << 20), values)
def test_decode_datagram_handles_plain_frames(frame_type, src, payload):
    # non-batch datagrams take the single-frame path
    frames, errors = decode_datagram(encode_frame(frame_type, src, payload))
    assert errors == []
    assert frames == [(frame_type, src, payload)]


@pytest.mark.parametrize("version", [1, 2, 3, 4, WIRE_VERSION + 1])
def test_other_wire_versions_are_refused(version):
    # one wire version: a frame or batch claiming any other yields exactly
    # one WireError and no frame -- a sender cannot choose the struct
    # layout (and shed the signed ``group`` field) by its version byte
    msg = Message("cast", 9, ViewId(1, 9), ("p",), group=2)
    frame = bytearray(encode_frame(FRAME_DATAGRAM, 9, msg))
    batch = bytearray(encode_batch(9, [(FRAME_DATAGRAM, msg),
                                       (FRAME_GOSSIP, ("a",))]))
    assert frame[2] == batch[2] == WIRE_VERSION
    frame[2] = batch[2] = version
    with pytest.raises(WireError, match="unsupported wire version"):
        decode_frame(bytes(frame))
    for blob in (frame, batch):
        frames, errors = decode_datagram(bytes(blob))
        assert frames == []
        assert len(errors) == 1 and isinstance(errors[0], WireError)


@given(st.binary(max_size=300))
def test_decode_datagram_is_total_on_garbage(data):
    frames, errors = decode_datagram(data)
    assert isinstance(frames, list) and isinstance(errors, list)
    for err in errors:
        assert isinstance(err, WireError)


@given(subframe_lists, st.data())
def test_bit_flipped_batches_never_crash(subframes, data):
    batch = bytearray(encode_batch(3, subframes))
    bit = data.draw(st.integers(0, len(batch) * 8 - 1))
    batch[bit // 8] ^= 1 << (bit % 8)
    frames, errors = decode_datagram(bytes(batch))
    for err in errors:
        assert isinstance(err, WireError)
    # whatever survived must still be well-formed triples
    for frame in frames:
        assert len(frame) == 3


def test_corrupt_subframe_spares_siblings():
    """A bit flip inside one sub-frame body is attributed to the source
    while every sibling sub-frame still decodes (the length prefix is
    the resynchronization point)."""
    payloads = [("first", 1), ("second", 2), ("third", 3)]
    batch = bytearray(encode_batch(
        6, [(FRAME_DATAGRAM, p) for p in payloads]))
    # smash the middle sub-frame's leading value tag: its body becomes
    # undecodable while the third sub-frame's framing is untouched
    middle_body = (len(frame_prefix(FRAME_BATCH, 6)) + 4
                   + 5 + len(encode_value(payloads[0])) + 5)
    batch[middle_body] = 0xFF
    frames, errors = decode_datagram(bytes(batch))
    assert [f[2] for f in frames] == [payloads[0], payloads[2]]
    assert len(errors) == 1
    assert errors[0].src == 6


def test_corrupt_subframe_attributes_falsy_source():
    # node id 0 is falsy: attribution must use an `is None` check, not
    # truthiness, or node 0's corruption would read as unattributable
    batch = bytearray(encode_batch(
        0, [(FRAME_DATAGRAM, ("a", 1)), (FRAME_DATAGRAM, ("b", 2))]))
    batch[-len(encode_value(("b", 2)))] = 0xFF   # second body's value tag
    frames, errors = decode_datagram(bytes(batch))
    assert len(frames) == 1 and len(errors) == 1
    assert errors[0].src == 0


def test_truncated_batch_keeps_decoded_prefix():
    # framing damage (the datagram cut mid-sub-frame) loses the rest of
    # the batch but keeps everything decoded before the cut
    batch = encode_batch(2, [(FRAME_DATAGRAM, ("x",)),
                             (FRAME_DATAGRAM, ("y",))])
    frames, errors = decode_datagram(batch[:-3])
    assert [f[2] for f in frames] == [("x",)]
    assert len(errors) == 1 and errors[0].src == 2


def test_trailing_garbage_after_batch_flagged():
    batch = encode_batch(5, [(FRAME_DATAGRAM, ("x",))])
    frames, errors = decode_datagram(batch + b"\x00\x01")
    assert [f[2] for f in frames] == [("x",)]
    assert len(errors) == 1


def test_nested_batch_rejected():
    # FRAME_BATCH is not a legal sub-frame type (no recursion)
    with pytest.raises(WireError):
        encode_batch(1, [(FRAME_BATCH, ("x",))])
    batch = bytearray(encode_batch(1, [(FRAME_DATAGRAM, ("x",))]))
    batch[len(frame_prefix(FRAME_BATCH, 1)) + 4] = FRAME_BATCH
    # hand-forged on the wire: framing damage, one error, no frames
    frames, errors = decode_datagram(bytes(batch))
    assert frames == []
    assert len(errors) == 1


@given(st.sampled_from([FRAME_DATAGRAM, FRAME_GOSSIP]),
       st.integers(0, 1 << 20), values)
def test_frame_prefix_assembly_matches_encode_frame(frame_type, src, payload):
    import struct
    body = encode_value(payload)
    assembled = (frame_prefix(frame_type, src)
                 + struct.pack("!I", len(body)) + body)
    assert assembled == encode_frame(frame_type, src, payload)


# ----------------------------------------------------------------------
# 5. zero-copy decoding (docs/PERFORMANCE.md, "The CPU path")
# ----------------------------------------------------------------------
# The decoder walks a single memoryview over the datagram with offset
# slicing; only escaping values (bytes payloads, strings) are copied out.
# Contract: for ANY buffer type (bytes, bytearray, memoryview) and ANY
# damage, the decode outcome -- frames, error count, error attribution --
# is the same, and the verdicts on a damaged batch are pinned.


def _no_views(value):
    """Decoded values must never leak memoryviews into the stack."""
    assert not isinstance(value, memoryview)
    if isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            _no_views(item)
    elif isinstance(value, dict):
        for k, v in value.items():
            _no_views(k)
            _no_views(v)


def _outcome(data):
    frames, errors = decode_datagram(data)
    return frames, [(type(e), e.src) for e in errors]


@given(st.integers(0, 1 << 20), subframe_lists)
def test_buffer_types_decode_identically(src, subframes):
    blob = encode_batch(src, subframes)
    reference = _outcome(blob)
    assert _outcome(bytearray(blob)) == reference
    assert _outcome(memoryview(blob)) == reference
    for _ft, _src, payload in reference[0]:
        _no_views(payload)


@given(values)
def test_frame_decode_from_memoryview(payload):
    frame = encode_frame(FRAME_DATAGRAM, 4, payload)
    assert decode_frame(memoryview(frame)) == decode_frame(frame)
    assert decode_value(memoryview(encode_value(payload))) == payload


def test_batch_truncation_at_every_offset_matches_bytes_path():
    # exhaustive truncation sweep: the zero-copy path must agree with the
    # bytes path on every prefix -- same surviving frames, same error
    # attribution, and never a non-WireError escape
    blob = encode_batch(3, [(FRAME_DATAGRAM, ("alpha", 1)),
                            (FRAME_GOSSIP, ("beta", (2, b"xy"))),
                            (FRAME_DATAGRAM, ("gamma",))])
    for cut in range(len(blob) + 1):
        assert _outcome(memoryview(blob[:cut])) == _outcome(blob[:cut]), \
            "zero-copy decode diverges at truncation offset %d" % cut


def test_corrupt_subframe_spares_siblings_from_memoryview():
    payloads = [("first", 1), ("second", 2), ("third", 3)]
    batch = bytearray(encode_batch(
        6, [(FRAME_DATAGRAM, p) for p in payloads]))
    middle_body = (len(frame_prefix(FRAME_BATCH, 6)) + 4
                   + 5 + len(encode_value(payloads[0])) + 5)
    batch[middle_body] = 0xFF
    frames, errors = decode_datagram(memoryview(batch))
    assert [f[2] for f in frames] == [payloads[0], payloads[2]]
    assert len(errors) == 1
    assert errors[0].src == 6


#: sha256 over the decode verdicts of every single-bit flip, then every
#: truncation, of the corpus's 3-sub-frame batch.  A verdict is what the
#: stack acts on -- each decoded frame's (type, source) and each error's
#: (type, source) -- never the values: a set's repr moves with the
#: per-process string hash seed, and the round-trip tests own values.
WIRE_VERDICTS_SHA256 = (
    "586516fde930b5826c5b7a9d981f0cbcafd903f9e6f072755485a4243ce8bf9f")


def _damaged(blob):
    for bit in range(len(blob) * 8):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)
    for cut in range(len(blob) + 1):
        yield blob[:cut]


def _verdict(data):
    frames, errors = decode_datagram(data)
    return ([(frame_type, src) for frame_type, src, _payload in frames],
            [(type(err).__name__, err.src) for err in errors])


def test_batch_damage_verdicts_are_pinned():
    verdicts = [_verdict(blob) for blob in _damaged(_corpus()[1])]
    digest = hashlib.sha256(repr(verdicts).encode("utf-8")).hexdigest()
    assert digest == WIRE_VERDICTS_SHA256


#: sha256 over what decode_datagram returns -- each frame's type, source
#: and full decoded payload, each error's type and source -- for a seeded
#: corpus of frames, intact, at every truncation and under every 7th bit
#: flip.  Where WIRE_VERDICTS_SHA256 pins accept/reject, this pins the
#: values: a decoder rewrite must leave both alone.  Last re-recorded at
#: WIRE_VERSION 5, whose corpus lost its ("pack", ...) value; the version-4
#: decoder reads the new corpus to the same digest.
WIRE_VALUES_SHA256 = (
    "ebe2afc853cc2c463055da9a4e66f85ae7712569e3deb08ea8c63066d96efb8e")


def _random_value(rng, depth):
    """One seeded value; a set holds scalars (see _render for how a
    decoded one is rendered)."""
    kinds = ["int", "bigint", "float", "str", "bytes", "vid", "none", "bool"]
    if depth < 3:
        kinds += ["tuple", "list", "dict"] * 3 + ["set", "frozenset"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randrange(-(1 << 63), 1 << 63) >> rng.randrange(64)
    if kind == "bigint":
        return rng.choice((-1, 1)) * rng.randrange(1 << 64, 1 << 200)
    if kind == "float":
        return rng.uniform(-1e9, 1e9)
    if kind == "str":
        return "".join(rng.choice("abz-é€😀") for _ in range(rng.randrange(8)))
    if kind == "bytes":
        return bytes(rng.randrange(256) for _ in range(rng.randrange(12)))
    if kind == "vid":
        return ViewId(rng.randrange(1 << 40), rng.randrange(64))
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind in ("set", "frozenset"):
        items = (_random_value(rng, 3) for _ in range(rng.randrange(5)))
        return set(items) if kind == "set" else frozenset(items)
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == "tuple":
        return tuple(items)
    if kind == "list":
        return items
    return {(k, str(k)) if k % 2 else k: item for k, item in enumerate(items)}


def _value_corpus():
    rng = random.Random(2606)
    values = [_random_value(rng, 0) for _ in range(12)]
    msg = Message("cast", 3, ViewId(9, 1), _random_value(rng, 1),
                  payload_size=64, dest=2, msg_id=(3, 17), group=1)
    msg.push_header("reliable", ("data", 40))
    msg.push_header("frag", (1, 3))
    msg.signature = bytes(rng.randrange(256) for _ in range(32))
    values += [msg, msg.clone_for(0)]
    blobs = [encode_frame(FRAME_DATAGRAM if k % 3 else FRAME_GOSSIP, k, value)
             for k, value in enumerate(values)]
    blobs.append(encode_batch(7, [(FRAME_DATAGRAM, v) for v in values[-4:]]))
    return blobs


def _render(value):
    """A hash-seed-independent rendering of a decoded value."""
    kind = type(value)
    if kind is Message:
        return ("Message",) + tuple(_render(f) for f in wire_fields(value))
    if kind is ViewId:
        return ("ViewId", _render(value.counter), _render(value.creator))
    if kind in (tuple, list):
        return (kind.__name__,) + tuple(_render(item) for item in value)
    if kind is dict:
        return ("dict",) + tuple((_render(k), _render(v))
                                 for k, v in value.items())
    if kind in (set, frozenset):
        return (kind.__name__,) + tuple(sorted(repr(_render(item))
                                               for item in value))
    return repr(value)


def _damaged_sparse(blob):
    yield blob
    for cut in range(len(blob)):
        yield blob[:cut]
    for bit in range(0, len(blob) * 8, 7):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)


def test_decoded_values_are_pinned():
    outcomes = []
    for blob in _value_corpus():
        for data in _damaged_sparse(blob):
            frames, errors = decode_datagram(data)
            outcomes.append((
                [(ft, _render(src), _render(payload))
                 for ft, src, payload in frames],
                [(type(err).__name__, _render(err.src)) for err in errors]))
    digest = hashlib.sha256(repr(outcomes).encode("utf-8")).hexdigest()
    assert digest == WIRE_VALUES_SHA256


def test_decoded_strings_and_bytes_escape_the_buffer():
    # str/bytes leaves must be real copies: mutating the receive buffer
    # after decode must not change them (the transport reuses buffers)
    buf = bytearray(encode_frame(FRAME_DATAGRAM, 2, ("hello", b"world")))
    _ft, _src, payload = decode_frame(memoryview(buf))
    for i in range(len(buf)):
        buf[i] = 0
    assert payload == ("hello", b"world")
    assert type(payload[0]) is str and type(payload[1]) is bytes


def test_undecodable_ignores_strangers_and_stopped_stacks():
    group = Group.bootstrap(4, config=StackConfig.byz(crypto="sym"), seed=5)
    try:
        process = group.processes[1]
        bottom = process.bottom
        bottom.note_undecodable(99)          # not a member: counted only
        assert bottom.dropped_undecodable == 1
        assert not process.suspicion._local
    finally:
        group.stop()
    assert process.stopped
    bottom.note_undecodable(2)               # after stop: full no-op
    assert bottom.dropped_undecodable == 1


# ----------------------------------------------------------------------
# 6. compact tags and the one encoding (since WIRE_VERSION 4)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value, size", [
    (0, 1), (127, 1), (128, 9), (-1, 9), (-(1 << 63), 9), ((1 << 63) - 1, 9),
    (1 << 63, 14), (-(1 << 63) - 1, 14),
    ("a" * 31, 32), ("a" * 32, 37), ("é" * 15 + "a", 32), ("é" * 16, 37),
    (b"\x00" * 31, 32), (b"\x00" * 32, 37),
    ((0,) * 15, 16), ((0,) * 16, 21), ((), 1), ("", 1), (b"", 1),
    (True, 1), (False, 1), (1, 1), (None, 1),
])
def test_tag_boundaries_round_trip(value, size):
    blob = encode_value(value)
    assert len(blob) == size
    decoded = decode_value(blob)
    assert decoded == value and type(decoded) is type(value)
    assert encode_value(decoded) == blob


def test_bool_and_int_keep_their_types():
    assert encode_value(True) != encode_value(1)
    assert encode_value(False) != encode_value(0)
    assert decode_value(encode_value((True, 1, False, 0))) == (True, 1,
                                                               False, 0)
    assert [type(v) for v in decode_value(encode_value((True, 1)))] == [
        bool, int]


@pytest.mark.parametrize("blob", [
    b"\x03" + (5).to_bytes(8, "big"),               # int64 of a small int
    b"\x04\x00\x00\x00\x01\x05",                    # big int in int64 range
    b"\x04\x00\x00\x00\x0a" + b"\x00" + (1 << 70).to_bytes(9, "big"),
    b"\x06\x00\x00\x00\x01a",                       # long form, short str
    b"\x07\x00\x00\x00\x01a",                       # long form, short bytes
    b"\x08\x00\x00\x00\x01\x80",                    # long form, short tuple
    b"\x0a\x00\x00\x00\x02\x81\x82\x81\x83",         # repeated dict key
    b"\x0b\x00\x00\x00\x02\x81\x81",                 # repeated set element
    b"\x0b\x00\x00\x00\x02\x82\x81",                 # set out of order
    b"\x0c\x00\x00\x00\x02\x21b\x21a",             # frozenset likewise
])
def test_non_canonical_encodings_are_refused(blob):
    with pytest.raises(WireError, match="non-canonical"):
        decode_value(blob)


#: the value universe with tuples long enough for the long tuple tag
wide_values = st.recursive(
    scalars | st.builds(ViewId, st.integers(), st.integers()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=20).map(tuple),
        st.lists(inner, max_size=5),
        st.dictionaries(scalars, inner, max_size=4),
        st.frozensets(hashables, max_size=6),
        st.sets(hashables, max_size=6),
    ),
    max_leaves=24,
)

wide_messages = st.builds(
    lambda kind, origin, vid, payload, size: Message(
        kind, origin, vid, payload, payload_size=size),
    st.text(min_size=1, max_size=40),
    st.integers(-2, 300),
    st.builds(ViewId, st.integers(0, 1 << 40), st.integers(0, 64)),
    wide_values,
    st.integers(0, 65000),
)


@given(wide_values)
def test_encoder_output_re_encodes_to_itself(value):
    blob = encode_value(value)
    assert encode_value(decode_value(blob)) == blob


@given(wide_messages, st.integers(0, 64),
       st.one_of(st.none(), st.integers(0, 9)))
def test_a_decoded_message_rebuilds_the_block_it_arrived_with(msg, dest,
                                                              inc):
    msg.push_header("rel", ("app", 3))
    if inc is not None:
        msg.push_header("inc", inc)
    blob = encode_value(msg.clone_for(dest))
    decoded = decode_value(blob)
    assert decoded.signed_block() == msg.signed_block()
    # the block rebuilt from the decoded values is the one received
    assert encode_signed(decoded) == decoded.signed_block()
    assert encode_value(decoded) == blob
    assert decoded.header("inc") == inc


def _raw_message(fields, block_fields=7):
    """A hand-built Message struct: the first ``block_fields`` values
    form the signed block, the rest its tail."""
    block = b"".join(encode_value(f) for f in fields[:block_fields])
    return (bytes([0x0E]) + len(block).to_bytes(4, "big") + block
            + b"".join(encode_value(f) for f in fields[block_fields:]))


@pytest.mark.parametrize("headers", [
    {"rel": 1, "frag": 2},      # names out of order
    {"inc": 1},                 # the unsigned header inside the block
    {1: "x", "a": 2},           # names that do not sort
])
def test_a_block_with_headers_out_of_signed_order_is_refused(headers):
    fields = ["cast", 1, ViewId(1, 0), headers, ("p",), None, None,
              1, 16, None, None, None]
    with pytest.raises(WireError, match="malformed message struct"):
        decode_value(_raw_message(fields))
    fields[3] = {}
    assert decode_value(_raw_message(fields)).headers == {}


def test_a_block_longer_than_its_fields_is_refused():
    fields = ["cast", 1, ViewId(1, 0), {}, ("p",), None, None,
              1, 16, None, None, None]
    # the block claims one byte more than its fields take
    blob = bytearray(_raw_message(fields))
    blob[4] += 1
    blob[5 + blob[4] - 1:5 + blob[4] - 1] = b"\x80"
    with pytest.raises(WireError, match="signed block ends"):
        decode_value(bytes(blob))


def test_every_decodable_damage_re_encodes_to_the_bytes_received():
    """The one encoding under damage: any bit flip or truncation of a
    batch that still decodes yields values that encode back to exactly
    the bytes received, and each decoded message's block, rebuilt from
    its values, is the block it carried."""
    inner = Message("ack", 2, ViewId(7, 2), ((0, "app", 130), (1, "c", 2)),
                    payload_size=8, dest=0)
    msg = Message("cast", 1, ViewId(1 << 40, 3),
                  (None, True, -5, 1 << 70, 2.5, "hé", b"\x00\xff" * 20,
                   [1, [2, (3,) * 17]], {"k": {"n": ViewId(2, 0)}, 4: [5]},
                   frozenset({"a", "b", ("c", 1)}), {3, 130, -1}),
                  payload_size=64, dest=4, msg_id=(1, 9), group=3)
    msg.push_header("reliable", ("data", 12))
    msg.push_header("inc", 2)
    msg.signature = {0: b"\x01" * 10, 4: b"\x02" * 10}
    blob = encode_batch(5, [(FRAME_DATAGRAM, inner), (FRAME_DATAGRAM, msg)])
    prefix = len(frame_prefix(FRAME_BATCH, 5)) + 4
    decoded_any = 0
    for data in _damaged(blob):
        frames, errors = decode_datagram(data)
        if errors or len(frames) != 2:
            continue
        decoded_any += 1
        assert encode_batch(frames[0][1], [(ft, p) for ft, _, p in frames]) \
            [prefix:] == data[prefix:]
        for _frame_type, _src, payload in frames:
            assert encode_signed(payload) == payload.signed_block()
    assert decoded_any > 100


def test_a_set_is_ordered_by_its_elements_encodings():
    # the order no hash seed moves, nested frozensets of strings included
    items = [frozenset({"b", "a"}), frozenset({"c"}), "z" * 40, 7, ("t", 1)]
    blob = encode_value(frozenset(items))
    assert blob == (b"\x0c" + len(items).to_bytes(4, "big")
                    + b"".join(sorted(encode_value(i) for i in items)))
    assert decode_value(blob) == frozenset(items)


def _nested(levels):
    value = 0
    for _ in range(levels):
        value = (value,)
    return value


def test_a_payload_at_the_depth_bound_travels_alone_and_packed():
    # a block's fields encode and decode at one depth, so a message that
    # encodes decodes alone in a frame and packed with a sibling into a
    # coalesced batch alike
    from repro.runtime.wire import _MAX_DEPTH, BLOCK_DEPTH
    assert BLOCK_DEPTH == 1
    deepest = _nested(_MAX_DEPTH - BLOCK_DEPTH)
    msg = Message("cast", 1, ViewId(1, 0), deepest, payload_size=8, dest=2)
    batch = encode_batch(1, [(FRAME_DATAGRAM, msg),
                             (FRAME_DATAGRAM, msg.clone_for(3))])
    for blob, count in ((encode_frame(FRAME_DATAGRAM, 1, msg), 1), (batch, 2)):
        frames, errors = decode_datagram(blob)
        assert errors == [] and len(frames) == count
    deeper = Message("cast", 1, ViewId(1, 0), (deepest,), payload_size=8)
    with pytest.raises(WireError, match="depth"):
        deeper.signed_block()
    # nor does a lone message's block decode any deeper than it encodes
    fields = ["cast", 1, ViewId(1, 0), {}, (deepest,), None, None,
              1, 8, None, None, None]
    with pytest.raises(WireError, match="depth"):
        decode_value(_raw_message(fields))


def test_a_message_nested_inside_a_value_is_refused():
    msg = Message("cast", 1, ViewId(1, 0), ("p",), payload_size=8)
    with pytest.raises(WireError, match="nested"):
        encode_value(("x", ("y", (msg,))))
    with pytest.raises(WireError, match="nested"):
        encode_value(Message("cast", 1, ViewId(1, 0), msg))
    # the bottom layer's retired ("pack", (msg, ...)) container included:
    # a message is a value only as a frame's body
    with pytest.raises(WireError, match="nested"):
        encode_value(("pack", (msg,)))
    alone = encode_value(msg)
    assert decode_value(alone).signed_block() == msg.signed_block()
    with pytest.raises(WireError, match="nested"):
        decode_value(b"\x62" + encode_value("pack") + b"\x61" + alone)
    with pytest.raises(WireError, match="nested"):
        decode_value(b"\x61" + alone)
    # nor is a message a frame's source
    with pytest.raises(WireError, match="nested"):
        encode_frame(FRAME_DATAGRAM, msg, msg)
    forged = (MAGIC + bytes([WIRE_VERSION, FRAME_DATAGRAM]) + alone
              + len(alone).to_bytes(4, "big") + alone)
    frames, errors = decode_datagram(forged)
    assert frames == [] and "nested" in str(errors[0])


@pytest.mark.parametrize("payload, ok", [
    (("t", 1, b"x", 2.5, None, True), True),
    (_nested(16), True),
    (_nested(17), False),
    (bytearray(b"x"), False),
    ({"k": object()}, False),
    ((Message("cast", 1, ViewId(1, 0), ("p",)),), False),
], ids=["flat", "at-bound", "past-bound", "bytearray", "object", "message"])
def test_check_payload_admits_wire_values_to_the_payload_bound(payload, ok):
    from repro.runtime.wire import PAYLOAD_DEPTH, check_payload
    assert PAYLOAD_DEPTH == 16
    if ok:
        check_payload(payload)
    else:
        with pytest.raises(WireError):
            check_payload(payload)


# ----------------------------------------------------------------------
# 7. signed blocks through the stack
# ----------------------------------------------------------------------
def _signed_cast(group, origin, payload):
    """The cast ``origin``'s bottom layer signs and fans out for
    ``payload`` (the simulator hands its clones over by reference)."""
    bottom = group.processes[origin].bottom
    transmit = bottom._transmit
    signed = []

    def recording(msg, receivers, size):
        if msg.kind == "cast":
            signed.append(msg)
        return transmit(msg, receivers, size)
    bottom._transmit = recording
    group.endpoints[origin].cast(payload)
    group.run(0.005)            # delivered, not yet trimmed as stable
    del bottom._transmit
    return signed[0]


def test_a_third_party_retransmission_rebuilds_the_origins_block():
    from tests.helpers import tagged_detector
    from repro.layers.reliable import STREAM_APP
    group = Group.bootstrap(4, config=StackConfig.byz(crypto="sym"), seed=3)
    try:
        origin_block = _signed_cast(group, 0, ("m", 1)).signed_block()
        holder, asker = group.processes[1], group.processes[3]
        record = holder.reliable._archive[(0, STREAM_APP)][1]
        retrans = Message("retrans", 1, holder.view.vid, record,
                          payload_size=record[6] + 24, dest=3)
        retrans.signature, _cost, _size = holder.auth.sign(1, (3,), retrans)
        wire = decode_value(encode_value(retrans))
        (kind, origin, _vid, stream, seq, payload, size, signature,
         cast_id) = wire.payload
        inner = Message(kind, origin, asker.view.vid, payload, size,
                        msg_id=cast_id)
        inner.push_header("rel", (stream, seq))
        assert inner.signed_block() == origin_block
        assert asker.auth.verify(3, 0, inner, signature)[0]
        # the reliable layer's own rebuild agrees: no forgery reported
        tags = tagged_detector(asker)
        asker.reliable._on_retrans(wire)
        assert "rel:forged-retrans" not in tags
    finally:
        group.stop()


@pytest.mark.parametrize("where", ["block", "signature"])
def test_a_flipped_byte_in_the_block_or_the_mac_is_a_bad_signature(where):
    from tests.helpers import tagged_detector
    group = Group.bootstrap(4, config=StackConfig.byz(crypto="sym"), seed=3)
    try:
        to_2 = _signed_cast(group, 0, ("m", 1)).clone_for(2)
        frame = bytearray(encode_frame(FRAME_DATAGRAM, 0, to_2))
        receiver = group.processes[2]
        intact = decode_frame(bytes(frame))[2]
        assert receiver.auth.verify(2, 0, intact, intact.signature)[0]
        target = (encode_value(("m", 1)) if where == "block"
                  else to_2.signature[2])
        at = bytes(frame).index(target) + len(target) - 1
        frame[at] ^= 0x01           # still decodes: a payload int, a MAC
        damaged = decode_frame(bytes(frame))[2]
        tags = tagged_detector(receiver)
        rejected = receiver.bottom.dropped_bad_signature
        receiver.bottom._process_in(0, damaged)
        assert tags == ["bottom:bad-signature"]
        assert receiver.bottom.dropped_bad_signature == rejected + 1
    finally:
        group.stop()
