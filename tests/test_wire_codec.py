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
   rejects into the existing ``corruption_suspect_threshold`` suspicion
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
    encode_message_prefix,
    encode_message_tail_into,
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
    assert decoded.wire_fields() == msg.wire_fields()


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
#: leave it alone, an encoder-side one re-records it with WIRE_VERSION bumped
WIRE_CORPUS_SHA256 = (
    "5c893109c77a194d15e08547801b8e56e8c53d8a4c6c4a5d471feb92edb02434")


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
            encode_frame(FRAME_DATAGRAM, 1, ("pack", (msg, inner))),
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
    corruption_suspect_threshold rejects from one member the bottom
    layer reports it to the suspicion layer."""
    group = Group.bootstrap(4, config=StackConfig.byz(crypto="sym"), seed=5)
    try:
        process = group.processes[0]
        bottom = process.bottom
        threshold = process.config.corruption_suspect_threshold
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


@pytest.mark.parametrize("version", [1, 2, WIRE_VERSION + 1])
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


@given(messages, st.integers(0, 64), st.one_of(st.none(), st.integers(0, 64)))
def test_shared_prefix_plus_tail_equals_full_encoding(msg, dest, msg_id):
    """The encode-once fan-out seam: shared prefix + per-destination tail
    must be byte-identical to encoding the clone outright."""
    msg.msg_id = msg_id
    clone = msg.clone_for(dest)
    out = bytearray(encode_message_prefix(msg))
    encode_message_tail_into(clone, out)
    assert bytes(out) == encode_value(clone)
    assert decode_value(bytes(out)).wire_fields() == clone.wire_fields()


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
    "7613eccfce029cdad966fcb92657499e730941b68b19fedba4bb8b2b262c09d1")


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
    verdicts = [_verdict(blob) for blob in _damaged(_corpus()[2])]
    digest = hashlib.sha256(repr(verdicts).encode("utf-8")).hexdigest()
    assert digest == WIRE_VERDICTS_SHA256


#: sha256 over what decode_datagram returns -- each frame's type, source
#: and full decoded payload, each error's type and source -- for a seeded
#: corpus of frames, intact, at every truncation and under every 7th bit
#: flip.  Where WIRE_VERDICTS_SHA256 pins accept/reject, this pins the
#: values: a decoder rewrite must leave both alone.
WIRE_VALUES_SHA256 = (
    "b5eefa904ff418f05cd4bf0735b9ec691db23eb28888ef5456edfdb66f7e4eaf")


def _random_value(rng, depth):
    """One seeded value: no sets in the corpus (their order follows the
    string hash seed); damage may still decode into one (see _render)."""
    kinds = ["int", "bigint", "float", "str", "bytes", "vid", "none", "bool"]
    if depth < 3:
        kinds += ["tuple", "list", "dict"] * 3
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
    values += [msg, ("pack", (msg, msg.clone_for(0)))]
    blobs = [encode_frame(FRAME_DATAGRAM if k % 3 else FRAME_GOSSIP, k, value)
             for k, value in enumerate(values)]
    blobs.append(encode_batch(7, [(FRAME_DATAGRAM, v) for v in values[-4:]]))
    return blobs


def _render(value):
    """A hash-seed-independent rendering of a decoded value."""
    kind = type(value)
    if kind is Message:
        return ("Message",) + tuple(_render(f) for f in value.wire_fields())
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
