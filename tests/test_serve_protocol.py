"""Property tests of the serve frame codec (repro.serve.protocol).

Same discipline as the checkpoint strict-framing tests: every verb
round-trips bit-exactly through encode/decode, and everything that is
not a complete, well-formed message is *rejected* with a typed
:class:`~repro.serve.protocol.ProtocolError` — never mis-decoded, never
crashed on, and never allowed to desynchronize the stream. The key
properties, each hypothesis-driven:

- encode→decode identity for all request and response verbs;
- any strict prefix and any suffix-extension of a valid body is
  rejected (exact-consumption framing);
- unknown verbs and garbage payloads raise non-fatal errors (the
  connection survives; the next frame still parses);
- zero/oversized length prefixes raise *fatal* errors (framing lost);
- the incremental :class:`~repro.serve.protocol.FrameDecoder` yields
  identical bodies no matter how the byte stream is chopped, fed or
  received in place;
- a frame too large for the decoder's scratch buffer is received into
  a buffer of its own, which commits memory only as bytes arrive and
  places a RECORD's keys 8-byte aligned, so they decode to a view.
"""

import itertools
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.serve import protocol
from repro.serve.protocol import (
    Checkpoint,
    CheckpointOk,
    Error,
    Estimate,
    EstimateOk,
    FrameDecoder,
    ProtocolError,
    Record,
    RecordOk,
    Stats,
    StatsOk,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Tenant names: non-empty utf-8, bounded so multi-byte code points
#: stay under the 255-encoded-byte limit.
tenants = st.text(min_size=1, max_size=60).filter(
    lambda s: 0 < len(s.encode("utf-8")) <= protocol.MAX_TENANT_BYTES
)

keys = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), max_size=64
).map(lambda values: np.array(values, dtype=np.uint64))

finite_floats = st.floats(allow_nan=False, allow_infinity=False)

json_documents = st.dictionaries(
    st.text(max_size=10),
    st.one_of(
        st.integers(min_value=-(2**53), max_value=2**53),
        finite_floats,
        st.text(max_size=20),
        st.booleans(),
        st.none(),
    ),
    max_size=8,
)

requests = st.one_of(
    st.builds(Record, tenants, keys),
    st.builds(Estimate, tenants),
    st.just(Stats()),
    st.just(Checkpoint()),
)

#: RECORDs whose frames straddle the decoder's scratch buffer: about
#: half fit in it, the rest are received into a buffer of their own.
straddling_records = st.builds(
    Record,
    tenants,
    st.integers(
        min_value=protocol.SCRATCH_BYTES // 8 - 24,
        max_value=protocol.SCRATCH_BYTES // 8 + 24,
    ).map(lambda count: np.arange(count, dtype=np.uint64)),
)

responses = st.one_of(
    st.builds(RecordOk, st.integers(min_value=0, max_value=2**64 - 1)),
    st.builds(EstimateOk, finite_floats),
    st.builds(StatsOk, json_documents),
    st.builds(
        CheckpointOk, st.integers(min_value=0, max_value=2**64 - 1)
    ),
    st.builds(
        Error,
        st.integers(min_value=0, max_value=2**16 - 1),
        st.text(max_size=80),
    ),
)


def _body(frame: bytes) -> bytes:
    """Strip the length prefix of a single encoded frame."""
    (length,) = struct.unpack_from("<I", frame)
    assert len(frame) == 4 + length
    return frame[4:]


def _receive(decoder: FrameDecoder, stream: bytes, cuts=(), most=4096) -> list:
    """Receive ``stream`` in place, as a transport's ``recv_into`` does.

    Each receive fills at most ``most`` bytes of what ``get_buffer``
    offers and stops short at every cut.
    """
    bodies = []
    offset = 0
    for cut in [*cuts, len(stream)]:
        while offset < cut:
            buffer = decoder.get_buffer()
            size = min(len(buffer), cut - offset, most)
            buffer[:size] = stream[offset:offset + size]
            offset += size
            bodies.extend(decoder.received(size))
    return bodies


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

@given(requests)
def test_request_round_trip(request):
    decoded = decode_request(_body(encode_request(request)))
    assert type(decoded) is type(request)
    if isinstance(request, (Record, Estimate)):
        assert decoded.tenant == request.tenant
    if isinstance(request, Record):
        assert decoded.keys.dtype == np.uint64
        assert np.array_equal(decoded.keys, request.keys)


@given(responses)
def test_response_round_trip(response):
    decoded = decode_response(_body(encode_response(response)))
    assert type(decoded) is type(response)
    if isinstance(response, EstimateOk):
        # Bit-exact through the f64 framing, not approximate.
        assert struct.pack("<d", decoded.estimate) == struct.pack(
            "<d", response.estimate
        )
    elif isinstance(response, StatsOk):
        assert decoded.document == json.loads(
            json.dumps(response.document)
        )
    else:
        assert decoded == response


@given(st.builds(Record, tenants, keys))
def test_decoded_keys_own_their_memory(request):
    """Decoded key arrays must not alias the receive buffer."""
    body = bytearray(_body(encode_request(request)))
    decoded = decode_request(body)
    before = decoded.keys.copy()
    for index in range(len(body)):
        body[index] = 0xAA  # clobber the "receive buffer"
    assert np.array_equal(decoded.keys, before)


# ----------------------------------------------------------------------
# Strict rejection: truncation, extension, garbage, unknown verbs
# ----------------------------------------------------------------------

@given(requests, st.data())
def test_any_strict_prefix_is_rejected(request, data):
    body = _body(encode_request(request))
    cut = data.draw(st.integers(min_value=0, max_value=len(body) - 1))
    with pytest.raises(ProtocolError) as caught:
        decode_request(body[:cut])
    assert not caught.value.fatal  # well-framed: connection survives


@given(requests, st.binary(min_size=1, max_size=16))
def test_any_suffix_extension_is_rejected(request, garbage):
    with pytest.raises(ProtocolError) as caught:
        decode_request(_body(encode_request(request)) + garbage)
    assert not caught.value.fatal


@given(
    st.integers(min_value=0, max_value=255).filter(
        lambda verb: verb
        not in (
            protocol.RECORD,
            protocol.ESTIMATE,
            protocol.STATS,
            protocol.CHECKPOINT,
            protocol.EXPORT,
            protocol.MERGE_IN,
        )
    ),
    st.binary(max_size=32),
)
def test_unknown_request_verb_is_rejected(verb, payload):
    with pytest.raises(ProtocolError) as caught:
        decode_request(bytes([verb]) + payload)
    assert caught.value.code == protocol.E_UNKNOWN_VERB
    assert not caught.value.fatal


@given(
    st.sampled_from(
        [
            protocol.RECORD,
            protocol.ESTIMATE,
            protocol.STATS,
            protocol.CHECKPOINT,
        ]
    ),
    st.binary(max_size=64),
)
def test_garbage_payload_never_crashes(verb, payload):
    """Random bytes behind a valid verb either decode or raise cleanly."""
    body = bytes([verb]) + payload
    try:
        request = decode_request(body)
    except ProtocolError as error:
        assert not error.fatal
    else:
        # The rare garbage that parses must re-encode to the same body
        # (the codec has exactly one byte image per message).
        assert _body(encode_request(request)) == body


@given(st.binary(max_size=64))
def test_arbitrary_response_bodies_never_crash(body):
    try:
        decode_response(body)
    except ProtocolError as error:
        assert not error.fatal


# ----------------------------------------------------------------------
# Frame splitting
# ----------------------------------------------------------------------

@given(st.lists(st.one_of(requests, straddling_records), max_size=6), st.data())
def test_decoder_is_chop_invariant(batch, data):
    """Any chopping of the byte stream yields the same frame bodies,
    whether it is fed chunk by chunk or received in place."""
    frames = [encode_request(request) for request in batch]
    stream = b"".join(frames)
    expected = [_body(frame) for frame in frames]
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(stream)), max_size=8
            )
        )
    )
    decoder = FrameDecoder()
    bodies = []
    previous = 0
    for cut in cuts + [len(stream)]:
        bodies.extend(decoder.feed(stream[previous:cut]))
        previous = cut
    assert bodies == expected
    decoder.check_eof()  # whole frames only: no buffered remainder

    # In place, the first 12 bytes of every frame arrive one at a time,
    # so receives end inside each length prefix, inside each RECORD's
    # tenant header, and on both sides of the 3 body bytes that a
    # buffer of its own waits for.
    starts = itertools.accumulate((len(frame) for frame in frames), initial=0)
    heads = {min(start + k, len(stream)) for start in starts for k in range(1, 13)}
    most = data.draw(st.integers(min_value=1, max_value=2 * protocol.SCRATCH_BYTES))
    decoder = FrameDecoder()
    bodies = _receive(decoder, stream, sorted(heads.union(cuts)), most)
    assert bodies == expected
    decoder.check_eof()
    for body in bodies:  # a RECORD's own buffer is placed for a key view
        if isinstance(body, memoryview) and body[0] == protocol.RECORD:
            keys = decode_request(body).keys
            assert np.shares_memory(keys, np.frombuffer(body, dtype=np.uint8))


def test_zero_length_frame_is_fatal():
    decoder = FrameDecoder()
    with pytest.raises(ProtocolError) as caught:
        list(decoder.feed(struct.pack("<I", 0)))
    assert caught.value.fatal
    assert caught.value.code == protocol.E_BAD_FRAME


@given(st.integers(min_value=1, max_value=2**32 - 1))
def test_oversized_length_is_fatal(length):
    decoder = FrameDecoder(max_frame=1024)
    prefix = struct.pack("<I", length)
    if length <= 1024:
        assert list(decoder.feed(prefix)) == []  # waits for the body
    else:
        with pytest.raises(ProtocolError) as caught:
            list(decoder.feed(prefix))
        assert caught.value.fatal
        assert caught.value.code == protocol.E_BAD_FRAME


def test_eof_mid_frame_is_fatal():
    decoder = FrameDecoder()
    frame = encode_request(Stats())
    list(decoder.feed(frame[:3]))
    with pytest.raises(ProtocolError) as caught:
        decoder.check_eof()
    assert caught.value.fatal


def test_eof_inside_a_buffer_of_its_own_is_fatal():
    """``buffered`` and ``check_eof`` count a large frame's own buffer
    while it is still being received."""
    frame = encode_request(
        Record("t", np.arange(protocol.SCRATCH_BYTES // 8, dtype=np.uint64))
    )
    decoder = FrameDecoder()
    assert _receive(decoder, frame[:-1]) == []
    assert decoder.buffered == len(frame) - 1
    with pytest.raises(ProtocolError) as caught:
        decoder.check_eof()
    assert caught.value.fatal
    assert _receive(decoder, frame[-1:]) == [frame[4:]]
    assert decoder.buffered == 0
    decoder.check_eof()


@pytest.mark.parametrize("tenant_length", range(1, 17))
def test_large_record_keys_are_an_aligned_view_of_their_frame(tenant_length):
    """A RECORD too large for scratch is received into a buffer of its
    own, placed so that its keys start 8-byte aligned: they decode to a
    read-only view of that buffer, not a copy."""
    sent = np.arange(protocol.SCRATCH_BYTES // 8, dtype=np.uint64) << np.uint64(40)
    decoder = FrameDecoder()
    (body,) = _receive(decoder, encode_request(Record("t" * tenant_length, sent)))
    assert isinstance(body, memoryview) and body.readonly
    keys = decode_request(body).keys
    assert keys.ctypes.data % 8 == 0
    assert np.shares_memory(keys, np.frombuffer(body, dtype=np.uint8))
    assert not keys.flags.writeable
    assert np.array_equal(keys, sent)


def _vm_rss() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line in /proc/self/status")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_a_claimed_frame_length_commits_only_what_arrives():
    """A length prefix may claim up to ``max_frame`` bytes before any of
    them arrive; the decoder commits memory only for the bytes that do."""
    received = 64 * 1024
    head = struct.pack("<IBH", protocol.DEFAULT_MAX_FRAME, protocol.RECORD, 1)
    stream = head + b"t" + struct.pack("<I", protocol.DEFAULT_MAX_FRAME // 8)
    stream += b"\xab" * (received - (len(stream) - 4))
    decoders = [FrameDecoder() for _ in range(8)]
    before = _vm_rss()
    for decoder in decoders:
        assert list(decoder.feed(stream)) == []
        assert decoder.buffered == len(stream)
    grown = _vm_rss() - before
    claimed = len(decoders) * protocol.DEFAULT_MAX_FRAME
    assert grown < claimed // 4, f"RSS grew {grown} bytes for {claimed} claimed"


@given(requests)
def test_bad_body_does_not_desync_the_stream(request):
    """A garbage body inside valid framing leaves the next frame intact."""
    good = encode_request(request)
    bad = protocol.encode_frame(b"\xee garbage that decodes to nothing")
    decoder = FrameDecoder()
    bodies = list(decoder.feed(bad + good))
    assert len(bodies) == 2
    with pytest.raises(ProtocolError):
        decode_request(bodies[0])
    decoded = decode_request(bodies[1])  # desync-free: still parses
    assert type(decoded) is type(request)


@given(st.lists(responses, min_size=1, max_size=5))
def test_response_stream_round_trip(batch):
    """Responses survive concatenated framing too (pipelined replies)."""
    stream = b"".join(encode_response(response) for response in batch)
    decoder = FrameDecoder()
    decoded = [decode_response(body) for body in decoder.feed(stream)]
    assert len(decoded) == len(batch)
    for got, sent in zip(decoded, batch):
        assert type(got) is type(sent)
