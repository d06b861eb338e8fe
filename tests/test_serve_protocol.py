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
  identical bodies no matter how the byte stream is chopped.
"""

import json
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

@given(st.lists(requests, max_size=6), st.data())
def test_decoder_is_chop_invariant(batch, data):
    """Any chopping of the byte stream yields the same frame bodies."""
    stream = b"".join(encode_request(request) for request in batch)
    expected = [_body(encode_request(request)) for request in batch]
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
