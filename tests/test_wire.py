"""Compact wire frames: round-trips, codecs, compression, corruption."""

import numpy as np
import pytest

from repro.estimators.registry import sketch_registry
from repro.estimators.state import REGISTERS
from repro.streams import distinct_items
from repro.wire import (
    CODEC_HUFFMAN,
    CODEC_RAW,
    CODEC_ZRLE,
    MAX_RAW_BYTES,
    decode_sketch,
    encode_sketch,
    frame_info,
)
from repro.wire import huffman, rle
from repro.wire.frame import envelope

#: (name, loaded factory) covering every wire-registry class; memory
#: budgets are realistic (paper-scale-ish) so the compression assertions
#: below measure meaningful fills, not empty sketches.
FRAMEABLE = []


def _zoo():
    from repro import ShardPool
    from repro.estimators import RefinedHyperLogLog

    registry = sketch_registry("wire")
    for name, cls in sorted(registry.items()):
        if cls is ShardPool:
            def build(cls=cls):
                pool = ShardPool.of("HLL", 50_000, 4, seed=3)
                pool.record_many(distinct_items(20_000, seed=5))
                return pool
        elif cls is RefinedHyperLogLog:
            def build(cls=cls):
                sketch = cls(50_000, seed=3)
                sketch.learn(distinct_items(5_000, seed=9), 5_000)
                sketch.record_many(distinct_items(20_000, seed=5))
                return sketch
        elif name == "MultiResolutionBitmap":
            def build(cls=cls):
                sketch = cls(2048, 12, seed=3)
                sketch.record_many(distinct_items(20_000, seed=5))
                return sketch
        elif name == "SelfMorphingBitmap":
            def build(cls=cls):
                sketch = cls(50_000, threshold=4096, seed=3)
                sketch.record_many(distinct_items(20_000, seed=5))
                return sketch
        elif name == "KMinValues":
            def build(cls=cls):
                sketch = cls(512, seed=3)
                sketch.record_many(distinct_items(20_000, seed=5))
                return sketch
        else:
            def build(cls=cls):
                sketch = cls(50_000, seed=3)
                sketch.record_many(distinct_items(20_000, seed=5))
                return sketch
        FRAMEABLE.append((name, build))


_zoo()
IDS = [name for name, __ in FRAMEABLE]


@pytest.fixture(params=FRAMEABLE, ids=IDS)
def frameable(request):
    return request.param


class TestCodecs:
    """Unit tests of the two entropy coders on raw byte strings."""

    CASES = [
        b"",
        b"\x00" * 4096,
        b"\x00\x00\x07\x00\x00\x00\x00\x01" * 256,
        bytes(np.random.default_rng(0).integers(0, 256, 2048, dtype=np.uint8)),
        bytes(np.random.default_rng(1).integers(0, 4, 4096, dtype=np.uint8)),
        b"a",
        b"ab" * 1000,
    ]

    @pytest.mark.parametrize("codec", [huffman, rle], ids=["huffman", "zrle"])
    @pytest.mark.parametrize("data", CASES, ids=range(len(CASES)))
    def test_roundtrip(self, codec, data):
        encoded = codec.encode(data)
        if encoded is None:
            return  # the codec declined; the frame layer falls back to raw
        assert codec.decode(encoded, len(data)) == data

    @pytest.mark.parametrize("codec", [huffman, rle], ids=["huffman", "zrle"])
    def test_strict_decode(self, codec):
        data = b"\x00\x00\x05\x00\x01\x02\x03" * 64
        encoded = codec.encode(data)
        assert encoded is not None
        with pytest.raises(ValueError):
            codec.decode(encoded + b"\x00", len(data))
        with pytest.raises(ValueError):
            codec.decode(encoded[:-1], len(data))
        with pytest.raises(ValueError):
            codec.decode(b"", len(data))

    def test_zrle_wins_on_sparse(self):
        data = bytearray(8192)
        data[17] = 3
        data[6001] = 255
        encoded = rle.encode(bytes(data))
        assert encoded is not None and len(encoded) < 64

    def test_huffman_wins_on_low_entropy(self):
        data = bytes(
            np.random.default_rng(2).choice(
                [0, 1, 2, 3], p=[0.7, 0.2, 0.05, 0.05], size=8192
            ).astype(np.uint8)
        )
        encoded = huffman.encode(data)
        assert encoded is not None and len(encoded) < len(data) // 2


class TestFrames:
    def test_roundtrip_bit_exact(self, frameable):
        __, build = frameable
        sketch = build()
        frame = encode_sketch(sketch)
        restored = decode_sketch(frame)
        assert type(restored) is type(sketch)
        assert restored.to_bytes() == sketch.to_bytes()

    def test_roundtrip_empty_sketches(self):
        """The all-zero state (zrle's best case) round-trips too."""
        from repro import HyperLogLog, SelfMorphingBitmap, ShardPool

        for empty in (
            HyperLogLog(50_000, seed=3),
            SelfMorphingBitmap(50_000, threshold=4096, seed=3),
            ShardPool.of("HLL", 50_000, 4, seed=3),
        ):
            frame = encode_sketch(empty)
            assert decode_sketch(frame).to_bytes() == empty.to_bytes()

    def test_register_families_compress(self, frameable):
        """The headline claim: entropy coding beats raw to_bytes on the
        >= 4-bit register families at realistic fills."""
        name, build = frameable
        state = sketch_registry("wire")[name].state
        if state is None or state.family != REGISTERS:
            pytest.skip("compression bar applies to register families")
        frame = encode_sketch(build())
        info = frame_info(frame)
        assert info.codec == "huffman"
        assert info.ratio > 1.2, (
            f"{name}: frame {info.frame_bytes}B vs raw {info.raw_bytes}B"
        )

    def test_frame_never_much_larger_than_raw(self, frameable):
        """Raw fallback: incompressible payloads cost only the header."""
        __, build = frameable
        sketch = build()
        raw = len(sketch.to_bytes())
        frame = len(encode_sketch(sketch))
        assert frame <= raw + 64

    def test_forced_codec_still_roundtrips(self, frameable):
        __, build = frameable
        sketch = build()
        for codec in (CODEC_RAW, CODEC_HUFFMAN, CODEC_ZRLE):
            frame = encode_sketch(sketch, codec=codec)
            assert decode_sketch(frame).to_bytes() == sketch.to_bytes()

    def test_frame_info_matches(self, frameable):
        __, build = frameable
        sketch = build()
        frame = encode_sketch(sketch)
        info = frame_info(frame)
        assert info.class_name == type(sketch).__name__
        assert info.frame_bytes == len(frame)
        assert info.raw_bytes == len(sketch.to_bytes())


class TestFrameCorruption:
    @pytest.fixture()
    def frame(self):
        from repro import HyperLogLog

        sketch = HyperLogLog(50_000, seed=3)
        sketch.record_many(distinct_items(20_000, seed=5))
        return encode_sketch(sketch)

    def test_truncation_rejected(self, frame):
        for cut in (0, 1, 4, len(frame) // 2, len(frame) - 1):
            with pytest.raises(ValueError):
                decode_sketch(frame[:cut])

    def test_trailing_garbage_rejected(self, frame):
        with pytest.raises(ValueError):
            decode_sketch(frame + b"\x00")

    def test_bad_magic_rejected(self, frame):
        with pytest.raises(ValueError, match="magic"):
            decode_sketch(b"XXXX" + frame[4:])

    def test_bad_version_rejected(self, frame):
        mutated = bytearray(frame)
        mutated[4] = 99
        with pytest.raises(ValueError, match="version"):
            decode_sketch(bytes(mutated))

    def test_bad_codec_rejected(self, frame):
        mutated = bytearray(frame)
        mutated[5] = 99
        with pytest.raises(ValueError, match="codec"):
            decode_sketch(bytes(mutated))

    def test_bit_flip_caught_by_crc(self, frame):
        # Flip one payload bit; the CRC must catch it even when the
        # entropy-coded blob would still decode to *something*.
        mutated = bytearray(frame)
        mutated[len(mutated) // 2] ^= 0x10
        with pytest.raises(ValueError):
            decode_sketch(bytes(mutated))

    def test_unknown_class_rejected(self, frame):
        head, crc = envelope("NoSuchSketch", CODEC_RAW, 4, bytes(4))
        with pytest.raises(ValueError, match="unknown class"):
            decode_sketch(head + bytes(4) + crc)

    def test_raw_length_mismatch_rejected(self, frame):
        # The raw length promises more than the blob holds.
        head, crc = envelope("HyperLogLog", CODEC_RAW, 999, bytes(4))
        with pytest.raises(ValueError, match="decoded"):
            decode_sketch(head + bytes(4) + crc)

    def test_tenant_registry_envelope_refused(self, tmp_path):
        from repro.engine import checkpoint
        from repro.serve.tenants import TenantConfig, TenantRegistry

        registry = TenantRegistry(TenantConfig(memory_bits=2_000))
        registry.record_many("t", distinct_items(500, seed=8))
        path = tmp_path / "registry.rpck"
        checkpoint.save(registry, path, sync_directory=False)
        # The file path restores it; the wire scope has no such class.
        assert checkpoint.load(path).to_bytes() == registry.to_bytes()
        with pytest.raises(ValueError, match="unknown class 'TenantRegistry'"):
            decode_sketch(path.read_bytes())

    def test_non_registry_class_rejected(self):
        class NotASketch:
            pass

        with pytest.raises(TypeError):
            encode_sketch(NotASketch())  # type: ignore[arg-type]


def _frame(codec, blob, raw_len, name="HyperLogLog"):
    """A frame around ``blob`` with a valid CRC: only its sizes can lie."""
    head, crc = envelope(name, codec, raw_len, blob)
    return head + blob + crc


def _decode_peak(frame):
    """(exception, tracemalloc peak) of decoding ``frame``."""
    import tracemalloc

    tracemalloc.start()
    try:
        try:
            decode_sketch(frame)
        except ValueError as error:
            return error, tracemalloc.get_traced_memory()[1]
        return None, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


GIB = 1 << 30
ZERO_RUN = GIB.to_bytes(4, "little") + bytes((0x80, 0x80, 0x80, 0x80, 0x04, 0))
CUT_RUN = GIB.to_bytes(4, "little") + bytes((0x80, 0x80))
ONE_BIT = GIB.to_bytes(4, "little") + bytes((1, 0, 0, 1, 0))
MAX_BLOB = MAX_RAW_BYTES.to_bytes(4, "little")
#: One one-bit symbol followed by 64 KiB of padding: unpacking the whole
#: payload into a bit list would take about 72 bytes per payload byte.
PADDED = (1).to_bytes(4, "little") + ONE_BIT[4:] + bytes(1 << 16)


class TestFrameSizeBound:
    """A frame cannot make the decoder allocate more than it may carry."""

    @pytest.mark.parametrize(
        "frame, size",
        [
            (_frame(CODEC_ZRLE, ZERO_RUN, GIB), 55),
            (_frame(CODEC_ZRLE, CUT_RUN, GIB), 51),
            (_frame(CODEC_HUFFMAN, ONE_BIT, GIB), 54),
            # The frame's raw length is in bounds; the codec header lies.
            (_frame(CODEC_ZRLE, ZERO_RUN, 4), 55),
            (_frame(CODEC_ZRLE, CUT_RUN, 4), 51),
            (_frame(CODEC_HUFFMAN, ONE_BIT, 4), 54),
            # Both agree and fit, but one payload byte holds 8 symbols.
            (_frame(CODEC_HUFFMAN, MAX_BLOB + ONE_BIT[4:], MAX_RAW_BYTES), 54),
            # A one-byte sketch whose payload runs on far past its code.
            (_frame(CODEC_HUFFMAN, PADDED, 1), 54 + (1 << 16)),
        ],
        ids=[
            "zrle-run", "zrle-cut", "huffman", "zrle-run-lies",
            "zrle-cut-lies", "huffman-lies", "huffman-short",
            "huffman-padded",
        ],
    )
    def test_hostile_frames_rejected_cheaply(self, frame, size):
        assert len(frame) == size
        error, peak = _decode_peak(frame)
        assert isinstance(error, ValueError)
        assert peak < 1 << 20

    def test_limit_is_the_serve_protocol_max_frame(self):
        from repro.serve import protocol

        assert MAX_RAW_BYTES == protocol.DEFAULT_MAX_FRAME

    def test_encoder_refuses_what_the_decoder_would(self, monkeypatch):
        from repro import HyperLogLog
        from repro.wire import frame as frame_module

        sketch = HyperLogLog(5_000, seed=3)
        sketch.record_many(distinct_items(2_000, seed=5))
        encoded = encode_sketch(sketch)
        monkeypatch.setattr(frame_module, "MAX_RAW_BYTES", 999)
        with pytest.raises(ValueError, match="limit"):
            encode_sketch(sketch)
        with pytest.raises(ValueError, match="limit"):
            decode_sketch(encoded)

    def test_codecs_check_the_expected_size(self):
        data = bytes(100) + b"\x07" * 50
        for codec in (huffman, rle):
            encoded = codec.encode(data)
            assert codec.decode(encoded, len(data)) == data
            with pytest.raises(ValueError):
                codec.decode(encoded, len(data) + 1)
