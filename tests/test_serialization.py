"""Cross-estimator serialization tests: roundtrips, corruption, fuzz.

Serialization is derived from one state declaration per class
(:mod:`repro.estimators.state`). Two runtime properties stand in for
what static rules once checked:

- completeness: a round-trip reproduces every instance attribute;
- bounded strict decoding: every decoder, fed a cut, padded or
  field-mutated valid encoding, returns a valid object or raises
  ``ValueError``, and allocates no more than a small multiple of its
  input.
"""

import math
import struct
import tempfile
import tracemalloc
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BitVector,
    Bitmap,
    FMSketch,
    HyperLogLog,
    HyperLogLogPlusPlus,
    HyperLogLogTailCut,
    KMinValues,
    LogLog,
    MultiResolutionBitmap,
    SelfMorphingBitmap,
    ShardPool,
    SuperLogLog,
)
from repro.engine import checkpoint
from repro.estimators import HyperLogLogTailCutPlus, RefinedHyperLogLog
from repro.estimators.registry import sketch_registry
from repro.estimators.state import BITMAP, REGISTERS
from repro.serve.tenants import TenantConfig, TenantRegistry
from repro.streams import distinct_items
from repro.wire import MAX_RAW_BYTES, decode_sketch, encode_sketch
from repro.wire.frame import CODEC_RAW


def _calibrated_refined():
    """A RefinedHyperLogLog that can answer query() (learn() is
    required before querying; the coefficient rides the round-trip)."""
    refined = RefinedHyperLogLog(500, seed=3)
    refined.learn(distinct_items(2000, seed=99), 2000)
    return refined

SERIALIZABLE = [
    ("bitmap", lambda: Bitmap(500, seed=3), Bitmap),
    ("mrb", lambda: MultiResolutionBitmap(100, 8, seed=3), MultiResolutionBitmap),
    ("fm", lambda: FMSketch(640, seed=3), FMSketch),
    ("loglog", lambda: LogLog(500, seed=3), LogLog),
    ("superloglog", lambda: SuperLogLog(500, seed=3), SuperLogLog),
    ("hll", lambda: HyperLogLog(500, seed=3), HyperLogLog),
    ("hllpp", lambda: HyperLogLogPlusPlus(500, seed=3), HyperLogLogPlusPlus),
    ("tailcut", lambda: HyperLogLogTailCut(400, seed=3), HyperLogLogTailCut),
    ("tailcutplus", lambda: HyperLogLogTailCutPlus(300, seed=3), HyperLogLogTailCutPlus),
    ("refined", _calibrated_refined, RefinedHyperLogLog),
    ("kmv", lambda: KMinValues(16, seed=3), KMinValues),
    ("smb", lambda: SelfMorphingBitmap(500, threshold=50, seed=3), SelfMorphingBitmap),
]

IDS = [name for name, *__ in SERIALIZABLE]


@pytest.fixture(params=SERIALIZABLE, ids=IDS)
def serializable(request):
    return request.param


class TestRoundtrips:
    def test_roundtrip_preserves_estimate(self, serializable):
        __, factory, cls = serializable
        estimator = factory()
        estimator.record_many(distinct_items(800, seed=4))
        restored = cls.from_bytes(estimator.to_bytes())
        assert restored.query() == estimator.query()

    def test_roundtrip_empty(self, serializable):
        __, factory, cls = serializable
        estimator = factory()
        restored = cls.from_bytes(estimator.to_bytes())
        assert restored.query() == estimator.query()

    def test_restored_continues_identically(self, serializable):
        __, factory, cls = serializable
        original = factory()
        original.record_many(distinct_items(300, seed=5))
        restored = cls.from_bytes(original.to_bytes())
        extra = distinct_items(300, seed=6)
        original.record_many(extra)
        restored.record_many(extra)
        assert restored.query() == original.query()

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(0, 500), seed=st.integers(0, 100))
    def test_roundtrip_property_smb(self, n, seed):
        smb = SelfMorphingBitmap(300, threshold=30, seed=1)
        smb.record_many(distinct_items(n, seed=seed))
        restored = SelfMorphingBitmap.from_bytes(smb.to_bytes())
        assert (restored.r, restored.v) == (smb.r, smb.v)
        assert restored.query() == smb.query()


class TestCorruption:
    def test_wrong_magic_rejected(self, serializable):
        __, factory, cls = serializable
        estimator = factory()
        data = bytearray(estimator.to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(ValueError):
            cls.from_bytes(bytes(data))

    def test_cross_type_rejected(self):
        hll = HyperLogLog(500, seed=1)
        hll.record("x")
        for __, factory, cls in SERIALIZABLE:
            if cls is HyperLogLog:
                continue
            with pytest.raises(ValueError):
                cls.from_bytes(hll.to_bytes())

    def test_every_truncation_rejected(self, serializable):
        """Decoding is strict: *any* proper prefix is a ValueError.

        Before the framing hardening some decoders (notably MRB's)
        silently accepted short payloads as short component slices.
        """
        __, factory, cls = serializable
        estimator = factory()
        estimator.record_many(distinct_items(200, seed=7))
        data = estimator.to_bytes()
        cuts = set(range(0, len(data), max(1, len(data) // 64)))
        cuts.update((0, 1, len(data) // 2, len(data) - 1))
        for cut in sorted(cuts):
            with pytest.raises(ValueError):
                cls.from_bytes(data[:cut])

    def test_trailing_garbage_rejected(self, serializable):
        """Decoders must consume the payload exactly, never slice-and-
        ignore — appended bytes mean corruption or a framing bug."""
        __, factory, cls = serializable
        estimator = factory()
        estimator.record_many(distinct_items(200, seed=7))
        data = estimator.to_bytes()
        for garbage in (b"\x00", b"x", b"\xff" * 16):
            with pytest.raises(ValueError):
                cls.from_bytes(data + garbage)

    def test_empty_rejected(self, serializable):
        __, __factory, cls = serializable
        with pytest.raises(ValueError):
            cls.from_bytes(b"")


class TestUnsupported:
    def test_exact_counter_not_serializable(self):
        from repro import ExactCounter

        with pytest.raises(NotImplementedError):
            ExactCounter().to_bytes()


# ----------------------------------------------------------------------
# One registry: what each container accepts
# ----------------------------------------------------------------------
SHARD_CLASSES = {
    "Bitmap", "FMSketch", "HyperLogLog", "HyperLogLogPlusPlus",
    "HyperLogLogTailCut", "HyperLogLogTailCutPlus", "KMinValues", "LogLog",
    "MultiResolutionBitmap", "RefinedHyperLogLog", "SelfMorphingBitmap",
    "SuperLogLog",
}


class TestRegistry:
    def test_scopes_pinned(self):
        assert set(sketch_registry("shard")) == SHARD_CLASSES
        assert set(sketch_registry("wire")) == SHARD_CLASSES | {"ShardPool"}
        assert set(sketch_registry("checkpoint")) == SHARD_CLASSES | {
            "ShardPool", "TenantRegistry",
        }

    def test_codec_families_pinned(self):
        families = {
            name: cls.state.family for name, cls in sketch_registry().items()
        }
        assert {n for n, f in families.items() if f == REGISTERS} == {
            "HyperLogLog", "HyperLogLogPlusPlus", "HyperLogLogTailCut",
            "HyperLogLogTailCutPlus", "LogLog", "RefinedHyperLogLog",
            "SuperLogLog",
        }
        assert {n for n, f in families.items() if f == BITMAP} == {
            "Bitmap", "FMSketch", "MultiResolutionBitmap", "SelfMorphingBitmap",
        }

    def test_every_registered_class_is_covered_here(self):
        assert {cls.__name__ for __, __f, cls in SERIALIZABLE} == SHARD_CLASSES


# ----------------------------------------------------------------------
# Completeness: a round-trip reproduces every instance attribute
# ----------------------------------------------------------------------
#: Instrumentation, not state: a restored sketch starts them at zero.
_COUNTERS = {"hash_ops", "bits_accessed"}


def _exercised(factory):
    """The sketch after a stream that drives its state transitions."""
    sketch = factory()
    items = distinct_items(3_000, seed=11)
    sketch.record_many(items)
    sketch.record_many(items[::7])
    return sketch


def _attributes(obj) -> set[str]:
    names = set(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        names.update(getattr(klass, "__slots__", ()))
    return names - _COUNTERS


def _assert_same(a, b, path):
    assert type(a) is type(b), path
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{path}[{index}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_same(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, float) and math.isnan(a):
        assert math.isnan(b), path
    elif _attributes(a):
        assert _attributes(a) == _attributes(b), path
        for name in sorted(_attributes(a)):
            _assert_same(getattr(a, name), getattr(b, name), f"{path}.{name}")
    else:
        assert a == b, path


class TestCompleteness:
    def test_streams_reach_the_interesting_states(self):
        by_name = {cls.__name__: factory for __, factory, cls in SERIALIZABLE}
        assert _exercised(by_name["SelfMorphingBitmap"]).r >= 3
        assert _exercised(by_name["HyperLogLogTailCut"]).base > 0
        assert _exercised(by_name["HyperLogLogTailCutPlus"]).base > 0
        kmv = _exercised(by_name["KMinValues"])
        assert len(kmv.values()) == kmv.k
        mrb = _exercised(by_name["MultiResolutionBitmap"])
        assert mrb.b in mrb.ones_per_component
        assert _exercised(by_name["RefinedHyperLogLog"]).coefficient is not None

    @pytest.mark.parametrize("fill", ["empty", "exercised"])
    def test_roundtrip_restores_every_attribute(self, serializable, fill):
        __, factory, cls = serializable
        sketch = factory() if fill == "empty" else _exercised(factory)
        _assert_same(sketch, cls.from_bytes(sketch.to_bytes()), cls.__name__)


# ----------------------------------------------------------------------
# Bounded strict decoding
# ----------------------------------------------------------------------
def _peak_bytes(decode, data) -> int:
    """Peak traced allocation of ``decode(data)``.

    Anything but a clean result or a ``ValueError`` propagates. One
    untraced call first keeps one-off import and cache costs out.
    """
    try:
        decode(data)
    except ValueError:
        pass
    tracemalloc.start()
    try:
        try:
            decode(data)
        except ValueError:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _memory_limit(size: int) -> int:
    return 32 * size + (1 << 20)


def _fields_of(state, base=0):
    """(offset, struct format) of every header field of a declared state."""
    offset = base + 4
    for item in state.header:
        yield offset, "<" + item.code
        offset += struct.calcsize(item.code)


def _sketch_fields(sketch, base=0):
    """Header fields plus the first nested BitVector's nbits and ones."""
    fields = list(_fields_of(sketch.state, base))
    if any(array.dtype is BitVector for array in sketch.state.arrays):
        body = base + sketch.state.layout.size
        fields += [(body, "<Q"), (body + 8, "<Q")]
    return fields


def _pool_fields(pool, base=0):
    data = pool.to_bytes()
    fields = [(base + 6, "<I")]
    offset = 18
    for index, shard in enumerate(pool.shards):
        name_len, blob_len = struct.unpack_from("<BQ", data, offset)
        fields += [(base + offset, "<B"), (base + offset + 1, "<Q")]
        if index == 0:
            fields += _sketch_fields(shard, base + offset + 9 + name_len)
        offset += 9 + name_len + blob_len
    return fields


@dataclass
class Target:
    """One decoder under test.

    Mutations apply to ``valid``; ``seal`` then re-wraps the result
    (a fresh CRC where the container has one) so the decoder's own size
    checks, not its checksum, must catch them.
    """

    name: str
    valid: bytes
    decode: Callable[[bytes], object]
    fields: list[tuple[int, str]]
    seal: Callable[[bytes], bytes] = lambda data: data
    limit: Callable[[int], int] = _memory_limit


def _small_pool():
    pool = ShardPool.of("HLL", 1_500, 3, seed=3)
    pool.record_many(distinct_items(2_000, seed=12))
    return pool


def _small_registry():
    registry = TenantRegistry(TenantConfig(
        estimator="SMB", memory_bits=256, shards=2,
        design_cardinality=10_000, seed=3,
    ))
    for index, name in enumerate(("a", "bb")):
        registry.record_many(name, distinct_items(300, seed=30 + index))
    return registry


def _registry_fields(registry):
    data = registry.to_bytes()
    (config_len,) = struct.unpack_from("<I", data, 6)
    offset = 10 + config_len
    fields = [(6, "<I"), (offset, "<I")]
    offset += 4
    for index, name in enumerate(registry.tenants()):
        name_end = offset + 2 + len(name.encode("utf-8"))
        fields += [(offset, "<H"), (name_end, "<Q")]
        if index == 0:
            fields += _pool_fields(registry.pools[name], name_end + 8)
        offset = name_end + 8 + struct.unpack_from("<Q", data, name_end)[0]
    return fields


def _checkpoint_bytes(sketch) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "sketch.rpck"
        checkpoint.save(sketch, path, sync_directory=False)
        return path.read_bytes()


def _load_checkpoint(data):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "sketch.rpck"
        path.write_bytes(data)
        return checkpoint.load(path)


def _reseal_checkpoint(data):
    """Recompute the payload CRC over whatever follows the trailer."""
    if len(data) < 7:
        return data
    crc_at = 7 + data[6]
    if len(data) < crc_at + 12:
        return data
    crc = struct.pack("<I", zlib.crc32(data[crc_at + 12:]))
    return data[:crc_at] + crc + data[crc_at + 4:]


def _frame_body(sketch, codec=None):
    return encode_sketch(sketch, codec=codec)[:-4]


def _frame_fields(body):
    (name_len,) = struct.unpack_from("<H", body, 6)
    blob = 16 + name_len
    fields = [(6, "<H"), (8 + name_len, "<I"), (12 + name_len, "<I")]
    codec = body[5]
    if codec == 1:  # Huffman: u32 n, u16 nsyms
        fields += [(blob, "<I"), (blob + 4, "<H")]
    elif codec == 2:  # zero-RLE: u32 n
        fields += [(blob, "<I")]
    return fields


def _seal_frame(body):
    return body + struct.pack("<I", zlib.crc32(body))


def _frame_target(name, sketch, codec=None, inner=False):
    body = _frame_body(sketch, codec)
    fields = _frame_fields(body)
    if inner:  # a raw frame: the sketch's own fields are exposed too
        name_len = struct.unpack_from("<H", body, 6)[0]
        fields += _sketch_fields(sketch, 16 + name_len)
    return Target(
        name, body, decode_sketch, fields, seal=_seal_frame,
        limit=lambda size: 2 * MAX_RAW_BYTES,
    )


def _targets():
    targets = []
    for name, factory, cls in SERIALIZABLE:
        sketch = _exercised(factory)
        targets.append(Target(
            name, sketch.to_bytes(), cls.from_bytes, _sketch_fields(sketch)
        ))
    pool = _small_pool()
    targets.append(Target(
        "pool", pool.to_bytes(), ShardPool.from_bytes, _pool_fields(pool)
    ))
    registry = _small_registry()
    targets.append(Target(
        "tenants", registry.to_bytes(), TenantRegistry.from_bytes,
        _registry_fields(registry),
    ))
    pool_file = _checkpoint_bytes(pool)
    name_len = pool_file[6]
    targets.append(Target(
        "checkpoint", pool_file, _load_checkpoint,
        [(6, "<B"), (7 + name_len + 4, "<Q")]
        + _pool_fields(pool, 7 + name_len + 12),
        seal=_reseal_checkpoint,
    ))
    sparse = Bitmap(20_000, seed=3)
    sparse.record_many(distinct_items(100, seed=13))
    by_name = {cls.__name__: factory for __, factory, cls in SERIALIZABLE}
    targets += [
        _frame_target("frame-huffman", _exercised(by_name["HyperLogLog"])),
        _frame_target("frame-zrle", sparse),
        _frame_target("frame-pool", pool),
        _frame_target(
            "frame-raw", _exercised(by_name["SelfMorphingBitmap"]),
            codec=CODEC_RAW, inner=True,
        ),
    ]
    return targets


TARGETS = _targets()
over_targets = pytest.mark.parametrize(
    "target", TARGETS, ids=[t.name for t in TARGETS]
)


@st.composite
def field_mutation(draw, target):
    """The valid input with one length, count or header field overwritten."""
    offset, fmt = draw(st.sampled_from(target.fields))
    if fmt.endswith("d"):
        value = draw(st.floats(allow_nan=True, allow_infinity=True))
    else:
        top = min(2**63, 2 ** (8 * struct.calcsize(fmt)) - 1)
        value = draw(st.integers(0, top) | st.sampled_from((0, 1, top)))
    data = target.valid
    end = offset + struct.calcsize(fmt)
    return data[:offset] + struct.pack(fmt, value) + data[end:]


class TestBoundedDecoding:
    """Replaces the static unchecked-tail rule with the property itself."""

    @over_targets
    def test_valid_input_decodes(self, target):
        target.decode(target.seal(target.valid))

    @over_targets
    def test_every_truncation(self, target):
        for cut in range(len(target.valid)):
            data = target.seal(target.valid[:cut])
            with pytest.raises(ValueError):
                target.decode(data)
            assert _peak_bytes(target.decode, data) <= target.limit(len(data))

    @over_targets
    @given(data=st.data())
    def test_appended_bytes(self, target, data):
        tail = data.draw(st.binary(min_size=1, max_size=64))
        payload = target.seal(target.valid + tail)
        with pytest.raises(ValueError):
            target.decode(payload)
        assert _peak_bytes(target.decode, payload) <= target.limit(len(payload))

    @over_targets
    @given(data=st.data())
    def test_mutated_fields(self, target, data):
        payload = target.seal(data.draw(field_mutation(target)))
        assert _peak_bytes(target.decode, payload) <= target.limit(len(payload))


class TestHeadCases:
    """Payloads that once sized huge allocations or overflowed a float."""

    def test_hll_claiming_2_to_the_40_registers(self):
        data = b"HLL1" + struct.pack("<QQ", 2**40, 0)
        assert len(data) == 20
        assert _peak_bytes(HyperLogLog.from_bytes, data) < 1 << 20
        with pytest.raises(ValueError):
            HyperLogLog.from_bytes(data)

    def test_mrb_claiming_2_to_the_20_components(self):
        data = b"MRB1" + struct.pack("<QQQd", 64, 2**20, 0, 0.9)
        assert len(data) == 36
        assert _peak_bytes(MultiResolutionBitmap.from_bytes, data) < 1 << 20
        with pytest.raises(ValueError):
            MultiResolutionBitmap.from_bytes(data)

    def test_smb_header_without_its_body(self):
        data = b"SMB1" + struct.pack("<QQQQQ", 10_000, 9, 0, 0, 0)
        assert len(data) == 44
        with pytest.raises(ValueError, match="body"):
            SelfMorphingBitmap.from_bytes(data)

    def test_smb_past_the_float_range(self):
        # A well-formed body, so decoding reaches the constructor.
        data = (
            b"SMB1" + struct.pack("<QQQQQ", 10_000, 9, 0, 0, 0)
            + BitVector(10_000).to_bytes()
        )
        with pytest.raises(ValueError, match="largest supported m // T"):
            SelfMorphingBitmap.from_bytes(data)
