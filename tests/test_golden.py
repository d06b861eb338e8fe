"""Golden byte fixtures: every format and sizing rule stays byte-identical.

``tests/golden/golden.json`` was written by ``tests/golden_cases.py``:
the sketch images with the code as it stood before sketch state was
declared once per class, the envelope keys when a checkpoint became a
wire frame. Each fixture must decode, re-encode to the same bytes, and
come out of its recipe byte-for-byte again.
"""

import json

import pytest

import golden_cases as cases
from repro.bench import make_estimator
from repro.engine import checkpoint
from repro.estimators.registry import sketch_registry
from repro.serve.tenants import TenantRegistry
from repro.wire import decode_sketch, encode_sketch

with open(cases.GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)


def _golden(kind, key=None):
    entry = GOLDEN[kind] if key is None else GOLDEN[kind][key]
    return bytes.fromhex(entry)


@pytest.mark.parametrize("key", sorted(GOLDEN["to_bytes"]))
def test_to_bytes(key):
    class_name, state = key.split("/")
    data = _golden("to_bytes", key)
    cls = sketch_registry()[class_name]
    assert cls.from_bytes(data).to_bytes() == data
    sketch = cases.EMPTY[class_name]() if state == "empty" else cases.filled(class_name)
    assert sketch.to_bytes() == data


@pytest.mark.parametrize("class_name", sorted(GOLDEN["wire"]))
def test_wire_frames(class_name):
    frame = _golden("wire", class_name)
    assert encode_sketch(decode_sketch(frame)) == frame
    sketch = cases.pool() if class_name == "ShardPool" else cases.filled(class_name)
    assert encode_sketch(sketch) == frame


def test_shard_pool():
    from repro import ShardPool

    data = _golden("pool")
    assert ShardPool.from_bytes(data).to_bytes() == data
    assert cases.pool().to_bytes() == data


def test_tenant_registry():
    data = _golden("tenants")
    assert TenantRegistry.from_bytes(data).to_bytes() == data
    assert cases.tenants().to_bytes() == data


def test_checkpoint_file(tmp_path):
    data = _golden("checkpoint")
    path = tmp_path / "golden.rpck"
    path.write_bytes(data)
    registry, meta = checkpoint.read(path)
    assert meta == cases.CHECKPOINT_META
    assert cases.checkpoint_bytes(registry, meta) == data
    rebuilt = cases.checkpoint_bytes(cases.tenants(), cases.CHECKPOINT_META)
    assert rebuilt == data


@pytest.mark.parametrize("key", sorted(GOLDEN["factory"]))
def test_factory_sizing(key):
    name, bits, design = key.split("/")
    data = _golden("factory", key)
    sketch = make_estimator(name, int(bits), int(design), seed=5)
    assert sketch.to_bytes() == data
    assert type(sketch).from_bytes(data).to_bytes() == data


@pytest.mark.parametrize("class_name", sorted(GOLDEN["merge_keys"]))
def test_merge_error_keys(class_name):
    """``IncompatibleSketchError.expected`` names the same parameters."""
    assert cases.merge_keys(class_name) == GOLDEN["merge_keys"][class_name]
