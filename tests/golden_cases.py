"""Recipes behind the golden byte fixtures in ``tests/golden/golden.json``.

Each recipe is deterministic: a fixed configuration fed a fixed seeded
stream. ``tests/test_golden.py`` decodes every committed fixture,
re-encodes it and requires identical bytes, and it rebuilds every
recipe and requires the same bytes again, so any change to a byte
format or a sizing rule fails loudly.

The committed file was written by the code as it stood before sketch
state was declared in one table per class. Rewrite it only for a
deliberate format change::

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from repro import (
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
from repro.bench import ALL_ESTIMATORS, make_estimator
from repro.engine import checkpoint
from repro.estimators import HyperLogLogTailCutPlus, RefinedHyperLogLog
from repro.estimators.base import IncompatibleSketchError
from repro.serve.tenants import TenantConfig, TenantRegistry
from repro.streams import distinct_items
from repro.wire import encode_sketch

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden.json")

#: The two (memory_bits, expected_cardinality) sizes every factory name
#: is pinned at.
FACTORY_SIZES = ((1_000, 10_000), (5_000, 1_000_000))


def _refined(seed: int = 3) -> RefinedHyperLogLog:
    refined = RefinedHyperLogLog(500, seed=seed)
    refined.learn(distinct_items(2_000, seed=99), 2_000)
    return refined


#: Class name -> factory of an empty sketch of that class.
EMPTY = {
    "Bitmap": lambda: Bitmap(500, seed=3),
    "MultiResolutionBitmap": lambda: MultiResolutionBitmap(100, 8, seed=3),
    "FMSketch": lambda: FMSketch(640, seed=3),
    "LogLog": lambda: LogLog(500, seed=3),
    "SuperLogLog": lambda: SuperLogLog(500, seed=3),
    "HyperLogLog": lambda: HyperLogLog(500, seed=3),
    "HyperLogLogPlusPlus": lambda: HyperLogLogPlusPlus(500, seed=3),
    "HyperLogLogTailCut": lambda: HyperLogLogTailCut(400, seed=3),
    "HyperLogLogTailCutPlus": lambda: HyperLogLogTailCutPlus(300, seed=3),
    "RefinedHyperLogLog": _refined,
    "KMinValues": lambda: KMinValues(16, seed=3),
    "SelfMorphingBitmap": lambda: SelfMorphingBitmap(500, threshold=50, seed=3),
}


def filled(class_name: str):
    """The class's sketch after a fixed seeded stream with repeats."""
    sketch = EMPTY[class_name]()
    items = distinct_items(3_000, seed=11)
    sketch.record_many(items)
    sketch.record_many(items[::7])
    return sketch


def pool() -> ShardPool:
    """A K = 4 SMB pool after a fixed stream."""
    shards = ShardPool.of("SMB", 8_000, 4, design_cardinality=200_000, seed=7)
    shards.record_many(distinct_items(20_000, seed=12))
    return shards


def tenants() -> TenantRegistry:
    """A three-tenant registry, each tenant fed its own stream."""
    config = TenantConfig(
        estimator="SMB", memory_bits=2_000, shards=2,
        design_cardinality=100_000, seed=3,
    )
    registry = TenantRegistry(config)
    for index, name in enumerate(("alpha", "beta", "gamma")):
        registry.record_many(name, distinct_items(1_000 * (index + 1), seed=20 + index))
    return registry


#: The metadata the golden checkpoint file carries.
CHECKPOINT_META = {"final": True, "records_submitted": 6_000, "tenants": 3}


def checkpoint_bytes(sketch, meta) -> bytes:
    """The bytes :func:`repro.engine.checkpoint.save` writes for ``sketch``."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "golden.rpck")
        checkpoint.save(sketch, path, meta, sync_directory=False)
        with open(path, "rb") as handle:
            return handle.read()


def merge_keys(class_name: str) -> list[str] | None:
    """Keys of ``IncompatibleSketchError.expected`` for the class."""
    mine = EMPTY[class_name]()
    other = filled(class_name)
    other.seed = mine.seed + 1  # every mergeable class checks its seed
    try:
        mine.merge(other)
    except IncompatibleSketchError as error:
        return sorted(error.expected)
    except NotImplementedError:
        return None
    raise AssertionError(f"{class_name} merged despite a seed mismatch")


def build() -> dict:
    """Every fixture, hex-encoded, keyed by kind."""
    cases: dict = {"to_bytes": {}, "wire": {}, "factory": {}, "merge_keys": {}}
    for name in EMPTY:
        cases["to_bytes"][f"{name}/empty"] = EMPTY[name]().to_bytes().hex()
        cases["to_bytes"][f"{name}/filled"] = filled(name).to_bytes().hex()
        cases["wire"][name] = encode_sketch(filled(name)).hex()
        cases["merge_keys"][name] = merge_keys(name)
    cases["wire"]["ShardPool"] = encode_sketch(pool()).hex()
    cases["pool"] = pool().to_bytes().hex()
    cases["tenants"] = tenants().to_bytes().hex()
    cases["checkpoint"] = checkpoint_bytes(tenants(), CHECKPOINT_META).hex()
    for name in ALL_ESTIMATORS:
        for bits, design in FACTORY_SIZES:
            sketch = make_estimator(name, bits, design, seed=5)
            cases["factory"][f"{name}/{bits}/{design}"] = sketch.to_bytes().hex()
    return cases


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(build(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
