"""repro — Self-Morphing Bitmap cardinality estimation.

A production-quality reproduction of *Online Cardinality Estimation by
Self-morphing Bitmaps* (Wang, Ma, Chen, Wang — ICDE 2022): the SMB
estimator, every baseline the paper compares against, the theoretical
error bounds, and the full experiment harness.

Quickstart::

    from repro import SelfMorphingBitmap

    smb = SelfMorphingBitmap(memory_bits=5000)
    for item in ("alice", "bob", "alice"):
        smb.record(item)
    print(smb.query())   # ~2.0
"""

import importlib
from typing import Any

#: Public name -> the module that defines it. Names resolve on first
#: use (PEP 562), so ``import repro`` loads no submodule and no numpy.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.bitvector": ("BitVector",),
        "repro.core.smb": ("SelfMorphingBitmap",),
        "repro.core.theory": (
            "hll_error_bound", "mrb_error_bound", "smb_error_bound",
        ),
        "repro.core.tuning": ("mrb_parameters", "optimal_threshold"),
        "repro.engine": ("IngestPipeline", "Partitioner", "ShardPool"),
        "repro.estimators": (
            "AdaptiveBitmap", "Bitmap", "CardinalityEstimator",
            "ExactCounter", "FMSketch", "HyperLogLog", "HyperLogLogPlusPlus",
            "HyperLogLogTailCut", "KMinValues", "LogLog",
            "MultiResolutionBitmap", "SuperLogLog",
        ),
        "repro.kernels": ("HashPlane",),
        "repro.sketches": ("PerFlowSketch",),
        "repro.streams": (
            "SyntheticTrace", "TraceConfig", "distinct_items",
            "random_strings", "stream_with_duplicates",
        ),
    }.items()
    for name in names
}

__version__ = "1.0.0"

__all__ = [
    "AdaptiveBitmap",
    "BitVector",
    "Bitmap",
    "CardinalityEstimator",
    "ExactCounter",
    "FMSketch",
    "HashPlane",
    "HyperLogLog",
    "HyperLogLogPlusPlus",
    "HyperLogLogTailCut",
    "IngestPipeline",
    "KMinValues",
    "LogLog",
    "MultiResolutionBitmap",
    "Partitioner",
    "PerFlowSketch",
    "ShardPool",
    "SelfMorphingBitmap",
    "SuperLogLog",
    "SyntheticTrace",
    "TraceConfig",
    "distinct_items",
    "hll_error_bound",
    "mrb_error_bound",
    "mrb_parameters",
    "optimal_threshold",
    "random_strings",
    "smb_error_bound",
    "stream_with_duplicates",
    "__version__",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
