"""Shared vectorized kernels under every estimator's batch path.

:class:`~repro.kernels.plane.HashPlane` is the per-chunk *hash plane*:
the canonical ``u64 → splitmix64 → geometric-level`` arrays computed
once per chunk and shared by every consumer of that chunk (estimators,
shard pools, ingestion pipelines, benchmark harnesses). Register maxima
and bit ORs are applied with NumPy's indexed ``np.maximum.at`` /
``np.bitwise_or.at`` loops, which are exact under duplicate indices.

See ``docs/architecture.md`` ("kernels layer") for the lifecycle and
memory-footprint discussion.
"""

from repro.kernels.plane import (
    HashPlane,
    geometric_request,
    positions_request,
    uniform_request,
)

__all__ = [
    "HashPlane",
    "geometric_request",
    "positions_request",
    "uniform_request",
]
