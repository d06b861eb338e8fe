"""HLL-TailC: HyperLogLog with tail-cut 4-bit registers.

Described in §II-B of the paper (after Xiao, Chen et al.): each 5-bit
HLL++ register ``Y_i`` is replaced by a 4-bit register storing the
offset ``Y'_i = Y_i - B`` from a shared base ``B = min_i Y_i``. Offsets
that would exceed 15 saturate at 15 (the "tail cut"); whenever every
offset is positive, the base advances and all offsets shift down.
Querying recovers ``Y_i = B + Y'_i`` and applies the HLL++ estimate.

The register file is 4/5 the size of HLL++'s, so at equal memory ``m``
the sketch affords ``t = m/4`` registers (vs ``m/5``), trading a tiny
saturation loss for lower per-register variance.

Implementation note: the base may advance in the middle of a recording
batch. The batch path applies each chunk's register maxima before
re-normalizing, which can differ from strictly per-item normalization
*only* when an offset saturates in the same chunk where the base
advances — a probability-``2^-15`` tail event. Estimates are unaffected
beyond that tail, which the batch-equivalence property test accounts
for.
"""

from __future__ import annotations

import math

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.estimators.hll import MAX_RANK, _bias, alpha
from repro.estimators.state import REGISTERS, Array, Field, SketchState
from repro.hashing import GeometricHash, UniformHash
from repro.kernels import (
    HashPlane,
    geometric_request,
    positions_request,
)

REGISTER_BITS = 4
OFFSET_MAX = (1 << REGISTER_BITS) - 1  # 15


class HyperLogLogTailCut(CardinalityEstimator):
    """HLL-TailC estimator (see module docstring).

    Parameters
    ----------
    memory_bits:
        Total budget ``m``; uses ``t = m // 4`` registers.
    seed:
        Seed for the routing and geometric hashes.
    """

    name = "HLL-TailC"

    state = SketchState(
        b"HTC1",
        header=(
            Field("t", init="memory_bits", scale=REGISTER_BITS),
            Field("seed"),
            Field("base", kind="counter"),
        ),
        arrays=(Array("_offsets", np.uint8, length="t", family=REGISTERS),),
    )

    #: Linear counting / bias thresholds follow HLL++.
    LC_THRESHOLD = 0.7
    BIAS_RANGE = 5.0

    def __init__(self, memory_bits: int, seed: int = 0) -> None:
        super().__init__()
        if memory_bits < REGISTER_BITS:
            raise ValueError(
                f"memory_bits must be >= {REGISTER_BITS}, got {memory_bits}"
            )
        self.t = int(memory_bits) // REGISTER_BITS
        self.seed = int(seed)
        self.base = 0
        self._offsets = np.zeros(self.t, dtype=np.uint8)
        self._route_hash = UniformHash(seed)
        self._geometric_hash = GeometricHash(seed + 0x47454F)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _normalize(self) -> None:
        """Advance the base while every offset is positive."""
        low = int(self._offsets.min())
        if low > 0:
            self.base += low
            self._offsets -= np.uint8(low)

    def _record_u64(self, value: int) -> None:
        self.hash_ops += 2
        self.bits_accessed += REGISTER_BITS
        register = self._route_hash.hash_u64(value) % self.t
        rank = min(self._geometric_hash.value_u64(value), MAX_RANK - 1) + 1
        offset = rank - self.base
        if offset <= int(self._offsets[register]):
            return
        self._offsets[register] = min(offset, OFFSET_MAX)
        self._normalize()

    def plane_requests(self) -> tuple:
        """Register-routing hash and geometric rank hash."""
        return (
            positions_request(self._route_hash.seed, self.t),
            geometric_request(self._geometric_hash.seed),
        )

    def _record_plane(self, plane: HashPlane) -> None:
        self.hash_ops += 2 * plane.size
        self.bits_accessed += REGISTER_BITS * plane.size
        registers = plane.positions(self._route_hash.seed, self.t)
        ranks = (
            np.minimum(
                plane.geometric(self._geometric_hash.seed).astype(
                    np.int64, copy=False
                ),
                MAX_RANK - 1,
            )
            + 1
        )
        # Chunk and re-normalize so the base keeps pace with the stream;
        # with 4 offset bits clipping against a stale base only matters
        # for extreme batches (rank spread > 15), but the chunking cost
        # is negligible and keeps batch ≈ sequential behaviour.
        chunk_size = max(16 * self.t, 8192)
        # analysis: allow(purity.loop) -- chunk-stepping loop, O(size/chunk)
        for start in range(0, plane.size, chunk_size):
            stop = start + chunk_size
            offsets = np.clip(
                ranks[start:stop] - self.base, 0, OFFSET_MAX
            ).astype(np.uint8, copy=False)
            np.maximum.at(self._offsets, registers[start:stop], offsets)
            self._normalize()

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _recovered_registers(self) -> np.ndarray:
        """The implied 5-bit-equivalent register values Y_i = B + Y'_i."""
        return self._offsets.astype(np.float64) + float(self.base)

    def query(self) -> float:
        self.bits_accessed += self.t * REGISTER_BITS + 64
        recovered = self._recovered_registers()
        harmonic = float(np.exp2(-recovered).sum())
        raw = alpha(self.t) * self.t * self.t / harmonic
        if raw <= self.BIAS_RANGE * self.t:
            corrected = raw - _bias(raw, self.t)
        else:
            corrected = raw
        if self.base == 0:
            zeros = int(np.count_nonzero(self._offsets == 0))
            if zeros:
                linear = self.t * math.log(self.t / zeros)
                if linear <= self.LC_THRESHOLD * self.t:
                    return linear
        return corrected

    def memory_bits(self) -> int:
        # 4-bit register file; the shared base is one machine word kept
        # outside the per-register budget, as in the original proposal.
        return self.t * REGISTER_BITS

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def merge(self, other: CardinalityEstimator) -> None:
        self._check_mergeable(other)
        assert isinstance(other, HyperLogLogTailCut)
        mine = self._offsets.astype(np.int64) + self.base
        theirs = other._offsets.astype(np.int64) + other.base
        merged = np.maximum(mine, theirs)
        self.base = int(merged.min())
        self._offsets = np.clip(merged - self.base, 0, OFFSET_MAX).astype(np.uint8)

    @property
    def offsets(self) -> np.ndarray:
        view = self._offsets.view()
        view.flags.writeable = False
        return view
