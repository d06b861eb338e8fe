"""Shared-memory multi-flow sketches (§II-C of the paper).

`PerFlowSketch` gives every stream its own estimator, which is simple
but costs the full estimator size per stream. The sketch literature the
paper cites ([27], [9], [28]–[30]) instead shares one physical pool of
memory among *all* streams, carving a small pseudo-random *virtual*
estimator out of the pool for each flow and removing the cross-flow
noise statistically. This module implements the two canonical designs:

- :class:`CompactSpreadEstimator` (CSE; Yoon, Li, Chen & Peir 2009) —
  a shared bit pool; flow ``f``'s virtual bitmap is the ``s`` bits at
  positions ``H(f, i)``. The noise-corrected estimate is

      n̂_f = s · (ln V_pool − ln V_f)

  where ``V_f`` is the fraction of zero bits in the virtual bitmap and
  ``V_pool`` in the whole pool.

- :class:`VirtualHyperLogLog` (vHLL; Xiao, Chen, Chen & Ling 2015) —
  a shared register pool; flow ``f``'s virtual HLL is the ``s``
  registers at ``H(f, i)``. With raw HLL estimates ``Ê_f`` (virtual)
  and ``Ê`` (whole pool),

      n̂_f = (M·s)/(M−s) · (Ê_f/s − Ê/M).

Both accept any hashable flow key and the same item types as the
estimators. They trade per-flow accuracy for an order-of-magnitude
memory reduction when tracking very many flows — exactly the regime the
paper's introduction motivates (millions of sources on a router).
"""

from __future__ import annotations

import math

import numpy as np

from repro.bitvector import BitVector
from repro.estimators.hll import MAX_RANK, alpha
from repro.hashing import (
    GeometricHash,
    UniformHash,
    canonical_u64,
    canonical_u64_array,
    splitmix64,
)


class _VirtualSlots:
    """Shared helper: the pseudo-random slot set of a flow.

    Flow ``f``'s virtual estimator uses pool slots ``H(f ⊕ mix(i))``
    for ``i`` in ``[0, s)`` — deterministic per flow, scattered across
    the pool.
    """

    __slots__ = ("pool_size", "flow_size", "_hash", "_index_mix")

    def __init__(self, pool_size: int, flow_size: int, seed: int) -> None:
        if flow_size >= pool_size:
            raise ValueError(
                f"virtual size {flow_size} must be below pool size {pool_size}"
            )
        self.pool_size = int(pool_size)
        self.flow_size = int(flow_size)
        self._hash = UniformHash(seed)
        self._index_mix = np.asarray(
            [splitmix64(0xF10F ^ i) for i in range(flow_size)], dtype=np.uint64
        )

    def slots(self, flow: object) -> np.ndarray:
        """The flow's pool slot indices (length ``flow_size``)."""
        key = np.uint64(canonical_u64(flow))
        return self._hash.hash_array(key ^ self._index_mix) % np.uint64(
            self.pool_size
        )


class CompactSpreadEstimator:
    """CSE: virtual bitmaps over a shared bit pool (see module docstring).

    Parameters
    ----------
    pool_bits:
        Size ``M`` of the shared physical bit pool.
    virtual_bits:
        Size ``s`` of each flow's virtual bitmap.
    seed:
        Seed for the slot and item hashes.
    """

    def __init__(self, pool_bits: int, virtual_bits: int = 128, seed: int = 0) -> None:
        if pool_bits < 64:
            raise ValueError(f"pool_bits must be >= 64, got {pool_bits}")
        if virtual_bits < 8:
            raise ValueError(f"virtual_bits must be >= 8, got {virtual_bits}")
        self.pool = BitVector(pool_bits)
        self.s = int(virtual_bits)
        self.seed = int(seed)
        self._slots = _VirtualSlots(pool_bits, virtual_bits, seed)
        self._item_hash = UniformHash(seed + 0x17E4)

    def record(self, flow: object, item: object) -> None:
        """Record one (flow, item) observation."""
        index = self._item_hash.hash_u64(canonical_u64(item)) % self.s
        self.pool.set(int(self._slots.slots(flow)[index]))

    def record_many(self, flow: object, items) -> None:
        """Record a batch of items for one flow."""
        values = canonical_u64_array(items)
        if values.size == 0:
            return
        indices = self._item_hash.hash_array(values) % np.uint64(self.s)
        self.pool.set_many(self._slots.slots(flow)[indices])

    def query(self, flow: object) -> float:
        """Noise-corrected cardinality estimate for ``flow``.

        Clamped below at 0: for idle flows the noise term can slightly
        exceed the virtual-bitmap term.
        """
        slots = self._slots.slots(flow)
        virtual_zeros = int(np.count_nonzero(~self.pool.test_many(slots)))
        pool_zeros = self.pool.zeros
        if virtual_zeros == 0:
            # Virtual bitmap saturated: report its maximum resolution.
            virtual_zeros = 1
        if pool_zeros == 0:
            pool_zeros = 1
        v_flow = virtual_zeros / self.s
        v_pool = pool_zeros / len(self.pool)
        return max(0.0, self.s * (math.log(v_pool) - math.log(v_flow)))

    def memory_bits(self) -> int:
        """Size of the shared bit pool."""
        return len(self.pool)

    def pool_load(self) -> float:
        """Fraction of pool bits set — the operating-point health metric."""
        return self.pool.ones / len(self.pool)


class VirtualHyperLogLog:
    """vHLL: virtual HLLs over a shared register pool (module docstring).

    Parameters
    ----------
    pool_registers:
        Number ``M`` of shared 5-bit registers.
    virtual_registers:
        Number ``s`` of registers per flow (a power of scale/accuracy).
    seed:
        Seed for the slot, routing and geometric hashes.
    """

    def __init__(
        self,
        pool_registers: int,
        virtual_registers: int = 128,
        seed: int = 0,
    ) -> None:
        if pool_registers < 64:
            raise ValueError(
                f"pool_registers must be >= 64, got {pool_registers}"
            )
        if virtual_registers < 16:
            raise ValueError(
                f"virtual_registers must be >= 16, got {virtual_registers}"
            )
        self.m_pool = int(pool_registers)
        self.s = int(virtual_registers)
        self.seed = int(seed)
        self._registers = np.zeros(self.m_pool, dtype=np.uint8)
        self._slots = _VirtualSlots(self.m_pool, self.s, seed)
        self._route_hash = UniformHash(seed + 0x1707E)
        self._geometric_hash = GeometricHash(seed + 0x47454F)

    def record(self, flow: object, item: object) -> None:
        """Record one (flow, item) observation."""
        value = canonical_u64(item)
        index = self._route_hash.hash_u64(value) % self.s
        slot = int(self._slots.slots(flow)[index])
        rank = min(self._geometric_hash.value_u64(value), MAX_RANK - 1) + 1
        if rank > self._registers[slot]:
            self._registers[slot] = rank

    def record_many(self, flow: object, items) -> None:
        """Record a batch of items for one flow."""
        values = canonical_u64_array(items)
        if values.size == 0:
            return
        indices = self._route_hash.hash_array(values) % np.uint64(self.s)
        slots = self._slots.slots(flow)[indices]
        ranks = (
            np.minimum(
                self._geometric_hash.value_array(values).astype(np.uint16),
                MAX_RANK - 1,
            )
            + 1
        ).astype(np.uint8)
        np.maximum.at(self._registers, slots, ranks)

    def _raw(self, registers: np.ndarray) -> float:
        count = registers.size
        harmonic = float(np.exp2(-registers.astype(np.float64)).sum())
        return alpha(count) * count * count / harmonic

    def query(self, flow: object) -> float:
        """Noise-corrected cardinality estimate for ``flow``."""
        slots = self._slots.slots(flow)
        virtual = self._registers[slots]
        flow_term = self._raw(virtual) / self.s
        pool_term = self._raw(self._registers) / self.m_pool
        scale = self.m_pool * self.s / (self.m_pool - self.s)
        return max(0.0, scale * (flow_term - pool_term))

    def memory_bits(self) -> int:
        """Size of the shared register pool (5 bits per register)."""
        return self.m_pool * 5

    def pool_load(self) -> float:
        """Fraction of pool registers touched."""
        return float(np.count_nonzero(self._registers)) / self.m_pool
