"""The Self-Morphing Bitmap (SMB) — the paper's contribution (§III).

SMB keeps a single physical bitmap of ``m`` bits. Recording proceeds in
*rounds* indexed by ``r`` (starting at 0); round ``r`` samples items
with probability ``p_r = 2^-r`` via the geometric hash (Step 1 of
Algorithm 1: keep item ``d`` iff ``G(d) >= r``). A counter ``v`` tracks
the bits newly set in the current round; when ``v`` reaches the
threshold ``T`` the bitmap *morphs*: the round index advances (halving
the sampling probability) and the bits set so far are conceptually
removed, leaving a logical bitmap ``L_r`` of ``m_r = m - r·T`` bits.

Morphing is free: the physical array never changes. The estimate for
each completed round is a constant, accumulated in the precomputed
prefix array ``S`` (eq. (9)):

    S[r] = Σ_{i=0}^{r-1} -2^i · m · ln(1 - T / m_i)

so a query reads just two counters (eq. (11), Algorithm 2):

    n̂ = S[r] - 2^r · m · ln(1 - v / m_r)

Properties proved in the paper and enforced by tests here:

- Lemma 1  — round ``i`` samples with probability exactly ``2^-i``;
- Theorem 2 — duplicates never alter the state (first appearance wins);
- the maximum estimate exceeds MRB's at equal memory (§III-B).

The batch path ``record_many`` is bit-for-bit equivalent to sequential
``record`` calls, *including* round crossings: the crossing offset is
located from the per-chunk count of newly set bits (the ``need``-th
first-occurrence of a fresh position), the chunk is split there, the
bitmap morphs, and the remainder re-enters under the advanced round's
Step-1 filter. By Definition 1, ``G(d) >= r`` holds exactly when the
low ``r`` bits of the uniform hash ``H(d)`` are zero, so Step 1 is one
mask over each chunk's own ``H`` (:func:`step1_mask`), and a morph
re-masks the same hashes. Position hashing follows the algorithm's own
economics — only arrivals that survive Step 1 are position-hashed (one
dedup window at a time), which is exactly why SMB's throughput *grows*
with cardinality. Of a :class:`~repro.kernels.HashPlane`, SMB reads
only the values.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol

import numpy as np

from repro.bitvector import BitVector
from repro.estimators.base import CardinalityEstimator
from repro.estimators.state import BITMAP, Array, Field, SketchState
from repro.hashing import GeometricHash, UniformHash
from repro.kernels import HashPlane

#: Upper bound on the batch path's dedup window — the number of sampled
#: arrivals examined by one ``np.unique`` pass when a morph may occur.
#: Large enough to amortize the pass, small enough that overshooting a
#: round crossing discards little work.
BATCH_CHUNK = 8192


def step1_mask(hashes: np.ndarray, r: int) -> np.ndarray:
    """Step 1 of Algorithm 1 over uniform hashes: ``G(d) >= r`` per item.

    ``G`` counts the trailing zeros of ``H`` (Definition 1), so the test
    is "the low ``r`` bits of ``H(d)`` are zero". ``G`` never exceeds 64,
    so no item passes a round past 64; a 64-bit mask saturated there
    would let ``H(d) = 0`` through.
    """
    if r > 64:
        return np.zeros(hashes.shape, dtype=bool)
    return (hashes & np.uint64((1 << r) - 1)) == 0


def round_constants(memory_bits: int, threshold: int) -> np.ndarray:
    """The paper's S array (eq. (9)) for an (m, T) configuration.

    ``S[r]`` is the cumulative estimate of the first ``r`` completed
    rounds. Every round ``i`` with ``m_i = m - i·T > T`` completes with
    a finite per-round estimate; the final supported round (``m_i ==
    T``) would fill the bitmap completely, so its completion marks
    saturation and ``S[m//T]`` is infinite.

    Raises ``ValueError`` when ``m // T`` leaves float64's range.
    """
    m, t = int(memory_bits), int(threshold)
    max_rounds = m // t
    # Round i scales its estimate by 2^i·m (eq. (9)); math.ldexp
    # overflows float64 once i + log2(m) reaches 1023.
    max_ratio = 1023 - m.bit_length()
    if max_rounds > max_ratio:
        raise ValueError(
            f"m // T = {max_rounds} exceeds {max_ratio}, the "
            f"largest supported m // T for m = {m}"
        )
    s = np.zeros(max_rounds + 1, dtype=np.float64)
    for i in range(max_rounds):
        m_i = m - i * t
        if m_i > t:
            term = -math.ldexp(m, i) * math.log(1.0 - t / m_i)
        else:  # m_i == t: completing this round saturates the bitmap
            term = math.inf
        s[i + 1] = s[i] + term
    return s


class SMBMetricsSink(Protocol):
    """Observer protocol for SMB's adaptivity signals.

    Implemented by :class:`repro.obs.instrument.SMBObserver`; the core
    layer only knows this structural interface, so it stays free of any
    observability import. An attached sink is called once per recorded
    plane (per chunk on the batch path) — never per item.
    """

    def update(self, smb: "SelfMorphingBitmap") -> None:
        """Refresh the sink from the estimator's current counters."""
        ...


class SelfMorphingBitmap(CardinalityEstimator):
    """Self-morphing bitmap estimator (see module docstring).

    Parameters
    ----------
    memory_bits:
        Size ``m`` of the physical bitmap.
    threshold:
        Round-advance threshold ``T``; when omitted, the optimal value
        for ``design_cardinality`` is computed per §IV-B of the paper.
    design_cardinality:
        The largest stream cardinality the estimator is provisioned
        for; only used to choose ``T`` when ``threshold`` is None.
    seed:
        Seed for the geometric (sampling) and uniform (position) hashes.
    """

    name = "SMB"

    state = SketchState(
        b"SMB1",
        header=(
            Field("m", init="memory_bits"),
            Field("T", init="threshold"),
            Field("seed"),
            Field("r", kind="counter"),
            Field("v", kind="counter"),
        ),
        arrays=(Array("_bits", BitVector, length="m", family=BITMAP),),
    )

    #: Optional metrics observer (see :class:`SMBMetricsSink`). A class
    #: attribute — not serialized state, not part of ``__init__`` — so
    #: the default costs one attribute read per recorded plane.
    _obs_sink: Optional[SMBMetricsSink] = None

    def __init__(
        self,
        memory_bits: int,
        threshold: int | None = None,
        design_cardinality: int = 1_000_000,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if memory_bits < 4:
            raise ValueError(f"memory_bits must be >= 4, got {memory_bits}")
        self.m = int(memory_bits)
        if threshold is None:
            from repro.core.tuning import optimal_threshold

            threshold = optimal_threshold(self.m, design_cardinality)
        if not 1 <= threshold <= self.m // 2:
            raise ValueError(
                f"threshold must be in [1, m/2] = [1, {self.m // 2}], "
                f"got {threshold}"
            )
        self.T = int(threshold)
        # Before any allocation: raises on an m // T past float64.
        self._s = round_constants(self.m, self.T)
        self.seed = int(seed)
        self.r = 0  # round index
        self.v = 0  # bits newly set in the current round
        self._bits = BitVector(self.m)
        self._geometric_hash = GeometricHash(seed)
        self._position_hash = UniformHash(seed + 0x504F53)

    @classmethod
    def for_workload(
        cls, memory_bits: int, expected_cardinality: int, seed: int = 0
    ) -> "SelfMorphingBitmap":
        """Construct with §IV-B's optimal threshold for the cardinality."""
        return cls(
            memory_bits, design_cardinality=expected_cardinality, seed=seed
        )

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def max_rounds(self) -> int:
        """Number of rounds the configuration supports (m // T)."""
        return self.m // self.T

    @property
    def sampling_probability(self) -> float:
        """The current round's sampling probability p_r = 2^-r."""
        return math.ldexp(1.0, -self.r)

    @property
    def logical_bits(self) -> int:
        """Size m_r of the current logical bitmap."""
        return self.m - self.r * self.T

    @property
    def fill_ratio(self) -> float:
        """Fill ratio v / m_r of the current logical bitmap.

        One of the paper's adaptivity signals: the morph fires when it
        would reach T / m_r. Reported as 1.0 once the final (possibly
        partial) round has no logical bits left.
        """
        m_r = self.logical_bits
        return self.v / m_r if m_r > 0 else 1.0

    @property
    def round_prefix(self) -> np.ndarray:
        """The precomputed S array (read-only)."""
        view = self._s.view()
        view.flags.writeable = False
        return view

    @property
    def saturated(self) -> bool:
        """True once every physical bit is one (estimate clamps).

        The invariant ``ones == r·T + v`` of Algorithm 1 makes this a
        pure counter check. When ``m % T != 0`` the last round is a
        partial one of ``m mod T`` logical bits that can never complete;
        saturation there means ``v`` has consumed all of them.
        """
        return self.r * self.T + self.v >= self.m

    def attach_metrics(self, sink: Optional[SMBMetricsSink]) -> None:
        """Attach (or, with ``None``, detach) a metrics sink.

        The sink's ``update`` runs immediately (establishing the sink's
        baseline round, so morph deltas start from the current state)
        and then once per recorded plane on the batch path — enough to
        track rounds, fill ratio and morphs without per-item work. Not
        serialized: a restored estimator starts with no sink.
        """
        self._obs_sink = sink
        if sink is not None:
            sink.update(self)

    # ------------------------------------------------------------------
    # Recording (Algorithm 1)
    # ------------------------------------------------------------------
    def _record_u64(self, value: int) -> None:
        self.hash_ops += 1
        if self._geometric_hash.value_u64(value) < self.r:
            return  # Step 1: not sampled this round
        self.hash_ops += 1
        self.bits_accessed += 1
        position = self._position_hash.hash_u64(value) % self.m
        if self._bits.set(position):  # Step 2
            self.v += 1
            if self.v >= self.T:  # Step 3: morph
                self.r += 1
                self.v = 0

    def plane_requests(self) -> tuple:
        """None: Step 1 hashes every arrival and Step 2 only survivors,
        both cheapest per chunk of the values, so nothing is prefetched."""
        return ()

    def _dedup_window(self, need: int) -> int:
        """Sampled arrivals per ``np.unique`` pass when a morph is near.

        Sized to roughly twice the expected number of *sampled* arrivals
        until the next morph (each sets a new bit with probability
        zeros/m), clamped to [1024, BATCH_CHUNK]. Any window size is
        exact; this only tunes how much work overshoots a crossing.
        """
        zeros = self._bits.zeros
        if zeros <= 0:
            return BATCH_CHUNK
        expected = 2.0 * need * (self.m / zeros)
        return max(1024, min(BATCH_CHUNK, int(expected)))

    def _record_plane(self, plane: HashPlane) -> None:
        values = plane.values
        sample_hash = self._geometric_hash.uniform
        start = 0
        # analysis: allow(purity.loop) -- chunk loop, O(size/BATCH_CHUNK)
        while start < values.size:
            chunk_start = start
            chunk_end = min(values.size, start + BATCH_CHUNK)
            hashes = None
            # analysis: allow(purity.loop) -- advances one *round* per
            # iteration; crossings are rare (at most m/T per stream)
            while start < chunk_end:
                if self.r == 0:
                    # Round 0 samples everything: the Step-1 test
                    # G(d) >= 0 is vacuous, so skip the hash (its op is
                    # still billed — the algorithm specifies it).
                    sampled = np.arange(start, chunk_end, dtype=np.int64)
                else:
                    # After a morph the same hashes are masked again.
                    if hashes is None:
                        hashes = sample_hash.hash_array(
                            values[chunk_start:chunk_end]
                        )
                    sampled = start + np.flatnonzero(
                        step1_mask(hashes[start - chunk_start:], self.r)
                    )
                if sampled.size:
                    start = self._consume_round(
                        values, sampled, start, chunk_end
                    )
                else:
                    self.hash_ops += chunk_end - start
                    start = chunk_end
        sink = self._obs_sink
        if sink is not None:
            sink.update(self)

    def _positions(self, values: np.ndarray) -> np.ndarray:
        """Step 2's bit positions ``H'(d) mod m`` of sampled values."""
        return self._position_hash.hash_array(values) % np.uint64(self.m)

    def _consume_round(
        self,
        values: np.ndarray,
        sampled: np.ndarray,
        start: int,
        size: int,
    ) -> int:
        """Apply the current round's sampled arrivals until it ends.

        ``sampled`` holds the indices into ``values`` in ``[start,
        size)`` that pass the current round's Step-1 filter (``size`` is
        the current chunk's end). Consumes arrivals until the chunk is
        exhausted (returns ``size``) or the round threshold is crossed —
        then morphs and returns the stream index right after the
        crossing arrival, whose remainder the caller refilters under
        the advanced round.
        """
        offset = 0  # consumed prefix of `sampled`
        while True:
            need = self.T - self.v
            remaining = sampled.size - offset
            if remaining < need:
                # Even if every remaining sampled arrival set a new bit
                # the round could not end: apply directly, no dedup
                # pass needed.
                self.v += self._bits.set_many(
                    self._positions(values[sampled[offset:]])
                )
                self.hash_ops += (size - start) + remaining
                self.bits_accessed += remaining
                return size
            # First occurrence of each position within the window
            # decides whether that arrival sets a new bit, exactly as
            # in the sequential semantics (order among *distinct*
            # positions cannot matter while the round is fixed).
            window = sampled[offset:offset + self._dedup_window(need)]
            window_positions = self._positions(values[window])
            unique, first_idx = np.unique(window_positions, return_index=True)
            new_first = first_idx[~self._bits.test_many(unique)]
            if new_first.size < need:
                # The whole window stays inside the current round.
                self._bits.set_many(unique)
                self.v += new_first.size
                consumed = int(window[-1]) + 1
                self.hash_ops += (consumed - start) + window.size
                self.bits_accessed += window.size
                start = consumed
                offset += window.size
                continue
            # The round threshold is crossed at the `need`-th new bit.
            # Consume the stream exactly up to and including the
            # crossing arrival and morph; the caller reprocesses the
            # remainder under the advanced round (new Step-1 filter).
            cut = int(np.partition(new_first, need - 1)[need - 1])
            self._bits.set_many(window_positions[:cut + 1])
            self.r += 1
            self.v = 0
            consumed = int(window[cut]) + 1
            self.hash_ops += (consumed - start) + cut + 1
            self.bits_accessed += cut + 1
            return consumed

    # ------------------------------------------------------------------
    # Querying (Algorithm 2)
    # ------------------------------------------------------------------
    def query(self) -> float:
        self.bits_accessed += 32  # the paper's accounting: read r and v
        # Snapshot the counters once. A lock-light concurrent reader
        # (the serving layer's ESTIMATE path) may race a morph, whose
        # writer does `r += 1; v = 0`: re-reading the attributes (the
        # old `saturated` / `logical_bits` property chain) could pass
        # the saturation check with one (r, v) pair and then evaluate
        # ln(1 - v/m_r) with a mixed pair whose argument is <= 0. One
        # snapshot makes the check and the formula agree: v < m_r holds
        # below, so the log argument stays positive — a torn pair costs
        # at most one round of transient bias, never an exception.
        r = self.r
        v = self.v
        if r * self.T + v >= self.m:  # saturated under this snapshot
            return self.max_estimate()
        m_r = self.m - r * self.T
        return float(self._s[r]) - math.ldexp(self.m, r) * math.log(
            1.0 - v / m_r
        )

    def estimate_at(self, r: int, v: int) -> float:
        """The estimate Algorithm 2 would return for counters (r, v).

        Exposed for the theory module (Theorem 3 needs the inverse map
        from target estimates back to counter values) and for tests.
        """
        if not 0 <= r < len(self._s):
            raise ValueError(f"round {r} out of range for this configuration")
        m_r = self.m - r * self.T
        if not 0 <= v < m_r:
            raise ValueError(f"v={v} out of range for round {r} (m_r={m_r})")
        return float(self._s[r]) - math.ldexp(self.m, r) * math.log(1.0 - v / m_r)

    def max_estimate(self) -> float:
        """Largest finite estimate (§III-B): the last round one bit short.

        With ``m`` divisible by ``T`` this is the paper's ``r = m/T - 1``,
        ``v = T - 1`` configuration, which exceeds MRB's maximum at equal
        memory when component sizes match (2^{k-1}·m·ln T  vs
        2^{k-1}·(m/k)·ln(m/k)). Otherwise the last (partial) round of
        ``m mod T`` logical bits extends the range one sampling level
        further.
        """
        last = self.max_rounds - 1 if self.m % self.T == 0 else self.max_rounds
        m_last = self.m - last * self.T
        return float(self._s[last]) + math.ldexp(self.m, last) * math.log(m_last)

    def memory_bits(self) -> int:
        # The paper's accounting: the m-bit array plus the r and v
        # counters, which need 6 + 26 bits (§III-B).
        return self.m + 32

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def merge(self, other: CardinalityEstimator) -> None:
        raise NotImplementedError(
            "SelfMorphingBitmap cannot merge: the morphing schedule depends "
            "on arrival order, so two SMBs' logical bitmaps are not aligned. "
            "Use HyperLogLog/MRB when distributed merging is required."
        )

    def _check_state(self) -> None:
        # ones == r*T + v is an invariant of Algorithm 1.
        if self._bits.ones != self.r * self.T + self.v:
            raise ValueError(
                "corrupt SelfMorphingBitmap payload: ones != r*T + v"
            )

    def __repr__(self) -> str:
        return (
            f"SelfMorphingBitmap(m={self.m}, T={self.T}, r={self.r}, "
            f"v={self.v}, p={self.sampling_probability})"
        )
