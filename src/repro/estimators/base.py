"""Common interface for all cardinality estimators.

Every estimator in this library implements :class:`CardinalityEstimator`:

- ``record(item)`` — scalar recording path (one item);
- ``record_many(items)`` — batch recording path, *bit-for-bit equivalent*
  to calling ``record`` in a loop (a hypothesis property test asserts
  this for every estimator);
- ``record_plane(plane)`` — the same batch path over a shared
  :class:`~repro.kernels.HashPlane`, so several consumers of one chunk
  (mirrors, shards, sketch rows, benchmark baselines) hash it once;
- ``query()`` — produce the cardinality estimate without mutating state;
- ``memory_bits()`` — the memory footprint the paper's `m` refers to
  (the recording data structure, not Python object overhead);
- instrumentation counters ``hash_ops`` and ``bits_accessed`` that let
  the Table I experiment *measure* recording/query overhead instead of
  copying the paper's analytic table. The counters account the
  *algorithm's* hash operations, so a plane cache hit still bills them.

Items may be ``int``, ``str`` or ``bytes``; batch paths accept any
iterable, with a zero-copy fast path for ``numpy`` ``uint64`` arrays.

A serializable estimator declares its state once, as a class-level
:class:`~repro.estimators.state.SketchState`; this base class derives
``to_bytes``/``from_bytes``, the merge-compatibility check and the
class's :func:`~repro.estimators.registry.sketch_registry` entry from
that declaration.

Subclasses vectorize by overriding ``_record_plane``; the scalar
``_record_batch`` loop in this class is the executable specification
the equivalence property tests compare every vectorized path against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Iterable, Sequence, TypeVar, cast

import numpy as np

from repro.estimators.registry import register
from repro.estimators.state import SketchState
from repro.hashing import canonical_u64, canonical_u64_array
from repro.kernels import HashPlane

_E = TypeVar("_E", bound="CardinalityEstimator")


class IncompatibleSketchError(ValueError):
    """Merge rejected: same sketch kind, incompatible parameters.

    Every ``merge()`` raises this (instead of a bespoke ``ValueError``)
    when the operands have the same class but differ in a sizing
    parameter or hash seed, so callers — the serve layer's MERGE_IN
    handler, the aggregation CLI — can report exactly which knob
    diverged without parsing a message. Cross-*class* merges remain a
    ``TypeError`` (see :meth:`CardinalityEstimator._check_mergeable`);
    this error is strictly about parameters.

    Attributes
    ----------
    kind:
        Class name of the sketch being merged into.
    expected:
        Parameter values of the merge target, keyed by attribute name.
    got:
        The other operand's values for the same parameters.
    """

    def __init__(
        self, kind: str, expected: dict[str, object], got: dict[str, object]
    ) -> None:
        diverging = [key for key in expected if expected[key] != got.get(key)]
        detail = ", ".join(
            f"{key}: expected {expected[key]!r}, got {got.get(key)!r}"
            for key in diverging
        )
        super().__init__(
            f"cannot merge incompatible {kind} sketches ({detail or 'parameter mismatch'})"
        )
        self.kind = kind
        self.expected = dict(expected)
        self.got = dict(got)


class CardinalityEstimator(ABC):
    """Abstract base class of all estimators (see module docstring)."""

    #: Short display name used by the experiment harness tables.
    name: str = "base"

    #: The declared serialized state; None when the class does not
    #: serialize. Declaring it registers the class as a pool shard.
    state: ClassVar[SketchState | None] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("state") is not None:
            register("shard")(cls)

    def __init__(self) -> None:
        self.hash_ops = 0
        self.bits_accessed = 0

    @classmethod
    def for_workload(
        cls, memory_bits: int, expected_cardinality: int, seed: int = 0
    ) -> "CardinalityEstimator":
        """Construct with the paper's sizing rule for this workload.

        The default divides ``memory_bits`` into the class's own bits or
        registers (§II-B); classes whose size depends on the expected
        cardinality (MRB, SMB) or on a per-value cost (KMV) override it.
        """
        estimator: CardinalityEstimator = cast(Any, cls)(memory_bits, seed=seed)
        return estimator

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, item: object) -> None:
        """Record one item (scalar path)."""
        self._record_u64(canonical_u64(item))

    def record_many(self, items: Iterable[object] | np.ndarray) -> None:
        """Record a batch of items (vectorized where the subclass can).

        Semantically identical to ``for item in items: self.record(item)``.
        """
        values = canonical_u64_array(items)
        if values.size:
            self._record_plane(HashPlane(values))

    def record_plane(self, plane: HashPlane) -> None:
        """Record every value of a shared hash plane.

        Callers that feed one chunk to several consumers build a single
        :class:`~repro.kernels.HashPlane` and pass it to each; hash
        arrays are computed once per ``(kind, seed)`` and shared.
        Semantically identical to ``record_many(plane.values)``.
        """
        if plane.size:
            self._record_plane(plane)

    def plane_requests(self) -> Sequence[tuple]:
        """The hash arrays this estimator reads from a plane.

        A pool prefetches those all its shards share at full vector
        width before splitting a chunk, so per-shard sub-planes are pure
        gathers. The default (no requests) is correct for any estimator
        — it only forgoes the prefetch optimization.
        """
        return ()

    @abstractmethod
    def _record_u64(self, value: int) -> None:
        """Record one canonicalized uint64 value."""

    def _record_plane(self, plane: HashPlane) -> None:
        """Record a hash plane; subclasses override with kernel paths."""
        self._record_batch(plane.values)

    def _record_batch(self, values: np.ndarray) -> None:
        """Reference scalar path: record a uint64 array item by item.

        This loop is the executable specification of recording; the
        contract property tests replay every vectorized ``_record_plane``
        against it and require bit-for-bit identical state.
        """
        for value in values.tolist():
            self._record_u64(value)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    @abstractmethod
    def query(self) -> float:
        """Estimate the number of distinct items recorded so far."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @abstractmethod
    def memory_bits(self) -> int:
        """Memory footprint of the recording structure in bits."""

    def reset_counters(self) -> None:
        """Zero the instrumentation counters."""
        self.hash_ops = 0
        self.bits_accessed = 0

    # ------------------------------------------------------------------
    # Optional capabilities
    # ------------------------------------------------------------------
    def merge(self, other: "CardinalityEstimator") -> None:
        """In-place merge with a compatible estimator, when supported.

        Merging two estimators must yield the estimator of the union
        stream. Subclasses that cannot support this raise
        ``NotImplementedError`` (notably SMB: its sampling schedule
        depends on arrival order, so lossless merging is impossible).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support merging"
        )

    def to_bytes(self) -> bytes:
        """Serialize the declared :attr:`state`, when the class has one."""
        if self.state is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not support serialization"
            )
        return self.state.encode(self)

    @classmethod
    def from_bytes(cls: type[_E], data: bytes) -> _E:
        """Restore an estimator serialized by :meth:`to_bytes`.

        Strict and bounded by ``data``: every malformed payload raises
        ``ValueError``, and its length is checked against the one the
        header implies before anything is constructed.
        """
        if cls.state is None:
            raise NotImplementedError(
                f"{cls.__name__} does not support serialization"
            )
        return cls.state.decode(cls, data)

    def _check_state(self) -> None:
        """Invariant hook run after :meth:`from_bytes` decodes a payload.

        Raise ``ValueError`` when the decoded fields contradict each
        other; the default accepts everything. A class that keeps an
        array in another in-memory form than a numpy array (KMV's sorted
        list) converts it here, once it has passed the checks.
        """

    def _check_mergeable(self, other: "CardinalityEstimator") -> None:
        """Raise unless ``other`` can merge into this estimator.

        Another class is a ``TypeError``; the same class with different
        declared merge parameters is an :class:`IncompatibleSketchError`.
        """
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if self.state is not None:
            self._check_merge_params(other, *self.state.merge_fields)

    def _check_merge_params(
        self, other: "CardinalityEstimator", *fields: str
    ) -> None:
        """Raise :class:`IncompatibleSketchError` unless ``fields`` match.

        ``fields`` name the attributes that define merge compatibility
        (sizing parameters and hash seeds). :meth:`_check_mergeable`
        calls this with a declared state's merge fields.
        """
        expected = {field: getattr(self, field) for field in fields}
        got = {field: getattr(other, field) for field in fields}
        if expected != got:
            raise IncompatibleSketchError(type(self).__name__, expected, got)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(memory_bits={self.memory_bits()})"
