"""Declared sketch state: one table per class, every codec derived from it.

A serializable estimator is a few sizing parameters, a few counters and
one or two arrays; SMB, for one, is an m-bit bitmap plus its r and v
counters (§III-B of the paper). Each such class declares that shape
once, as a class-level :class:`SketchState`, and
:class:`~repro.estimators.base.CardinalityEstimator` derives from it:

- ``to_bytes``: the magic, the header fields, then every array;
- ``from_bytes``: parse the header, compute the body length it implies
  and reject any other length *before* constructing anything, then
  decode the arrays, require exact consumption and run the class's
  ``_check_state`` invariant hook;
- the parameters two sketches must share to merge
  (:class:`~repro.estimators.base.IncompatibleSketchError`);
- the wire codec family that :mod:`repro.wire.frame` picks codecs by;
- the class's entry in :func:`~repro.estimators.registry.sketch_registry`.

Byte layout (little-endian)::

    4s magic | header fields, in declaration order | arrays, in order

A numpy array is ``length`` raw elements. A bit-vector array is one
:class:`~repro.bitvector.BitVector` of ``length`` bits (or a list of
``count`` of them) in BitVector's own format. ``length`` and ``count``
name header fields, so the header alone fixes the body length and no
payload can size an allocation beyond its own bytes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Any, TypeVar, cast

import numpy as np

from repro.bitvector import BitVector
from repro.framing import read_array, require_consumed, take, unpack_header

__all__ = ["BITMAP", "REGISTERS", "Array", "Field", "SketchState"]

#: Wire codec families (see :mod:`repro.wire.frame`): dense arrays of
#: small geometric ranks, and zero-dominated bit planes.
REGISTERS = "registers"
BITMAP = "bitmap"

#: A serialized BitVector is a u64 bit count and a u64 ones count,
#: then its 64-bit words.
_BITVECTOR_HEADER = 16

_S = TypeVar("_S")


def _bitvector_bytes(nbits: int) -> int:
    return _BITVECTOR_HEADER + 8 * -(-nbits // 64)


@dataclass(frozen=True)
class Field:
    """One fixed-size header field; ``code`` is its struct code.

    ``kind`` says what the field holds:

    - ``"param"``: sizing parameter or seed ``attr``, passed to the
      constructor as keyword ``init`` (default ``attr``) times
      ``scale``; a merge requires it to match unless ``merge`` is off;
    - ``"counter"``: mutable state (SMB's r and v, a tail-cut base) set
      on the sketch after construction; a float counter stores None as
      NaN;
    - ``"length"``: the element count of array ``attr``;
    - ``"reserved"``: always zero.
    """

    attr: str
    code: str = "Q"
    kind: str = "param"
    init: str | None = None
    scale: int = 1
    merge: bool = True


@dataclass(frozen=True)
class Array:
    """One array of sketch state, stored after the header.

    ``dtype`` is a numpy dtype for a flat array of ``length`` elements,
    or :class:`~repro.bitvector.BitVector` for bit vectors of ``length``
    bits: one, or a list of ``count`` when ``count`` is set. ``length``
    and ``count`` name header fields; ``family`` is the wire codec
    family.
    """

    attr: str
    dtype: Any
    length: str
    count: str | None = None
    family: str | None = None

    def nbytes(self, fields: dict[str, Any]) -> int:
        """Encoded size implied by the header ``fields``."""
        length = fields[self.length]
        if self.dtype is not BitVector:
            return length * np.dtype(self.dtype).itemsize
        vectors = fields[self.count] if self.count else 1
        return vectors * _bitvector_bytes(length)

    def encode(self, value: Any) -> bytes:
        """The bytes of the array's current ``value``."""
        if self.dtype is not BitVector:
            return np.asarray(value, dtype=self.dtype).tobytes()
        if self.count:
            return b"".join([vector.to_bytes() for vector in value])
        return value.to_bytes()

    def decode(
        self, data: bytes, offset: int, fields: dict[str, Any], what: str
    ) -> tuple[Any, int]:
        """Read the array at ``offset``; return (value, end)."""
        length = fields[self.length]
        if self.dtype is not BitVector:
            return read_array(data, offset, self.dtype, length, what, self.attr)
        vectors = []
        for index in range(fields[self.count] if self.count else 1):
            blob, offset = take(
                data, offset, _bitvector_bytes(length), what,
                f"{self.attr}[{index}]",
            )
            vector = BitVector.from_bytes(blob)
            if len(vector) != length:
                raise ValueError(
                    f"corrupt {what} payload: {self.attr} size mismatch"
                )
            vectors.append(vector)
        return (vectors if self.count else vectors[0]), offset


@dataclass(frozen=True)
class SketchState:
    """A class's whole serialized state (see the module docstring)."""

    magic: bytes
    header: tuple[Field, ...]
    arrays: tuple[Array, ...]
    #: The struct of the magic plus every header field.
    layout: struct.Struct = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        codes = "".join(item.code for item in self.header)
        object.__setattr__(self, "layout", struct.Struct("<4s" + codes))

    @property
    def merge_fields(self) -> tuple[str, ...]:
        """Attributes two sketches must share to merge."""
        return tuple(
            item.attr for item in self.header
            if item.kind == "param" and item.merge
        )

    @property
    def family(self) -> str | None:
        """The arrays' wire codec family, when they share one."""
        families = {array.family for array in self.arrays}
        return families.pop() if len(families) == 1 else None

    def encode(self, sketch: Any) -> bytes:
        """Serialize ``sketch`` (its ``to_bytes``)."""
        values: list[Any] = [self.magic]
        for item in self.header:
            if item.kind == "reserved":
                value = 0
            elif item.kind == "length":
                value = len(getattr(sketch, item.attr))
            else:
                value = getattr(sketch, item.attr)
                if value is None:
                    value = math.nan
            values.append(value)
        return self.layout.pack(*values) + b"".join(
            [array.encode(getattr(sketch, array.attr)) for array in self.arrays]
        )

    def decode(self, cls: type[_S], data: bytes) -> _S:
        """Restore a ``cls`` sketch from ``data`` (its ``from_bytes``).

        The header fixes the body length, and any other length raises
        ``ValueError`` before the sketch is constructed.
        """
        what = cls.__name__
        magic, *values = unpack_header(self.layout, data, what)
        if magic != self.magic:
            raise ValueError(f"not a serialized {what}")
        fields = {item.attr: value for item, value in zip(self.header, values)}
        for item, value in zip(self.header, values):
            if item.kind == "reserved" and value != 0:
                raise ValueError(f"corrupt {what} payload: nonzero reserved field")
        body = sum(array.nbytes(fields) for array in self.arrays)
        if len(data) - self.layout.size != body:
            raise ValueError(
                f"corrupt {what} payload: header implies a {body}-byte "
                f"body, got {len(data) - self.layout.size} bytes"
            )
        sketch = cast(Any, cls)(**{
            item.init or item.attr: item.scale * fields[item.attr]
            for item in self.header if item.kind == "param"
        })
        for item in self.header:
            if item.kind == "counter":
                value = fields[item.attr]
                if item.code == "d" and math.isnan(value):
                    value = None
                setattr(sketch, item.attr, value)
        offset = self.layout.size
        for array in self.arrays:
            value, offset = array.decode(data, offset, fields, what)
            setattr(sketch, array.attr, value)
        require_consumed(data, offset, what)
        sketch._check_state()
        return sketch
