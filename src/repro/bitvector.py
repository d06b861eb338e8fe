"""Packed bit-vector substrate used by the bitmap-family estimators.

Bits are packed into ``uint64`` words. The number of one bits is
maintained incrementally for O(1) ``ones`` queries on the scalar path.
Batch updates are word-grouped: positions are sorted so every touched
``uint64`` word is read and written exactly once (one
``np.bitwise_or.reduceat`` per word group), and when the batch touches
at most 1% of the words only that word group is re-popcounted — the
``_ones`` counter updates incrementally instead of re-scanning the
whole array. Dense batches (comparable in size to the word array)
skip the sort entirely: a single scatter plus one full popcount pass
is cheaper there, and a full pass over a 10^6-bit vector is only ~16k
words.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.framing import read_array, require_consumed, unpack_header

_WORD_BITS = 64
_U64_6 = np.uint64(6)
_U64_63 = np.uint64(63)
_U64_ONE = np.uint64(1)

_HEADER = struct.Struct("<QQ")  # nbits, ones

#: A batch whose touched-word group is at most this fraction of the
#: word array popcounts only the touched words (incremental ``_ones``
#: update) instead of re-scanning the whole array.
_SPARSE_WORD_FRACTION = 0.01

#: Batches at least ``nwords >> _DENSE_SHIFT`` positions long skip the
#: sort-and-group path: at that density a scatter plus one full
#: popcount pass costs less than sorting the batch.
_DENSE_SHIFT = 3


class BitVector:
    """A fixed-size vector of bits with batch update support.

    Parameters
    ----------
    nbits:
        Number of addressable bits; must be positive.
    """

    __slots__ = ("_nbits", "_words", "_ones")

    def __init__(self, nbits: int) -> None:
        if nbits <= 0:
            raise ValueError(f"nbits must be positive, got {nbits}")
        self._nbits = int(nbits)
        nwords = (self._nbits + _WORD_BITS - 1) // _WORD_BITS
        self._words = np.zeros(nwords, dtype=np.uint64)
        self._ones = 0

    def __len__(self) -> int:
        return self._nbits

    @property
    def ones(self) -> int:
        """Number of bits currently set to one."""
        return self._ones

    @property
    def zeros(self) -> int:
        """Number of bits currently zero."""
        return self._nbits - self._ones

    @property
    def words(self) -> np.ndarray:
        """The underlying word array (read-only view)."""
        view = self._words.view()
        view.flags.writeable = False
        return view

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._nbits:
            raise IndexError(
                f"bit index {index} out of range for {self._nbits}-bit vector"
            )

    def get(self, index: int) -> bool:
        """Return the value of bit ``index``."""
        self._check_index(index)
        word, bit = divmod(index, _WORD_BITS)
        return bool((int(self._words[word]) >> bit) & 1)

    def set(self, index: int) -> bool:
        """Set bit ``index`` to one; return True if it was newly set."""
        self._check_index(index)
        word, bit = divmod(index, _WORD_BITS)
        current = int(self._words[word])
        mask = 1 << bit
        if current & mask:
            return False
        self._words[word] = current | mask
        self._ones += 1
        return True

    def test_many(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized bit test; returns a boolean array."""
        idx = indices.astype(np.uint64, copy=False)
        return ((self._words[idx >> _U64_6] >> (idx & _U64_63)) & _U64_ONE).astype(bool)

    def count_new(self, indices: np.ndarray) -> int:
        """How many *new* bits would be set by ``set_many(indices)``.

        Deduplicates repeated positions within the batch and skips
        positions already set. Does not modify the vector.
        """
        if indices.size == 0:
            return 0
        unique = np.unique(indices.astype(np.uint64, copy=False))
        return int(np.count_nonzero(~self.test_many(unique)))

    def set_many(self, indices: np.ndarray) -> int:
        """Set all bits at ``indices``; return how many were newly set.

        Sparse/medium batches sort the positions, OR each word group
        together with ``np.bitwise_or.reduceat`` and write every
        touched word exactly once; when the touched group is at most
        ``_SPARSE_WORD_FRACTION`` of the word array, only that group is
        re-popcounted and ``_ones`` updates incrementally. Dense
        batches fall back to a scatter plus one full popcount pass.
        """
        if indices.size == 0:
            return 0
        idx = indices.astype(np.uint64, copy=False)
        nwords = self._words.size
        if idx.size >= nwords >> _DENSE_SHIFT:
            np.bitwise_or.at(
                self._words, idx >> _U64_6, _U64_ONE << (idx & _U64_63)
            )
            return self._recount()
        ordered = np.sort(idx)
        word_ids = ordered >> _U64_6
        masks = _U64_ONE << (ordered & _U64_63)
        boundary = np.empty(word_ids.size, dtype=bool)
        boundary[0] = True
        np.not_equal(word_ids[1:], word_ids[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        touched = word_ids[starts]
        merged = np.bitwise_or.reduceat(masks, starts)
        if touched.size <= max(1, int(nwords * _SPARSE_WORD_FRACTION)):
            before = int(np.bitwise_count(self._words[touched]).sum())
            self._words[touched] |= merged
            after = int(np.bitwise_count(self._words[touched]).sum())
            newly_set = after - before
            self._ones += newly_set
            return newly_set
        self._words[touched] |= merged
        return self._recount()

    def _recount(self) -> int:
        """Full popcount pass; returns how many bits became one."""
        new_ones = int(np.bitwise_count(self._words).sum())
        newly_set = new_ones - self._ones
        self._ones = new_ones
        return newly_set

    def clear(self) -> None:
        """Reset every bit to zero."""
        self._words[:] = 0
        self._ones = 0

    def or_update(self, other: "BitVector") -> None:
        """In-place union with another vector of the same size."""
        if len(other) != self._nbits:
            raise ValueError(
                f"cannot OR a {len(other)}-bit vector into a "
                f"{self._nbits}-bit vector"
            )
        np.bitwise_or(self._words, other._words, out=self._words)
        self._ones = int(np.bitwise_count(self._words).sum())

    def to_bytes(self) -> bytes:
        """Serialize to a compact byte string."""
        return _HEADER.pack(self._nbits, self._ones) + self._words.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitVector":
        """Deserialize a vector produced by :meth:`to_bytes`."""
        nbits, ones = unpack_header(_HEADER, data, "BitVector")
        if nbits <= 0:
            raise ValueError(f"corrupt BitVector payload: nbits={nbits}")
        nwords = (nbits + _WORD_BITS - 1) // _WORD_BITS
        words, offset = read_array(
            data, _HEADER.size, np.uint64, nwords, "BitVector", "words"
        )
        require_consumed(data, offset, "BitVector")
        vec = cls(nbits)
        vec._words = words
        actual = int(np.bitwise_count(vec._words).sum())
        if actual != ones:
            raise ValueError("corrupt BitVector payload: popcount mismatch")
        vec._ones = ones
        return vec

    def copy(self) -> "BitVector":
        """Return an independent copy."""
        dup = BitVector(self._nbits)
        dup._words = self._words.copy()
        dup._ones = self._ones
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._nbits == other._nbits and bool(
            np.array_equal(self._words, other._words)
        )

    def __repr__(self) -> str:
        return f"BitVector(nbits={self._nbits}, ones={self._ones})"
