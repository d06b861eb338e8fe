"""Speed claims of the kernels layer, asserted at benchmark scale.

The plane path must beat the scalar reference loop by a wide margin, a
shared plane must make the second consumer of a chunk nearly free, and a
sparse batch must not re-popcount a whole bitmap. The timings behind
these claims (recording, hash planes, partitioning) are written to
``BENCH_kernels.json`` by ``tools/bench_snapshot.py kernels``.
"""

import time

import numpy as np

from _helpers import fresh
from repro.kernels import HashPlane
from repro.streams import distinct_items

ARRAY = distinct_items(100_000, seed=11)


def _per_item_seconds(fn, items: int) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) / items


def test_plane_path_is_much_faster_than_scalar_reference():
    """The acceptance-criterion claim, asserted at benchmark scale.

    The plane path on 100k items must beat the base-class scalar
    reference loop (timed on 5k items — it is far too slow for more)
    by at least 5× per item for each headline estimator.
    """
    for name in ("SMB", "MRB", "HLL++"):
        batch = _per_item_seconds(
            lambda: fresh(name).record_many(ARRAY), ARRAY.size
        )
        scalar = _per_item_seconds(
            lambda: fresh(name)._record_batch(ARRAY[:5_000]), 5_000
        )
        assert batch < scalar / 5, f"{name}: {scalar / batch:.1f}x < 5x"


def test_shared_plane_makes_second_consumer_cheap():
    """Two same-seed mirrors of one chunk: the second reads the cache."""
    plane = HashPlane(ARRAY)
    first, second = fresh("HLL++"), fresh("HLL++")
    cold = _per_item_seconds(lambda: first.record_plane(plane), ARRAY.size)
    warm = _per_item_seconds(lambda: second.record_plane(plane), ARRAY.size)
    assert warm < cold  # no re-hashing on the cached plane
    assert first.to_bytes() == second.to_bytes()


def test_sparse_set_batch_skips_the_full_popcount():
    """A tiny batch into a huge bitmap must not re-popcount every word.

    2^24 bits = 262144 words; a 512-position batch touches ≤ 512 words
    (≈0.02% — far under the 1% incremental threshold), so ``set_many``
    popcounts only the touched group. The full-recount reference is the
    same update followed by a whole-vector ``bitwise_count``. Best-of-N
    against a generous 3× factor so a noisy runner cannot flake it.
    """
    from repro.bitvector import BitVector

    size = 1 << 24
    rng = np.random.default_rng(41)
    positions = rng.integers(0, size, size=512, dtype=np.uint64)

    vector = BitVector(size)
    vector.set_many(rng.integers(0, size, size=4096, dtype=np.uint64))

    def best_of(fn, repeats=7):
        times = []
        for __ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    incremental = best_of(lambda: vector.set_many(positions))
    full = best_of(
        lambda: (
            vector.set_many(positions),
            int(np.bitwise_count(vector._words).sum()),
        )
    )
    assert incremental < full / 3, (
        f"incremental {incremental * 1e6:.1f}us vs full-recount "
        f"{full * 1e6:.1f}us: expected >= 3x headroom"
    )
