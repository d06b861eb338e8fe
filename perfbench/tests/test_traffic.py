"""Inputs are a pure function of the seed, with exact distinct counts."""

import hashlib

import numpy as np

import traffic


def digest(chunks) -> str:
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk)
    return hasher.hexdigest()


def bulk_bytes(seed: int) -> str:
    return digest(stream.record(seed, frame)
                  for stream in traffic.bulk_streams(1)
                  for frame in range(stream.frames))


def mix_bytes(seed: int) -> str:
    plan = traffic.mix_plan(seed, 2)
    parts = [repr(plan.schedule).encode(), repr(plan.initial).encode()]
    parts += [stream.record(seed, frame)
              for stream in plan.streams for frame in range(stream.frames)]
    return digest(parts)


def test_inputs_are_byte_identical_for_a_seed():
    assert bulk_bytes(3) == bulk_bytes(3)
    assert mix_bytes(3) == mix_bytes(3)


def test_another_seed_gives_other_inputs():
    assert bulk_bytes(3) != bulk_bytes(4)
    assert mix_bytes(3) != mix_bytes(4)


def test_frames_can_be_built_out_of_order():
    stream = traffic.bulk_streams(1)[0]
    forward = [stream.keys(5, frame) for frame in range(stream.frames)]
    backward = [stream.keys(5, frame) for frame in reversed(range(stream.frames))]
    for a, b in zip(forward, reversed(backward)):
        assert np.array_equal(a, b)


def test_distinct_count_is_exact():
    plan = traffic.mix_plan(9, 2)
    several = [stream for stream in plan.streams if stream.frames > 1][:5]
    for stream in several + [traffic.bulk_streams(1)[1]]:
        keys = np.concatenate([stream.keys(9, f) for f in range(stream.frames)])
        assert keys.size == stream.arrivals
        assert np.unique(keys).size == stream.distinct
        assert stream.distinct < stream.arrivals


def test_repeats_favour_the_earliest_keys():
    # Zipf(1) over 10,000-20,000 earlier keys sends about half of all
    # repeats to the first 100 (ln 101 / ln 15,000); uniform picks ~1%.
    keys = traffic.frame_keys(1, 0, 1, 10_000, 20_000, 10_000)
    hits = np.isin(keys, traffic.fresh_keys(1, 0, 0, 100)).sum()
    assert 0.4 * 10_000 < hits < 0.6 * 10_000


def test_mix_schedule_shape():
    seconds = 3
    plan = traffic.mix_plan(2, seconds)
    verbs = [request.verb for request in plan.schedule]
    assert verbs.count(traffic.CHECKPOINT) == seconds
    assert verbs.count(traffic.STATS) == seconds
    assert verbs.count(traffic.ESTIMATE) == traffic.MIX_ESTIMATE_RATE * seconds
    dues = [request.due for request in plan.schedule]
    assert dues == sorted(dues) and dues[-1] < seconds
    # Each tenant is fed on one connection, its frames in order, and
    # initial tenants' first frames are their set-up warm-ups.
    frames: dict[str, list[int]] = {}
    for request in plan.schedule:
        if request.verb == traffic.RECORD:
            assert request.conn == 1
            frames.setdefault(request.tenant, []).append(request.frame)
    for stream in plan.streams:
        first = 1 if stream.index < plan.initial else 0
        assert frames.get(stream.name, []) == list(range(first, stream.frames))


def test_record_frame_layout():
    keys = np.array([1, 2, 3], dtype=np.uint64)
    frame = traffic.encode_record("ab", keys)
    assert frame[:4] == (len(frame) - 4).to_bytes(4, "little")
    assert frame[4] == traffic.RECORD
    assert frame[5:7] == b"\x02\x00" and frame[7:9] == b"ab"
    assert frame[9:13] == (3).to_bytes(4, "little")
    assert frame[13:] == keys.astype("<u8").tobytes()
