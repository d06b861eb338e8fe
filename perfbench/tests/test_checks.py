"""The output checks fail on a dropped key and on a wrong estimate."""

import json
import struct

import numpy as np
import pytest

import checks
import traffic
from loadgen import Sent
from repro.serve.tenants import TenantConfig
from repro.wire import encode_sketch

SEED = 11


def stream() -> traffic.TenantStream:
    return traffic.TenantStream("t", 0, [1000, 20000, 20000], [0, 2000, 2000])


def served(shards: int, frames=None):
    """A pool the way the server builds it, fed the stream's frames."""
    tenant = stream()
    pool = TenantConfig(memory_bits=5000 * shards, shards=shards).build_pool("t")
    for frame in range(tenant.frames) if frames is None else frames:
        pool.record_many(tenant.keys(SEED, frame))
    return tenant, pool


def answered(verb: int, response_verb: int, payload: bytes, keys: int = 0):
    request = Sent(verb, 0.0, "t", keys)
    request.response_verb, request.payload = response_verb, payload
    return request


@pytest.mark.parametrize("shards", [1, 4])
def test_a_correct_tenant_passes(shards):
    tenant, pool = served(shards)
    tally = checks.Tally()
    values = checks.check_tenants(
        tally, SEED, [checks.TenantResult(tenant, pool.query(), encode_sketch(pool))])
    assert (tally.attempted, tally.failed) == (1, 0), tally.problems
    assert 0 <= values["rel_error_pct"] < 5
    assert values["export_bytes"] > 0


def test_a_served_estimate_that_the_frame_does_not_decode_to_fails():
    tenant, pool = served(1)
    tally = checks.Tally()
    checks.check_tenants(tally, SEED, [
        checks.TenantResult(tenant, pool.query() * 1.01, encode_sketch(pool))])
    assert tally.failed == 1 and "decodes to" in tally.problems[0]


def test_an_estimate_outside_the_theorem3_tolerance_fails():
    # The server "lost" the last frame: the frame and the estimate
    # agree, but the estimate is far below the exact count.
    tenant, pool = served(4, frames=[0, 1])
    tally = checks.Tally()
    checks.check_tenants(tally, SEED, [
        checks.TenantResult(tenant, pool.query(), encode_sketch(pool))])
    assert tally.failed == 1 and "tolerance" in tally.problems[0]


def test_an_undecodable_frame_fails():
    tenant, pool = served(1)
    tally = checks.Tally()
    checks.check_tenants(tally, SEED, [
        checks.TenantResult(tenant, pool.query(), b"not a frame")])
    assert tally.failed == 1 and "does not decode" in tally.problems[0]


def test_a_record_acked_short_of_its_keys_fails():
    tally = checks.Tally()
    good = answered(traffic.RECORD, traffic.RECORD_OK, struct.pack("<Q", 5), 5)
    short = answered(traffic.RECORD, traffic.RECORD_OK, struct.pack("<Q", 4), 5)
    assert tally.response(good)
    assert not tally.response(short)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_error_frames_fail():
    tally = checks.Tally()
    error = answered(traffic.ESTIMATE, traffic.ERROR, b"\x04\x00busy")
    assert not tally.response(error)
    assert "busy" in tally.problems[0]


@pytest.mark.parametrize("records, ok", [
    ({"submitted": 10, "applied": 10, "dropped": 0}, True),
    ({"submitted": 10, "applied": 9, "dropped": 1}, False),
    ({"submitted": 9, "applied": 9, "dropped": 0}, False),
])
def test_stats_accounting_catches_a_dropped_key(records, ok):
    tally = checks.Tally()
    stats = answered(traffic.STATS, traffic.STATS_OK,
                     json.dumps({"records": records}).encode())
    assert tally.response(stats)
    tally.stats(json.loads(stats.payload), sent_keys=10)
    assert (tally.failed == 0) == ok


def test_shard_counts_add_up_to_the_distinct_count():
    tenant, pool = served(4)
    counts = checks.shard_counts(SEED, tenant, pool)
    assert len(counts) == 4 and sum(counts) == tenant.distinct
    keys = np.concatenate([tenant.keys(SEED, f) for f in range(tenant.frames)])
    ids = pool.partitioner.shard_ids(np.unique(keys))
    assert counts == np.bincount(ids.astype(np.int64), minlength=4).tolist()
