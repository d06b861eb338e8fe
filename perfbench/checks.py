"""Output checks of a run: acknowledgements, accounting and accuracy.

Every request a workload sends is checked on its own response (a
RECORD must be acked with its full key count, an ESTIMATE must be a
finite non-negative number, and so on); :class:`Tally` counts those
attempts and failures. After the final drain, :func:`check_tenants`
checks each tenant's served estimate against the exact distinct count
within the Theorem-3 tolerance, and that its EXPORT frame decodes, via
``repro.wire.decode_sketch``, to a sketch whose query is the served
estimate. Mid-run ESTIMATE answers reflect only the records applied so
far, so only their form is checked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import traffic
from loadgen import Sent

#: Confidence of the Theorem-3 tolerance for the whole run: the serve
#: and engine statistical tests use 0.99 and split it over the K shards
#: of a pool by a union bound; here it is split over every shard of
#: every tenant.
CONFIDENCE = 0.99

_EXPECTED = {
    traffic.RECORD: traffic.RECORD_OK,
    traffic.ESTIMATE: traffic.ESTIMATE_OK,
    traffic.STATS: traffic.STATS_OK,
    traffic.CHECKPOINT: traffic.CHECKPOINT_OK,
    traffic.EXPORT: traffic.EXPORT_OK,
}


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(reason)

    def response(self, request: Sent) -> bool:
        """Check one answered request; returns True when it is good."""
        self.attempted += 1
        name = traffic.VERB_NAMES.get(request.verb, hex(request.verb))
        if request.response_verb != _EXPECTED[request.verb]:
            detail = ""
            if request.response_verb == traffic.ERROR:
                detail = request.payload[2:].decode("utf-8", "replace")
            self.fail(f"{name} {request.tenant}: answered "
                      f"0x{request.response_verb:02x} {detail}".strip())
            return False
        if request.verb == traffic.RECORD:
            accepted = traffic.decode_u64(request.payload)
            if accepted != request.keys:
                self.fail(f"record {request.tenant}: acked {accepted} of "
                          f"{request.keys} keys")
                return False
        elif request.verb == traffic.ESTIMATE:
            value = traffic.decode_f64(request.payload)
            if not math.isfinite(value) or value < 0:
                self.fail(f"estimate {request.tenant}: {value}")
                return False
        elif request.verb == traffic.STATS:
            try:
                json.loads(request.payload)
            except ValueError:
                self.fail("stats: payload is not JSON")
                return False
        return True

    def stats(self, document: dict, sent_keys: int) -> None:
        """STATS after the final drain: applied == sent, nothing dropped."""
        self.attempted += 1
        records = document.get("records", {})
        submitted = records.get("submitted")
        applied = records.get("applied")
        dropped = records.get("dropped")
        if (submitted, applied, dropped) != (sent_keys, sent_keys, 0):
            self.fail(f"stats: submitted={submitted} applied={applied} "
                      f"dropped={dropped}, sent {sent_keys}")


def theorem3_delta(n: int, memory_bits: int, threshold: int,
                   confidence: float) -> float:
    """Smallest δ on the tests' grid with Theorem-3 β(δ) >= confidence."""
    from repro.core.theory import smb_error_bound

    for delta in np.linspace(0.005, 0.95, 400):
        if smb_error_bound(float(delta), float(n), memory_bits,
                           threshold) >= confidence:
            return float(delta)
    return 0.95


@dataclass
class TenantResult:
    """A tenant's stream and what the server answered for it after the drain."""

    stream: traffic.TenantStream
    estimate: float
    frame: bytes


def check_tenants(
    tally: Tally, seed: int, tenants: list[TenantResult]
) -> dict[str, float]:
    """Final per-tenant checks; returns the deterministic values.

    Each tenant is one attempted operation, failed if its EXPORT frame
    does not decode to the served estimate or the estimate is outside
    the Theorem-3 tolerance. For a K-shard pool the tolerance is the
    engine test's: each shard's δ at its exact sub-stream count,
    weighted by that count.
    """
    from repro.wire import decode_sketch

    decoded = []
    for tenant in tenants:
        tally.attempted += 1
        try:
            pool = decode_sketch(tenant.frame)
        except ValueError as error:
            tally.fail(f"export {tenant.stream.name}: does not decode ({error})")
            continue
        if pool.query() != tenant.estimate:
            tally.fail(f"export {tenant.stream.name}: decodes to "
                       f"{pool.query()!r}, served {tenant.estimate!r}")
            continue
        decoded.append((tenant, getattr(pool, "shards", [pool]), pool))
    shards_total = sum(len(shards) for __, shards, __ in decoded)
    confidence = 1.0 - (1.0 - CONFIDENCE) / max(1, shards_total)
    errors, rounds = [], []
    for tenant, shards, pool in decoded:
        rounds += [shard.r for shard in shards]
        exact = tenant.stream.distinct
        counts = shard_counts(seed, tenant.stream, pool)
        tolerance = sum(
            count * theorem3_delta(count, shard.m, shard.T, confidence)
            for count, shard in zip(counts, shards) if count
        ) / exact
        error = abs(tenant.estimate - exact) / exact
        errors.append(error)
        if error > tolerance:
            tally.fail(f"estimate {tenant.stream.name}: {tenant.estimate:.1f} "
                       f"vs exact {exact} (error {error:.4f} > tolerance "
                       f"{tolerance:.4f})")
    sizes = [len(tenant.frame) for tenant in tenants]
    return {
        "rel_error_pct": 100.0 * float(np.mean(errors)) if errors else -1.0,
        "export_bytes": float(np.mean(sizes)) if sizes else -1.0,
        "core.smb.round_mean": float(np.mean(rounds)) if rounds else -1.0,
    }


def shard_counts(seed: int, stream: traffic.TenantStream, pool) -> list[int]:
    """Exact distinct keys per shard of ``pool`` for one tenant stream."""
    shards = getattr(pool, "shards", None)
    if shards is None or len(shards) == 1:
        return [stream.distinct]
    counts = np.zeros(len(shards), dtype=np.int64)
    step = 1 << 20
    for start in range(0, stream.distinct, step):
        keys = traffic.fresh_keys(
            seed, stream.index, start, min(step, stream.distinct - start)
        )
        ids = pool.partitioner.shard_ids(keys)
        counts += np.bincount(ids.astype(np.int64), minlength=len(shards))
    return [int(count) for count in counts]
