"""Multi-tenant estimator registry behind the cardinality service.

One server hosts many independent flows — the per-flow regime of the
Self-Learning Bitmap lineage that SMB inherits — so the serving layer
keys everything on a *tenant* name. :class:`TenantRegistry` maps tenant
names to :class:`~repro.engine.shards.ShardPool` instances, creating
pools lazily on first RECORD with a configuration shared by every
tenant (:class:`TenantConfig`). Creation is deterministic: a tenant's
pool seed is derived from the registry seed and the tenant name, so two
registries built from the same config that ingest the same per-tenant
streams hold bit-identical state — the property the kill-and-resume
test asserts against a local oracle.

The registry serializes with the same strict-framing discipline as the
estimators (through :mod:`repro.framing`) and is registered for
checkpoints (:func:`repro.estimators.registry.register`), so the whole
multi-tenant state rides one atomic
:class:`~repro.engine.recovery.CheckpointManager` generation. The
tenants are :mod:`repro.framing`'s (name, blob) list of (UTF-8 tenant
name, ``ShardPool`` blob)::

    magic "RPTR" | u16 version | u32 config-JSON length | config JSON
    | (name, blob) list, sorted by name bytes

Tenants are sorted by encoded name, making the byte image a canonical
function of the logical state (dict insertion order cannot leak in);
``from_bytes`` rejects truncation, trailing bytes, unsorted or
duplicate tenants, more tenants than ``max_tenants``, and any pool the
config would not have built rather than restore a
silently-wrong registry.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass

from repro.engine.shards import ShardPool
from repro.estimators.base import CardinalityEstimator
from repro.estimators.registry import register
from repro.framing import json_object, pack_entries, read_entries, take, unpack_header

__all__ = ["TenantConfig", "TenantLimitError", "TenantRegistry"]

_HEADER = struct.Struct("<4sHI")  # magic, version, config length
_MAGIC = b"RPTR"
_VERSION = 1


class TenantLimitError(RuntimeError):
    """Raised when a RECORD would create a tenant beyond ``max_tenants``."""


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant estimator sizing, shared by every tenant of a server.

    ``memory_bits`` / ``design_cardinality`` size each tenant's pool
    exactly like the paper's single-flow setting; ``shards`` > 1 splits
    each tenant into hash-partitioned shards; ``max_tenants`` bounds
    server memory (each tenant costs ~``memory_bits`` bits).
    """

    estimator: str = "SMB"
    memory_bits: int = 5000
    shards: int = 1
    design_cardinality: int = 1_000_000
    seed: int = 0
    max_tenants: int = 1_000_000

    def __post_init__(self) -> None:
        if self.memory_bits < 64:
            raise ValueError(
                f"memory_bits must be >= 64, got {self.memory_bits}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.design_cardinality < 1:
            raise ValueError(
                "design_cardinality must be >= 1, got "
                f"{self.design_cardinality}"
            )
        if self.max_tenants < 1:
            raise ValueError(
                f"max_tenants must be >= 1, got {self.max_tenants}"
            )

    def canonical_json(self) -> str:
        """Deterministic JSON image (sorted keys, no whitespace)."""
        return json.dumps(
            asdict(self), sort_keys=True, separators=(",", ":")
        )

    def tenant_seed(self, tenant: str) -> int:
        """Deterministic pool seed for one tenant.

        Mixes the registry seed with a CRC of the tenant name so
        distinct tenants decorrelate while any two registries with the
        same config agree — required for the oracle comparisons in the
        serve tests and for bit-exact resume.
        """
        return (int(self.seed) * 0x9E3779B1 + zlib.crc32(
            tenant.encode("utf-8")
        )) & 0xFFFFFFFF

    def build_pool(self, tenant: str) -> ShardPool:
        """A fresh, empty pool for one tenant."""
        return ShardPool.of(
            self.estimator,
            self.memory_bits,
            self.shards,
            design_cardinality=self.design_cardinality,
            seed=self.tenant_seed(tenant),
        )


def _params(
    shard: CardinalityEstimator, seed: int | None = None
) -> tuple[str, dict[str, object]]:
    """A shard's class and merge parameters; ``seed`` stands in for its seed."""
    assert shard.state is not None  # every estimator a pool holds has one
    params = {field: getattr(shard, field) for field in shard.state.merge_fields}
    if seed is not None:
        params["seed"] = seed
    return type(shard).__name__, params


def _check_built_by(
    config: TenantConfig, name: str, pool: ShardPool, built: ShardPool | None
) -> ShardPool:
    """Raise ``ValueError`` unless ``config.build_pool(name)`` could be ``pool``.

    Pools of one config differ only in their seeds, so one pool built
    by the config serves every tenant: ``built`` is it (``None`` at the
    first tenant, which builds it; it is returned for the next), and
    each pool is compared with it under ``config.tenant_seed(name)`` as
    the partition seed and every shard's seed. Shard count and memory
    are compared before anything is built, so a config that the bytes
    cannot back allocates nothing: every estimator uses at least 0.93
    of the budget it is built for.
    """
    seed = config.tenant_seed(name)
    if pool.num_shards != config.shards:
        problem = f"{pool.num_shards} shards, the config builds {config.shards}"
    elif 2 * pool.memory_bits() < config.memory_bits:
        problem = (
            f"{pool.memory_bits()} bits cannot hold the config's "
            f"{config.memory_bits}-bit budget"
        )
    elif pool.seed != seed:
        problem = f"partition seed {pool.seed}, the config builds {seed}"
    else:
        if built is None:
            built = config.build_pool(name)
        for index, (mine, theirs) in enumerate(zip(built.shards, pool.shards)):
            expected, got = _params(mine, seed), _params(theirs)
            if expected != got:
                problem = f"shard {index} is {got}, the config builds {expected}"
                break
        else:
            return built
    raise ValueError(
        f"corrupt tenant registry: pool {name!r} does not match the "
        f"config: {problem}"
    )


@register("checkpoint")
class TenantRegistry:
    """Lazily-populated tenant-name → shard-pool map."""

    def __init__(self, config: TenantConfig) -> None:
        self.config = config
        self.pools: dict[str, ShardPool] = {}
        #: Pool images :meth:`to_bytes` lays out as they are, for
        #: tenants with no pool here: a server's CHECKPOINT copies each
        #: tenant's bytes at that tenant's own safe point.
        self.images: dict[str, bytes] = {}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def pool(self, tenant: str) -> ShardPool:
        """The tenant's pool, created on first use.

        Raises :class:`TenantLimitError` when creation would exceed
        ``max_tenants``.
        """
        existing = self.pools.get(tenant)
        if existing is not None:
            return existing
        if len(self.pools) >= self.config.max_tenants:
            raise TenantLimitError(
                f"tenant limit reached ({self.config.max_tenants}); "
                f"refusing to create {tenant!r}"
            )
        created = self.config.build_pool(tenant)
        self.pools[tenant] = created
        return created

    def estimate(self, tenant: str) -> float:
        """The tenant's current estimate; 0.0 for an unknown tenant.

        An unknown tenant has — observably — recorded nothing, so zero
        is the honest answer and ESTIMATE never mutates the registry
        (the high-QPS verb allocates nothing).
        """
        pool = self.pools.get(tenant)
        return pool.query() if pool is not None else 0.0

    def record_many(self, tenant: str, items) -> None:
        """Synchronous ingest (oracle/test path; the server uses
        :class:`~repro.engine.pipeline.IngestPipeline` instead)."""
        self.pool(tenant).record_many(items)

    def tenants(self) -> list[str]:
        """Tenant names, sorted (the serialization order)."""
        return sorted(self.pools)

    def __len__(self) -> int:
        return len(self.pools)

    def __repr__(self) -> str:
        return (
            f"TenantRegistry(tenants={len(self.pools)}, "
            f"config={self.config.canonical_json()})"
        )

    # ------------------------------------------------------------------
    # Serialization (strict framing, canonical bytes)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical byte image: config, then pools sorted by name bytes."""
        blobs = dict(self.images)
        for name, pool in list(self.pools.items()):  # the tenants, once
            blobs[name] = pool.to_bytes()
        config_raw = self.config.canonical_json().encode("utf-8")
        return pack_entries(
            _HEADER.pack(_MAGIC, _VERSION, len(config_raw)) + config_raw,
            # Names are distinct, so pairs sort by name alone.
            sorted([(name.encode("utf-8"), blob) for name, blob in blobs.items()]),
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TenantRegistry":
        """Restore a registry serialized by :meth:`to_bytes` (strict)."""
        what = "tenant registry"
        magic, version, config_length = unpack_header(_HEADER, data, what)
        if magic != _MAGIC:
            raise ValueError("not a tenant registry: bad magic")
        if version != _VERSION:
            raise ValueError(
                f"unsupported tenant registry version {version}"
            )
        config_raw, offset = take(data, _HEADER.size, config_length, what, "config")
        try:
            config = TenantConfig(**json_object(config_raw, what, "config"))
        except (TypeError, ValueError) as error:
            raise ValueError(
                "corrupt tenant registry: bad config JSON"
            ) from error
        count, entries = read_entries(data, offset, what, "tenant")
        if count > config.max_tenants:
            raise ValueError(
                f"corrupt tenant registry: {count} tenants exceed "
                f"max_tenants {config.max_tenants}"
            )
        registry = cls(config)
        built: ShardPool | None = None
        previous: bytes | None = None
        for name_raw, blob in entries:
            name_bytes = bytes(name_raw)
            if previous is not None and name_bytes <= previous:
                # Canonical order doubles as a duplicate check.
                raise ValueError(
                    "corrupt tenant registry: tenants out of order"
                )
            previous = name_bytes
            name = str(name_raw, "utf-8")
            pool = ShardPool.from_bytes(blob)
            built = _check_built_by(config, name, pool, built)
            registry.pools[name] = pool
        return registry
