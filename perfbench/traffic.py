"""Seeded inputs of the serve benchmark and the frame codec that sends them.

Everything here is the benchmark's own code: the key streams, the
request schedules and the byte encoding of every request. None of it
imports ``repro``, so a change to the program cannot change the traffic
it is measured with.

Key streams. A tenant's arrivals are *fresh* keys, each seen for the
first time, mixed with *duplicates* that repeat a fresh key sent
earlier, the earliest keys most often (Zipf(1) weights over fresh key
numbers). Fresh key number ``c`` of tenant ``t`` is
``splitmix64(c + salt(seed, t))``; splitmix64 is a bijection of the
64-bit integers, so distinct ``c`` give distinct keys and the exact
distinct count of a tenant is the number of fresh keys it was sent, in
closed form. Every frame of a stream is a pure function of
``(seed, tenant, frame index)``, so a frame can be built on demand
without generating the stream before it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Protocol constants (docs/serving.md): a frame is a u32 body length
# followed by the body, whose first byte is the verb.
RECORD, ESTIMATE, STATS, CHECKPOINT, EXPORT = 0x01, 0x02, 0x03, 0x04, 0x05
RECORD_OK, ESTIMATE_OK, STATS_OK, CHECKPOINT_OK, EXPORT_OK = (
    0x81, 0x82, 0x83, 0x84, 0x85,
)
ERROR = 0xFF
VERB_NAMES = {
    RECORD: "record", ESTIMATE: "estimate", STATS: "stats",
    CHECKPOINT: "checkpoint", EXPORT: "export",
}

_LEN = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def splitmix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (a bijection)."""
    z = values.astype(np.uint64) + _GOLDEN
    t = z >> np.uint64(30)
    z ^= t
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def tenant_salt(seed: int, tenant: int) -> np.uint64:
    """Per-(seed, tenant) offset of the fresh-key counter."""
    mixed = splitmix64(np.array([(seed << 20) ^ tenant], dtype=np.uint64))
    return np.uint64(mixed[0])


def fresh_keys(seed: int, tenant: int, start: int, count: int) -> np.ndarray:
    """Fresh keys ``start .. start + count - 1`` of one tenant."""
    counters = np.arange(start, start + count, dtype=np.uint64)
    return splitmix64(counters + tenant_salt(seed, tenant))


def frame_keys(
    seed: int, tenant: int, index: int, fresh_base: int, size: int, dups: int
) -> np.ndarray:
    """The keys of one RECORD frame of a tenant's stream.

    ``size`` arrivals, of which exactly ``dups`` repeat a fresh key sent
    earlier in the stream (fresh numbers below ``fresh_base``) or
    earlier in this frame; the other ``size - dups`` are the fresh keys
    ``fresh_base, fresh_base + 1, ...`` in order. A repeat of one of
    ``a`` fresh keys picks fresh number ``k`` with probability about
    ``1 / ((k + 1.5) ln(a + 1))``: Zipf(1) weights, drawn by inverting
    the continuous ``1 / x`` law on ``[1, a + 1)``.
    """
    if dups and fresh_base == 0:
        raise ValueError("a stream's first frame cannot repeat keys")
    rng = np.random.default_rng([seed, tenant, index])
    is_dup = np.zeros(size, dtype=bool)
    if dups:
        # Position 0 stays fresh when nothing was sent before, so every
        # duplicate has an earlier key to repeat.
        is_dup[rng.choice(size, dups, replace=False)] = True
    fresh_so_far = np.cumsum(~is_dup)  # fresh keys up to and including i
    counters = fresh_base + fresh_so_far - 1
    if dups:
        available = fresh_base + fresh_so_far[is_dup]  # fresh keys sent before
        picks = np.floor((available + 1.0) ** rng.random(dups)).astype(np.int64)
        counters[is_dup] = np.minimum(picks, available) - 1
    return splitmix64(counters.astype(np.uint64) + tenant_salt(seed, tenant))


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------


def _tenant_bytes(tenant: str) -> bytes:
    raw = tenant.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def _frame(body: bytes) -> bytes:
    return _LEN.pack(len(body)) + body


def encode_record(tenant: str, keys: np.ndarray) -> bytes:
    keys = np.ascontiguousarray(keys, dtype="<u8")
    return _frame(
        bytes([RECORD]) + _tenant_bytes(tenant) + _U32.pack(keys.size)
        + keys.tobytes()
    )


def encode_estimate(tenant: str) -> bytes:
    return _frame(bytes([ESTIMATE]) + _tenant_bytes(tenant))


def encode_export(tenant: str) -> bytes:
    return _frame(bytes([EXPORT]) + _tenant_bytes(tenant))


def encode_stats() -> bytes:
    return _frame(bytes([STATS]))


def encode_checkpoint() -> bytes:
    return _frame(bytes([CHECKPOINT]))


class ResponseParser:
    """Incremental splitter of response frames into ``(verb, payload)``."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        self._buffer += data
        out = []
        offset = 0
        buffer = self._buffer
        while len(buffer) - offset >= 4:
            (length,) = _LEN.unpack_from(buffer, offset)
            if len(buffer) - offset - 4 < length:
                break
            body = bytes(buffer[offset + 4:offset + 4 + length])
            out.append((body[0], body[1:]))
            offset += 4 + length
        if offset:
            del buffer[:offset]
        return out


def decode_u64(payload: bytes) -> int:
    return _U64.unpack(payload)[0]


def decode_f64(payload: bytes) -> float:
    return _F64.unpack(payload)[0]


def decode_export(payload: bytes) -> bytes:
    (length,) = _U32.unpack_from(payload)
    frame = payload[4:]
    if len(frame) != length:
        raise ValueError("EXPORT_OK frame length mismatch")
    return frame


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------


@dataclass
class TenantStream:
    """One tenant's RECORD frames: sizes, duplicate counts and fresh bases."""

    name: str
    index: int
    sizes: list[int]
    dups: list[int]
    bases: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        base, self.bases = 0, []
        for size, dup in zip(self.sizes, self.dups):
            self.bases.append(base)
            base += size - dup

    @property
    def frames(self) -> int:
        return len(self.sizes)

    @property
    def arrivals(self) -> int:
        return sum(self.sizes)

    @property
    def distinct(self) -> int:
        return sum(self.sizes) - sum(self.dups)

    def keys(self, seed: int, frame: int) -> np.ndarray:
        return frame_keys(
            seed, self.index, frame, self.bases[frame],
            self.sizes[frame], self.dups[frame],
        )

    def record(self, seed: int, frame: int) -> bytes:
        return encode_record(self.name, self.keys(seed, frame))


#: bulk: keys per large RECORD frame (1 MiB of keys) and its share of
#: duplicates; the first frame of each tenant is a small warm-up. All
#: three are assumptions (README.md): the workload wants mostly
#: distinct keys, so that every shard's SMB reaches a high round.
BULK_FRAME = 1 << 17
BULK_DUP_SHARE = 1 / 16
BULK_WARMUP = 1024


def bulk_streams(seconds: int) -> list[TenantStream]:
    """Two tenants, each ``seconds`` MiKeys of mostly distinct keys."""
    frames = max(2, seconds * (1 << 20) // BULK_FRAME)
    dups = int(BULK_FRAME * BULK_DUP_SHARE)
    return [
        TenantStream(
            name=f"bulk-{tenant}",
            index=tenant,
            sizes=[BULK_WARMUP] + [BULK_FRAME] * frames,
            dups=[0] + [dups] * frames,
        )
        for tenant in range(2)
    ]


@dataclass(frozen=True)
class Request:
    """One scheduled request of an open-loop schedule."""

    due: float  # seconds after the schedule starts
    conn: int  # connection index
    verb: int
    tenant: str | None = None
    frame: int = -1  # RECORD: frame index in the tenant's stream


#: tenant_mix: tenant sizes and repeats copy the repository's model of
#: the paper's CAIDA trace (Section V-F), the defaults of ``TraceConfig``
#: in src/repro/streams/trace.py; values are copied, not imported, so
#: the traffic cannot change with the program. The largest tenant
#: reaches the trace's maximum stream cardinality in a run of
#: MIX_NOMINAL_SECONDS, and rates stay fixed for other run lengths.
MIX_MAX_CARDINALITY = 80_000  # TraceConfig.max_cardinality
MIX_NOMINAL_SECONDS = 16  # BENCHMARK.json run_seconds
MIX_SIZE_EXPONENT = 1.05  # TraceConfig.zipf_exponent: size ~ rank^-exponent
#: Arrivals per distinct key: TraceConfig's 2,000,000 packets over the
#: 589,625 distinct (stream, item) pairs its default sizes add up to.
MIX_ARRIVALS_PER_KEY = 2_000_000 / 589_625
#: The rest are assumptions, with their reasons in README.md.
MIX_INITIAL = 80  # tenants created during set-up
MIX_TRICKLE = 20  # first-time tenants arriving during the run
MIX_MIN_DISTINCT = 64  # floor on a tenant's size, binding only in short runs
MIX_FRAME_MAX = 1024  # largest RECORD frame, in keys
MIX_ESTIMATE_RATE = 1000.0  # ESTIMATE requests per second
MIX_ESTIMATE_POPULARITY = 1.2  # Zipf exponent of ESTIMATE tenant choice
MIX_EXPORT_PERIOD = 4.0  # seconds between EXPORTs


@dataclass
class MixPlan:
    """Inputs of one tenant_mix run."""

    streams: list[TenantStream]
    initial: int  # streams[:initial] are created during set-up
    schedule: list[Request]  # the open-loop phase, sorted by due time


def mix_plan(seed: int, seconds: int) -> MixPlan:
    """Power-law tenants, skewed reads, and an open-loop schedule.

    Connection 0 carries ESTIMATEs at a fixed rate with Zipf tenant
    popularity, and a STATS poll every second. Connection 1 carries the
    RECORD frames (first frames of the initial tenants are their set-up
    warm-ups, so they are not in the schedule), one CHECKPOINT a second
    and an EXPORT every few seconds. Sizes follow fixed power-law
    quantiles; the seed permutes which tenant gets which size and draws
    keys, frame sizes and times.
    """
    rng = np.random.default_rng([seed, 0x4D4958])
    count = MIX_INITIAL + MIX_TRICKLE
    ranks = rng.permutation(count) + 1
    largest = MIX_MAX_CARDINALITY * seconds / MIX_NOMINAL_SECONDS
    streams = []
    for tenant in range(count):
        distinct = max(MIX_MIN_DISTINCT, int(
            largest * ranks[tenant] ** -MIX_SIZE_EXPONENT))
        arrivals = int(round(distinct * MIX_ARRIVALS_PER_KEY))
        sizes = []
        left = arrivals
        while left:
            size = min(left, int(rng.integers(MIX_FRAME_MAX // 4, MIX_FRAME_MAX + 1)))
            sizes.append(size)
            left -= size
        dups = _spread_dups(rng, sizes, arrivals - distinct)
        streams.append(
            TenantStream(f"mix-{tenant:03d}", tenant, sizes, dups)
        )

    # RECORD frames: each tenant's frames at sorted uniform times over
    # its active span (trickle tenants start part-way in), merged, then
    # sent at an even rate in that order.
    stamps = []
    for stream in streams:
        begin = 0.0 if stream.index < MIX_INITIAL else rng.uniform(0.05, 0.8)
        first = 1 if stream.index < MIX_INITIAL else 0
        times = np.sort(rng.uniform(begin, 1.0, stream.frames - first))
        stamps += [
            (float(time), stream.index, frame)
            for frame, time in enumerate(times, start=first)
        ]
    stamps.sort()
    schedule = []
    gap = seconds / max(1, len(stamps))
    for position, (__, tenant, frame) in enumerate(stamps):
        schedule.append(
            Request(position * gap, 1, RECORD, streams[tenant].name, frame)
        )
    for due in _jittered(rng, 1.0, seconds):
        schedule.append(Request(due, 1, CHECKPOINT))
    for due in _jittered(rng, 1.0, seconds):
        schedule.append(Request(due, 0, STATS))
    popular = _zipf_choices(rng, MIX_INITIAL, int(MIX_ESTIMATE_RATE * seconds))
    for position, tenant in enumerate(popular):
        schedule.append(
            Request(position / MIX_ESTIMATE_RATE, 0, ESTIMATE,
                    streams[tenant].name)
        )
    for due in _jittered(rng, MIX_EXPORT_PERIOD, seconds):
        tenant = int(popular[int(due * MIX_ESTIMATE_RATE)])
        schedule.append(Request(due, 1, EXPORT, streams[tenant].name))
    schedule.sort(key=lambda request: (request.due, request.conn))
    return MixPlan(streams, MIX_INITIAL, schedule)


def _jittered(rng: np.random.Generator, period: float, seconds: float) -> list[float]:
    """One time drawn uniformly in each whole ``period`` of ``seconds``.

    Random phases keep a periodic request from locking onto a period of
    the server's own (a worker's polling back-off, say), which would make
    its latency depend on the run's starting phase.
    """
    count = int(seconds // period)
    return [float(due) for due in
            (np.arange(count) + rng.uniform(0.0, 1.0, count)) * period]


def _spread_dups(rng: np.random.Generator, sizes: list[int], dups: int) -> list[int]:
    """Split ``dups`` duplicates over frames (none in the first frame)."""
    if len(sizes) == 1 or dups == 0:
        return [0] * len(sizes)
    capacity = np.array([0] + sizes[1:])
    weights = capacity / capacity.sum()
    counts = np.minimum(capacity, np.floor(weights * dups).astype(int))
    # Hand out the remainder one by one in seeded order.
    order = rng.permutation(np.arange(1, len(sizes)))
    left = dups - int(counts.sum())
    for frame in order:
        if left == 0:
            break
        if counts[frame] < capacity[frame]:
            counts[frame] += 1
            left -= 1
    return [int(count) for count in counts]


def _zipf_choices(rng: np.random.Generator, count: int, draws: int) -> np.ndarray:
    """``draws`` tenant indices in [0, count) with Zipf popularity."""
    weights = np.arange(1, count + 1, dtype=float) ** -MIX_ESTIMATE_POPULARITY
    popularity = rng.permutation(count)  # which tenant holds which rank
    picks = rng.choice(count, size=draws, p=weights / weights.sum())
    return popularity[picks]


#: bulk: the probes after the ingest has drained: ESTIMATEs alone, then
#: CHECKPOINTs alone, so neither disturbs the other's latency.
PROBE_SECONDS = 4.0
PROBE_ESTIMATE_RATE = 1000.0
PROBE_CHECKPOINTS = 16
PROBE_CHECKPOINT_PERIOD = 0.1


def bulk_probe(seed: int, tenants: list[str]) -> list[Request]:
    """ESTIMATEs at a fixed rate, round-robin over the bulk tenants, on
    connection 0; then CHECKPOINTs at jittered times on connection 1."""
    rng = np.random.default_rng([seed, 0x50524F42])
    total = int(PROBE_SECONDS * PROBE_ESTIMATE_RATE)
    schedule = [
        Request(position / PROBE_ESTIMATE_RATE, 0, ESTIMATE,
                tenants[position % len(tenants)])
        for position in range(total)
    ]
    begin = PROBE_SECONDS + PROBE_CHECKPOINT_PERIOD
    schedule += [
        Request(begin + due, 1, CHECKPOINT)
        for due in _jittered(rng, PROBE_CHECKPOINT_PERIOD,
                             PROBE_CHECKPOINTS * PROBE_CHECKPOINT_PERIOD)
    ]
    return schedule
