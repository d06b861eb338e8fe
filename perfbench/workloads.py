"""The workloads: set-up, traffic, final drain, checks and end-to-end metrics.

Each pass of a workload starts ``repro serve`` several times, before and
after the traffic, and measures each start-up (``setup_s`` is the median
of their CPU time); the last server started before the traffic serves
it. The generator holds two connections to it and feeds each tenant
from exactly one of them, in a fixed order, so a tenant's arrival
order, and with it its final state, is the same on every run of a seed.
After the traffic, one CHECKPOINT drains every tenant, and the run
checks STATS accounting and every tenant's estimate and EXPORT frame
(see ``checks.py``).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
from dataclasses import dataclass, field

import checks
import measure
import traffic
from loadgen import Connection, LoadLoop, Sent, clock
from serverproc import ServerProcess

#: Measured server start-ups per pass: SETUPS_BEFORE before the traffic
#: (the last of them serves it) and SETUPS_AFTER after it. setup_s is the
#: median of their CPU times. The host's speed drifts within tens of
#: seconds, so start-ups at both ends of the pass steady the median.
SETUPS_BEFORE, SETUPS_AFTER = 4, 3
#: bulk: RECORD frames each connection keeps in flight.
BULK_WINDOW = 4
#: Open-loop schedules start this long after they are built.
LEAD = 0.05

SERVE_ARGS = {
    "bulk_ingest": ["--memory-bits", "10000", "--shards", "4",
                    "--design-cardinality", str(1 << 24)],
    "tenant_mix": [],
}
WORKLOADS = tuple(SERVE_ARGS)

#: End-to-end metrics and their units. The first two are bounded in
#: BENCHMARK.json; the server's CPU time, throughput and latencies are
#: reported beside them but move with the shared host's speed and CPU
#: steal by more than any bound can hold (see README.md).
UNITS = {
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "server_cpu_s": "s",
    "ingest_mkeys_s": "Mkeys/s",
    "estimate_p50_us": "us",
    "estimate_p90_us": "us",
    "record_p50_ms": "ms",
    "checkpoint_ms": "ms",
}
BOUNDED = ("peak_rss_mb", "setup_s")


@dataclass
class Context:
    root: str  # the checkout
    workdir: str  # working space of this pass, inside the checkout
    workload: str
    seed: int
    seconds: int
    traced: bool = False


@dataclass
class PassResult:
    metrics: dict[str, float]
    latency: dict[str, dict]  # per verb: percentiles with sample counts
    lateness: dict  # generator lateness of open-loop requests, us
    deterministic: dict[str, float]
    tally: checks.Tally
    spans: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


class Instance:
    """One server process and the generator's two connections to it."""

    def __init__(self, ctx: Context, index: int) -> None:
        self.dir = os.path.join(ctx.workdir, f"server-{index}")
        os.makedirs(self.dir)
        self.checkpoints = os.path.join(self.dir, "ckpt")
        self.spans = (
            os.path.join(self.dir, "spans.npz") if ctx.traced else None
        )
        self.server = ServerProcess(
            ctx.root,
            SERVE_ARGS[ctx.workload] + ["--checkpoint-dir", self.checkpoints],
            os.path.join(self.dir, "server.log"),
            self.spans,
        )
        self.load: LoadLoop | None = None

    def open(self, tally: checks.Tally, seed: int,
             warmups: list[tuple[int, traffic.TenantStream]]
             ) -> tuple[float, float]:
        """Start the server and create every initial tenant.

        A tenant is created by its first RECORD, the warm-up: the first
        frame of its stream, sent on the connection that feeds it.
        Returns the set-up's CPU seconds (every thread of the server and
        of any process it forked, from spawn until the last warm-up is
        acked) and its wall-clock seconds.
        """
        frames = [(conn, stream, stream.record(seed, 0))
                  for conn, stream in warmups]
        began = clock()
        host, port = self.server.start()
        self.load = LoadLoop([Connection(host, port), Connection(host, port)])
        for conn, stream, frame in frames:
            self.load.send(conn, frame, Sent(
                traffic.RECORD, clock(), stream.name, stream.sizes[0], 0))
        self.load.run(on_done=lambda conn, request: tally.response(request))
        wall = clock() - began
        return self.server.cpu_seconds(), wall

    def call(self, conn: int, frame: bytes, verb: int,
             tenant: str | None = None) -> Sent:
        """Send one request and wait for every pending response."""
        assert self.load is not None
        request = Sent(verb, clock(), tenant)
        self.load.send(conn, frame, request)
        self.load.run()
        return request

    def close(self, tally: checks.Tally) -> None:
        """Stop the server gracefully; a failed drain is a failed operation."""
        if self.load is not None:
            self.load.close()
        tally.attempted += 1
        code = self.server.stop()
        if code:
            tally.fail(f"server exited with {code}; see {self.dir}/server.log")

    def kill(self) -> None:
        if self.load is not None:
            self.load.close()
        self.server.kill()


def _throwaway_setup(ctx: Context, tally: checks.Tally,
                     warmups: list[tuple[int, traffic.TenantStream]],
                     index: int) -> tuple[float, float]:
    """Start one server, measure its set-up and stop it again."""
    instance = Instance(ctx, index)
    try:
        measured = instance.open(tally, ctx.seed, warmups)
        instance.close(tally)
    except BaseException:
        instance.kill()
        raise
    shutil.rmtree(instance.dir)
    return measured


def run_pass(ctx: Context) -> PassResult:
    """One full pass of ``ctx.workload``: set-up, traffic, drain, checks."""
    tally = checks.Tally()
    if ctx.workload == "tenant_mix":
        plan = traffic.mix_plan(ctx.seed, ctx.seconds)
        streams = plan.streams
        warmups = [(1, stream) for stream in streams[:plan.initial]]
    else:
        plan = None
        streams = traffic.bulk_streams(ctx.seconds)
        warmups = list(enumerate(streams))
    setups = [_throwaway_setup(ctx, tally, warmups, index)
              for index in range(SETUPS_BEFORE - 1)]
    instance = Instance(ctx, SETUPS_BEFORE - 1)
    try:
        setups.append(instance.open(tally, ctx.seed, warmups))
        if plan is None:
            phase = _bulk(ctx, instance, streams, tally)
        else:
            phase = _mix(ctx, instance, plan, tally)
        sent_keys = sum(stream.sizes[0] for __, stream in warmups)
        sent_keys += phase.pop("keys")
        deterministic = _final_checks(ctx, instance, streams, tally, sent_keys)
        peak_rss = instance.server.peak_rss_mb()
        instance.close(tally)
    except BaseException:
        instance.kill()
        raise
    setups += [_throwaway_setup(ctx, tally, warmups, SETUPS_BEFORE + index)
               for index in range(SETUPS_AFTER)]
    generations = sorted(glob.glob(os.path.join(instance.checkpoints, "ckpt-*")))
    deterministic["engine.recovery.generation_bytes"] = float(
        os.path.getsize(generations[-1]) if generations else -1
    )
    latency = phase["latency"]
    metrics = {
        "server_cpu_s": phase["server_cpu_s"],
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(cpu for cpu, __ in setups),
        "ingest_mkeys_s": phase["ingest_mkeys_s"],
        "estimate_p50_us": latency["estimate"]["p50"],
        "estimate_p90_us": latency["estimate"]["p90"],
        "record_p50_ms": latency["record"]["p50"],
        "checkpoint_ms": latency["checkpoint"]["p50"],
    }
    spans = []
    facts: dict = {}
    if instance.spans is not None:
        spans = [instance.spans]
        with open(instance.spans + ".json") as handle:
            facts = json.load(handle)
    latency["setup"] = {"cpu_s": [cpu for cpu, __ in setups],
                        "wall_s": [wall for __, wall in setups]}
    return PassResult(metrics, latency, phase["lateness"], deterministic,
                      tally, spans, facts)


def _latencies(requests: list[Sent]) -> dict[str, dict]:
    """Per verb: ``done - due`` percentiles (ms for record and checkpoint,
    us for the rest) with sample counts."""
    by_verb: dict[str, list[float]] = {}
    for request in requests:
        by_verb.setdefault(traffic.VERB_NAMES[request.verb], []).append(
            request.done - request.due)
    return {
        verb: measure.summary(values, 1e3 if verb in ("record", "checkpoint")
                              else 1e6)
        for verb, values in by_verb.items()
    }


def _open_loop(ctx: Context, instance: Instance,
               schedule: list[traffic.Request],
               streams: dict[str, traffic.TenantStream],
               tally: checks.Tally) -> list[Sent]:
    """Send every request of ``schedule`` at its due time; returns them."""
    from repro.wire import decode_sketch

    load = instance.load
    assert load is not None
    encoders = {
        traffic.ESTIMATE: traffic.encode_estimate,
        traffic.EXPORT: traffic.encode_export,
        traffic.STATS: lambda tenant: traffic.encode_stats(),
        traffic.CHECKPOINT: lambda tenant: traffic.encode_checkpoint(),
    }
    items = []
    for request in schedule:
        if request.verb == traffic.RECORD:
            stream = streams[request.tenant]
            frame = stream.record(ctx.seed, request.frame)
            keys = stream.sizes[request.frame]
        else:
            frame = encoders[request.verb](request.tenant)
            keys = 0
        items.append((request.due, request.conn, frame,
                      Sent(request.verb, 0.0, request.tenant, keys,
                           request.frame)))
    start = clock() + LEAD

    def on_done(conn: int, request: Sent) -> None:
        if tally.response(request) and request.verb == traffic.EXPORT:
            try:
                decode_sketch(traffic.decode_export(request.payload))
            except ValueError as error:
                tally.fail(f"export {request.tenant}: does not decode "
                           f"({error})")

    load.run([(start + due, conn, frame, sent)
                for due, conn, frame, sent in items],
               on_done=on_done, deadline=schedule[-1].due + 60.0)
    return [item[3] for item in items]


def _bulk(ctx: Context, instance: Instance,
          streams: list[traffic.TenantStream], tally: checks.Tally) -> dict:
    """Closed-loop ingest, one connection per tenant, then the probes.

    ``ingest_mkeys_s`` and ``server_cpu_s`` cover the bulk frames, from
    the first of them sent to the ack of the CHECKPOINT that drains
    them. The probes then read both tenants at a fixed rate, and after
    that time CHECKPOINTs alone: that is where this workload's ESTIMATE
    and CHECKPOINT latencies come from.
    """
    load = instance.load
    assert load is not None
    next_frame = [1] * len(streams)
    records: list[Sent] = []

    def send_next(conn: int) -> None:
        stream = streams[conn]
        frame = next_frame[conn]
        if frame >= stream.frames:
            return
        next_frame[conn] += 1
        payload = stream.record(ctx.seed, frame)
        request = Sent(traffic.RECORD, clock(), stream.name,
                       stream.sizes[frame], frame)
        records.append(request)
        load.send(conn, payload, request)

    def on_done(conn: int, request: Sent) -> None:
        tally.response(request)
        send_next(conn)

    cpu = instance.server.cpu_seconds()
    for __ in range(BULK_WINDOW):
        for conn in range(len(streams)):
            send_next(conn)
    load.run(on_done=on_done, deadline=150.0)
    drain = instance.call(0, traffic.encode_checkpoint(), traffic.CHECKPOINT)
    tally.response(drain)
    cpu = instance.server.cpu_seconds() - cpu
    keys = sum(request.keys for request in records)
    probe = _open_loop(
        ctx, instance,
        traffic.bulk_probe(ctx.seed, [stream.name for stream in streams]),
        {}, tally)
    return {
        "keys": keys,
        "server_cpu_s": cpu,
        "ingest_mkeys_s": keys / (drain.done - records[0].sent) / 1e6,
        "latency": _latencies(records + probe),
        "lateness": measure.summary([r.sent - r.due for r in probe], 1e6),
    }


def _mix(ctx: Context, instance: Instance, plan: traffic.MixPlan,
         tally: checks.Tally) -> dict:
    """The open-loop tenant mix: every request sent at its due time.

    ``ingest_mkeys_s`` is the scheduled RECORD keys over the time from
    the first of them sent to the ack of the CHECKPOINT that drains them.
    """
    cpu = instance.server.cpu_seconds()
    sent = _open_loop(ctx, instance, plan.schedule,
                      {stream.name: stream for stream in plan.streams}, tally)
    drain = instance.call(1, traffic.encode_checkpoint(), traffic.CHECKPOINT)
    tally.response(drain)
    cpu = instance.server.cpu_seconds() - cpu
    records = [request for request in sent if request.verb == traffic.RECORD]
    keys = sum(request.keys for request in records)
    return {
        "keys": keys,
        "server_cpu_s": cpu,
        "ingest_mkeys_s": keys / (drain.done - records[0].sent) / 1e6,
        "latency": _latencies(sent),
        "lateness": measure.summary([r.sent - r.due for r in sent], 1e6),
    }


def _final_checks(ctx: Context, instance: Instance,
                  streams: list[traffic.TenantStream], tally: checks.Tally,
                  sent_keys: int) -> dict[str, float]:
    """STATS accounting, then each tenant's ESTIMATE and EXPORT."""
    load = instance.load
    assert load is not None
    stats = instance.call(1, traffic.encode_stats(), traffic.STATS)
    if tally.response(stats):
        tally.stats(json.loads(stats.payload), sent_keys)
    pairs = []
    for stream in streams:
        estimate = Sent(traffic.ESTIMATE, clock(), stream.name)
        export = Sent(traffic.EXPORT, clock(), stream.name)
        load.send(1, traffic.encode_estimate(stream.name), estimate)
        load.send(1, traffic.encode_export(stream.name), export)
        pairs.append((stream, estimate, export))
    load.run()
    results = []
    for stream, estimate, export in pairs:
        answered = [tally.response(estimate), tally.response(export)]
        if all(answered):
            results.append(checks.TenantResult(
                stream, traffic.decode_f64(estimate.payload),
                traffic.decode_export(export.payload)))
    return checks.check_tenants(tally, ctx.seed, results)
