"""Stateful model-based testing of the serving layer.

A hypothesis RuleBasedStateMachine drives one in-process
:class:`~repro.serve.server.CardinalityServer` through
:meth:`~repro.serve.server.CardinalityServer.handle`, on one event
loop, with arbitrary interleavings of RECORD, ESTIMATE, STATS,
CHECKPOINT, EXPORT, MERGE_IN and stop-then-resume over three tenants.
The oracle is a local :class:`~repro.serve.tenants.TenantRegistry` fed
the same keys:

- every ESTIMATE, EXPORT and MERGE_IN answer equals the oracle's bit
  for bit, and so does the server's whole registry image after every
  step and after every resume;
- STATS shows ``submitted == applied + dropped`` with nothing dropped;
- each CHECKPOINT names the next generation, and stop's final
  generation is the one a resume restores.

The estimator is drawn from SMB and HLL. SMB is not mergeable
(``SelfMorphingBitmap.merge`` raises ``NotImplementedError``), so an SMB
MERGE_IN must answer ``E_INCOMPATIBLE`` and change nothing; HLL folds.
"""

import asyncio
import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.engine.recovery import CheckpointManager, RetryPolicy
from repro.serve import protocol
from repro.serve.server import CardinalityServer
from repro.serve.tenants import TenantConfig, TenantRegistry
from repro.wire import encode_sketch

TENANTS = st.sampled_from(["a", "b", "c"])
KEYS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300)


def config_for(estimator: str) -> TenantConfig:
    # Small pools, so SMB morphs through several rounds within a run.
    return TenantConfig(
        estimator=estimator,
        memory_bits=512,
        shards=2,
        design_cardinality=20_000,
        seed=11,
    )


class ServeMachine(RuleBasedStateMachine):
    """Drives a server's verbs against a local registry oracle."""

    @initialize(
        estimator=st.sampled_from(["SMB", "HLL"]),
        chunk_size=st.sampled_from([64, 8192]),
    )
    def setup(self, estimator, chunk_size):
        """Start a checkpointing server and an empty oracle."""
        self.config = config_for(estimator)
        self.chunk_size = chunk_size
        self.directory = tempfile.mkdtemp(prefix="serve-machine-")
        self.loop = asyncio.new_event_loop()
        self.oracle = TenantRegistry(self.config)
        self.generation = 0
        self.server = self._start(resume=False)

    def _start(self, resume: bool) -> CardinalityServer:
        server = CardinalityServer(
            self.config,
            checkpoint_manager=CheckpointManager(
                self.directory,
                sync_directory=False,
                orphan_grace=0.0,
                retry=RetryPolicy(
                    max_attempts=1, base_delay=0.0, sleep=lambda s: None
                ),
            ),
            resume=resume,
            chunk_size=self.chunk_size,
        )
        self.loop.run_until_complete(server.start("127.0.0.1", 0))
        self.submitted = 0  # record counters restart with the process
        return server

    def _ask(self, request):
        body = protocol.encode_request(request)[4:]
        framed = self.loop.run_until_complete(self.server.handle(body))
        return protocol.decode_response(framed[4:])

    def _export_of(self, tenant: str) -> bytes:
        pool = self.oracle.pools.get(tenant)
        return encode_sketch(
            pool if pool is not None else self.config.build_pool(tenant)
        )

    @rule(tenant=TENANTS, keys=KEYS)
    def record(self, tenant, keys):
        """A RECORD is acked with its size, once applied."""
        batch = np.asarray(keys, dtype=np.uint64)
        assert self._ask(protocol.Record(tenant, batch)) == protocol.RecordOk(
            batch.size
        )
        self.oracle.record_many(tenant, batch)
        self.submitted += batch.size

    @rule(tenant=TENANTS)
    def estimate(self, tenant):
        """ESTIMATE reads the oracle's estimate exactly."""
        assert self._ask(protocol.Estimate(tenant)) == protocol.EstimateOk(
            self.oracle.estimate(tenant)
        )

    @rule()
    def stats(self):
        """Every submitted key is applied: none in flight, none dropped."""
        answer = self._ask(protocol.Stats())
        assert isinstance(answer, protocol.StatsOk)
        records = answer.document["records"]
        assert records["submitted"] == self.submitted
        assert records["submitted"] == records["applied"] + records["dropped"]
        assert records["dropped"] == 0
        assert answer.document["checkpoint"]["generation"] == self.generation

    @rule()
    def checkpoint(self):
        """Each CHECKPOINT writes the next generation."""
        self.generation += 1
        assert self._ask(protocol.Checkpoint()) == protocol.CheckpointOk(
            self.generation
        )

    @rule(tenant=TENANTS)
    def export(self, tenant):
        """EXPORT is the oracle pool's frame, bit for bit."""
        assert self._ask(protocol.Export(tenant)) == protocol.ExportOk(
            self._export_of(tenant)
        )

    @rule(tenant=TENANTS, keys=KEYS)
    def merge_in(self, tenant, keys):
        """HLL folds a donor pool in; SMB refuses it untouched."""
        donor = self.config.build_pool(tenant)
        donor.record_many(np.asarray(keys, dtype=np.uint64))
        answer = self._ask(protocol.MergeIn(tenant, encode_sketch(donor)))
        pool = self.oracle.pool(tenant)  # MERGE_IN registers its tenant
        if self.config.estimator == "SMB":
            assert isinstance(answer, protocol.Error)
            assert answer.code == protocol.E_INCOMPATIBLE
        else:
            pool.merge(donor)
            assert answer == protocol.MergeInOk(pool.query())

    @rule()
    def stop_then_resume(self):
        """stop() writes the final generation; a resume restores it."""
        final = self.loop.run_until_complete(self.server.stop())
        self.generation += 1
        assert final.generation == self.generation and final.meta["final"]
        refused = self._ask(protocol.Record("a", np.arange(3, dtype=np.uint64)))
        assert isinstance(refused, protocol.Error)
        assert refused.code == protocol.E_SHUTTING_DOWN
        self.server = self._start(resume=True)
        assert self.server.last_generation == self.generation
        assert self.server.registry.to_bytes() == self.oracle.to_bytes()

    @invariant()
    def registry_matches_oracle(self):
        """Between verbs the server holds exactly the oracle's state."""
        if hasattr(self, "server"):
            assert self.server.registry.to_bytes() == self.oracle.to_bytes()

    def teardown(self):
        """Stop the server and release the loop and the directory."""
        if hasattr(self, "server"):
            try:
                self.loop.run_until_complete(self.server.stop())
            finally:
                self.loop.run_until_complete(
                    self.loop.shutdown_default_executor()
                )
                self.loop.close()
                shutil.rmtree(self.directory, ignore_errors=True)


TestServeMachine = ServeMachine.TestCase
# Cap the steps, not the examples: CI's profile runs more examples.
TestServeMachine.settings = settings(stateful_step_count=20)
