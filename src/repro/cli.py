"""Command-line interface: the ``repro`` command and its subcommands.

Usage::

    python -m repro list                      # show all experiments
    python -m repro table4                    # recording throughput
    python -m repro fig6 --json fig6.json     # machine-readable output
    python -m repro all --json results.json
    REPRO_SCALE=1.0 python -m repro table4    # paper-scale workloads
    python -m repro engine --shards 8         # sharded ingestion engine
    python -m repro stats metrics.json        # render a metrics snapshot
    python -m repro serve --port 9464         # network cardinality server
    python -m repro agg --tenant f A:9464 B:9464  # cross-node aggregate

Each subcommand has its own argument surface in its own module, and a
process imports only the module of the subcommand it runs: ``repro
serve`` never loads the experiment harness. Anything else is an
experiment id, run by :mod:`repro.bench.experiments` (DESIGN.md §3 has
the index, EXPERIMENTS.md the paper-vs-measured record).
"""

from __future__ import annotations

import importlib
import os
import sys

#: Subcommand -> (module, entry point taking the remaining arguments).
_SUBCOMMANDS = {
    "engine": ("repro.engine.cli", "engine_main"),
    "analyze": ("repro.analysis.cli", "analyze_main"),
    "stats": ("repro.obs.cli", "stats_main"),
    "serve": ("repro.serve.cli", "serve_main"),
    "agg": ("repro.agg.cli", "agg_main"),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if "numpy" not in sys.modules:
        # Nothing in repro calls BLAS, yet OpenBLAS starts a spinning
        # worker thread per extra core when numpy loads. Ask for one
        # thread before numpy is imported; an operator's own setting
        # wins. Once numpy is loaded (in-process callers such as
        # tests) the variable could no longer take effect.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if (
        argv
        and argv[0] == "serve"
        and "ssl" not in sys.modules
        and "asyncio" not in sys.modules
    ):
        # The frame protocol is plaintext, yet asyncio imports ssl in
        # case a caller asks for TLS, which maps OpenSSL's libssl and
        # libcrypto: about 4 MiB of a booted server's resident set.
        # asyncio treats ssl as optional, so make it unimportable
        # before the server loads asyncio. A process that loaded
        # either module first (tests, embedders) keeps its own.
        sys.modules["ssl"] = None  # type: ignore[assignment]
    if argv and argv[0] in _SUBCOMMANDS:
        module, entry = _SUBCOMMANDS[argv[0]]
        command = getattr(importlib.import_module(module), entry)
        return command(argv[1:])
    from repro.bench.experiments import experiments_main

    return experiments_main(argv)


if __name__ == "__main__":
    sys.exit(main())
