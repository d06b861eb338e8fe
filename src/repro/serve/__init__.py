"""``repro.serve`` — the network serving layer.

The first subsystem above the process boundary: an ``asyncio`` TCP
server (:mod:`~repro.serve.server`) speaking a binary length-prefixed
frame protocol (:mod:`~repro.serve.protocol`) over a multi-tenant
estimator registry (:mod:`~repro.serve.tenants`), with a pipelining
client (:mod:`~repro.serve.client`), a load generator that doubles as
the concurrency test harness (:mod:`~repro.serve.loadgen`), and the
``repro serve`` command (:mod:`~repro.serve.cli`). Protocol spec and
deployment notes live in ``docs/serving.md``.

Names resolve on first use (PEP 562): ``repro serve`` loads the server
without the client, and ``from repro.serve import ServeClient`` loads
the client without the server.
"""

import importlib
from typing import Any

#: Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.serve.client": ("RetryingClient", "ServeClient", "ServeError"),
        "repro.serve.protocol": ("FrameDecoder", "ProtocolError"),
        "repro.serve.server": ("CardinalityServer",),
        "repro.serve.tenants": (
            "TenantConfig", "TenantLimitError", "TenantRegistry",
        ),
    }.items()
    for name in names
}

__all__ = [
    "CardinalityServer",
    "FrameDecoder",
    "ProtocolError",
    "RetryingClient",
    "ServeClient",
    "ServeError",
    "TenantConfig",
    "TenantLimitError",
    "TenantRegistry",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
