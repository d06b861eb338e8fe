"""The one class registry, and the by-name estimator factory.

Every class a serialized container may hold has one entry here, keyed
by class name, together with the innermost container that accepts it:

- ``"shard"``: a :class:`~repro.engine.shards.ShardPool` shard, and so
  also a wire frame or a checkpoint. Every estimator with a declared
  state (:mod:`repro.estimators.state`) registers itself at this level
  when its class is defined.
- ``"wire"``: a wire frame (:mod:`repro.wire`) or a checkpoint; the
  ShardPool registers here.
- ``"checkpoint"``: a checkpoint file only; the serving layer's
  ``TenantRegistry`` registers here.

:func:`sketch_registry` imports every module that registers a class
before it reads the table, so a process can decode any frame or
checkpoint whatever it imported before.

:func:`make_estimator` builds an estimator by its display ``name`` with
the class's own sizing rule, ``for_workload``.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Callable, TypeVar

if TYPE_CHECKING:
    from repro.estimators.base import CardinalityEstimator

__all__ = ["ALL_ESTIMATORS", "SCOPES", "make_estimator", "register", "sketch_registry"]

#: Containers, innermost first: each accepts every class registered at
#: its own level or an inner one.
SCOPES = ("shard", "wire", "checkpoint")

#: Display names of everything :func:`make_estimator` builds, in the
#: experiment tables' column order. (Refined HLL is excluded: it needs a
#: labelled calibration stream, the online impracticality the paper
#: describes.)
ALL_ESTIMATORS = (
    "Bitmap", "MRB", "FM", "LogLog", "SuperLogLog",
    "HLL", "HLL++", "HLL-TailC", "HLL-TailC+", "KMV", "SMB",
)

#: Every module whose import registers a class. A module that adds a
#: ``@register`` or a declared ``state`` belongs here;
#: tests/test_startup.py fails when one is missing.
_REGISTERING_MODULES = (
    "repro.estimators",
    "repro.core.smb",
    "repro.engine.shards",
    "repro.serve.tenants",
)

_ENTRIES: dict[str, tuple[type[Any], int]] = {}

_C = TypeVar("_C", bound=type)


def register(scope: str) -> Callable[[_C], _C]:
    """Class decorator: register a class for ``scope`` and every outer one."""
    level = SCOPES.index(scope)

    def decorate(cls: _C) -> _C:
        _ENTRIES[cls.__name__] = (cls, level)
        return cls

    return decorate


def sketch_registry(scope: str = "shard") -> dict[str, type[Any]]:
    """Class-name → class map of everything ``scope`` accepts."""
    for module in _REGISTERING_MODULES:
        importlib.import_module(module)  # a dict lookup once loaded
    level = SCOPES.index(scope)
    return {name: cls for name, (cls, at) in _ENTRIES.items() if at <= level}


def make_estimator(
    name: str,
    memory_bits: int,
    expected_cardinality: int = 1_000_000,
    seed: int = 0,
) -> CardinalityEstimator:
    """Build an estimator by display name with the paper's sizing rules."""
    if name not in ALL_ESTIMATORS:
        raise ValueError(
            f"unknown estimator {name!r}; choose from {ALL_ESTIMATORS}"
        )
    by_name = {cls.name: cls for cls in sketch_registry().values()}
    estimator: CardinalityEstimator = by_name[name].for_workload(
        memory_bits, expected_cardinality, seed=seed
    )
    return estimator
