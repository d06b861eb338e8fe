"""Test-support substrate shipped with the library.

:mod:`repro.testing.faults` is the deterministic fault-injection
harness behind the crash-recovery suite: production code declares named
*failpoints* at its crash windows (checkpoint fsync/replace, pipeline
worker-apply) and tests arm them with
errors or hard process crashes. Disarmed failpoints follow the same
zero-cost policy as :mod:`repro.obs` — the default plan is a shared
no-op whose ``fire`` is a single empty method call.

This package is part of the installed distribution (not the test tree)
on purpose: the failpoints live inside production modules, and external
consumers embedding the engine can reuse the harness to qualify their
own durability story.
"""

from repro.testing.faults import (
    FAILPOINTS,
    FaultPlan,
    InjectedFault,
    arm_from_env,
    fault_plan,
    fire,
    get_plan,
    set_plan,
)

__all__ = [
    "FAILPOINTS",
    "FaultPlan",
    "InjectedFault",
    "arm_from_env",
    "fault_plan",
    "fire",
    "get_plan",
    "set_plan",
]
