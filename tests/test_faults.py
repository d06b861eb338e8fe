"""The fault-injection harness itself: arming, firing, determinism."""

import ast
import re
import threading
from pathlib import Path

import pytest

from repro.testing import faults
from repro.testing.faults import (
    CRASH_EXIT_CODE,
    FAILPOINTS,
    FaultPlan,
    InjectedFault,
    NullFaultPlan,
    arm_from_env,
    fault_plan,
    fire,
    get_plan,
    set_plan,
)

FP = "checkpoint.pre-fsync"  # any catalog member works for these tests


class TestDisarmedDefault:
    def test_default_plan_is_null(self):
        assert isinstance(get_plan(), NullFaultPlan)
        assert get_plan().armed is False

    def test_fire_is_a_noop_when_disarmed(self):
        for name in FAILPOINTS:
            fire(name)  # must not raise, must not count

    def test_null_plan_counts_nothing(self):
        fire(FP)
        assert get_plan().hits(FP) == 0


class TestFaultPlan:
    def test_context_manager_installs_and_restores(self):
        before = get_plan()
        with fault_plan() as plan:
            assert get_plan() is plan
            assert plan.armed is True
        assert get_plan() is before

    def test_restores_even_on_error(self):
        before = get_plan()
        with pytest.raises(RuntimeError):
            with fault_plan() as plan:
                plan.arm(FP)
                fire(FP)
        assert get_plan() is before

    def test_unknown_failpoint_rejected_at_arm(self):
        with fault_plan() as plan:
            with pytest.raises(ValueError, match="unknown failpoint"):
                plan.arm("checkpoint.typo")

    def test_unknown_failpoint_rejected_at_fire(self):
        with fault_plan():
            with pytest.raises(ValueError, match="unknown failpoint"):
                fire("not-a-failpoint")

    def test_default_error_is_injected_fault(self):
        with fault_plan() as plan:
            plan.arm(FP)
            with pytest.raises(InjectedFault) as excinfo:
                fire(FP)
            assert excinfo.value.failpoint == FP
            assert excinfo.value.transient is False

    def test_transient_flag_carried(self):
        with fault_plan() as plan:
            plan.arm(FP, transient=True)
            with pytest.raises(InjectedFault) as excinfo:
                fire(FP)
            assert excinfo.value.transient is True

    def test_custom_error_instance(self):
        boom = OSError(28, "disk full")
        with fault_plan() as plan:
            plan.arm(FP, error=boom)
            with pytest.raises(OSError) as excinfo:
                fire(FP)
            assert excinfo.value is boom

    def test_after_skips_then_times_bounds(self):
        with fault_plan() as plan:
            plan.arm(FP, after=2, times=2)
            fire(FP)  # hit 0: silent
            fire(FP)  # hit 1: silent
            with pytest.raises(InjectedFault):
                fire(FP)  # hit 2: fires
            with pytest.raises(InjectedFault):
                fire(FP)  # hit 3: fires
            fire(FP)  # hit 4: exhausted, silent again
            assert plan.hits(FP) == 5

    def test_hits_count_even_when_not_armed(self):
        with fault_plan() as plan:
            fire(FP)
            fire(FP)
            assert plan.hits(FP) == 2

    def test_disarm_keeps_counts(self):
        with fault_plan() as plan:
            plan.arm(FP)
            with pytest.raises(InjectedFault):
                fire(FP)
            plan.disarm(FP)
            fire(FP)
            assert plan.hits(FP) == 2

    def test_action_escape_hatch(self):
        seen = []
        with fault_plan() as plan:
            plan.arm(FP, action=lambda: seen.append(1))
            fire(FP)
            assert seen == [1]

    def test_exclusive_modes_rejected(self):
        with fault_plan() as plan:
            with pytest.raises(ValueError, match="exclusive"):
                plan.arm(FP, error=OSError(), crash=True)

    def test_bad_window_rejected(self):
        with fault_plan() as plan:
            with pytest.raises(ValueError):
                plan.arm(FP, after=-1)
            with pytest.raises(ValueError):
                plan.arm(FP, times=0)

    def test_thread_safe_counting(self):
        with fault_plan() as plan:
            threads = [
                threading.Thread(
                    target=lambda: [fire(FP) for __ in range(100)]
                )
                for __ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert plan.hits(FP) == 400

    def test_set_plan_type_checked(self):
        with pytest.raises(TypeError):
            set_plan(object())


class TestCrashMode:
    def test_crash_invokes_hard_exit(self, monkeypatch):
        codes = []
        monkeypatch.setattr(faults.os, "_exit", codes.append)
        with fault_plan() as plan:
            plan.arm(FP, crash=True)
            fire(FP)
        assert codes == [CRASH_EXIT_CODE]


class TestArmFromEnv:
    def teardown_method(self):
        set_plan(NullFaultPlan())

    def test_empty_spec_is_none(self):
        assert arm_from_env(None) is None
        assert arm_from_env("") is None

    def test_error_mode_with_ordinal(self):
        plan = arm_from_env(f"{FP}:error@2")
        assert isinstance(plan, FaultPlan)
        assert get_plan() is plan
        fire(FP)  # ordinal 1: silent
        with pytest.raises(InjectedFault):
            fire(FP)  # ordinal 2: fires

    def test_transient_mode(self):
        arm_from_env(f"{FP}:transient")
        with pytest.raises(InjectedFault) as excinfo:
            fire(FP)
        assert excinfo.value.transient is True

    def test_multiple_items(self):
        plan = arm_from_env(
            f"{FP}:error@1, pipeline.worker-apply:error@1"
        )
        assert plan.hits(FP) == 0
        with pytest.raises(InjectedFault):
            fire("pipeline.worker-apply")

    def test_crash_mode_parses(self, monkeypatch):
        codes = []
        monkeypatch.setattr(faults.os, "_exit", codes.append)
        arm_from_env(f"{FP}:crash@1")
        fire(FP)
        assert codes == [CRASH_EXIT_CODE]

    @pytest.mark.parametrize(
        "spec",
        [
            "garbage",
            f"{FP}:explode@1",
            f"{FP}:error@0",
            f"{FP}:error@x",
            "unknown.failpoint:error@1",
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            arm_from_env(spec)


ROOT = Path(__file__).parent.parent


def _fired_names():
    """Every name passed to ``fire(...)`` under ``src/repro``."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "fire"
            ):
                (name,) = node.args
                assert isinstance(name, ast.Constant), (
                    f"{path}:{node.lineno} fires a computed name"
                )
                names.add(name.value)
    return names


def _documented_names():
    """The rows of the failpoint catalog table in docs/recovery.md."""
    doc = (ROOT / "docs" / "recovery.md").read_text(encoding="utf-8")
    catalog = doc.split("## Failpoint catalog", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([a-z.-]+)` \|", catalog, re.MULTILINE))


class TestCatalog:
    def test_catalog_is_exactly_the_fired_names(self):
        assert _fired_names() == FAILPOINTS

    def test_catalog_is_exactly_the_documented_rows(self):
        assert _documented_names() == FAILPOINTS
