"""Determinism: all randomness flows from explicit seeds.

Every accuracy number this repository reports (Figs. 6-9, Tables VIII-X,
the Theorem 3 acceptance tests) is an average over seeded runs; the
hypothesis contract suite replays identical streams into scalar and
vectorized paths and demands bit-for-bit equal state. Both collapse if
any code under ``src/repro`` draws entropy from global mutable state or
the wall clock: results stop being reproducible, and CI flakes become
undiagnosable.

Rules
-----

- ``determinism.wallclock`` — no ``time.time``/``time.time_ns`` or
  ``datetime.now``/``utcnow``/``today``. Monotonic *duration* clocks
  (``perf_counter``, ``monotonic``, ``process_time``) stay allowed:
  they measure throughput and cannot leak into estimates.
- ``determinism.global-random`` — the stdlib ``random`` module is
  process-global mutable state; it is banned outright.
- ``determinism.legacy-np-random`` — the legacy ``np.random.*``
  free-function API (``np.random.seed``/``rand``/``randint``/...)
  shares one hidden global ``RandomState``. Only the Generator API
  (``np.random.default_rng``, ``np.random.Generator``,
  ``np.random.SeedSequence`` and the bit generators) is allowed.
- ``determinism.unseeded-rng`` — ``np.random.default_rng()`` called
  with no argument (or a literal ``None``) seeds from OS entropy;
  the seed must arrive as an explicit parameter.
- ``determinism.clock-into-metric`` — monotonic clock readings
  (``perf_counter``/``monotonic``/``process_time``) may flow into
  histogram ``.observe(...)`` calls *only*. Feeding a duration into a
  counter/gauge (``.inc``/``.dec``/``.set``/``.add``) would make the
  counting metrics of a seeded run nondeterministic, breaking snapshot
  comparisons; ``repro.obs`` keeps all timing confined to histograms.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Diagnostic,
    ModuleInfo,
    Rule,
    dotted_name,
    register_checker,
)

_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}

#: Monotonic clock functions: allowed for durations, but their readings
#: may only ever land in histogram ``.observe`` calls.
_MONOTONIC_CLOCKS = {
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "thread_time",
    "thread_time_ns",
}

#: Metric mutators that must stay deterministic (``.observe`` is the
#: one sanctioned sink for clock-derived values).
_COUNTING_MUTATORS = {"inc", "dec", "set", "add"}

#: Members of ``np.random`` that belong to the explicit Generator API.
_GENERATOR_API = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}


@register_checker
class DeterminismChecker(Checker):
    """No wall-clock entropy and no global-state RNG under src/repro."""

    name = "determinism"
    rules = (
        Rule(
            id="determinism.wallclock",
            summary="wall-clock time used as an input",
            hint=(
                "pass timestamps in explicitly; use time.perf_counter() "
                "for durations"
            ),
        ),
        Rule(
            id="determinism.global-random",
            summary="stdlib random module (global mutable state)",
            hint="use numpy.random.default_rng(seed) threaded from a parameter",
        ),
        Rule(
            id="determinism.legacy-np-random",
            summary="legacy np.random global-state API",
            hint=(
                "use the Generator API: np.random.default_rng(seed) and "
                "Generator methods"
            ),
        ),
        Rule(
            id="determinism.unseeded-rng",
            summary="default_rng() seeded from OS entropy",
            hint="accept a seed parameter and pass it to default_rng(seed)",
        ),
        Rule(
            id="determinism.clock-into-metric",
            summary="clock reading fed into a counter/gauge",
            hint=(
                "durations belong in histograms: route clock-derived "
                "values through .observe(), never .inc/.dec/.set/.add"
            ),
        ),
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        random_aliases = self._random_aliases(module)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                yield from self._check_reference(module, node, random_aliases)
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_clock_into_metric(module, node)

    # ------------------------------------------------------------------
    # Import tracking
    # ------------------------------------------------------------------
    def _random_aliases(self, module: ModuleInfo) -> set[str]:
        """Local names bound to the stdlib ``random`` module or members."""
        aliases: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    aliases.add(alias.asname or alias.name)
        return aliases

    # ------------------------------------------------------------------
    # Reference checks
    # ------------------------------------------------------------------
    def _check_reference(
        self,
        module: ModuleInfo,
        node: ast.AST,
        random_aliases: set[str],
    ) -> Iterator[Diagnostic]:
        name = dotted_name(node)
        if not name:
            return
        tail = ".".join(name.split(".")[-2:])
        if tail in _WALLCLOCK:
            yield self.diagnostic(
                module,
                node,
                "determinism.wallclock",
                f"{name} reads the wall clock",
            )
            return
        head = name.split(".")[0]
        if head in random_aliases and isinstance(node, ast.Attribute):
            yield self.diagnostic(
                module,
                node,
                "determinism.global-random",
                f"{name} uses the stdlib global RNG",
            )
            return
        if isinstance(node, ast.Attribute):
            parts = name.split(".")
            # Match both `np.random.X` and `numpy.random.X`.
            if len(parts) >= 3 and parts[-2] == "random" and parts[-3] in (
                "np",
                "numpy",
            ):
                member = parts[-1]
                if member not in _GENERATOR_API:
                    yield self.diagnostic(
                        module,
                        node,
                        "determinism.legacy-np-random",
                        f"{name} uses the legacy global-state numpy RNG",
                    )

    # ------------------------------------------------------------------
    # Clock-taint tracking (determinism.clock-into-metric)
    # ------------------------------------------------------------------
    def _check_clock_into_metric(
        self,
        module: ModuleInfo,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Diagnostic]:
        """Flag counter/gauge mutators consuming clock-derived values.

        Per-function taint over-approximation: any name ever assigned
        from an expression containing a monotonic clock call (or an
        already-tainted name) is tainted for the whole function body;
        passing a tainted expression to ``.inc``/``.dec``/``.set``/
        ``.add`` is flagged. ``.observe`` is the sanctioned sink.
        """
        tainted: set[str] = set()
        # Iterate to a fixed point so chains (`b = a - t0` after
        # `a = perf_counter()`) taint regardless of walk order.
        changed = True
        while changed:
            changed = False
            for node in ast.walk(function):
                if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    continue
                if node.value is None or not self._clock_tainted(node.value, tainted):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id not in tainted:
                        tainted.add(target.id)
                        changed = True
        for node in ast.walk(function):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _COUNTING_MUTATORS
            ):
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            if any(self._clock_tainted(arg, tainted) for arg in arguments):
                yield self.diagnostic(
                    module,
                    node,
                    "determinism.clock-into-metric",
                    f"clock-derived value passed to .{node.func.attr}() in "
                    f"{function.name}(); only .observe() may consume "
                    "durations",
                )

    def _clock_tainted(self, expression: ast.AST, tainted: set[str]) -> bool:
        """True if the expression reads a monotonic clock or a tainted name."""
        for node in ast.walk(expression):
            if isinstance(node, ast.Name) and node.id in tainted:
                return True
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name and name.split(".")[-1] in _MONOTONIC_CLOCKS:
                    return True
        return False

    def _check_call(
        self, module: ModuleInfo, node: ast.Call
    ) -> Iterator[Diagnostic]:
        name = dotted_name(node.func)
        if not name.endswith("default_rng"):
            return
        unseeded = not node.args and not node.keywords
        if node.args and isinstance(node.args[0], ast.Constant):
            unseeded = unseeded or node.args[0].value is None
        for keyword in node.keywords:
            if keyword.arg == "seed" and isinstance(keyword.value, ast.Constant):
                unseeded = keyword.value.value is None
        if unseeded:
            yield self.diagnostic(
                module,
                node,
                "determinism.unseeded-rng",
                "default_rng() without an explicit seed draws OS entropy",
            )
