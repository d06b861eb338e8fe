"""Documentation consistency: the docs must match the code they describe."""

import re
from pathlib import Path

import pytest

import repro
from repro.bench.experiments import EXPERIMENTS

ROOT = Path(__file__).parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignDoc:
    def test_every_design_experiment_id_exists(self):
        design = _read("DESIGN.md")
        # Experiment ids appear as `table4`, `fig5a`, `ablate-t`, ...
        mentioned = set(re.findall(r"`((?:table|fig|ablate|extended)[\w-]*)`", design))
        mentioned = {
            name.rstrip("-") for name in mentioned if not name.endswith(".py")
        }
        registry = set(EXPERIMENTS)
        unknown = {
            name for name in mentioned
            if name in registry or name in {"table", "fig"}
        }
        # Every CLI experiment must be indexed in DESIGN.md.
        missing = registry - mentioned
        assert not missing, f"experiments not documented in DESIGN.md: {missing}"

    def test_design_mentions_every_source_module(self):
        design = _read("DESIGN.md")
        src = ROOT / "src" / "repro"
        for path in src.rglob("*.py"):
            if path.name.startswith("_"):
                continue
            assert path.name in design, f"{path.name} missing from DESIGN.md"


class TestReadme:
    def test_mentions_all_public_estimators(self):
        readme = _read("README.md")
        for name in (
            "SelfMorphingBitmap", "MultiResolutionBitmap", "FMSketch",
            "HyperLogLogPlusPlus", "HyperLogLogTailCut", "KMinValues",
        ):
            assert name in readme, name

    def test_quickstart_snippet_runs(self):
        readme = _read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks, "README must contain python examples"
        snippet = blocks[0]
        namespace: dict[str, object] = {}
        exec(snippet, namespace)  # noqa: S102 - our own README

    def test_examples_listed_match_disk(self):
        readme = _read("README.md")
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in readme, f"{path.name} not listed in README"


class TestExperimentsDoc:
    def test_covers_every_paper_artifact(self):
        experiments = _read("EXPERIMENTS.md")
        for artifact in (
            "Table I", "Table II", "Table III", "Table IV", "Table V",
            "Table VI", "Table VII", "Table VIII", "Table IX", "Table X",
            "Figure 5a", "Figure 5b", "Figures 6", "Figure 8", "Figure 9",
        ):
            assert artifact in experiments, artifact

    def test_records_known_deviations(self):
        assert "Known deviations" in _read("EXPERIMENTS.md")


class TestVersionConsistency:
    def test_pyproject_matches_package(self):
        pyproject = _read("pyproject.toml")
        assert f'version = "{repro.__version__}"' in pyproject
