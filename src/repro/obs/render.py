"""Exposition: Prometheus text rendering and JSON snapshots.

Two interchangeable views of a :class:`~repro.obs.metrics.MetricsRegistry`:

- :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, one ``name{labels} value`` line per
  sample, histograms expanded into ``_bucket``/``_sum``/``_count``
  series) for scraping or eyeballing;
- :func:`snapshot` / :func:`write_snapshot` — a JSON document of the
  same data, suitable for diffing runs and machine consumption, and
  :func:`validate_metrics_snapshot`, which checks such a document
  (``repro stats`` runs it on every file it reads).

:func:`parse_prometheus` parses the text format back into a
``sample-name → value`` map; the round-trip (snapshot → text → parse)
is asserted by ``tests/test_obs.py``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "parse_prometheus",
    "render_prometheus",
    "snapshot",
    "validate_metrics_snapshot",
    "write_snapshot",
]

#: Identifies the producer inside JSON snapshots.
GENERATOR = "repro.obs"


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')
    )


def _label_suffix(labels: Mapping[str, str]) -> str:
    """Render ``{k="v",...}`` (empty string when there are no labels)."""
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _merge_labels(
    labels: Mapping[str, str], extra: Mapping[str, str]
) -> dict[str, str]:
    merged = dict(labels)
    merged.update(extra)
    return merged


def snapshot(
    registry: MetricsRegistry,
    run: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Freeze a registry into a JSON-serializable snapshot document.

    The document carries a ``generated_by`` marker, the full metric
    dump (see :meth:`~repro.obs.metrics.MetricsRegistry.collect` for
    the per-family shape) and, optionally, a flat ``run`` section of
    run-level facts (e.g. the engine CLI's ``records_submitted``).
    """
    document: dict[str, object] = {
        "generated_by": GENERATOR,
        "metrics": registry.collect(),
    }
    if run is not None:
        document["run"] = dict(run)
    return document


def write_snapshot(
    registry: MetricsRegistry,
    path: str | os.PathLike,
    run: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Write :func:`snapshot` to ``path`` atomically; returns the document.

    The JSON goes to a sibling temp file first and is moved into place
    with ``os.replace``, so a concurrent reader (or the periodic
    snapshotter overwriting an earlier tick) never sees a torn file.
    """
    document = snapshot(registry, run=run)
    path = os.fspath(path)
    temp_path = f"{path}.tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(temp_path, path)
    return document


#: The family types :meth:`MetricsRegistry.collect` emits.
_METRIC_KINDS = ("counter", "gauge", "histogram")


def validate_metrics_snapshot(document: object) -> list[str]:
    """Problems with a :func:`snapshot` document; empty when it is valid.

    Checks the shape :func:`snapshot` writes: the ``generated_by``
    marker, a non-empty ``metrics`` list whose samples carry the payload
    of their family's ``type`` and exactly its labels, cumulative
    histogram buckets ending at ``"+Inf"``, and an optional flat ``run``
    of numbers. Each problem names the path of the offending value.
    """
    if not isinstance(document, dict):
        return [f"snapshot: expected an object, got {document!r}"]
    errors: list[str] = []
    if document.get("generated_by") != GENERATOR:
        errors.append(
            f"snapshot.generated_by: expected {GENERATOR!r}, got "
            f"{document.get('generated_by')!r}"
        )
    if "metrics" not in document:
        errors.append("snapshot: missing 'metrics'")
    elif not isinstance(document["metrics"], list) or not document["metrics"]:
        errors.append("snapshot.metrics: expected a non-empty list")
    else:
        for i, family in enumerate(document["metrics"]):
            _check_metric_family(family, f"snapshot.metrics[{i}]", errors)
    run = document.get("run")
    if run is not None:
        if not isinstance(run, dict) or not run:
            errors.append("snapshot.run: expected a non-empty object")
        else:
            for key, value in run.items():
                _check_number(value, f"snapshot.run.{key}", errors)
    for key in sorted(document.keys() - {"generated_by", "metrics", "run"}):
        errors.append(f"snapshot: unexpected key {key!r}")
    return errors


def _check_number(
    value: object, path: str, errors: list[str], count: bool = False
) -> None:
    """A finite number; with ``count``, also non-negative."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        errors.append(f"{path}: expected a finite number, got {value!r}")
    elif count and value < 0:
        errors.append(f"{path}: expected a non-negative number, got {value!r}")


def _check_metric_family(family: object, path: str, errors: list[str]) -> None:
    """Validate one family entry of a metrics snapshot."""
    if not isinstance(family, dict):
        errors.append(f"{path}: expected an object, got {family!r}")
        return
    for key in sorted(
        {"name", "type", "help", "label_names", "samples"} - family.keys()
    ):
        errors.append(f"{path}: missing {key!r}")
    name = family.get("name")
    if not isinstance(name, str) or not name.strip():
        errors.append(f"{path}.name: expected a name, got {name!r}")
    if not isinstance(family.get("help"), str):
        errors.append(f"{path}.help: expected a string")
    kind = family.get("type")
    if kind not in _METRIC_KINDS:
        errors.append(
            f"{path}.type: expected one of {_METRIC_KINDS}, got {kind!r}"
        )
        return
    label_names = family.get("label_names")
    if not isinstance(label_names, list) or any(
        not isinstance(label, str) for label in label_names
    ):
        errors.append(f"{path}.label_names: expected a list of strings")
        label_names = []
    samples = family.get("samples")
    if not isinstance(samples, list):
        errors.append(f"{path}.samples: expected a list")
        return
    for i, sample in enumerate(samples):
        _check_metric_sample(
            sample, kind, label_names, f"{path}.samples[{i}]", errors
        )


def _check_metric_sample(
    sample: object,
    kind: str,
    label_names: list[str],
    path: str,
    errors: list[str],
) -> None:
    """Validate one sample: labels plus the kind-dependent payload."""
    if not isinstance(sample, dict):
        errors.append(f"{path}: expected an object, got {sample!r}")
        return
    labels = sample.get("labels")
    if (
        not isinstance(labels, dict)
        or set(labels) != set(label_names)
        or any(not isinstance(v, str) for v in labels.values())
    ):
        errors.append(
            f"{path}.labels: expected string labels for {tuple(label_names)}"
        )
    if kind != "histogram":
        _check_number(sample.get("value"), f"{path}.value", errors)
        return
    _check_number(sample.get("count"), f"{path}.count", errors, count=True)
    for key in ("sum", "p50", "p90", "p99"):
        _check_number(sample.get(key), f"{path}.{key}", errors)
    buckets = sample.get("buckets")
    if not isinstance(buckets, list) or not buckets:
        errors.append(f"{path}.buckets: expected a non-empty list")
        return
    previous = -1.0
    for j, bucket in enumerate(buckets):
        bpath = f"{path}.buckets[{j}]"
        if (
            not isinstance(bucket, list)
            or len(bucket) != 2
            or not isinstance(bucket[0], str)
        ):
            errors.append(f"{bpath}: expected a [bound, cumulative] pair")
            continue
        _check_number(bucket[1], f"{bpath}[1]", errors, count=True)
        if isinstance(bucket[1], (int, float)) and not isinstance(
            bucket[1], bool
        ):
            if bucket[1] < previous:
                errors.append(f"{bpath}: cumulative count decreased")
            previous = bucket[1]
    last = buckets[-1]
    if isinstance(last, list) and last and last[0] != "+Inf":
        errors.append(f"{path}.buckets: last bound must be '+Inf'")


def render_prometheus(
    source: MetricsRegistry | Mapping[str, object],
) -> str:
    """Render a registry (or a :func:`snapshot` document) as Prometheus text.

    Counters render with the conventional ``_total``-style single line
    per sample; histograms expand into cumulative ``_bucket{le=...}``
    series plus ``_sum`` and ``_count``. Quantile summaries (p50 etc.)
    are a JSON-snapshot convenience and are *not* exposed in the text
    format — Prometheus derives quantiles from the buckets.
    """
    if isinstance(source, MetricsRegistry):
        metrics = source.collect()
    else:
        metrics = source["metrics"]  # type: ignore[index]
    lines: list[str] = []
    for family in metrics:
        name = family["name"]
        lines.append(f"# HELP {name} {family.get('help', '')}".rstrip())
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if family["type"] == "histogram":
                for bound, count in sample["buckets"]:
                    suffix = _label_suffix(
                        _merge_labels(labels, {"le": bound})
                    )
                    lines.append(f"{name}_bucket{suffix} {count}")
                lines.append(
                    f"{name}_sum{_label_suffix(labels)} {sample['sum']}"
                )
                lines.append(
                    f"{name}_count{_label_suffix(labels)} {sample['count']}"
                )
            else:
                lines.append(
                    f"{name}{_label_suffix(labels)} {sample['value']}"
                )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse Prometheus text back into ``'name{labels}' → value``.

    Supports exactly what :func:`render_prometheus` emits (comments,
    ``name`` / ``name{k="v",...}`` sample lines); used by the snapshot
    round-trip test and the ``repro stats --format prom`` path's
    self-check. Label order is preserved from the input line, so a
    render → parse → compare round-trip is key-stable.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, __, value = line.rpartition(" ")
        if not key:
            raise ValueError(f"malformed exposition line: {line!r}")
        samples[key] = float(value)
    return samples
