"""Tests of the benchmark itself: span arithmetic, patch hygiene, and tiny runs of each workload."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> harness.Workload:
    return replace(harness.WORKLOADS[name], suites=1, scenes=2)


def run_tiny(name: str, trace: bool):
    return harness.run(name, 3, 0.0, trace, scale=tiny(name), setup_repeats=1, min_episodes=0)


def test_self_times_on_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > a [5, 9] > c [6, 7];  root > c [9.5, 10]
    name = np.array(["root", "a", "b", "a", "c", "c"], dtype=object)
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 9.5])
    end = np.array([10.0, 4.0, 3.0, 9.0, 7.0, 10.0])
    parent = np.array([-1, 0, 1, 0, 3, 0])
    own = spans.self_times(name, start, end, parent)
    assert own == pytest.approx({"root": 10 - 3 - 4 - 0.5, "a": (3 - 1) + (4 - 1), "b": 1, "c": 1.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_records_parent_and_root():
    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + Box.inner(x)

        @staticmethod
        def inner(x):
            return x + 1

    tracer = spans.Tracer()
    with tracer:
        tracer.span(Box, "outer", "outer")
        tracer.span(Box, "inner", "inner", count=lambda c, args, r: c.__setitem__("calls", c["calls"] + 1))
        assert Box.outer(1) == 4
    s = tracer.spans()
    assert s["name"].tolist() == ["outer", "inner", "inner"]
    assert s["parent"].tolist() == [-1, 0, 0]
    assert s["root"].tolist() == [0, 0, 0]
    assert np.all(s["end"] >= s["start"])
    assert tracer.counts["calls"] == 2
    assert isinstance(vars(Box)["outer"], staticmethod)  # the class attribute itself is back


def _check_metrics(result: dict, kind: str) -> dict[str, float]:
    """Every metric BENCHMARK.json declares, finite, with its unit and a direction."""
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    out = harness.labelled(result["metrics"], kind == "per_layer")
    assert list(out) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        assert m["better"] in ("higher", "lower")
        assert out[m["name"]]["unit"] == m["unit"]
        value = out[m["name"]]["value"]
        assert isinstance(value, (float, int)) and math.isfinite(value), m["name"]
    return result["metrics"]


@pytest.mark.parametrize("name", ["desk", "coco", "bench"])
def test_untraced_smoke_run_reports_every_end_to_end_metric(name):
    result, detail = run_tiny(name, trace=False)
    _check_metrics(result, "end_to_end")
    assert not detail["env_differs_from_baseline"] or "calib_ms" in detail["env_differs_from_baseline"]


@pytest.mark.parametrize("name", ["desk", "coco", "bench"])
def test_traced_run_reports_every_layer_metric_and_restores_the_program(name):
    probe = spans.Tracer()
    harness.install_tracer(probe)
    targets = [(owner, attr) for owner, attr, _ in probe._saved]
    probe.restore()
    originals = [getattr(owner, attr) for owner, attr in targets]

    result, _ = run_tiny(name, trace=True)

    assert all(getattr(o, a) is f for (o, a), f in zip(targets, originals))
    metrics = _check_metrics(result, "per_layer")
    # every span inside an episode belongs to one of these layers, so their
    # self times add up to the traced episode time
    inside = sum(metrics[f"{layer}.self_ms"] for layer in ("scoring", "grad", "adapt", "geometry", "cluster"))
    if name == "bench":
        inside -= metrics["adapt.run_baseline.self_ms"]
    assert inside == pytest.approx(metrics["trace.episode_ms"], rel=1e-6)


def test_benchmark_json_follows_the_declared_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in SPEC["end_to_end"])
