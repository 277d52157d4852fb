"""BENCHMARK.json lists exactly the metrics run.py prints, with their units."""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402


def _manifest():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_end_to_end_metrics_match():
    manifest = _manifest()
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == run.END_TO_END
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_per_layer_metrics_match():
    manifest = _manifest()
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == layers.PER_LAYER


def test_workloads_match():
    names = [w["name"] for w in _manifest()["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS)
