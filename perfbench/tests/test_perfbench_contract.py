"""BENCHMARK.json and the runner agree on every metric name and unit."""

import json
from pathlib import Path

import run
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_metric_tables_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
