"""BENCHMARK.json names the workloads and per-layer metrics this harness emits."""

import json
from pathlib import Path

import layers
import workloads as wl

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_fixture_checkpoint_matches_its_digests():
    assert wl.fixture_problem() is None
