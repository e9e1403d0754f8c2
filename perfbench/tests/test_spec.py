"""BENCHMARK.json is generated from spec.py and stays within the benchmark contract."""

import json
import re
from pathlib import Path

from perfbench import spec, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_every_workload_is_implemented():
    assert set(workloads.WORKLOADS) == {*spec.WORKLOADS, *spec.EXTRA_WORKLOADS}


def test_spec_within_the_contract():
    data = spec.benchmark_json()
    assert list(data) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert 2 <= len(data["workloads"]) <= 8
    assert 1 <= len(data["end_to_end"]) <= 16
    assert 1 <= len(data["per_layer"]) <= 128
    assert 1 <= data["run_seconds"] <= 60
    metrics = data["end_to_end"] + data["per_layer"]
    names = [workload["name"] for workload in data["workloads"]] + [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    bounds = {metric["name"]: metric["bound"] for metric in data["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    setup = next(metric for metric in data["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"], setup["bound"]) == ("s", "lower", max(bounds.values()))
    assert len(json.dumps(data)) <= 64 * 1024
