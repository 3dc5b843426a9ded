"""BENCHMARK.json and perfbench.spec name the same workloads and metrics."""
import json
from pathlib import Path

from perfbench.spec import END_TO_END, WORKLOADS, per_layer_metrics

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_end_to_end_match():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCH["end_to_end"]
    ] == END_TO_END
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert "setup_s" in names
    setup_bound = next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in BENCH["end_to_end"]) <= 0.25


def test_per_layer_match():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (n, u, b) for n, u, b, _ in per_layer_metrics()
    ]
    assert len(BENCH["per_layer"]) <= 128


def test_command_and_paths():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
