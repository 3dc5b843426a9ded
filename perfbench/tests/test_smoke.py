"""Tiny-scale runs of every workload: all answers agree with DuckDB and
the emitted metric names are exactly those of BENCHMARK.json."""
import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import sparkenv
from perfbench.harness import Bench
from perfbench.spec import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
TINY_SF = {"ldbc_interactive": 0.02, "job_star": 0.02, "khop_paths": 0.05,
           "spark_offload": 0.02}


def tiny(name, **kw):
    return dataclasses.replace(WORKLOADS[name], sf=TINY_SF[name], setups=2, **kw)


def run(name, trace, tmp_path, rate):
    if name == "spark_offload":
        sparkenv.configure(ROOT / "src", tmp_path)
    bench = Bench(name, 7, 1.0, tmp_path, wl=tiny(name, rate=rate))
    try:
        return (bench.run_traced() if trace else bench.run_untraced())["result"]
    finally:
        bench.close()


def check(res, units):
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    json.dumps(res, allow_nan=False)


@pytest.mark.parametrize("name", ["ldbc_interactive", "job_star", "khop_paths"])
def test_untraced_smoke(name, tmp_path):
    res = run(name, 0, tmp_path, rate=40)
    check(res, E2E)
    assert res["metrics"]["success_rate"]["value"] == 1.0


def test_traced_smoke(tmp_path):
    res = run("ldbc_interactive", 1, tmp_path, rate=20)
    check(res, LAYER)
    m = res["metrics"]
    assert m["proc.op.PhysScan.calls"]["value"] > 0
    assert m["oracle.mismatches"]["value"] == 0


def test_spark_smoke(tmp_path):
    res = run("spark_offload", 1, tmp_path, rate=4)
    check(res, LAYER)
    m = res["metrics"]
    assert m["distributed.job_s"]["value"] > 0
    assert m["distributed.overhead_ratio"]["value"] > 1
