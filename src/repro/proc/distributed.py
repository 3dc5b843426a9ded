"""Spark-parallel LBP (the "single-node parallelizable" deployment).

The LBP pipeline is embarrassingly parallel over the initial Scan: each
Spark partition runs the identical pipeline over a contiguous range of
scan-vertex offsets against a broadcast :class:`GraphStore` (morsel-
style parallelism). count(*) results are summed; projections come back
as a Spark DataFrame assembled from the per-partition pandas frames.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.proc.lbp import run_lbp
from repro.proc.plan import QuerySpec, compile_logical, ScanStep
from repro.storage.graph_store import GraphStore


def scan_ranges(n: int, n_parts: int) -> list[tuple[int, int]]:
    """Split [0, n) into ~equal contiguous ranges."""
    n_parts = max(1, min(n_parts, n))
    step = -(-n // n_parts)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def run_distributed(
    spark: SparkSession,
    store: GraphStore,
    spec: QuerySpec,
    *,
    n_parts: int | None = None,
):
    """Run ``spec`` over Spark partitions; returns int (count(*)) or a
    Spark DataFrame (projections)."""
    first = compile_logical(spec)[0]
    if not isinstance(first, ScanStep):
        raise TypeError(f"plan must start with a scan, not {first!r}")
    n = store.n_vertices[first.label]
    sc = spark.sparkContext
    parts = scan_ranges(n, n_parts or sc.defaultParallelism)
    b_store = sc.broadcast(store)
    b_spec = sc.broadcast(spec)

    def work(rng):
        return run_lbp(b_store.value, b_spec.value, scan_range=rng)

    rdd = sc.parallelize(parts, len(parts)).map(work)
    if spec.returns == "count":
        return int(rdd.sum())
    frames = [f for f in rdd.collect() if len(f)]
    names = [f"{v}_{p}" for v, p in spec.returns]
    if not frames:
        schema = ", ".join(f"{c} string" for c in names)
        return spark.createDataFrame([], schema=schema)
    pdf = pd.concat(frames, ignore_index=True)
    return spark.createDataFrame(pdf)


def run_distributed_df(
    spark: SparkSession, store: GraphStore, spec: QuerySpec, **kw
) -> DataFrame:
    """Always a Spark DataFrame (count(*) → one row ``cnt``)."""
    res = run_distributed(spark, store, spec, **kw)
    if isinstance(res, DataFrame):
        return res
    return spark.createDataFrame(pd.DataFrame({"cnt": [res]}))
