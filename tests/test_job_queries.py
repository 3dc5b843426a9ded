"""Adapted JOB queries 1a–33a (Table 6c): oracle-checked on LBP; a
sample on the Volcano baselines."""
import pytest

from repro.bench.queries_job import JOB_QUERIES
from repro.oracle import assert_equivalent
from repro.util import pandas_to_spark
from repro.proc.lbp import run_lbp, run_lbp_df
from repro.proc.plan import to_sql
from repro.proc.volcano import ColumnarAdapter, run_volcano, run_volcano_df
from repro.storage.graph_store import GraphStore, StorageConfig

_CONFIGS = {
    "gf_cl": StorageConfig.gf_cl(),
    "edge_columns": StorageConfig(edge_prop_storage="edge_columns"),
    "null_k2": StorageConfig(null_compress=True, k=2),
}


@pytest.mark.parametrize("spec", JOB_QUERIES, ids=lambda s: s.name)
def test_job_lbp_vs_oracle(spark, imdb, imdb_store, spec):
    got = run_lbp_df(imdb_store, spec)
    sql = to_sql(spec, imdb.schema)
    assert_equivalent(pandas_to_spark(spark, got), sql, **imdb.sql_tables())


@pytest.mark.parametrize(
    "spec",
    [q for q in JOB_QUERIES if q.name in ("1a", "7a", "11a", "20a", "29a", "33a")],
    ids=lambda s: s.name,
)
def test_job_volcano_vs_oracle(spark, imdb, imdb_store, spec):
    got = run_volcano_df(ColumnarAdapter(imdb_store), spec)
    sql = to_sql(spec, imdb.schema)
    assert_equivalent(pandas_to_spark(spark, got), sql, **imdb.sql_tables())


@pytest.mark.parametrize("config", sorted(_CONFIGS))
def test_job_lbp_matches_volcano(imdb, config):
    """Every JOB count under vectorized predicates (LBP) equals the
    tuple-at-a-time ``scalar_op`` evaluation of Volcano."""
    store = GraphStore.build(imdb, _CONFIGS[config])
    adapter = ColumnarAdapter(store)
    diff = {}
    for spec in JOB_QUERIES:
        got, want = run_lbp(store, spec), run_volcano(adapter, spec)
        if got != want:
            diff[spec.name] = (got, want)
    assert diff == {}


def test_query_set_complete():
    assert len(JOB_QUERIES) == 33
    assert [q.name for q in JOB_QUERIES] == [f"{i}a" for i in range(1, 34)]


def test_all_job_queries_are_counts():
    assert all(q.returns == "count" for q in JOB_QUERIES)


def test_star_joins_share_center():
    # JOB queries are stars around `t` (except 33a, around t1/t2).
    for q in JOB_QUERIES:
        if q.name == "33a":
            continue
        assert all("t" in (e.src, e.dst) or e.src == "n" for e in q.edges), q.name
