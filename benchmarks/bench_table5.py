"""Table 5 benchmark: LBP vs Volcano on k-hop FILTER / COUNT(*) (§8.6)."""
import pytest

from repro.bench.lbp_vs_volcano import format_table5, table5
from repro.bench.record import record
from repro.graphs.datasets import flickr_like, ldbc_lite, wiki_like


def test_table5_lbp_vs_volcano(benchmark):
    datasets = {
        "LDBC": ldbc_lite(sf=0.08),
        "WIKI": wiki_like(sf=0.02),
        "FLICKR": flickr_like(sf=0.05),
    }

    def run():
        return table5(datasets, hops=(1, 2, 3), repeats=1)

    df = benchmark.pedantic(run, rounds=1, iterations=1)
    record("table5", format_table5(df))
    # Shape: GF-CL wins everywhere beyond 1 hop, COUNT(*) speedups exceed
    # FILTER speedups at 3 hops (factorized counting), and speedups grow
    # with hops.
    multi = df[df.hops >= 2]
    assert (multi["speedup"] > 1).all()
    for ds in datasets:
        f3 = df[(df.dataset == ds) & (df.workload == "FILTER") & (df.hops == 3)]
        c3 = df[(df.dataset == ds) & (df.workload == "COUNT(*)") & (df.hops == 3)]
        assert c3["speedup"].iloc[0] > f3["speedup"].iloc[0]
