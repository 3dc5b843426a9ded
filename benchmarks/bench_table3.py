"""Table 3 benchmark: property pages vs edge columns (§8.3)."""
import pytest

from repro.bench.prop_pages import format_table3, table3
from repro.bench.record import record
from repro.graphs.datasets import flickr_like, ldbc_lite, wiki_like


def test_table3_prop_pages(benchmark):
    datasets = {
        "LDBC": ldbc_lite(sf=2.0),
        "WIKI": wiki_like(sf=3.0),
        "FLICKR": flickr_like(sf=3.0),
    }

    def run():
        return table3(datasets, repeats=2)

    df = benchmark.pedantic(run, rounds=1, iterations=1)
    record("table3", format_table3(df))
    # Shape check: forward plans are faster under property pages.
    for ds in datasets:
        sub = df[(df.dataset == ds) & (df.plan == "P_F") & (df.hops == "1H")]
        ce = sub[sub.config == "COL_E"]["seconds"].iloc[0]
        pp = sub[sub.config == "PAGE_P"]["seconds"].iloc[0]
        assert ce > pp, f"{ds}: PAGE_P should win the forward 1-hop"
