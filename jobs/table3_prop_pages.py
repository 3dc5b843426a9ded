"""spark-submit entrypoint for Table 3 (property pages vs edge columns).

Usage: spark-submit jobs/table3_prop_pages.py [scale]
where scale multiplies the default bench scale factors.
"""
import sys

from pyspark.sql import SparkSession

from repro.bench.prop_pages import format_table3, table3
from repro.graphs.datasets import flickr_like, ldbc_lite, wiki_like


def run(spark: SparkSession, scale: float = 1.0) -> None:
    datasets = {
        "LDBC": ldbc_lite(sf=2.0 * scale),
        "WIKI": wiki_like(sf=4.0 * scale),
        "FLICKR": flickr_like(sf=4.0 * scale),
    }
    print(format_table3(table3(datasets, repeats=3)))


if __name__ == "__main__":
    session = SparkSession.builder.appName("table3").getOrCreate()
    run(session, float(sys.argv[1]) if len(sys.argv) > 1 else 1.0)
    session.stop()
