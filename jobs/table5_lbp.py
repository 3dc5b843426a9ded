"""spark-submit entrypoint for Table 5 (LBP vs Volcano, §8.6).

Usage: spark-submit jobs/table5_lbp.py [scale]
"""
import sys

from pyspark.sql import SparkSession

from repro.bench.lbp_vs_volcano import format_table5, table5
from repro.graphs.datasets import flickr_like, ldbc_lite, wiki_like


def run(spark: SparkSession, scale: float = 1.0, hops=(1, 2, 3)) -> None:
    datasets = {
        "LDBC": ldbc_lite(sf=0.08 * scale),
        "WIKI": wiki_like(sf=0.02 * scale),
        "FLICKR": flickr_like(sf=0.05 * scale),
    }
    print(format_table5(table5(datasets, hops=hops, repeats=2)))


if __name__ == "__main__":
    session = SparkSession.builder.appName("table5").getOrCreate()
    run(session, float(sys.argv[1]) if len(sys.argv) > 1 else 1.0)
    session.stop()
