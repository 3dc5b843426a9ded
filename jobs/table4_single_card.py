"""spark-submit entrypoint for Table 4 (vertex columns vs CSR for
single-cardinality edges, §8.4).

Usage: spark-submit jobs/table4_single_card.py [sf]
"""
import sys

from pyspark.sql import SparkSession

from repro.bench.single_card import format_table4, table4
from repro.graphs.datasets import ldbc_lite


def run(spark: SparkSession, sf: float = 1.0) -> None:
    print(format_table4(table4(ldbc_lite(sf=sf), repeats=3)))


if __name__ == "__main__":
    session = SparkSession.builder.appName("table4").getOrCreate()
    run(session, float(sys.argv[1]) if len(sys.argv) > 1 else 1.0)
    session.stop()
