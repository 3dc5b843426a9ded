"""spark-submit entrypoint for Table 2 (memory reduction, §8.2).

Usage: spark-submit jobs/table2_memory.py [sf]
"""
import sys

from pyspark.sql import SparkSession

from repro.bench.memory import format_table2, table2
from repro.graphs.datasets import imdb_lite, ldbc_lite


def run(spark: SparkSession, sf: float = 0.1) -> None:
    print(format_table2(table2(ldbc_lite(sf=sf)), f"ldbc_lite sf={sf}"))
    print()
    print(format_table2(table2(imdb_lite(sf=sf)), f"imdb_lite sf={sf}"))


if __name__ == "__main__":
    session = SparkSession.builder.appName("table2").getOrCreate()
    run(session, float(sys.argv[1]) if len(sys.argv) > 1 else 0.1)
    session.stop()
