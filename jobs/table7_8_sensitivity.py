"""spark-submit entrypoint for the Appendix A sensitivity analyses:
Table 7 ((c, m) runtime grid), Table 8 ((c, m) memory overhead), the
§8.5 Uncompressed/J-NULL/Vanilla comparison, and the Fig 12 k sweep.

Usage: spark-submit jobs/table7_8_sensitivity.py [sf]
"""
import sys

from pyspark.sql import SparkSession

from repro.bench.sensitivity import k_sweep, table7, table7_extremes, table8
from repro.graphs.datasets import wiki_like


def run(spark: SparkSession, sf: float = 0.5) -> None:
    t7 = table7(sf=sf)
    print("Table 7 — runtime (ms) per (c, m) and non-NULL rho")
    print(
        t7.pivot_table(index="rho", columns=["c", "m"], values="ms")
        .round(2)
        .to_string()
    )
    print()
    print("§8.5 scheme comparison at rho=50 (Vanilla sampled+scaled):")
    print(table7_extremes(sf=sf).round(2).to_string())
    print()
    t8 = table8(sf=sf)
    print("Table 8 — overhead bytes of bit strings + prefix sums per (c, m)")
    print(t8.round(3).to_string(index=False))
    print()
    print("Fig 12 (as a table) — k sweep on WIKI 1-hop forward")
    print(k_sweep(wiki_like(sf=8 * sf)).to_string(index=False))


if __name__ == "__main__":
    session = SparkSession.builder.appName("table7-8").getOrCreate()
    run(session, float(sys.argv[1]) if len(sys.argv) > 1 else 0.5)
    session.stop()
